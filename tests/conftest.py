"""The backend fixture: run a test on the compiled kernels or on the Python
loops; a profile whose rate no closed form of the library computes, and
library profiles whose declared bound understates their peak."""
import shutil

import pytest

from invitesim import _native
from invitesim.params import PiecewiseConstantArrival, SinusoidArrival


class Shifted(SinusoidArrival):
    """A sinusoid whose __call__ reads the rate 0.25 time units ahead."""

    def __call__(self, t):
        return super().__call__(t + 0.25)


class LyingSinusoid(SinusoidArrival):
    def bound(self):
        return self.base  # declares less than the true peak


class LyingSteps(PiecewiseConstantArrival):
    def bound(self):
        return self.values[0]  # declares less than the true peak


def over_backends(values, ids=None):
    """(value, backend) params for parametrize(..., indirect=["backend"]).

    Each value runs on the compiled kernels under its own id (given, or its
    str) and on the Python loops under that id plus "-python".
    """
    ids = [str(v) for v in values] if ids is None else ids
    return [pytest.param(v, b, id=i if b == "c" else f"{i}-python")
            for v, i in zip(values, ids) for b in ("c", "python")]


@pytest.fixture
def backend(request, monkeypatch):
    """"c": the compiled kernels, which must build; "python": the Python loops."""
    if request.param == "python":
        monkeypatch.setattr(_native, "_lib", None)
    elif shutil.which(_native._CC) is None:
        pytest.skip("no C compiler")
    else:
        assert _native.library() is not None
    return request.param
