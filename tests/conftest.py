"""The backend fixture, which runs a test on the compiled kernels or on the
Python loops, and the no_run fixture, which fails a test that starts a run."""
import shutil

import pytest

from invitesim import _native, ctmc


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


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test at once if it reaches an event loop: a refused input
    must raise before the run, where a missing check can hang."""
    def refuse(kernel, *args, **kwargs):
        pytest.fail(f"{kernel} started: the input should have been refused")
    monkeypatch.setattr(ctmc, "_run", refuse)
