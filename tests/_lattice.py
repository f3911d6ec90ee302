"""The scheme-B generator on the test side: the rates and moves of the chain's
transitions out of many lattice states at once, at the constant rate lam."""
import numpy as np

from invitesim.params import ModelParams


def rate_table_b(y, x, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(rate, move) of the three scheme-B transitions out of each state (y, x).

    `y` and `x` are integer arrays of one shape S.  rate has shape S + (3,)
    and move S + (3, 2): along the last rate axis the arrival (lam*r,
    (-1, +gamma)), the acceptance (beta*x, (+1, -min(gamma, x))) and the
    feedback (eps*|y|, (0, dx)), dx being -1 when X >= 1 and Y > 0, +1 when
    X >= 1 or Y < 0, and 0 otherwise.  A rate of zero marks a disabled
    transition; the feedback keeps its positive rate at X = 0, Y > 0, where
    it is a null jump.
    """
    y, x = np.broadcast_arrays(np.asarray(y, dtype=np.int64), np.asarray(x, dtype=np.int64))
    gamma = int(params.gamma)
    rate = np.stack([np.full(y.shape, params.raw_arrival_rate), params.beta * x,
                     params.epsilon * np.abs(y)], axis=-1)
    feedback_dx = np.where(x >= 1, np.where(y > 0, -1, 1), np.where(y < 0, 1, 0))
    dy = np.broadcast_to(np.array([-1, 1, 0]), rate.shape)
    dx = np.stack([np.full(y.shape, gamma), -np.minimum(gamma, x), feedback_dx], axis=-1)
    return rate, np.stack([dy, dx], axis=-1)
