"""Built-in problems: example1 and the constants of integrator's two networks,
whose alpha and slow rate also tune continuum's line."""

from __future__ import annotations

import numpy as np

from .lowrank import LowRankProblem

SQRT2 = float(np.sqrt(2.0))


def example1() -> LowRankProblem:
    """Four-dimensional benchmark with a fully explicit decomposition.

    The base matrix couples two stable 2x2 blocks; the two rank-one terms
    place -rho1 at entry (1,4) and -rho2 at entry (2,3).  Closed forms:
      D  = (1+lam)(2+lam)^2(3+lam)
      P1 = P2 = lam^2 + (4-sqrt(2)) lam + 4 - 2 sqrt(2)
      Q  = -1
    """
    M = np.array(
        [
            [-2.0, -1.0, 0.0, 0.0],
            [-1.0, -2.0, 0.0, 0.0],
            [SQRT2, 1.0, -2.0, 0.0],
            [1.0, SQRT2, 0.0, -2.0],
        ]
    )
    e = np.eye(4)
    return LowRankProblem(M, f1=-e[0], g1=e[3], f2=-e[1], g2=e[2])


# closed-form decomposition of example1, ascending coefficients
EXAMPLE1_D = np.array([12.0, 28.0, 23.0, 8.0, 1.0])
EXAMPLE1_P = np.array([4.0 - 2.0 * SQRT2, 4.0 - SQRT2, 1.0])
EXAMPLE1_Q = np.array([-1.0])

# parameters shared by the two eight-dimensional line-attractor networks,
# whose readout rows are integrator.READOUTS; continuum.ContinuumSpec takes
# alpha and the slow rate from here too
AG_ALPHA = 200.0
AG_LAMBDA1 = 5.0
AG_N = 6
