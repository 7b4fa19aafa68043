"""Laguerre polynomials by upward recurrence, and Poisson weights.

Up to degree 5000 the recurrence errs by under 1.3e-13 of the envelope e^{x/2} at dyadic
x >= 1/16, where 2k+1-x is exact, and by 2.2e-12 at the fig4 beta^2, 6.3e-11 at x = 1e-3 and
3.4e-10 at x = 1e-6 (``test_laguerre_sequence_against_mpmath`` holds these with 2x margin).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError
from .params import _is_integer, _is_real

MAX_LAGUERRE_DEGREE = 10**6
DEFAULT_TAIL_TOL = 1e-12


def laguerre_sequence(n_max: int, x: float) -> np.ndarray:
    """All of L_0(x) .. L_{n_max}(x) from one upward recurrence pass.

    Uses (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}.
    """
    if not (_is_integer(n_max) and 0 <= n_max <= MAX_LAGUERRE_DEGREE):
        raise DomainError(f"degree must be an integer in [0, {MAX_LAGUERRE_DEGREE}], got {n_max!r}")
    if not (_is_real(x) and x >= 0.0):
        raise DomainError(f"argument must be a real number >= 0, got {x!r}")
    n_max, x = int(n_max), float(x)
    values = [1.0, 1.0 - x]
    for k in range(1, n_max):
        values.append(((2.0 * k + 1.0 - x) * values[k] - k * values[k - 1]) / (k + 1.0))
    return np.array(values[: n_max + 1])


def poisson_logpmf(alpha_sq: float, n_max: int) -> np.ndarray:
    """log p(N) = -alpha_sq + N log(alpha_sq) - log N! for N = 0 .. n_max.

    Computed in log space, so there is no factorial overflow for any
    practical table length; at alpha_sq == 0 the vacuum has log p(0) = 0
    and every other entry is -inf.
    """
    ns = np.arange(n_max + 1, dtype=float)
    if alpha_sq == 0.0:
        return np.where(ns == 0.0, 0.0, -np.inf)
    log_p = -alpha_sq + ns * math.log(alpha_sq)
    log_p -= np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)])
    return log_p


def poisson_logweights(alpha_sq: float, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Log-space Poisson photon-number weights log p(N) of a coherent state, from
    :func:`poisson_logpmf`, for N = 0 .. n_cut: n_cut is the first N whose cumulative
    mass reaches 1 - tail_tol, and the array's size is n_cut + 1.

    The captured mass sum_N p(N) is at least 1 - tail_tol, up to 2e-15, for alpha_sq < 1227.3.
    Past that the terms of log p(N) cancel from ever larger magnitudes; at tail_tol = 1e-12,
    1 - sum_N p(N) first exceeds 1.1e-12 at 1323.1 and reaches 1.60e-12 at 1841.2 (alpha_sq
    in steps of 0.05), 5.0e-12 below 5300 and 1.58e-11 at 2e4 (in steps of 10).
    """
    if not (_is_real(alpha_sq) and alpha_sq >= 0.0):
        raise DomainError(f"alpha_sq must be a real number >= 0, got {alpha_sq!r}")
    if not (_is_real(tail_tol) and 0.0 < tail_tol <= 1e-6):
        raise DomainError(f"tail_tol must be a real number in (0, 1e-6], got {tail_tol!r}")
    alpha_sq, tail_tol = float(alpha_sq), float(tail_tol)
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    if n_hi > 2_000_000:
        raise CapacityError("Poisson table would exceed 2e6 entries")
    log_p = poisson_logpmf(alpha_sq, n_hi)
    hit = np.nonzero(np.cumsum(np.exp(log_p)) >= 1.0 - tail_tol)[0]
    # the mass at n_hi is below 1e-34 for every alpha_sq under the ceiling, far below float64
    # resolution near 1: a table that misses 1 - tail_tol here misses it at any larger n_hi
    cut = int(hit[0]) if hit.size else n_hi
    # a copy, so that the result does not keep the whole trial array alive
    return log_p[: cut + 1].copy()
