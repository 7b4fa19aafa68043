"""Laguerre polynomials by upward recurrence, displaced number-state overlaps, Poisson weights.

Up to degree 5000 the recurrence errs by under 1.3e-13 of the envelope e^{x/2} at dyadic
x >= 1/16, where 2k+1-x is exact, and by 2.2e-12 at the fig4 beta^2, 6.3e-11 at x = 1e-3 and
3.4e-10 at x = 1e-6 (``test_laguerre_sequence_against_mpmath`` holds these with 2x margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x) for x >= 0."""
    return float(laguerre_sequence(n, x)[-1])


def displaced_overlap(n: int, d: float) -> float:
    """Diagonal overlap <n|D(d)|n> of a number state with its displaced image.

    Equals exp(-d^2/2) * L_n(d^2); even in d.
    """
    if not _is_real(d):
        raise DomainError(f"displacement must be a real number, got {d!r}")
    d2 = float(d) * float(d)
    return math.exp(-0.5 * d2) * laguerre(n, d2)


@dataclass(frozen=True)
class LogWeightTable:
    """Log-space Poisson photon-number weights of a coherent state.

    Covers N = 0 .. n_cut, where the cumulative mass reaches at least
    1 - tail_tol (up to float64 resolution, about 1e-15).
    """

    alpha_sq: float
    log_p: np.ndarray
    tail_tol: float

    @property
    def n_cut(self) -> int:
        return len(self.log_p) - 1

    def masses(self) -> np.ndarray:
        return np.exp(self.log_p)


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


def poisson_logweights(alpha_sq: float, tail_tol: float = DEFAULT_TAIL_TOL) -> LogWeightTable:
    """Poisson weights log p(N) from :func:`poisson_logpmf`.

    The table stops at the first N whose cumulative mass reaches
    1 - tail_tol.
    """
    if not (_is_real(alpha_sq) and alpha_sq >= 0.0):
        raise DomainError(f"alpha_sq must be a real number >= 0, got {alpha_sq!r}")
    if not (_is_real(tail_tol) and 0.0 < tail_tol <= 1e-6):
        raise DomainError(f"tail_tol must be a real number in (0, 1e-6], got {tail_tol!r}")
    alpha_sq, tail_tol = float(alpha_sq), float(tail_tol)
    target = 1.0 - tail_tol
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    while True:
        if n_hi > 2_000_000:
            raise CapacityError("Poisson table would exceed 2e6 entries")
        log_p = poisson_logpmf(alpha_sq, n_hi)
        cum = np.cumsum(np.exp(log_p))
        hit = np.nonzero(cum >= target)[0]
        if hit.size:
            cut = int(hit[0])
            # a copy, so that the table does not keep the whole trial array alive
            return LogWeightTable(alpha_sq, log_p[: cut + 1].copy(), tail_tol)
        if cum[-1] > cum[-2]:
            n_hi = int(1.5 * n_hi) + 10
        else:
            # increments have underflowed; this is as close to 1 as float64 gets
            return LogWeightTable(alpha_sq=alpha_sq, log_p=log_p, tail_tol=tail_tol)
