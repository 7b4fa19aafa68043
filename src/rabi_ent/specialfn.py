"""Numerically stable special-function kernels.

Laguerre polynomials via the upward three-term recurrence, displaced
number-state overlaps, and log-space Poisson photon weights.  The recurrence
is stable for the small arguments that occur here (x = beta^2 or 4*beta^2,
at most a few), where cancellation is mild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

MAX_LAGUERRE_DEGREE = 10**6
DEFAULT_TAIL_TOL = 1e-12


def _check_degree(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"degree must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if n > MAX_LAGUERRE_DEGREE:
        raise DomainError(f"degree {n} exceeds the practical bound {MAX_LAGUERRE_DEGREE}")
    return n


def laguerre_sequence(n_max: int, x: float) -> np.ndarray:
    """All of L_0(x) .. L_{n_max}(x) from one upward recurrence pass.

    Uses (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}.
    """
    n_max = _check_degree(n_max)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"argument must be finite and >= 0, got {x}")
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
    d = float(d)
    if not math.isfinite(d):
        raise DomainError(f"displacement must be finite, got {d}")
    d2 = d * d
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
    alpha_sq = float(alpha_sq)
    if not math.isfinite(alpha_sq) or alpha_sq < 0.0:
        raise DomainError(f"alpha_sq must be finite and >= 0, got {alpha_sq}")
    tail_tol = float(tail_tol)
    if not 0.0 < tail_tol <= 1e-6:
        raise DomainError(f"tail_tol must lie in (0, 1e-6], got {tail_tol}")
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
