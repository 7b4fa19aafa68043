"""Laguerre polynomials by upward recurrence, and Poisson weights.

Up to degree 5000 the recurrence errs by under 1.3e-13 of the envelope e^{x/2} at dyadic
x >= 1/16, where 2k+1-x is exact, and by 2.2e-12 at the fig4 beta^2, 6.3e-11 at x = 1e-3 and
3.4e-10 at x = 1e-6 (``test_laguerre_sequence_against_mpmath`` holds these with 2x margin).
"""

from __future__ import annotations

import functools
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
    prev, last = 1.0, 1.0 - x
    values = [prev, last]
    append = values.append
    k = 1.0  # a float counter: the products and sums are those of an int k, done faster
    for _ in range(1, n_max):
        prev, last = last, ((2.0 * k + 1.0 - x) * last - k * prev) / (k + 1.0)
        append(last)
        k += 1.0
    return np.array(values[: n_max + 1])


# stirlerr(N) = log N! - (N + 1/2) log N + N - log(2 pi) / 2, exact to double for N = 1 .. 15
_STIRLERR = np.array([0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])  # fmt: skip
_ODD = np.arange(3.0, 20.0, 2.0)
_LOW_MASS = 1e-18  # the window drops the N below the first whose cumulative mass exceeds this


def poisson_logpmf(alpha_sq: float, n_max: int) -> np.ndarray:
    """log p(N) for N = 0 .. n_max of a Poisson law with mean alpha_sq, in Loader's
    saddle-point form -stirlerr(N) - bd0(N, alpha_sq) - log(2 pi N) / 2 (C. Loader, *Fast
    and Accurate Computation of Binomial Probabilities*, 2000), whose terms stay O(1) near
    the peak; log p(0) = -alpha_sq, and at alpha_sq == 0 every N > 0 has log p(N) = -inf.
    """
    ns = np.arange(n_max + 1, dtype=float)
    if alpha_sq == 0.0:
        return np.where(ns == 0.0, 0.0, -np.inf)
    stirlerr = np.empty(n_max + 1)
    stirlerr[:16] = _STIRLERR[: n_max + 1]
    big = ns[16:]
    u = 1.0 / (big * big)  # stirlerr's asymptotic series from N = 16 on
    series = 1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - u / 1188) * u) * u) * u
    np.divide(series, big, out=stirlerr[16:])
    # bd0 = N log(N / alpha_sq) + alpha_sq - N; below alpha_sq = 1 the two logs add and
    # N / alpha_sq may overflow.  Where |v| < 0.1, v = (N - a) / (N + a), its terms cancel
    # and it is summed as a series in v instead: one run of N, around alpha_sq.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(ns) - math.log(alpha_sq) if alpha_sq < 1.0 else np.log(ns / alpha_sq)
        bd0 = ns * log_ratio + (alpha_sq - ns)
    run = np.flatnonzero(np.abs(ns - alpha_sq) < 0.1 * (ns + alpha_sq))
    near = slice(run[0], run[-1] + 1) if run.size else slice(0)
    x = ns[near]
    v = (x - alpha_sq) / (x + alpha_sq)
    # terms 2 x v^(2j+1) / (2j+1), j = 1 .. 9, each below 0.1^(2j-1) of the sum, added
    # in order to (x - alpha_sq) v
    terms = np.empty((10, x.size))
    terms[0], terms[1:] = 2.0 * x * v, v * v
    np.multiply.accumulate(terms, out=terms)
    terms[1:] /= _ODD[:, None]
    terms[0] = (x - alpha_sq) * v
    bd0[near] = np.add.accumulate(terms, out=terms)[-1]
    log_p = -stirlerr - bd0
    log_p[1:] -= 0.5 * np.log(2.0 * math.pi * ns[1:])
    log_p[0] = -alpha_sq
    return log_p


def poisson_logweights(alpha_sq: float, tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[int, np.ndarray]:
    """The Poisson photon-number window of a coherent state: (n_lo, log p(N) for N = n_lo
    .. n_cut) from :func:`poisson_logpmf`.  n_cut is the first N whose cumulative mass
    reaches 1 - tail_tol, and n_lo the first whose cumulative mass exceeds 1e-18.

    The window's mass sum_N p(N) is at least 1 - tail_tol - 1e-18, up to rounding, for
    any alpha_sq under the 2e6 ceiling.  The array is read-only: the last call's table
    is kept and returned again for the same (alpha_sq, tail_tol).
    """
    if not (_is_real(alpha_sq) and alpha_sq >= 0.0):
        raise DomainError(f"alpha_sq must be a real number >= 0, got {alpha_sq!r}")
    if not (_is_real(tail_tol) and 0.0 < tail_tol <= 1e-6):
        raise DomainError(f"tail_tol must be a real number in (0, 1e-6], got {tail_tol!r}")
    return _poisson_window(float(alpha_sq), float(tail_tol))


@functools.lru_cache(maxsize=1)
def _poisson_window(alpha_sq: float, tail_tol: float) -> tuple[int, np.ndarray]:
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    if n_hi > 2_000_000:
        raise CapacityError("Poisson table would exceed 2e6 entries")
    log_p = poisson_logpmf(alpha_sq, n_hi)
    masses = np.exp(log_p)
    n_lo = int(np.searchsorted(np.cumsum(masses), _LOW_MASS, side="right"))
    # the upper tails, summed from the top: the cut is the exact first N, where a cumsum
    # from N = 0 rounds at 1 and may cut one late.  p(n_hi) < 1e-34 for every alpha_sq
    # under the ceiling, so a table that misses 1 - tail_tol misses it at any larger n_hi.
    cut = n_hi - int(np.searchsorted(np.cumsum(masses[::-1]), tail_tol, side="right"))
    log_p = log_p[n_lo : cut + 1].copy()  # a copy: the trial array is not kept alive
    log_p.flags.writeable = False
    return n_lo, log_p
