import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rabi_ent import (
    DEFAULT_TAIL_TOL,
    DomainError,
    laguerre_sequence,
    poisson_logweights,
)
from rabi_ent.specialfn import poisson_logpmf


def laguerre_series(n: int, x: Fraction) -> Fraction:
    """Independent oracle: L_n(x) = sum_k C(n,k) (-1)^k x^k / k!, exact rationals."""
    return sum(
        Fraction(math.comb(n, k) * (-1) ** k, math.factorial(k)) * x**k
        for k in range(n + 1)
    )


@pytest.mark.parametrize("x", [0.0, 0.25, 1.0, 7.5, 50.0])
def test_laguerre_degree_zero(x):
    assert laguerre_sequence(0, x)[-1] == 1.0


def test_laguerre_degree_one():
    assert laguerre_sequence(1, 0.25)[-1] == 0.75


def test_laguerre_matches_series_oracle():
    oracle = laguerre_series(5, Fraction(1))
    assert oracle == Fraction(-7, 15)
    assert laguerre_sequence(5, 1.0)[-1] == pytest.approx(float(oracle), rel=1e-14)
    for n in (2, 3, 8, 12):
        for x in (Fraction(1, 4), Fraction(3, 2), Fraction(5)):
            assert laguerre_sequence(n, float(x))[-1] == pytest.approx(
                float(laguerre_series(n, x)), rel=1e-11
            )


def test_laguerre_at_zero_is_one_for_all_degrees():
    seq = laguerre_sequence(300, 0.0)
    assert np.all(seq == 1.0)


def test_laguerre_recurrence_residual():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        x = float(rng.uniform(0.0, 50.0))
        seq = laguerre_sequence(n + 1, x)
        residual = abs((n + 1) * seq[n + 1] - (2 * n + 1 - x) * seq[n] + n * seq[n - 1])
        assert residual <= 1e-10 * max(1.0, abs(seq[n + 1]))


def laguerre_reference(n_max: int, x: float) -> list:
    """L_0(x) .. L_{n_max}(x) for the exact double x, carried at 40 significant digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        values = [mpmath.mpf(1), 1 - x]
        for k in range(1, n_max):
            values.append(((2 * k + 1 - x) * values[k] - k * values[k - 1]) / (k + 1))
        return values


# Worst |error| of laguerre_sequence up to N = 5000, in units of the envelope
# e^{x/2} >= |L_N(x)|, as measured against laguerre_reference, with about 2x
# margin.  At dyadic x >= 1/16 the coefficient 2k+1-x is exact and the error
# stays below 1.3e-13.  Elsewhere its rounding enters every step, and as
# x -> 0 the error grows to 3.4e-10 (x = 1e-6).  The beta^2 and 4 beta^2 of
# the fig3 and fig4 presets are in the second group.
LAGUERRE_ENVELOPE_ERROR = [
    *[(x, 1.3e-13) for x in (0.0625, 0.25, 1.0, 4.0, 16.0)],
    (1e-6, 7e-10),
    (1e-3, 1.3e-10),
    (0.1, 5.4e-12),
    (0.4193**2, 1.6e-12),
    (4 * 0.4193**2, 1.1e-12),
    (0.4717**2, 4.3e-12),
    (4 * 0.4717**2, 2.5e-13),
    (1.44, 6.3e-13),
    (10.0, 1.3e-14),
]


@pytest.mark.parametrize("x, bound", LAGUERRE_ENVELOPE_ERROR)
def test_laguerre_sequence_against_mpmath(x, bound):
    reference = laguerre_reference(5000, x)
    with mpmath.workdps(40):
        for n in (2, 17, 500, 5000):
            # the reference itself against mpmath's hypergeometric evaluation
            assert abs(reference[n] - mpmath.laguerre(n, 0, x)) <= 1e-25 * math.exp(x / 2)
    seq = laguerre_sequence(5000, x)
    worst = max(abs(float(value - exact)) for value, exact in zip(seq.tolist(), reference))
    assert worst <= bound * math.exp(x / 2)


@pytest.mark.parametrize("bad_x", [-0.5, math.nan, math.inf])
def test_laguerre_domain_errors(bad_x):
    with pytest.raises(DomainError):
        laguerre_sequence(3, bad_x)


def test_laguerre_degree_errors():
    with pytest.raises(DomainError):
        laguerre_sequence(-1, 1.0)
    with pytest.raises(DomainError):
        laguerre_sequence(10**6 + 1, 1.0)


def test_poisson_vacuum():
    log_p = poisson_logweights(0.0)
    assert log_p.size == 1
    assert log_p[0] == 0.0
    assert np.exp(log_p)[0] == 1.0


def test_poisson_adjacent_ratio_identity():
    masses = np.exp(poisson_logweights(16.0))
    # p(N)/p(N-1) = alpha_sq/N, equal to 1 at N = alpha_sq
    assert masses[16] / masses[15] == pytest.approx(1.0, rel=1e-12)
    assert masses[8] / masses[7] == pytest.approx(2.0, rel=1e-12)


def test_poisson_large_mean_direct_evaluation():
    log_p = poisson_logweights(250.0)
    peak = int(np.argmax(log_p))
    assert peak in (249, 250)  # exact tie p(249) == p(250), float rounding picks one
    assert log_p.size == 370  # frozen: first cut with cumulative mass >= 1 - 1e-12
    assert log_p.size >= 250 + 7 * math.sqrt(250.0)


# the documented mass promise holds below alpha_sq = 1227.3; 1119.15 is its worst point
# there (1 - sum p = 1.0011e-12, on a 0.05 grid), and at 2000, past it, it happens to hold
@pytest.mark.parametrize("alpha_sq", [1e-3, 0.5, 16.0, 250.0, 1000.0, 1119.15, 2000.0])
def test_poisson_normalization_and_shape(alpha_sq):
    log_p = poisson_logweights(alpha_sq)
    masses = np.exp(log_p)
    assert np.all(np.isfinite(log_p))
    # exp underflows to 0 only below the subnormal range, in the lower tail past alpha_sq ~ 744
    assert np.all((masses > 0.0) | (log_p < math.log(np.finfo(float).smallest_subnormal)))
    total = float(masses.sum())
    assert 1.0 - DEFAULT_TAIL_TOL - 1e-13 <= total <= 1.0 + 1e-13
    # unimodal: increments change sign at most once, from rising to falling
    diffs = np.diff(log_p)
    first_fall = int(np.argmax(diffs < 0.0)) if np.any(diffs < 0.0) else len(diffs)
    assert np.all(diffs[first_fall:] < 0.0)
    peak = int(np.argmax(log_p))
    assert abs(peak - math.floor(alpha_sq)) <= 1


@pytest.mark.parametrize(
    "alpha_sq, tail_tol", [(0.0, 1e-12), (1.0, 1e-12), (1000.0, 1e-12), (250.0, 1e-300)]
)
def test_poisson_table_owns_exactly_its_entries(alpha_sq, tail_tol):
    # the last case never reaches 1 - tail_tol and keeps the whole first-bound table
    log_p = poisson_logweights(alpha_sq, tail_tol)
    assert log_p.base is None
    assert log_p.ndim == 1 and log_p.dtype == np.float64
    hit = np.nonzero(np.cumsum(np.exp(log_p)) >= 1.0 - tail_tol)[0]
    assert hit.size == 0 or hit[0] == log_p.size - 1


# 3.4e4 is about where the mass at the first bound is largest (4.3e-35 up to the 2e6 ceiling)
@pytest.mark.parametrize("alpha_sq", [3.4e4, 1e6])
def test_poisson_first_bound_leaves_no_float64_mass(alpha_sq):
    # poisson_logweights evaluates once, up to this bound, and never extends the table
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    assert poisson_logpmf(alpha_sq, n_hi)[-1] < math.log(1e-34)
    log_p = poisson_logweights(alpha_sq)
    assert log_p.size - 1 <= n_hi
    assert abs(int(np.argmax(log_p)) - math.floor(alpha_sq)) <= 1


def test_poisson_tail_tol_controls_cut():
    loose = poisson_logweights(25.0, tail_tol=1e-7)
    tight = poisson_logweights(25.0, tail_tol=1e-12)
    assert tight.size > loose.size
    assert float(np.exp(loose).sum()) >= 1.0 - 1e-7 - 1e-13


def test_poisson_domain_errors():
    with pytest.raises(DomainError):
        poisson_logweights(-1.0)
    with pytest.raises(DomainError):
        poisson_logweights(math.nan)
    with pytest.raises(DomainError):
        poisson_logweights(4.0, tail_tol=0.0)
    with pytest.raises(DomainError):
        poisson_logweights(4.0, tail_tol=1e-5)
