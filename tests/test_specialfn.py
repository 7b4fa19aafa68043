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


def window(alpha_sq: float, tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[int, int, np.ndarray]:
    """(n_lo, n_cut, masses p(n_lo .. n_cut)) of ``poisson_logweights``."""
    n_lo, log_p = poisson_logweights(alpha_sq, tail_tol)
    return n_lo, n_lo + log_p.size - 1, np.exp(log_p)


def test_poisson_vacuum():
    n_lo, log_p = poisson_logweights(0.0)
    assert n_lo == 0 and log_p.size == 1
    assert log_p[0] == 0.0
    assert np.exp(log_p)[0] == 1.0


def test_poisson_adjacent_ratio_identity():
    n_lo, _, masses = window(16.0)
    assert n_lo == 0
    # p(N)/p(N-1) = alpha_sq/N, equal to 1 at N = alpha_sq
    assert masses[16] / masses[15] == pytest.approx(1.0, rel=1e-12)
    assert masses[8] / masses[7] == pytest.approx(2.0, rel=1e-12)


def test_poisson_large_mean_direct_evaluation():
    n_lo, log_p = poisson_logweights(250.0)
    peak = n_lo + int(np.argmax(log_p))
    assert peak in (249, 250)  # exact tie p(249) == p(250), float rounding picks one
    # frozen: the first N with cumulative mass > 1e-18, and the first >= 1 - 1e-12
    assert (n_lo, n_lo + log_p.size) == (125, 370)
    assert n_lo + log_p.size >= 250 + 7 * math.sqrt(250.0)


def mp_logpmf(alpha_sq, n: int):
    return -alpha_sq + n * mpmath.log(alpha_sq) - mpmath.loggamma(n + 1)


@pytest.mark.parametrize(
    "alpha_sq", [1e-3, 0.5, 3.7, 16.0, 106.0, 250.0, 1227.3, 1614.84977, 2e4, 3.3e5, 1e6, 1.98e6]
)
def test_poisson_logpmf_against_mpmath(alpha_sq):
    # every N of the first bound that has a nonzero float64 mass, sampled: at random,
    # and densely across the peak, where the series form of bd0 takes over
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    rng = np.random.default_rng(int(alpha_sq * 1000) % 2**32)
    step = max(1, int(math.sqrt(alpha_sq) / 4))
    dense = np.arange(max(0, int(alpha_sq - 14.0 * math.sqrt(alpha_sq))), n_hi + 1, step)
    ns = np.unique(np.concatenate([rng.integers(0, n_hi + 1, 40), dense, [0, 1, 15, 16, n_hi]]))
    log_p = poisson_logpmf(alpha_sq, n_hi)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha_sq)
        for n in ns.tolist():
            exact = float(mp_logpmf(a, n))
            if exact < math.log(np.finfo(float).smallest_subnormal):
                continue
            # worst seen: 3.8e-15 of max(1, |log p|)
            assert abs(log_p[n] - exact) <= 1e-14 * max(1.0, abs(exact)), n


# the mass promise held only below alpha_sq = 1227.3 with -alpha_sq + N log alpha_sq -
# lgamma(N + 1), whose terms cancel; 1 - sum p was 1.1e-12 at 1323.1, 1.58e-11 at 2e4
# and 8.0e-10 at 1e6
@pytest.mark.parametrize(
    "alpha_sq", [1e-3, 0.5, 16.0, 250.0, 1000.0, 1119.15, 1227.3, 1323.1, 2000.0, 2e4, 1e6, 1.98e6]
)
def test_poisson_normalization_and_shape(alpha_sq):
    n_lo, log_p = poisson_logweights(alpha_sq)
    masses = np.exp(log_p)
    assert np.all(np.isfinite(log_p))
    # exp underflows to 0 only below the subnormal range
    assert np.all((masses > 0.0) | (log_p < math.log(np.finfo(float).smallest_subnormal)))
    # the window's mass reaches its target, less the <= 1e-18 left below n_lo
    total = math.fsum(masses)
    assert 1.0 - DEFAULT_TAIL_TOL - 1e-18 - 2e-15 <= total <= 1.0 + 2e-15
    # unimodal: increments change sign at most once, from rising to falling
    diffs = np.diff(log_p)
    first_fall = int(np.argmax(diffs < 0.0)) if np.any(diffs < 0.0) else len(diffs)
    assert np.all(diffs[first_fall:] < 0.0)
    peak = n_lo + int(np.argmax(log_p))
    assert abs(peak - math.floor(alpha_sq)) <= 1


@pytest.mark.parametrize("alpha_sq", [0.37, 9.0, 64.43, 101.06, 106.0, 250.0, 1227.3])
def test_poisson_window_ends_are_the_exact_first_n(alpha_sq):
    # n_lo: the first N whose cumulative mass exceeds 1e-18; n_cut: the first whose
    # cumulative mass reaches 1 - 1e-12, that is whose upper tail is at most 1e-12
    n_lo, n_cut, _ = window(alpha_sq)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha_sq)

        def mass(lo, hi):
            return mpmath.fsum(mpmath.exp(mp_logpmf(a, n)) for n in range(max(lo, 0), hi + 1))

        assert mass(0, n_lo) > 1e-18 and (n_lo == 0 or mass(0, n_lo - 1) <= 1e-18)
        far = n_cut + 200
        assert mass(n_cut + 1, far) <= 1e-12 < mass(n_cut, far)
    if alpha_sq == 101.06:
        assert n_cut == 179  # a cumulative sum from N = 0 rounds at 1 and cut at 180


@pytest.mark.parametrize(
    "alpha_sq, tail_tol", [(0.0, 1e-12), (1.0, 1e-12), (1000.0, 1e-12), (250.0, 1e-300)]
)
def test_poisson_table_owns_exactly_its_entries(alpha_sq, tail_tol):
    # the last case never reaches 1 - tail_tol and keeps the whole first-bound table
    n_lo, log_p = poisson_logweights(alpha_sq, tail_tol)
    assert log_p.base is None and not log_p.flags.writeable
    assert log_p.ndim == 1 and log_p.dtype == np.float64
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    masses = np.exp(poisson_logpmf(alpha_sq, n_hi))
    assert np.array_equal(np.exp(log_p), masses[n_lo : n_lo + log_p.size])
    above = np.cumsum(masses[::-1])[::-1]  # above[N] is the mass from N on
    hit = np.nonzero(above[1:] <= tail_tol)[0]
    assert n_lo + log_p.size - 1 == (hit[0] if hit.size else n_hi)


def test_poisson_table_of_the_last_call_is_reused():
    first = poisson_logweights(106.0)
    assert poisson_logweights(106.0)[1] is first[1]
    assert poisson_logweights(106.0, 1e-10)[1] is not first[1]
    other = poisson_logweights(106.0)
    assert other[1] is not first[1] and np.array_equal(other[1], first[1])
    with pytest.raises(ValueError):
        other[1][0] = 0.0


# 3.4e4 is about where the mass at the first bound is largest (4.3e-35 up to the 2e6 ceiling)
@pytest.mark.parametrize("alpha_sq", [3.4e4, 1e6])
def test_poisson_first_bound_leaves_no_float64_mass(alpha_sq):
    # poisson_logweights evaluates once, up to this bound, and never extends the table
    n_hi = int(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 40.0)
    assert poisson_logpmf(alpha_sq, n_hi)[-1] < math.log(1e-34)
    n_lo, n_cut, masses = window(alpha_sq)
    assert n_cut <= n_hi
    assert abs(n_lo + int(np.argmax(masses)) - math.floor(alpha_sq)) <= 1


def test_poisson_tail_tol_controls_cut():
    _, loose_cut, loose = window(25.0, tail_tol=1e-7)
    _, tight_cut, _ = window(25.0, tail_tol=1e-12)
    assert tight_cut > loose_cut
    assert float(loose.sum()) >= 1.0 - 1e-7 - 1e-13


def test_poisson_domain_errors():
    with pytest.raises(DomainError):
        poisson_logweights(-1.0)
    with pytest.raises(DomainError):
        poisson_logweights(math.nan)
    with pytest.raises(DomainError):
        poisson_logweights(4.0, tail_tol=0.0)
    with pytest.raises(DomainError):
        poisson_logweights(4.0, tail_tol=1e-5)
