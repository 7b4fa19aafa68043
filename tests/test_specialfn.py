import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from rabi_ent import (
    DomainError,
    displaced_overlap,
    laguerre,
    laguerre_sequence,
    poisson_logweights,
)


def laguerre_series(n: int, x: Fraction) -> Fraction:
    """Independent oracle: L_n(x) = sum_k C(n,k) (-1)^k x^k / k!, exact rationals."""
    return sum(
        Fraction(math.comb(n, k) * (-1) ** k, math.factorial(k)) * x**k
        for k in range(n + 1)
    )


def displacement_matrix(d: float, cutoff: int) -> np.ndarray:
    """Independent oracle: D(d) = expm(d (a^dag - a)) in a truncated Fock space."""
    ladder = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    return expm(d * (ladder.T - ladder))


@pytest.mark.parametrize("x", [0.0, 0.25, 1.0, 7.5, 50.0])
def test_laguerre_degree_zero(x):
    assert laguerre(0, x) == 1.0


def test_laguerre_degree_one():
    assert laguerre(1, 0.25) == 0.75


def test_laguerre_matches_series_oracle():
    oracle = laguerre_series(5, Fraction(1))
    assert oracle == Fraction(-7, 15)
    assert laguerre(5, 1.0) == pytest.approx(float(oracle), rel=1e-14)
    for n in (2, 3, 8, 12):
        for x in (Fraction(1, 4), Fraction(3, 2), Fraction(5)):
            assert laguerre(n, float(x)) == pytest.approx(
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
        laguerre(3, bad_x)


def test_laguerre_degree_errors():
    with pytest.raises(DomainError):
        laguerre(-1, 1.0)
    with pytest.raises(DomainError):
        laguerre(10**6 + 1, 1.0)


@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_displaced_overlap_identity_at_zero(n):
    assert displaced_overlap(n, 0.0) == 1.0


@pytest.mark.parametrize("d", [0.3, -0.9, 2.0])
def test_displaced_overlap_ground_state(d):
    assert displaced_overlap(0, d) == pytest.approx(math.exp(-d * d / 2.0), rel=1e-15)


def test_displaced_overlap_matches_expm_oracle():
    oracle = displacement_matrix(0.8, 60)[3, 3]
    assert oracle == pytest.approx(-0.2536370812588277, rel=1e-12)  # frozen
    assert displaced_overlap(3, 0.8) == pytest.approx(oracle, rel=1e-12)
    # overlap is even in the displacement
    assert displaced_overlap(3, -0.8) == displaced_overlap(3, 0.8)


def test_displaced_overlap_rejects_nonfinite():
    with pytest.raises(DomainError):
        displaced_overlap(2, math.nan)


def test_poisson_vacuum():
    table = poisson_logweights(0.0)
    assert table.n_cut == 0
    assert table.log_p[0] == 0.0
    assert table.masses()[0] == 1.0


def test_poisson_adjacent_ratio_identity():
    table = poisson_logweights(16.0)
    masses = table.masses()
    # p(N)/p(N-1) = alpha_sq/N, equal to 1 at N = alpha_sq
    assert masses[16] / masses[15] == pytest.approx(1.0, rel=1e-12)
    assert masses[8] / masses[7] == pytest.approx(2.0, rel=1e-12)


def test_poisson_large_mean_direct_evaluation():
    table = poisson_logweights(250.0)
    peak = int(np.argmax(table.log_p))
    assert peak in (249, 250)  # exact tie p(249) == p(250), float rounding picks one
    assert table.n_cut + 1 == 370  # frozen: first cut with cumulative mass >= 1 - 1e-12
    assert table.n_cut + 1 >= 250 + 7 * math.sqrt(250.0)


@pytest.mark.parametrize("alpha_sq", [0.5, 16.0, 250.0])
def test_poisson_normalization_and_shape(alpha_sq):
    table = poisson_logweights(alpha_sq)
    masses = table.masses()
    assert np.all(masses > 0.0)
    total = float(masses.sum())
    assert 1.0 - table.tail_tol - 1e-13 <= total <= 1.0 + 1e-13
    # unimodal: increments change sign at most once, from rising to falling
    diffs = np.diff(table.log_p)
    first_fall = int(np.argmax(diffs < 0.0)) if np.any(diffs < 0.0) else len(diffs)
    assert np.all(diffs[first_fall:] < 0.0)
    peak = int(np.argmax(table.log_p))
    assert abs(peak - math.floor(alpha_sq)) <= 1


@pytest.mark.parametrize(
    "alpha_sq, tail_tol", [(0.0, 1e-12), (1.0, 1e-12), (1000.0, 1e-12), (250.0, 1e-300)]
)
def test_poisson_table_owns_exactly_its_entries(alpha_sq, tail_tol):
    # the last case never reaches 1 - tail_tol and stops where the increments underflow
    table = poisson_logweights(alpha_sq, tail_tol)
    assert table.log_p.base is None
    assert table.log_p.shape == (table.n_cut + 1,)


def test_poisson_tail_tol_controls_cut():
    loose = poisson_logweights(25.0, tail_tol=1e-7)
    tight = poisson_logweights(25.0, tail_tol=1e-12)
    assert tight.n_cut > loose.n_cut
    assert float(loose.masses().sum()) >= 1.0 - 1e-7 - 1e-13


def test_poisson_domain_errors():
    with pytest.raises(DomainError):
        poisson_logweights(-1.0)
    with pytest.raises(DomainError):
        poisson_logweights(math.nan)
    with pytest.raises(DomainError):
        poisson_logweights(4.0, tail_tol=0.0)
    with pytest.raises(DomainError):
        poisson_logweights(4.0, tail_tol=1e-5)
