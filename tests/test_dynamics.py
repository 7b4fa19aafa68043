import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rabi_ent
from rabi_ent import (
    AdiabaticRegimeWarning,
    DomainError,
    ModelParams,
    evolve,
    jc_inversion,
    poisson_logweights,
    survival_prob,
    transition_prob,
    two_branch_interference_check,
)
from rabi_ent.dynamics import (
    _PHASE_BLOCK,
    _as_times,
    _cosine_average,
    _cosine_rows,
    _peak_transition_probs,
)
from rabi_ent.oracle import _phase_blocks
from rabi_ent.spectrum import aa_columns


def random_params(rng):
    return ModelParams(
        ratio_r=float(rng.uniform(0.01, 0.3)),
        beta=float(rng.uniform(0.0, 0.6)),
        kappa0=float(rng.uniform(-1.0, 1.0)),
        alpha_sq=float(rng.uniform(0.0, 30.0)),
    )


GRID_PARAMS = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=4.0)

# every public function that takes a time grid, and the module whose _as_times it calls
TIME_GRID_SITES = {
    "transition_prob": (lambda t: transition_prob(GRID_PARAMS, t), "dynamics"),
    "survival_prob": (lambda t: survival_prob(GRID_PARAMS, t), "dynamics"),
    "jc_inversion": (lambda t: jc_inversion(0.0, 1.0, 4.0, t), "dynamics"),
    "evolve": (lambda t: evolve(GRID_PARAMS, 30, t), "oracle"),
    "two_branch_interference_check": (
        lambda t: two_branch_interference_check(3, GRID_PARAMS, t),
        "dynamics",
    ),
}


@pytest.mark.parametrize(
    "times, message",
    [
        ([0.0, 1.0, 1.0], "times must be strictly increasing"),
        ([0.0, math.nan], "times must be finite"),
        ([0.0, math.inf], "times must be finite"),
        (np.zeros((2, 2)), "times must be a non-empty 1-D sequence"),
        ([], "times must be a non-empty 1-D sequence"),
    ],
    ids=["repeated", "nan", "inf", "2-D", "empty"],
)
@pytest.mark.parametrize("site", list(TIME_GRID_SITES))
def test_time_grid_inputs_reject_bad_grids(site, times, message):
    call, _ = TIME_GRID_SITES[site]
    with pytest.raises(DomainError, match=message):
        call(times)


@pytest.mark.parametrize("site", list(TIME_GRID_SITES))
def test_each_time_grid_is_checked_once(site, monkeypatch):
    call, module_name = TIME_GRID_SITES[site]
    module = getattr(rabi_ent, module_name)
    checked = []

    def counting(times):
        checked.append(times)
        return _as_times(times)

    monkeypatch.setattr(module, "_as_times", counting)
    call(np.linspace(0.0, 5.0, 11))
    assert len(checked) == 1


def test_series_and_oracle_results_are_plain_arrays():
    times = np.linspace(0.0, 5.0, 11)
    result = evolve(GRID_PARAMS, 30, times)
    assert list(result.populations) == ["P11", "P1m1", "P10", "P00"]
    for values in (
        transition_prob(GRID_PARAMS, times),
        survival_prob(GRID_PARAMS, times),
        jc_inversion(0.0, 1.0, 4.0, times),
        *result.populations.values(),
        result.concurrence,
    ):
        assert type(values) is np.ndarray
        assert values.dtype == np.float64 and values.shape == times.shape
    assert not hasattr(rabi_ent, "TimeSeries")
    assert not hasattr(rabi_ent.dynamics, "TimeSeries")


def test_transition_prob_zero_time_is_exactly_zero():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=25.0)
    series = transition_prob(params, np.linspace(0.0, 100.0, 101))
    assert series[0] == 0.0


def test_transition_prob_is_even_in_time():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=16.0)
    times = np.linspace(-60.0, 60.0, 241)
    values = transition_prob(params, times)
    assert values == pytest.approx(values[::-1], abs=1e-15)


def test_transition_prob_bounds_random_draws():
    rng = np.random.default_rng(2)
    times = np.linspace(0.0, 80.0, 301)
    for _ in range(50):
        values = transition_prob(random_params(rng), times)
        assert np.all(values >= 0.0)
        assert np.all(values <= 0.25)


def test_transition_prob_bounds_hold_at_revivals_on_uniform_grids():
    # with beta = kappa = 0 every row shares one frequency, so T returns to 0
    # at t = m * pi / r; angle addition can round cos there past 1, which the
    # clamp keeps from making T negative
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0, alpha_sq=16.0)
    for m in range(1, 41):
        values = transition_prob(params, np.linspace(0.0, m * np.pi / 0.2, 300))
        assert values[0] == 0.0
        assert np.all(values >= 0.0)
        assert np.all(values <= 0.25)


def test_zero_coupling_closed_form():
    # beta = 0, kappa = 0: every photon number shares weight 1/8 and
    # frequency 2*ratio_r, so P_stay = 1 - (1/4)(1 - cos(2 r t))
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0, alpha_sq=16.0)
    times = np.linspace(0.0, 50.0, 201)
    stay = survival_prob(params, times)
    expected = 1.0 - 0.25 * (1.0 - np.cos(2.0 * 0.2 * times))
    assert stay == pytest.approx(expected, abs=1e-11)


def test_survival_is_affine_in_transition():
    params = ModelParams(ratio_r=0.12, beta=0.4193, kappa0=0.02, alpha_sq=106.0)
    times = np.linspace(0.0, 150.0, 301)
    t_vals = transition_prob(params, times)
    p_vals = survival_prob(params, times)
    assert p_vals == pytest.approx(1.0 - 2.0 * t_vals, abs=1e-15)
    assert np.all(p_vals >= 0.5)
    assert np.all(p_vals <= 1.0)


def test_tail_tol_perturbation_bounded_by_discarded_mass():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=25.0)
    times = np.linspace(0.0, 200.0, 401)
    loose = transition_prob(params, times, tail_tol=1e-8)
    tight = transition_prob(params, times, tail_tol=1e-12)
    assert np.max(np.abs(loose - tight)) <= 0.25 * 1e-8


def test_transition_prob_blocking_is_invisible():
    # a non-uniform grid takes np.cos directly, so a split evaluation gives
    # the same values bit for bit
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=16.0)
    times = 500.0 * np.linspace(0.0, 1.0, 9001) ** 2
    halves = (times[:4500], times[4500:])
    for grid in (times, *halves):
        assert not np.array_equal(grid, np.linspace(grid[0], grid[-1], grid.size))
    whole = transition_prob(params, times)
    split = np.concatenate([transition_prob(params, half) for half in halves])
    assert np.array_equal(whole, split)
    n_lo, log_p = poisson_logweights(params.alpha_sq)
    columns = aa_columns(params, n_lo + log_p.size - 1, n_lo)
    coeff, freqs = np.exp(log_p) * columns["weight"], columns["rabi_freq"]
    direct = coeff @ (1.0 - np.cos(np.outer(freqs, times)))
    # the same angles and cosines, summed in another order: N terms of at most 2 c_N each
    sum_bound = 2.0 * freqs.size * np.finfo(float).eps * coeff.sum()
    assert np.abs(whole - direct).max() <= sum_bound
    # on a linspace grid the phases come by angle addition from each block's
    # first time, so a value depends on where its block starts, but only within
    # the rounding of the angles (the model of the direct-trig test below),
    # summed over the coefficients
    times = np.linspace(0.0, 500.0, 9001)
    whole = transition_prob(params, times)
    split = np.concatenate(
        [transition_prob(params, half) for half in (times[:4500], times[4500:])]
    )
    direct = coeff @ (1.0 - np.cos(np.outer(freqs, times)))
    tol = 4.0 * np.finfo(float).eps * max(1.0, np.abs(freqs).max() * times[-1]) * coeff.sum()
    assert np.abs(whole - split).max() <= tol
    assert np.abs(whole - direct).max() <= tol


def test_shared_cosine_block_rows_equal_single_row_calls():
    # coefficient rows of different lengths read slices of one set of tables from
    # different first indices, as the grid scan's Poisson windows do, on a uniform
    # grid with more than one chunk of block starts and on a non-uniform grid of
    # more than one block
    rng = np.random.default_rng(7)
    freqs = rng.uniform(0.0, 3.0, 40)
    spans = [(0, 40), (0, 5), (3, 17), (39, 1), (12, 28), (7, 9)]
    coeffs = [(slice(lo, lo + n), rng.uniform(0.0, 0.1, n)) for lo, n in spans]
    uniform = np.linspace(0.0, 300.0, 9001)
    scattered = np.sort(rng.uniform(0.0, 300.0, 2 * _PHASE_BLOCK + 77))
    for times in (uniform, scattered):
        for shift in (1.0, 0.0):
            rows = [[] for _ in coeffs]
            for r, values in _cosine_rows(coeffs, freqs, times, shift):
                rows[r].append(values)
            for (window, coeff), row in zip(coeffs, rows):
                single = _cosine_average(coeff, freqs[window], times, shift)
                assert np.array_equal(np.concatenate(row), single)


PHASE_FREQS = np.concatenate([np.linspace(-300.0, 300.0, 41), [0.0, -0.0, 1e-3, -1e-3]])


def _stacked_phases(freqs, times):
    blocks = list(_phase_blocks(freqs, times))
    assert [start for start, _, _ in blocks] == list(range(0, times.size, _PHASE_BLOCK))
    for start, cos, sin in blocks:
        assert cos.shape == sin.shape == (min(_PHASE_BLOCK, times.size - start), freqs.size)
    return np.concatenate([b[1] for b in blocks]), np.concatenate([b[2] for b in blocks])


@pytest.mark.parametrize("n", [1, 2, 3, _PHASE_BLOCK, 2 * _PHASE_BLOCK + 37, 2000])
@pytest.mark.parametrize("t0, t1", [(0.0, 600.0), (-3.7, 41.3), (1e3, 1.2e3), (-50.0, -10.0)])
def test_phase_blocks_on_uniform_grids_match_direct_trig(n, t0, t1):
    times = np.linspace(t0, t1, n)
    cos, sin = _stacked_phases(PHASE_FREQS, times)
    phases = np.outer(times, PHASE_FREQS)
    # angle addition is exact up to the rounding of the angles it adds, whose
    # size is set by |w| * max |t| rather than by |w t| itself
    tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(PHASE_FREQS) * np.abs(times).max())
    assert np.all(np.abs(cos - np.cos(phases)) <= tol)
    assert np.all(np.abs(sin - np.sin(phases)) <= tol)
    # zero frequencies give exact 1 and 0; negating a frequency negates sin exactly
    assert np.all(cos[:, 41:43] == 1.0) and np.all(sin[:, 41:43] == 0.0)
    mirrored_cos, mirrored_sin = _stacked_phases(-PHASE_FREQS, times)
    assert np.array_equal(mirrored_cos, cos) and np.array_equal(mirrored_sin, -sin)


@pytest.mark.parametrize(
    "times",
    [
        np.array([0.0, 0.5, 2.0, 7.25]),
        np.cumsum(np.full(2 * _PHASE_BLOCK + 5, 0.1)),  # evenly spaced, but not linspace's bits
        np.nextafter(np.linspace(0.0, 50.0, 300), np.inf),
    ],
)
def test_phase_blocks_on_other_grids_are_direct_trig(times):
    assert not np.array_equal(times, np.linspace(times[0], times[-1], times.size))
    cos, sin = _stacked_phases(PHASE_FREQS, times)
    phases = np.outer(times, PHASE_FREQS)
    assert np.array_equal(cos, np.cos(phases)) and np.array_equal(sin, np.sin(phases))


# n = 37**2 fills a 37-wide table with 37 block starts; 128**2 + 1 takes the
# widest table and three chunks of block starts
@pytest.mark.parametrize("n", [1, 2, 3, 37**2, 37**2 + 1, 128**2 + 1, 9001])
@pytest.mark.parametrize("t0, t1", [(0.0, 600.0), (-3.7, 41.3), (1e3, 1.2e3)])
@pytest.mark.parametrize("shift", [1.0, 0.0])
def test_cosine_average_on_uniform_grids_matches_direct_trig(n, t0, t1, shift):
    times = np.linspace(t0, t1, n)
    coeff = np.random.default_rng(n).uniform(0.0, 0.1, PHASE_FREQS.size)
    values = _cosine_average(coeff, PHASE_FREQS, times, shift)
    direct = coeff @ (shift - np.cos(np.outer(PHASE_FREQS, times)))
    # within the rounding of the angles, summed over the coefficients, as in
    # test_transition_prob_blocking_is_invisible
    scale = max(1.0, np.abs(PHASE_FREQS).max() * np.abs(times).max())
    assert np.abs(values - direct).max() <= 4.0 * np.finfo(float).eps * scale * coeff.sum()
    if t0 == 0.0 and shift == 1.0:
        assert values[0] == 0.0


def test_transition_prob_working_set_stays_within_phase_blocks_room():
    # 40,000 times of an n_cut = 2,867 series, held to the room of five
    # (128 x 2,868) phase tables, 14.7 MB
    params = ModelParams(ratio_r=0.12, beta=0.42, kappa0=0.02, alpha_sq=2500.0)
    times = np.linspace(0.0, 400.0, 40_000)
    tracemalloc.start()
    try:
        values = transition_prob(params, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes <= 15_400_000


@pytest.fixture
def built_spectra(monkeypatch):
    """(params, n_max) of every spectrum the dynamics module builds, in order."""
    built = []

    def counting(params, n_max, n_min=0):
        built.append((params, n_max))
        return aa_columns(params, n_max, n_min)

    monkeypatch.setattr(rabi_ent.dynamics, "aa_columns", counting)
    return built


def test_peak_transition_probs_equal_series_maxima(built_spectra):
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=16.0)
    points = [replace(params, alpha_sq=a) for a in (16.0, 0.0, 40.0, 2.5)]
    points += [
        replace(params, beta=-0.26, alpha_sq=40.0),
        replace(params, beta=0.0, kappa0=-0.0, alpha_sq=2.5),
        replace(params, beta=0.0, kappa0=0.0, alpha_sq=2.5),
        replace(params, beta=-0.0, alpha_sq=16.0),
        replace(params, beta=0.0, alpha_sq=16.0),
    ]
    with pytest.warns(AdiabaticRegimeWarning):
        points += [replace(params, ratio_r=r, alpha_sq=16.0) for r in (-0.0, 0.0)]
    times = np.linspace(0.0, 500.0, 4997)
    peaks = _peak_transition_probs(points, times)
    # T does not read the sign of a zero, so each +-0.0 pair shares one spectrum
    assert len(built_spectra) == 5
    for point, peak in zip(points, peaks):
        assert peak == transition_prob(point, times).max()


def test_peak_transition_probs_read_each_poisson_window(built_spectra):
    # a 2-D (beta, alpha_sq) grid whose members start their windows at different n_lo:
    # each beta's spectrum spans every window, and each row reads its own slice of it
    params = ModelParams(ratio_r=0.12, beta=0.42, kappa0=0.02)
    alphas = [250.0, 64.43, 9.0, 106.0, 101.06]
    assert len({poisson_logweights(a)[0] for a in alphas}) == len(alphas)
    points = [replace(params, beta=b, alpha_sq=a) for b in (0.42, 0.3) for a in alphas]
    for times in (np.linspace(0.0, 400.0, 1001), 400.0 * np.linspace(0.0, 1.0, 300) ** 2):
        built_spectra.clear()
        peaks = _peak_transition_probs(points, times)
        assert len(built_spectra) == 2
        for point, peak in zip(points, peaks):
            assert peak == transition_prob(point, times).max()


def test_peak_transition_probs_takes_one_block_width_of_alpha_sq_at_a_time(built_spectra):
    # 5 times: a block is 5 wide, so 12 distinct alpha_sq make batches of 5, 5 and 2,
    # each with one spectrum as long as its longest table
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1)
    alphas = [12.0, 3.0, 7.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0, 11.0]
    points = [replace(params, alpha_sq=a) for a in alphas + alphas[::-1]]
    times = np.linspace(0.0, 50.0, 5)
    peaks = _peak_transition_probs(points, times)
    n_cut = {}
    for a in alphas:
        n_lo, log_p = poisson_logweights(a)
        n_cut[a] = n_lo + log_p.size - 1
    assert [n_max for _, n_max in built_spectra] == [n_cut[12.0], n_cut[9.0], n_cut[11.0]]
    for point, peak in zip(points, peaks):
        assert peak == transition_prob(point, times).max()


def test_peak_transition_probs_memory_does_not_grow_with_points():
    # n_cut of about 1,200 per point: 200 points' Poisson tables or
    # coefficient rows held at once would take about 2 MB; held in batches
    # the size of one (1 - cos) block (n_cut x 50 times), about 0.5 MB
    params = ModelParams(ratio_r=0.12, beta=0.42, kappa0=0.02)
    times = np.linspace(0.0, 400.0, 50)
    peaks = []
    for rows in (20, 200):
        points = [replace(params, alpha_sq=a) for a in np.linspace(1000.0, 1010.0, rows)]
        tracemalloc.start()
        try:
            _peak_transition_probs(points, times)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1_000_000


def test_transition_prob_rejects_bad_times():
    params = ModelParams(ratio_r=0.2, beta=0.1)
    with pytest.raises(DomainError):
        transition_prob(params, np.array([1.0, 0.5]))
    with pytest.raises(DomainError):
        transition_prob(params, np.array([]))


def test_two_branch_interference_random_rows():
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 40.0, 65)
    for _ in range(50):
        params = random_params(rng)
        n = int(rng.integers(0, 201))
        assert two_branch_interference_check(n, params, times) <= 1e-10


def test_two_branch_interference_uncoupled_limit():
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0)
    residual = two_branch_interference_check(0, params, np.linspace(0.0, 30.0, 61))
    assert residual <= 1e-14


def test_two_branch_interference_degenerate_row_error():
    with pytest.warns(AdiabaticRegimeWarning):
        params = ModelParams(ratio_r=0.0, beta=0.3)
    with pytest.raises(DomainError):
        two_branch_interference_check(5, params, np.linspace(0.0, 10.0, 11))


def test_jc_inversion_starts_at_unity_on_resonance():
    times = np.linspace(0.0, 5.0, 11)
    series = jc_inversion(0.0, 1.0, 16.0, times, tail_tol=1e-13)
    assert abs(series[0] - 1.0) <= 1e-12


def test_jc_inversion_bounded_on_resonance():
    times = np.linspace(0.0, 60.0, 1201)
    values = jc_inversion(0.0, 1.0, 16.0, times)
    assert np.all(np.abs(values) <= 1.0 + 1e-12)


def test_jc_inversion_weak_coupling_limit():
    # g -> 0 with detuning: the constant term dominates and W stays at 1
    times = np.linspace(0.0, 100.0, 101)
    values = jc_inversion(0.5, 1e-8, 9.0, times)
    assert values == pytest.approx(np.ones_like(values), abs=1e-12)


def test_jc_inversion_corrected_flag_changes_frequencies():
    times = np.linspace(0.0, 30.0, 601)
    corrected = jc_inversion(0.0, 1.0, 9.0, times, corrected=True)
    literal = jc_inversion(0.0, 1.0, 9.0, times, corrected=False)
    assert np.max(np.abs(corrected - literal)) > 0.1


def test_jc_inversion_matches_dressed_state_oracle():
    # independent oracle: diagonalize the number-conserving atom-field model
    # (basis |e,n>, |g,n+1> plus the dark |g,0>) and evolve |e> x |alpha>
    delta, g, alpha_sq = 0.4, 1.0, 6.0
    n_max = 60
    n_lo, log_p = poisson_logweights(alpha_sq, 1e-12)
    amps = np.exp(0.5 * log_p)
    times = np.linspace(0.0, 25.0, 251)
    w_oracle = np.zeros_like(times)
    for n in range(n_lo, n_lo + log_p.size):
        h_block = np.array(
            [[0.5 * delta, g * math.sqrt(n + 1.0)], [g * math.sqrt(n + 1.0), -0.5 * delta]]
        )
        evals, evecs = np.linalg.eigh(h_block)
        c0 = evecs.T @ np.array([1.0, 0.0])
        phases = np.exp(-1j * np.outer(evals, times))
        states = evecs @ (phases * c0[:, None])
        sz = np.abs(states[0]) ** 2 - np.abs(states[1]) ** 2
        w_oracle += amps[n - n_lo] ** 2 * sz
    series = jc_inversion(delta, g, alpha_sq, times)
    assert series == pytest.approx(w_oracle, abs=1e-10)
    assert n_max > n_lo + log_p.size - 1  # oracle covered the whole weight table


def test_jc_inversion_domain_errors():
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        jc_inversion(0.0, 0.0, 9.0, times)
    with pytest.raises(DomainError):
        jc_inversion(0.0, -1.0, 9.0, times)
    with pytest.raises(DomainError):
        jc_inversion(math.nan, 1.0, 9.0, times)
    # g * g overflows to inf, so every oscillating coefficient is inf / inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DomainError, match="channel 'W' contains non-finite values"):
            jc_inversion(0.0, 1e200, 4.0, times)


def test_poisson_masses_power_transition_prob():
    # transition series must respect the table's truncation window
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=25.0)
    masses = np.exp(poisson_logweights(25.0)[1])
    times = np.linspace(0.0, 10.0, 21)
    values = transition_prob(params, times)
    # coarse upper bound: total mass times max weight times 2
    assert np.all(values <= 2.0 * 0.125 * float(masses.sum()) + 1e-15)
