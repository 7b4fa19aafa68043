import math
import tracemalloc

import numpy as np
import pytest

from rabi_ent import (
    AxisRange,
    CapacityError,
    DomainError,
    KappaConvention,
    ModelParams,
    ScanSpec,
    grid_scan,
    objective,
    refine,
    transition_prob,
)
from rabi_ent import dynamics, scan

FIG3_FIXED = {"ratio_r": 0.12, "kappa0": 0.02, "alpha_sq": 106.0}


def test_objective_zero_coupling_envelope():
    # weight 1/8 and a single frequency 2r: the envelope tops out at 1/4
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0, alpha_sq=9.0)
    value = objective(params, horizon=20.0, time_points=2000)
    assert value == pytest.approx(0.25, abs=1e-4)


def test_objective_validation():
    params = ModelParams(ratio_r=0.2, beta=0.1)
    with pytest.raises(DomainError):
        objective(params, horizon=0.0)
    with pytest.raises(DomainError):
        objective(params, horizon=10.0, time_points=1)


def test_axis_range_validation():
    with pytest.raises(DomainError):
        AxisRange(0.5, 0.3, 5)
    with pytest.raises(DomainError):
        AxisRange(0.3, 0.5, 1)
    assert AxisRange(0.3, 0.5, 3).grid() == pytest.approx([0.3, 0.4, 0.5])


def test_scan_spec_partition_checks():
    with pytest.raises(DomainError):
        ScanSpec(ranges={}, fixed={"beta": 0.1}, horizon=10.0)  # missing params
    with pytest.raises(DomainError):
        ScanSpec(
            ranges={"beta": AxisRange(0.1, 0.2, 2)},
            fixed={"beta": 0.1, "ratio_r": 0.2, "kappa0": 0.0, "alpha_sq": 4.0},
            horizon=10.0,
        )
    with pytest.raises(DomainError):
        ScanSpec(
            ranges={"gamma": AxisRange(0.1, 0.2, 2)},
            fixed={"beta": 0.1, "ratio_r": 0.2, "kappa0": 0.0, "alpha_sq": 4.0},
            horizon=10.0,
        )
    with pytest.raises(DomainError, match="cannot fix unknown parameter 'gamma'"):
        ScanSpec(
            ranges={},
            fixed={"beta": 0.1, "ratio_r": 0.2, "kappa0": 0.0, "alpha_sq": 4.0, "gamma": 1.0},
            horizon=10.0,
        )


def test_grid_scan_degenerate_single_point():
    spec = ScanSpec(
        ranges={},
        fixed={"beta": 0.0, "ratio_r": 0.2, "kappa0": 0.0, "alpha_sq": 9.0},
        horizon=20.0,
        time_points=500,
    )
    result = grid_scan(spec)
    assert result.objectives.shape == (1,)
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0, alpha_sq=9.0)
    assert result.best_objective == objective(params, 20.0, 500)
    assert result.best_point == {}


def test_grid_scan_best_is_minimum():
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.0, 0.4, 5), "kappa0": AxisRange(-0.2, 0.2, 3)},
        fixed={"ratio_r": 0.2, "alpha_sq": 9.0},
        horizon=40.0,
        time_points=300,
    )
    result = grid_scan(spec)
    assert result.objectives.shape == (15,)
    assert result.points.shape == (15, 2)
    assert result.best_objective <= result.objectives.min() + 0.0
    assert result.axis_names == ("beta", "kappa0")
    # best point actually evaluates to the reported objective
    params = ModelParams(
        ratio_r=0.2, alpha_sq=9.0, kappa_convention=spec.kappa_convention, **result.best_point
    )
    assert objective(params, 40.0, 300) == result.best_objective


def test_grid_scan_ceiling(monkeypatch):
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.0, 0.4, 5), "alpha_sq": AxisRange(1.0, 20.0, 4)},
        fixed={"ratio_r": 0.2, "kappa0": 0.0},
        horizon=10.0,
        time_points=50,
    )
    monkeypatch.setattr(scan, "GRID_CEILING", 20)
    assert grid_scan(spec).metadata["grid_size"] == 20
    monkeypatch.setattr(scan, "GRID_CEILING", 19)
    with pytest.raises(CapacityError, match=r"^grid has 20 points, exceeding ceiling 19$"):
        grid_scan(spec)


def test_grid_scan_ceiling_rejects_before_building_any_axis():
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.0, 0.4, 10**7)},
        fixed={"ratio_r": 0.2, "kappa0": 0.0, "alpha_sq": 9.0},
        horizon=10.0,
    )
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^grid has 10000000 points, exceeding ceiling 20000$"):
            grid_scan(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kappa_convention_inert_at_zero_kappa():
    kwargs = dict(
        ranges={"beta": AxisRange(0.0, 0.5, 6)},
        fixed={"ratio_r": 0.2, "kappa0": 0.0, "alpha_sq": 9.0},
        horizon=30.0,
        time_points=300,
    )
    a = grid_scan(ScanSpec(**kwargs))
    b = grid_scan(ScanSpec(**kwargs, kappa_convention=KappaConvention.OMEGA_SCALED))
    assert a.objectives == pytest.approx(b.objectives, abs=0.0)


def test_negative_kappa_reduces_objective_toward_fig4_point():
    objectives = []
    for kappa0 in (0.0, -0.35, -0.7):
        params = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=kappa0, alpha_sq=250.0)
        objectives.append(objective(params, horizon=600.0, time_points=1200))
    assert objectives[0] > objectives[1] > objectives[2]


def test_refine_converges_on_synthetic_quadratic():
    calls = []

    def quad(point):
        calls.append(dict(point))
        return (point["beta"] - 0.4) ** 2 + (point["alpha_sq"] - 16.0) ** 2

    result = refine(
        {"beta": 0.55, "alpha_sq": 18.0},
        {"beta": 0.05, "alpha_sq": 0.5},
        max_iters=400,
        ftol=1e-14,
        objective_fn=quad,
    )
    assert result.best_point["beta"] == pytest.approx(0.4, abs=1e-4)
    assert result.best_point["alpha_sq"] == pytest.approx(16.0, abs=1e-4)
    assert result.metadata["converged"]
    assert calls  # the seam was exercised


def test_refine_trace_strictly_improving():
    def quad(point):
        return (point["beta"] - 0.1) ** 2

    result = refine(
        {"beta": 0.8}, {"beta": 0.1}, max_iters=100, ftol=1e-12, objective_fn=quad
    )
    values = [v for _, v in result.trace]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] <= values[0]


def test_refine_clamps_to_bounds():
    # unconstrained minimum at beta = -0.2 sits outside the box
    def quad(point):
        return (point["beta"] + 0.2) ** 2

    result = refine(
        {"beta": 0.5},
        {"beta": 0.2},
        max_iters=200,
        ftol=1e-12,
        bounds={"beta": (0.0, 1.0)},
        objective_fn=quad,
    )
    assert 0.0 <= result.best_point["beta"] <= 1.0
    assert result.best_point["beta"] == pytest.approx(0.0, abs=1e-6)


def test_refine_rejects_start_outside_bounds():
    with pytest.raises(DomainError):
        refine(
            {"beta": 2.0},
            {"beta": 0.1},
            bounds={"beta": (0.0, 1.0)},
            objective_fn=lambda point: 0.0,
        )


def test_refine_requires_an_objective():
    with pytest.raises(DomainError):
        refine({"beta": 0.5}, {"beta": 0.1})


@pytest.mark.parametrize(
    "start, scales, source, message",
    [
        ({}, {}, "objective_fn", "start_point must name at least one parameter"),
        ({"gamma": 0.5}, {"gamma": 0.1}, "spec", "start_point keys must be sweepable"),
        ({"gamma": 0.5}, {"gamma": 0.1}, "objective_fn", "start_point keys must be sweepable"),
        ({"beta": 0.5, "alpha_sq": 9.0}, {"beta": 0.1}, "objective_fn", "step_scales must cover"),
        ({"beta": 0.5}, {"beta": 0.1, "alpha_sq": 1.0}, "objective_fn", "step_scales must cover"),
    ],
    ids=["empty-start", "unsweepable-spec", "unsweepable-objective_fn", "scale-missing", "scale-extra"],
)
def test_refine_rejects_malformed_input(start, scales, source, message):
    sources = {
        "spec": ScanSpec(ranges={}, fixed={"beta": 0.4, **FIG3_FIXED}, horizon=10.0),
        "objective_fn": lambda point: 0.0,
    }
    with pytest.raises(DomainError, match=message):
        refine(start, scales, **{source: sources[source]})


@pytest.mark.parametrize("max_iters", [-1, -3])
def test_refine_rejects_a_negative_max_iters(max_iters):
    with pytest.raises(DomainError, match=f"max_iters must be an integer >= 0, got {max_iters}"):
        refine({"beta": 0.5}, {"beta": 0.1}, max_iters=max_iters, objective_fn=lambda point: 0.0)
    # zero iterations is a refinement that stops at its start
    result = refine({"beta": 0.5}, {"beta": 0.1}, max_iters=0, objective_fn=lambda point: 0.0)
    assert result.metadata == {"iterations": 0, "converged": False}


def test_refine_keeps_a_nan_objective_out_of_the_trace():
    seen = []

    def nan_first(point):
        seen.append(point["beta"])
        return math.nan if len(seen) == 1 else (point["beta"] - 0.1) ** 2

    result = refine({"beta": 0.8}, {"beta": 0.1}, max_iters=50, ftol=1e-12, objective_fn=nan_first)
    values = [v for _, v in result.trace]
    assert all(map(math.isfinite, values))
    assert result.trace[0] == ({"beta": seen[1]}, (seen[1] - 0.1) ** 2)
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("nan_first", [False, True], ids=["plain", "nan-first"])
def test_refine_converges_only_once_the_simplex_has_shrunk(nan_first):
    # the simplex first reaches equal values with its vertices at 0 and 0.2 (0.05 and
    # 0.15 after a NaN start), straddling the minimum a whole step wide
    def quad(point):
        return math.nan if nan_first and point["beta"] == 0.8 else (point["beta"] - 0.1) ** 2

    result = refine({"beta": 0.8}, {"beta": 0.1}, ftol=1e-12, objective_fn=quad)
    assert result.metadata["converged"]
    assert result.best_point["beta"] == pytest.approx(0.1, abs=1e-4 * 0.1)


def test_refine_with_no_finite_objective_raises_domain_error():
    with pytest.raises(DomainError, match="no evaluated point had a finite objective"):
        refine({"beta": 0.5}, {"beta": 0.1}, max_iters=5, objective_fn=lambda point: math.nan)


def test_refine_descent_contract_on_model_objective():
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.3, 0.5, 2)},
        fixed=FIG3_FIXED,
        horizon=100.0,
        time_points=400,
    )
    start = {"beta": 0.4193}
    start_value = objective(
        ModelParams(beta=0.4193, **FIG3_FIXED), horizon=100.0, time_points=400
    )
    result = refine(
        start, {"beta": 0.01}, max_iters=40, bounds={"beta": (0.3, 0.5)}, spec=spec
    )
    assert result.best_objective <= start_value
    assert 0.3 <= result.best_point["beta"] <= 0.5


def assert_grid_equals_pointwise(spec):
    result = grid_scan(spec)
    times = np.linspace(0.0, spec.horizon, spec.time_points)
    for row, value in zip(result.points, result.objectives):
        values = dict(spec.fixed)
        values.update(zip(result.axis_names, row.tolist()))
        params = ModelParams(kappa_convention=spec.kappa_convention, **values)
        assert value == objective(params, spec.horizon, spec.time_points, spec.tail_tol)
        assert value == transition_prob(params, times, spec.tail_tol).max()
    return result


def test_grid_scan_beta_alpha_grid_equals_pointwise_objective():
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.1, 0.45, 4), "alpha_sq": AxisRange(0.0, 30.0, 4)},
        fixed={"ratio_r": 0.12, "kappa0": 0.02},
        horizon=150.0,
        time_points=700,
    )
    result = assert_grid_equals_pointwise(spec)
    assert result.points[0].tolist() == [0.1, 0.0]


def test_grid_scan_three_axis_grid_equals_pointwise_objective():
    # longer than one time block, so each peak is a running maximum over blocks
    spec = ScanSpec(
        ranges={
            "beta": AxisRange(0.2, 0.5, 3),
            "alpha_sq": AxisRange(4.0, 25.0, 3),
            "kappa0": AxisRange(-0.4, 0.2, 3),
        },
        fixed={"ratio_r": 0.2},
        horizon=300.0,
        time_points=5000,
    )
    assert_grid_equals_pointwise(spec)


@pytest.fixture
def built_tables(monkeypatch):
    """The alpha_sq of every Poisson table the dynamics module builds, in order."""
    built = []
    original = dynamics.poisson_logweights

    def counting(alpha_sq, tail_tol):
        built.append(alpha_sq)
        return original(alpha_sq, tail_tol)

    monkeypatch.setattr(dynamics, "poisson_logweights", counting)
    return built


def test_grid_scan_builds_one_poisson_table_per_alpha_sq(built_tables):
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.1, 0.4, 3), "alpha_sq": AxisRange(1.0, 9.0, 3)},
        fixed={"ratio_r": 0.2, "kappa0": 0.1},
        horizon=50.0,
        time_points=200,
    )
    grid_scan(spec)
    assert built_tables == [1.0, 5.0, 9.0]


def test_grid_scan_invalid_point_raises_the_pointwise_error():
    # beta = 1e100 overflows the Laguerre recurrence: T is NaN from alpha_sq > 0
    # on, while (1e100, 0) is still finite; evaluation is grouped by beta
    spec = ScanSpec(
        ranges={"beta": AxisRange(0.1, 1e100, 2), "alpha_sq": AxisRange(0.0, 8.0, 3)},
        fixed={"ratio_r": 0.2, "kappa0": 0.1},
        horizon=50.0,
        time_points=200,
    )
    bad = ModelParams(ratio_r=0.2, beta=1e100, kappa0=0.1, alpha_sq=4.0)
    times = np.linspace(0.0, 50.0, 200)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DomainError) as from_grid:
            grid_scan(spec)
        with pytest.raises(DomainError) as from_point:
            objective(bad, 50.0, 200)
        with pytest.raises(DomainError) as from_series:
            transition_prob(bad, times)
        good = ModelParams(ratio_r=0.2, beta=1e100, kappa0=0.1, alpha_sq=0.0)
        assert objective(good, 50.0, 200) == 0.0
    assert str(from_grid.value) == str(from_point.value) == str(from_series.value)

    negative = ScanSpec(
        ranges={"beta": AxisRange(0.1, 0.3, 2), "alpha_sq": AxisRange(-4.0, 4.0, 3)},
        fixed={"ratio_r": 0.2, "kappa0": 0.1},
        horizon=50.0,
        time_points=200,
    )
    with pytest.raises(DomainError) as from_grid:
        grid_scan(negative)
    with pytest.raises(DomainError) as from_params:
        ModelParams(ratio_r=0.2, beta=0.1, kappa0=0.1, alpha_sq=-4.0)
    assert str(from_grid.value) == str(from_params.value)


@pytest.mark.parametrize(
    "beta_range, first_bad",
    [
        # non-finite T at (1e100, 4) comes before the oversized table at 2.5e6
        (AxisRange(1e100, 1e100, 2), {"beta": 1e100, "alpha_sq": 4.0}),
        # the oversized table at (0.1, 2.5e6) comes before non-finite T at (1e100, 4)
        (AxisRange(0.1, 1e100, 2), {"beta": 0.1, "alpha_sq": 2.5e6}),
    ],
)
def test_grid_scan_raises_the_first_error_in_row_major_order(beta_range, first_bad):
    spec = ScanSpec(
        ranges={"beta": beta_range, "alpha_sq": AxisRange(4.0, 2.5e6, 2)},
        fixed={"ratio_r": 0.2, "kappa0": 0.1},
        horizon=50.0,
        time_points=200,
    )
    bad = ModelParams(ratio_r=0.2, kappa0=0.1, **first_bad)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises((DomainError, CapacityError)) as from_grid:
            grid_scan(spec)
        with pytest.raises((DomainError, CapacityError)) as from_point:
            objective(bad, 50.0, 200)
    assert type(from_grid.value) is type(from_point.value)
    assert str(from_grid.value) == str(from_point.value)
