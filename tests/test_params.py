import math

import numpy as np
import pytest

from rabi_ent import (
    AdiabaticRegimeWarning,
    AxisRange,
    DomainError,
    EDConfig,
    KappaConvention,
    ModelParams,
    ScanSpec,
    SpinState,
    aa_row,
    coherent_amplitudes,
    displaced_overlap,
    effective_kappa,
    evolve,
    jc_inversion,
    laguerre,
    laguerre_sequence,
    objective,
    poisson_logweights,
    refine,
)
from rabi_ent.spectrum import aa_columns


def make(**kwargs):
    defaults = dict(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=25.0)
    defaults.update(kwargs)
    return ModelParams(**defaults)


def test_effective_kappa_omega0_scaled():
    params = make(kappa0=0.1, ratio_r=0.23)
    assert effective_kappa(params) == pytest.approx(0.023, rel=1e-15)


def test_effective_kappa_omega_scaled_is_identity():
    params = make(kappa0=0.1, ratio_r=0.23, kappa_convention=KappaConvention.OMEGA_SCALED)
    assert effective_kappa(params) == 0.1


@pytest.mark.parametrize("convention", list(KappaConvention))
def test_effective_kappa_zero(convention):
    params = make(kappa0=0.0, kappa_convention=convention)
    assert effective_kappa(params) == 0.0


def test_effective_kappa_linear_in_kappa0():
    base = effective_kappa(make(kappa0=0.2))
    assert effective_kappa(make(kappa0=0.4)) == pytest.approx(2.0 * base, rel=1e-15)
    assert effective_kappa(make(kappa0=-0.2)) == pytest.approx(-base, rel=1e-15)


def test_convention_switch_inert_at_zero_kappa():
    # downstream quantities must coincide when kappa0 == 0
    row_a = aa_row(7, make(kappa0=0.0))
    row_b = aa_row(7, make(kappa0=0.0, kappa_convention=KappaConvention.OMEGA_SCALED))
    assert row_a == row_b


def test_negative_kappa0_allowed():
    params = make(kappa0=-0.7)
    assert effective_kappa(params) < 0.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha_sq", -1.0),
        ("beta", math.nan),
        ("beta", math.inf),
        ("ratio_r", math.nan),
        ("kappa0", math.inf),
    ],
)
def test_invalid_numbers_rejected(field, value):
    with pytest.raises(DomainError):
        make(**{field: value})


@pytest.mark.parametrize(
    "value", [np.int64(0), np.float32(0.2), np.float64(0.2)], ids=["int64", "float32", "float64"]
)
def test_numpy_real_scalars_accepted(value):
    params = ModelParams(ratio_r=np.float32(0.2), beta=value)
    assert type(params.beta) is float and params.beta == float(value)
    assert type(params.ratio_r) is float and params.ratio_r == float(np.float32(0.2))


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
def test_bools_rejected_as_real_numbers(value):
    with pytest.raises(DomainError, match="beta must be a real number"):
        make(beta=value)


def test_omega_is_pinned_to_one():
    with pytest.raises(TypeError):
        make(omega=2.0)


def test_adiabatic_regime_flagging():
    with pytest.warns(AdiabaticRegimeWarning):
        params = ModelParams(ratio_r=1.5, beta=0.1)
    assert not params.in_adiabatic_regime
    with pytest.warns(AdiabaticRegimeWarning):
        ModelParams(ratio_r=0.0, beta=0.1)
    assert make().in_adiabatic_regime


def test_params_frozen():
    params = make()
    with pytest.raises(AttributeError):
        params.beta = 0.3


def test_spin_state_labels():
    assert SpinState.J1M0.value == "1,0"
    assert SpinState.J0M0.value == "0,0"
    assert SpinState.J1M1.value == "1,1"
    assert SpinState.J1M_MINUS1.value == "1,-1"


def scan_spec(**kwargs):
    fixed = {"ratio_r": 0.2, "beta": 0.3, "kappa0": 0.0, "alpha_sq": 1.0}
    return ScanSpec(ranges={}, fixed=fixed, **{"horizon": 1.0, **kwargs})


def quadratic(point):
    return point["beta"] ** 2


# the public integer inputs checked by params._is_integer, with the message each raises
INTEGER_SITES = {
    "AxisRange.steps": (
        lambda x: AxisRange(min=0.0, max=1.0, steps=x),
        "steps must be an integer",
    ),
    "ScanSpec.time_points": (lambda x: scan_spec(time_points=x), "time_points must be an integer"),
    "ScanSpec.grid_ceiling": (
        lambda x: scan_spec(grid_ceiling=x),
        "grid_ceiling must be an integer",
    ),
    "EDConfig.n_max": (lambda x: EDConfig(n_max=x), "n_max must be an integer"),
    "EDConfig.dim_ceiling": (
        lambda x: EDConfig(n_max=4, dim_ceiling=x),
        "dim_ceiling must be an integer",
    ),
    "evolve.initial_fock": (
        lambda x: evolve(
            make(), EDConfig(n_max=4), [0.0], initial_fock=x, compute_truncation_error=False
        ),
        "initial_fock must be an integer",
    ),
    "aa_row.N": (lambda x: aa_row(x, make()), "N must be a nonnegative integer"),
    "aa_columns.n_min": (lambda x: aa_columns(make(), 5, n_min=x), "need integers"),
    "aa_columns.n_max": (lambda x: aa_columns(make(), x), "need integers"),
    "laguerre_sequence.n_max": (lambda x: laguerre_sequence(x, 0.5), "degree must be an integer"),
    "laguerre.n": (lambda x: laguerre(x, 0.5), "degree must be an integer"),
    "displaced_overlap.n": (lambda x: displaced_overlap(x, 0.5), "degree must be an integer"),
    "coherent_amplitudes.n_max": (
        lambda x: coherent_amplitudes(1.0, x),
        "n_max must be an integer",
    ),
    "objective.time_points": (
        lambda x: objective(make(), 10.0, time_points=x),
        "time_points must be an integer",
    ),
    "refine.max_iters": (
        lambda x: refine({"beta": 0.5}, {"beta": 0.1}, max_iters=x, objective_fn=quadratic),
        "max_iters must be an integer",
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_integer_inputs_reject_non_finite_values(site, value):
    build, message = INTEGER_SITES[site]
    with pytest.raises(DomainError, match=message):
        build(value)


@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_integer_inputs_accept_integral_values_and_reject_bools_and_strings(site):
    build, message = INTEGER_SITES[site]
    for value in (3, np.int64(3), 3.0, np.float64(3.0)):
        build(value)
    for value in (True, np.True_, "3", 2.5):
        with pytest.raises(DomainError, match=message):
            build(value)


# the public real inputs checked by params._is_real, with the message each raises
REAL_SITES = {
    **{
        f"ModelParams.{name}": (
            lambda x, name=name: make(**{name: x}),
            f"{name} must be a real number",
        )
        for name in ("ratio_r", "beta", "kappa0", "alpha_sq")
    },
    "AxisRange.min": (lambda x: AxisRange(min=x, max=10.0, steps=2), "axis range needs real"),
    "AxisRange.max": (lambda x: AxisRange(min=0.0, max=x, steps=2), "axis range needs real"),
    "ScanSpec.horizon": (lambda x: scan_spec(horizon=x), "horizon must be a real number"),
    "objective.horizon": (
        lambda x: objective(make(), x, time_points=2),
        "horizon must be a real number",
    ),
    "laguerre_sequence.x": (lambda x: laguerre_sequence(3, x), "argument must be a real number"),
    "laguerre.x": (lambda x: laguerre(3, x), "argument must be a real number"),
    "displaced_overlap.d": (
        lambda x: displaced_overlap(2, x),
        "displacement must be a real number",
    ),
    "poisson_logweights.alpha_sq": (
        lambda x: poisson_logweights(x),
        "alpha_sq must be a real number",
    ),
    "poisson_logweights.tail_tol": (
        lambda x: poisson_logweights(4.0, tail_tol=x),
        "tail_tol must be a real number",
    ),
    "jc_inversion.delta": (
        lambda x: jc_inversion(x, 1.0, 4.0, [0.0, 1.0]),
        "delta must be a real number",
    ),
    "jc_inversion.g": (lambda x: jc_inversion(0.0, x, 4.0, [0.0, 1.0]), "g must be a real number"),
    "coherent_amplitudes.alpha_sq": (
        lambda x: coherent_amplitudes(x, 40),
        "alpha_sq must be a real number",
    ),
    "refine.start_point": (
        lambda x: refine({"beta": x}, {"beta": 0.1}, max_iters=2, objective_fn=quadratic),
        "start_point beta must be a real number",
    ),
    "refine.step_scales": (
        lambda x: refine({"beta": 0.5}, {"beta": x}, max_iters=2, objective_fn=quadratic),
        "step_scales beta must be a nonzero real number",
    ),
    "refine.ftol": (
        lambda x: refine({"beta": 0.5}, {"beta": 0.1}, 2, x, objective_fn=quadratic),
        "ftol must be a real number",
    ),
}

# valid values of each kind; a site whose range excludes them lists its own
REAL_VALUES = (3, np.int64(3), np.float32(0.5), 0.5)
REAL_VALUES_IN_RANGE = {"poisson_logweights.tail_tol": (1e-7, np.float32(1e-7), np.float64(1e-8))}


@pytest.mark.parametrize(
    "value",
    [True, np.True_, "0.5", math.nan, math.inf, -math.inf],
    ids=["True", "np.True_", "str", "nan", "inf", "-inf"],
)
@pytest.mark.parametrize("site", list(REAL_SITES))
def test_real_inputs_reject_bools_strings_and_non_finite_values(site, value):
    build, message = REAL_SITES[site]
    with pytest.raises(DomainError, match=message):
        build(value)


@pytest.mark.filterwarnings("ignore::rabi_ent.AdiabaticRegimeWarning")
@pytest.mark.parametrize("site", list(REAL_SITES))
def test_real_inputs_accept_ints_floats_and_numpy_scalars(site):
    build, _ = REAL_SITES[site]
    for value in REAL_VALUES_IN_RANGE.get(site, REAL_VALUES):
        build(value)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"step_scales": {"beta": 0.0}}, "step_scales beta must be a nonzero real number"),
        ({"step_scales": {"beta": -0.0}}, "step_scales beta must be a nonzero real number"),
        ({"ftol": -1e-8}, "ftol must be a real number >= 0"),
    ],
    ids=["zero-step", "negative-zero-step", "negative-ftol"],
)
def test_refine_rejects_a_zero_step_and_a_negative_ftol(kwargs, message):
    args = {"start_point": {"beta": 0.5}, "step_scales": {"beta": 0.1}, **kwargs}
    with pytest.raises(DomainError, match=message):
        refine(**args, objective_fn=quadratic)


def test_checked_scalars_are_stored_as_python_floats_and_ints():
    axis = AxisRange(min=np.float32(0.5), max=3, steps=np.float64(3.0))
    assert (type(axis.min), type(axis.max), type(axis.steps)) == (float, float, int)
    assert axis.grid().dtype == np.float64
    spec = scan_spec(horizon=np.float32(0.5), grid_ceiling=np.int64(10))
    assert (type(spec.horizon), type(spec.grid_ceiling)) == (float, int)
    assert type(EDConfig(n_max=4, dim_ceiling=np.float64(64.0)).dim_ceiling) is int
    assert aa_columns(make(), 5.0, n_min=np.float32(2.0))["N"].tolist() == [2, 3, 4, 5]
    assert aa_columns(make(), 5.0)["N"].dtype.kind == "i"
