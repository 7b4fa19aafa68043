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
    effective_kappa,
    evolve,
    objective,
    refine,
)


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


# the public integer inputs checked by params._is_integer, with the message each raises
INTEGER_SITES = {
    "AxisRange.steps": (
        lambda x: AxisRange(min=0.0, max=1.0, steps=x),
        "steps must be an integer",
    ),
    "ScanSpec.time_points": (
        lambda x: ScanSpec(
            ranges={},
            fixed={"ratio_r": 0.2, "beta": 0.3, "kappa0": 0.0, "alpha_sq": 1.0},
            horizon=1.0,
            time_points=x,
        ),
        "time_points must be an integer",
    ),
    "EDConfig.n_max": (lambda x: EDConfig(n_max=x), "n_max must be an integer"),
    "evolve.initial_fock": (
        lambda x: evolve(
            make(), EDConfig(n_max=4), [0.0], initial_fock=x, compute_truncation_error=False
        ),
        "initial_fock must be an integer",
    ),
    "aa_row.N": (lambda x: aa_row(x, make()), "N must be a nonnegative integer"),
    "objective.time_points": (
        lambda x: objective(make(), 10.0, time_points=x),
        "time_points must be an integer",
    ),
    "refine.max_iters": (
        lambda x: refine(
            {"beta": 0.5}, {"beta": 0.1}, max_iters=x, objective_fn=lambda p: p["beta"] ** 2
        ),
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
