import math

import numpy as np
import pytest
from scipy.linalg import expm

from rabi_ent import (
    AdiabaticRegimeWarning,
    DomainError,
    KappaConvention,
    ModelParams,
    aa_row,
    aa_rows,
    effective_kappa,
    laguerre_sequence,
)
from rabi_ent.spectrum import aa_columns

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def random_params(rng):
    return ModelParams(
        ratio_r=float(rng.uniform(0.01, 0.3)),
        beta=float(rng.uniform(0.0, 0.6)),
        kappa0=float(rng.uniform(-1.0, 1.0)),
        alpha_sq=float(rng.uniform(0.0, 50.0)),
    )


def test_omega_1N_at_zero_coupling():
    params = ModelParams(ratio_r=0.2, beta=0.0)
    assert aa_row(0, params)["omega1N"] == pytest.approx(-0.2 / SQRT2, rel=1e-15)
    assert aa_row(37, params)["omega1N"] == pytest.approx(-0.2 / SQRT2, rel=1e-15)


def test_omega_1N_vanishes_with_qubit_frequency():
    with pytest.warns(AdiabaticRegimeWarning):
        params = ModelParams(ratio_r=0.0, beta=0.4)
    for n in (0, 5, 40):
        assert aa_row(n, params)["omega1N"] == 0.0


def test_omega_1N_against_displacement_oracle():
    # brute-force <N|D(beta)|N> via matrix exponentiation, cutoff 160
    beta = 0.4193
    ladder = np.diag(np.sqrt(np.arange(1.0, 161.0)), 1)
    overlap = expm(beta * (ladder.T - ladder))[16, 16]
    params = ModelParams(ratio_r=0.12, beta=beta, kappa0=0.02, alpha_sq=106.0)
    expected = -(0.12 / SQRT2) * overlap
    assert expected == pytest.approx(0.031003248518354, rel=1e-9)  # frozen
    # <N|D(beta)|N> = exp(-beta^2/2) L_N(beta^2)
    identity = math.exp(-0.5 * beta * beta) * laguerre_sequence(16, beta * beta)[-1]
    assert identity == pytest.approx(overlap, rel=1e-10)
    assert aa_row(16, params)["omega1N"] == pytest.approx(expected, rel=1e-10)


def test_omega_2N_zero_kappa():
    params = ModelParams(ratio_r=0.12, beta=0.4193, kappa0=0.0)
    for n in (0, 10, 106):
        assert aa_row(n, params)["omega2N"] == 0.0


def test_omega_2N_ground_state():
    params = ModelParams(ratio_r=0.23, beta=0.0, kappa0=0.1)
    assert effective_kappa(params) == pytest.approx(0.023, rel=1e-15)
    assert aa_row(0, params)["omega2N"] == pytest.approx(-0.023, rel=1e-15)


def test_uncoupled_limit_row():
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0)
    row = aa_row(3, params)
    assert row["t0tilde"] == 0.0
    assert row["weight"] == 0.125  # exact: omega1^2 / (8 omega1^2)
    assert row["rabi_freq"] == pytest.approx(2.0 * 0.2, rel=1e-14)
    assert row["e0"] == pytest.approx(3.0, rel=1e-15)
    # symmetric splitting about the dark level
    assert row["eplus"] - row["e0"] == pytest.approx(row["e0"] - row["eminus"], abs=1e-14)
    assert not row["degenerate"]


def test_zero_coupling_row_is_flagged_absent():
    # omega1N == 0 with t0tilde != 0: weight vanishes, ratios undefined
    with pytest.warns(AdiabaticRegimeWarning):
        params = ModelParams(ratio_r=0.0, beta=0.3, kappa0=0.0)
    row = aa_row(4, params)
    assert row["omega1N"] == 0.0
    assert row["t0tilde"] != 0.0
    assert row["weight"] == 0.0
    for name in ("y_plus", "y_minus", "l2_plus", "l2_minus"):
        assert math.isnan(row[name])
    assert not row["degenerate"]


def test_doubly_singular_row_is_degenerate():
    with pytest.warns(AdiabaticRegimeWarning):
        params = ModelParams(ratio_r=0.0, beta=0.0, kappa0=0.0)
    row = aa_row(2, params)
    assert row["degenerate"]
    assert row["weight"] == 0.0
    assert row["rabi_freq"] == 0.0


def test_branch_ordering_and_weight_bound():
    rng = np.random.default_rng(7)
    for _ in range(500):
        row = aa_row(int(rng.integers(0, 201)), random_params(rng))
        assert row["eplus"] >= row["eminus"]
        assert row["rabi_freq"] >= 0.0
        assert 0.0 <= row["weight"] <= 0.125 + 1e-16
        assert row["eplus"] - row["eminus"] == pytest.approx(row["rabi_freq"], rel=1e-12)


def test_root_identities():
    rng = np.random.default_rng(11)
    for _ in range(500):
        row = aa_row(int(rng.integers(0, 201)), random_params(rng))
        if row["omega1N"] == 0.0:
            continue
        assert row["y_plus"] * row["y_minus"] == pytest.approx(-2.0, abs=1e-10)
        assert row["y_plus"] - row["y_minus"] == pytest.approx(
            row["rabi_freq"] / row["omega1N"], rel=1e-10
        )
        # eigenvector normalization holds exactly by construction
        assert (2.0 + row["y_plus"] ** 2) / row["l2_plus"] == 1.0
        assert (2.0 + row["y_minus"] ** 2) / row["l2_minus"] == 1.0


def test_stable_weight_equals_ratio_form():
    rng = np.random.default_rng(13)
    for _ in range(500):
        row = aa_row(int(rng.integers(0, 201)), random_params(rng))
        if row["omega1N"] == 0.0:
            continue
        ratio_form = row["y_plus"] ** 2 / row["l2_plus"] ** 2
        assert abs(row["weight"] - ratio_form) <= 1e-12


def same(a, b):
    """Equality in which NaN equals NaN, as the ratios of a dark row need."""
    return a == b or (math.isnan(a) and math.isnan(b))


def same_row(a, b):
    return list(a) == list(b) and all(same(x, y) for x, y in zip(a.values(), b.values()))


@pytest.mark.filterwarnings("ignore::rabi_ent.AdiabaticRegimeWarning")
def test_batch_rows_match_scalar_rows():
    for ratio_r in (0.12, 0.0):  # bright rows, then dark ones
        params = ModelParams(ratio_r=ratio_r, beta=0.4193, kappa0=0.02, alpha_sq=106.0)
        batch = aa_rows(params, 40)
        for n in (0, 1, 17, 40):
            assert same_row(batch[n], aa_row(n, params))
        window = aa_rows(params, 40, n_min=30)
        assert [r["N"] for r in window] == list(range(30, 41))
        assert same_row(window[0], batch[30])


def scalar_row(N, lag1, lag2, params):
    """Reference: one row from scalar float arithmetic, with math.hypot for the radical."""
    b2 = params.beta * params.beta
    k_eff = effective_kappa(params)
    om1 = -(params.ratio_r / SQRT2) * math.exp(-0.5 * b2) * lag1
    om2 = -k_eff * math.exp(-2.0 * b2) * lag2
    t0 = -b2 + k_eff + om2
    radical = math.hypot(t0, math.sqrt(8.0) * om1)
    row = dict(N=N, omega1N=om1, omega2N=om2, t0tilde=t0, e0=N - b2 - om2)
    row.update(eplus=N - k_eff + 0.5 * (t0 + radical), eminus=N - k_eff + 0.5 * (t0 - radical))
    row.update(y_plus=math.nan, y_minus=math.nan, l2_plus=math.nan, l2_minus=math.nan)
    row.update(weight=0.0)
    if om1 != 0.0:
        if t0 > 0.0:
            y_minus = (-t0 - radical) / (2.0 * om1)
            y_plus = -2.0 / y_minus
        else:
            y_plus = (-t0 + radical) / (2.0 * om1)
            y_minus = -2.0 / y_plus
        row.update(y_plus=y_plus, y_minus=y_minus, l2_plus=y_plus**2 + 2.0)
        row.update(l2_minus=y_minus**2 + 2.0, weight=om1 * om1 / (t0 * t0 + 8.0 * om1 * om1))
    row.update(rabi_freq=radical, degenerate=om1 == 0.0 and t0 == 0.0)
    return row


# math.hypot and np.hypot may round the radical differently, by at most an ulp
RADICAL_FIELDS = ("eplus", "eminus", "y_plus", "y_minus", "l2_plus", "l2_minus", "rabi_freq")


@pytest.mark.filterwarnings("ignore::rabi_ent.AdiabaticRegimeWarning")
@pytest.mark.parametrize(
    "fields",
    [
        dict(ratio_r=0.12, beta=0.4193, kappa0=0.02, alpha_sq=106.0),
        dict(ratio_r=0.2, beta=-0.4717, kappa0=-0.7, alpha_sq=250.0),
        # ratio_r = 0: omega1N == 0 on every row, t0tilde = -beta^2 != 0
        dict(ratio_r=0.0, beta=0.3),
        # and with beta = 0 as well, t0tilde == 0: every row is degenerate
        dict(ratio_r=0.0, beta=0.0),
    ],
)
def test_columns_equal_row_fields_and_scalar_reference(fields):
    params = ModelParams(**fields)
    columns = aa_columns(params, 60, n_min=5)
    rows = aa_rows(params, 60, n_min=5)
    assert all(column.shape == (56,) for column in columns.values())
    assert len(rows) == 56
    for index, row in enumerate(rows):
        assert type(row) is dict and list(row) == list(columns)
        assert same_row(aa_row(row["N"], params), row)
        for name, column in columns.items():
            # the Python value of the column entry, NaN included, bit for bit
            assert type(row[name]) is type(column[index].item())
            assert np.array([row[name]]).tobytes() == column[index : index + 1].tobytes()
    dark = columns["omega1N"] == 0.0
    for name in ("y_plus", "y_minus", "l2_plus", "l2_minus"):
        assert np.array_equal(np.isnan(columns[name]), dark)
    assert np.all(columns["weight"][dark] == 0.0)
    assert np.array_equal(columns["degenerate"], dark & (columns["t0tilde"] == 0.0))
    if params.ratio_r == 0.0:
        assert dark.all()
        assert columns["degenerate"].all() == (params.beta == 0.0)
    else:
        assert not dark.any()
    lag1 = laguerre_sequence(60, params.beta**2)
    lag2 = laguerre_sequence(60, 4.0 * params.beta**2)
    for row in rows:
        reference = scalar_row(row["N"], float(lag1[row["N"]]), float(lag2[row["N"]]), params)
        assert list(reference) == list(row)
        for name, expected in reference.items():
            if name in RADICAL_FIELDS and not math.isnan(expected):
                assert row[name] == pytest.approx(expected, rel=4 * EPS, abs=0.0)
            else:
                assert same(row[name], expected), name


def test_weight_survives_underflowing_squares():
    # omega1N^2 and t0tilde^2 both underflow to 0 here; the weight is still
    # omega1N^2 / (t0tilde^2 + 8 omega1N^2) = 1 / ((t0tilde / omega1N)^2 + 8)
    row = aa_row(3, ModelParams(ratio_r=1e-200, beta=0.0))
    assert row["omega1N"] != 0.0 and row["t0tilde"] == 0.0
    assert row["weight"] == 0.125
    # t0tilde = -beta^2 = omega1N, so the weight is 1 / (1 + 8)
    row = aa_row(3, ModelParams(ratio_r=math.sqrt(2.0) * 1e-200, beta=1e-100))
    assert row["t0tilde"] == -1e-200 and row["omega1N"] == pytest.approx(-1e-200, rel=1e-15)
    assert row["weight"] == pytest.approx(1.0 / 9.0, rel=1e-15)
    # omega1N^2 is subnormal and t0tilde^2 rounds to 0: t0tilde / omega1N = 1/10
    row = aa_row(3, ModelParams(ratio_r=math.sqrt(2.0) * 1e-161, beta=1e-81))
    assert row["t0tilde"] == -1e-162 and row["omega1N"] == pytest.approx(-1e-161, rel=1e-15)
    assert row["weight"] == pytest.approx(1.0 / 8.01, rel=1e-15)


@pytest.mark.filterwarnings("ignore::rabi_ent.AdiabaticRegimeWarning")
def test_weight_survives_overflowing_squares():
    # omega1N^2 is finite but 8 omega1N^2 overflows; t0tilde == 0 at beta = 0
    row = aa_row(3, ModelParams(ratio_r=math.sqrt(2.0) * 1e154, beta=0.0))
    assert math.isfinite(row["omega1N"] ** 2) and math.isinf(8.0 * row["omega1N"] ** 2)
    assert row["weight"] == 0.125


def test_energy_fields():
    params = ModelParams(ratio_r=0.12, beta=0.4193, kappa0=0.02, alpha_sq=106.0)
    row = aa_row(106, params)
    b2 = 0.4193**2
    t0tilde = -b2 + effective_kappa(params) + row["omega2N"]
    assert row["t0tilde"] == pytest.approx(t0tilde, rel=1e-13)
    assert row["e0"] == pytest.approx(106.0 - b2 - row["omega2N"], rel=1e-13)
    mid = 106.0 - effective_kappa(params) + 0.5 * row["t0tilde"]
    assert 0.5 * (row["eplus"] + row["eminus"]) == pytest.approx(mid, rel=1e-13)


def test_preserved_regime_weight_window():
    # at the preserved operating point the weight stays far below its 1/8
    # ceiling across the whole photon window carrying the coherent state
    params = ModelParams(ratio_r=0.12, beta=0.4193, kappa0=0.02, alpha_sq=106.0)
    rows = aa_rows(params, 126, n_min=86)
    weights = [row["weight"] for row in rows]
    assert max(weights) < 0.011  # vs 0.125 ceiling; frozen from this implementation
    assert rows[106 - 86]["weight"] < 1e-9  # node of the bright-branch coupling


def test_suppression_mechanism_at_poisson_peak():
    # negative coupling makes both kappa_eff and omega2N negative near the
    # peak, pushing the weight toward zero over a wide window around alpha_sq
    params = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=250.0)
    rows = aa_rows(params, 300)
    assert effective_kappa(params) < 0.0
    assert rows[250]["omega2N"] < 0.0
    window_min = min(r["weight"] for r in rows[240:261])
    assert window_min < 1e-6
    assert window_min < rows[210]["weight"]
    assert window_min < rows[290]["weight"]


def test_aa_energies_match_displaced_subspace_oracle():
    # independent oracle: build the fixed-N three-state block numerically
    # from expm displacement overlaps and diagonalize it with numpy
    params = ModelParams(ratio_r=0.12, beta=0.4193, kappa0=0.02, alpha_sq=106.0)
    beta = params.beta
    k_eff = effective_kappa(params)
    ladder = np.diag(np.sqrt(np.arange(1.0, 200.0)), 1)
    d_one = expm(beta * (ladder.T - ladder))
    d_two = expm(2.0 * beta * (ladder.T - ladder))
    for n in (0, 5, 57, 106):
        ov1 = d_one[n, n]
        ov2 = d_two[n, n]
        om1 = -(params.ratio_r / SQRT2) * ov1
        om2 = -k_eff * ov2
        block = np.array(
            [
                [n - beta**2, om2, om1],
                [om2, n - beta**2, om1],
                [om1, om1, n - k_eff],
            ]
        )
        evals = np.linalg.eigvalsh(block)
        row = aa_row(n, params)
        assert sorted([row["e0"], row["eplus"], row["eminus"]]) == pytest.approx(
            evals.tolist(), rel=1e-10, abs=1e-10
        )


def test_row_input_validation():
    params = ModelParams(ratio_r=0.2, beta=0.1)
    with pytest.raises(DomainError):
        aa_row(-1, params)
    with pytest.raises(DomainError):
        aa_row(2.5, params)
    with pytest.raises(DomainError):
        aa_rows(params, 3, n_min=5)


def test_kappa_convention_changes_bright_branches():
    base = dict(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=250.0)
    row_omega0 = aa_row(250, ModelParams(**base))
    row_omega = aa_row(
        250, ModelParams(**base, kappa_convention=KappaConvention.OMEGA_SCALED)
    )
    assert row_omega["t0tilde"] != row_omega0["t0tilde"]
    assert row_omega["weight"] < row_omega0["weight"]
