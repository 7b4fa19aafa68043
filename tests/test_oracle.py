import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from rabi_ent import (
    AdiabaticRegimeWarning,
    CapacityError,
    DomainError,
    ModelParams,
    SpinState,
    TruncationWarning,
    build_hamiltonian,
    concurrence,
    effective_kappa,
    eigendecompose,
    evolve,
    poisson_logweights,
    required_n_max,
    transition_prob,
)
from rabi_ent.dynamics import _PHASE_BLOCK
from rabi_ent import oracle
from rabi_ent.oracle import PRUNE_BOUND, TRUNCATION_MARGIN, _checked_eigh, _parity_block

BELL_SYMMETRIC = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)


def quiet_params(**kwargs):
    """ModelParams builder that tolerates the flagged ratio_r = 0 edge."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticRegimeWarning)
        return ModelParams(**kwargs)


def test_free_oscillator_spectrum():
    params = quiet_params(ratio_r=0.0, beta=0.0, kappa0=0.0)
    h = build_hamiltonian(params, 12)
    evals, _ = eigendecompose(h)
    expected = np.repeat(np.arange(13.0), 4)
    assert evals == pytest.approx(expected, abs=1e-12)


def test_displaced_oscillator_spectrum_half_sum():
    # kappa = 0, ratio_r = 0, beta != 0: displaced towers N - m^2 beta^2
    beta = 0.35
    params = quiet_params(ratio_r=0.0, beta=beta, kappa0=0.0)
    n_max = 40
    h = build_hamiltonian(params, n_max)
    evals, _ = eigendecompose(h)
    towers = sorted(
        [n - beta * beta for n in range(n_max + 1)] * 2
        + [float(n) for n in range(n_max + 1)] * 2
    )
    # compare the lower half, untouched by truncation
    keep = 2 * n_max
    assert evals[:keep] == pytest.approx(np.array(towers[:keep]), abs=1e-8)


def test_displaced_oscillator_spectrum_pauli_sum():
    # the literal sz1 + sz2 reading is the oracle at 2 * beta
    beta = 0.35
    params = quiet_params(ratio_r=0.0, beta=2.0 * beta, kappa0=0.0)
    evals, _ = eigendecompose(build_hamiltonian(params, 40))
    towers = sorted(
        [n - 4.0 * beta * beta for n in range(41)] * 2 + [float(n) for n in range(41)] * 2
    )
    assert evals[:80] == pytest.approx(np.array(towers[:80]), abs=1e-8)


def test_antisymmetric_sector_decouples():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=4.0)
    n_max = 30
    h = build_hamiltonian(params, n_max)
    n_osc = n_max + 1
    block = h[3 * n_osc :, : 3 * n_osc]
    assert np.all(block == 0.0)
    # inside the sector: a bare displaced-free oscillator plus constant shift
    inner = h[3 * n_osc :, 3 * n_osc :]
    assert np.all(np.diag(inner, 1) == 0.0)


def test_hamiltonian_symmetric_and_capacity(monkeypatch):
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1)
    h = build_hamiltonian(params, 20)
    assert np.array_equal(h, h.T)
    with pytest.raises(CapacityError, match=r"^dimension 8196 exceeds the ceiling 8192$"):
        build_hamiltonian(params, 2048)
    monkeypatch.setattr(oracle, "DIM_CEILING", 404)
    assert build_hamiltonian(params, 100).shape == (404, 404)
    monkeypatch.setattr(oracle, "DIM_CEILING", 403)
    with pytest.raises(CapacityError):
        build_hamiltonian(params, 100)


def test_evolve_capacity_bounds_the_requested_cutoff_not_the_rerun(monkeypatch):
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1)
    n = required_n_max(params.alpha_sq)
    monkeypatch.setattr(oracle, "DIM_CEILING", 4 * (n + 1))
    result = evolve(params, n, [0.0, 1.0])
    assert result.truncation_error is not None
    monkeypatch.setattr(oracle, "DIM_CEILING", 4 * (n + 1) - 1)
    with pytest.raises(CapacityError):
        evolve(params, n, [0.0, 1.0])


def test_eigendecompose_two_by_two():
    evals, evecs = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert evals == pytest.approx([-1.0, 1.0], abs=1e-15)
    assert np.abs(np.linalg.det(evecs)) == pytest.approx(1.0, rel=1e-12)


def test_eigendecompose_random_symmetric_residual():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((50, 50))
    h = 0.5 * (a + a.T)
    evals, evecs = eigendecompose(h)
    residual = np.linalg.norm(h @ evecs - evecs * evals, axis=0).max()
    assert residual <= 1e-9 * np.abs(evals).max()
    assert np.all(np.diff(evals) >= 0.0)


@pytest.mark.parametrize("target", [0, -1])
def test_checked_eigh_checks_the_residual_of_every_chunk(target):
    # the last eigenvector falls in a partial final chunk of 44 columns
    dim = 2 * _PHASE_BLOCK + 44
    a = np.random.default_rng(3).standard_normal((dim, dim))
    h = 0.5 * (a + a.T)
    evals = np.linalg.eigvalsh(h)
    corrupted = []

    def product(v):
        # corrupt H v of the eigenvector of evals[target] alone, found by its Rayleigh quotient
        hv = h @ v
        hit = np.abs(np.einsum("ij,ij->j", v, hv) - evals[target]) < 1e-8
        corrupted.append(int(hit.sum()))
        hv[:, hit] += 1e-6
        return hv

    _checked_eigh(h, h.__matmul__)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        _checked_eigh(h, product)
    assert sum(corrupted) == 1


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e160, 1e200, 1e300])
def test_checked_eigh_residual_test_is_relative_at_any_scale(scale):
    # the residual is divided by ||H|| before its norm is taken, whose squares
    # overflowed past ||H|| ~ 1e154; a corrupted pair still fails at every scale
    a = np.random.default_rng(5).standard_normal((40, 40))
    h = 0.5 * (a + a.T) * scale
    _checked_eigh(h, h.__matmul__)

    def product(v):
        hv = h @ v
        hv[:, -1] += 1e-6 * scale
        return hv

    with pytest.raises(RuntimeError, match="eigenpair residual"):
        _checked_eigh(h, product)


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(DomainError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DomainError):
        eigendecompose(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        eigendecompose(np.diag([1.0, math.nan]))


def _coherent_amplitudes(alpha_sq: float, n_max: int) -> np.ndarray:
    """The Fock amplitudes of the initial coherent state, the |1,0> row of the oracle's start."""
    params = ModelParams(ratio_r=0.05, beta=0.2, alpha_sq=alpha_sq)
    return oracle._initial_vector(params, n_max, SpinState.J1M0, None)[2]


def test_coherent_amplitudes_norm_and_values():
    amps = _coherent_amplitudes(9.0, required_n_max(9.0))
    assert np.linalg.norm(amps) >= 1.0 - 1e-12
    alpha = 3.0
    assert amps[0] == pytest.approx(math.exp(-4.5), rel=1e-13)
    assert amps[2] == pytest.approx(math.exp(-4.5) * alpha**2 / math.sqrt(2.0), rel=1e-13)
    vacuum = _coherent_amplitudes(0.0, required_n_max(0.0))
    assert vacuum[0] == 1.0 and np.all(vacuum[1:] == 0.0)


@pytest.mark.parametrize("alpha_sq", [0.0, 0.0033, 0.37, 16.0, 106.0, 250.0])
def test_coherent_amplitudes_are_square_roots_of_the_poisson_table(alpha_sq):
    n_lo, log_p = poisson_logweights(alpha_sq)
    n_cut = n_lo + log_p.size - 1
    amps = _coherent_amplitudes(alpha_sq, max(n_cut, required_n_max(alpha_sq)))
    assert np.array_equal(amps[n_lo : n_cut + 1], np.exp(0.5 * log_p))
    # the window drops a lower tail of at most 1e-18
    assert float(np.sum(amps[:n_lo] ** 2)) <= 1e-18


def test_coherent_amplitudes_are_normalized_near_the_dimension_ceiling():
    # an admitted coherent state (dimension 8,072 of 8,192) at which the form
    # -alpha_sq + N log alpha_sq - lgamma(N + 1) left 1 - ||psi0|| = 9.25e-13, 7.5% short
    # of the check's 1e-12
    alpha_sq = 1614.84977
    n_max = required_n_max(alpha_sq)
    assert 4 * (n_max + 1) <= oracle.DIM_CEILING
    assert abs(1.0 - np.linalg.norm(_coherent_amplitudes(alpha_sq, n_max))) <= 1e-14


def test_evolve_requires_adequate_cutoff():
    params = ModelParams(ratio_r=0.05, beta=0.2, alpha_sq=9.0)
    with pytest.raises(DomainError):
        evolve(params, 30, np.linspace(0.0, 1.0, 3))


def test_invalid_initial_state_fails_before_any_eigh(monkeypatch):
    # both starts are valid at n_max + 20, where the truncation re-run evolves them
    eigh, dims = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: dims.append(np.ndim(h)) or eigh(h))
    params = ModelParams(ratio_r=0.05, beta=0.2, alpha_sq=9.0)
    n_max = required_n_max(params.alpha_sq) - 1
    for start in ({"initial_fock": n_max + 1}, {}, {"initial_spin": "J1M0"}):
        with pytest.raises(DomainError):
            evolve(params, n_max, [0.0, 1.0], compute_truncation_error=True, **start)
    assert dims == []
    evolve(params, n_max + 1, [0.0, 1.0], compute_truncation_error=True)
    assert dims.count(2) == 4  # two parity blocks in each of the run and the re-run


def test_antisymmetric_fock_states_are_stationary():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=4.0)
    result = evolve(
        params,
        40,
        np.linspace(0.0, 120.0, 121),
        initial_spin=SpinState.J0M0,
        initial_fock=10,
        compute_truncation_error=False,
    )
    pops = result.populations
    assert np.ptp(pops["P00"]) <= 1e-10
    assert pops["P00"][0] == pytest.approx(1.0, abs=1e-12)
    for name in ("P11", "P1m1", "P10"):
        assert np.max(np.abs(pops[name])) <= 1e-10
    # the Bell state stays maximally entangled
    assert np.all(result.concurrence >= 1.0 - 1e-10)


def test_zero_coupling_closed_form_populations():
    # beta = 0, kappa = 0 makes the closed forms exact:
    # P10 = 1 - (1/2)(1 - cos(2 r t)), P11 = P1m1 = (1/4)(1 - cos(2 r t))
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0, alpha_sq=9.0)
    times = np.linspace(0.0, 40.0, 161)
    result = evolve(params, 50, times, compute_truncation_error=False)
    pops = result.populations
    envelope = 1.0 - np.cos(2.0 * 0.2 * times)
    assert pops["P10"] == pytest.approx(1.0 - 0.5 * envelope, abs=1e-10)
    assert pops["P11"] == pytest.approx(0.25 * envelope, abs=1e-10)
    assert pops["P1m1"] == pytest.approx(0.25 * envelope, abs=1e-10)
    assert np.max(np.abs(pops["P00"])) <= 1e-12


def test_unitarity_and_energy_conservation():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=9.0)
    n_max = 50
    times = np.linspace(0.0, 150.0, 151)
    result = evolve(params, n_max, times, compute_truncation_error=False, keep_states=True)
    pops = result.populations
    total = pops["P11"] + pops["P1m1"] + pops["P10"] + pops["P00"]
    assert np.max(np.abs(total - 1.0)) <= 1e-10
    h = build_hamiltonian(params, n_max)
    states = result.states
    energies = np.real(np.einsum("it,ij,jt->t", states.conj(), h, states))
    drift = np.ptp(energies)
    assert drift <= 1e-9 * max(1.0, abs(energies[0]))


def test_truncation_error_reported_and_small():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=9.0)
    result = evolve(params, 50, np.linspace(0.0, 60.0, 61))
    assert result.truncation_error is not None
    assert result.truncation_error < 1e-8


def test_truncation_warning_fires_for_underresolved_state():
    params = ModelParams(ratio_r=0.23, beta=0.6, kappa0=0.1)
    with pytest.warns(TruncationWarning):
        result = evolve(
            params,
            25,
            np.linspace(0.0, 60.0, 31),
            initial_fock=24,
        )
    assert result.truncation_error > 1e-6


def test_initial_fock_validation():
    params = ModelParams(ratio_r=0.2, beta=0.1)
    with pytest.raises(DomainError):
        evolve(params, 20, [0.0, 1.0], initial_fock=21)
    with pytest.raises(DomainError):
        evolve(params, 20, [0.0, 1.0], initial_fock=-1)


def test_initial_state_is_maximally_entangled():
    params = ModelParams(ratio_r=0.05, beta=0.2, alpha_sq=4.0)
    result = evolve(
        params, 35, np.array([0.0, 0.5]), compute_truncation_error=False
    )
    assert result.concurrence[0] == pytest.approx(1.0, abs=1e-12)


def test_ed_tracks_doubled_transition_series_in_aa_regime():
    # the closed-form series T(t) carries half the bright-channel population
    params = ModelParams(ratio_r=0.05, beta=0.2, kappa0=0.0, alpha_sq=9.0)
    times = np.linspace(0.0, 200.0, 401)
    result = evolve(params, 60, times, compute_truncation_error=False)
    series = transition_prob(params, times)
    gap = np.max(np.abs(result.populations["P11"] - 2.0 * series))
    assert gap <= 0.06  # recorded cross-validation tolerance


def test_low_spectrum_matches_closed_forms_in_slow_qubit_regime():
    # for a very slow qubit the closed-form tower {e0, e+, e-} per N plus the
    # decoupled antisymmetric tower N + k_eff approximates the exact spectrum
    from rabi_ent import aa_rows

    params = ModelParams(ratio_r=0.02, beta=0.2, kappa0=0.1, alpha_sq=0.0)
    n_max = 60
    exact, _ = eigendecompose(build_hamiltonian(params, n_max))
    rows = aa_rows(params, 20)
    k_eff = effective_kappa(params)
    approx = sorted(
        [row["e0"] for row in rows]
        + [row["eplus"] for row in rows]
        + [row["eminus"] for row in rows]
        + [n + k_eff for n in range(21)]
    )
    gap = np.max(np.abs(exact[:40] - np.array(approx[:40])))
    assert gap < 2e-4


def test_variant_discrimination_stable_across_parameter_set():
    # the half-sum reading tracks the doubled closed-form series at every
    # slow-qubit point tried; the literal pauli-sum reading, beta doubled, never does
    cases = [
        (ModelParams(ratio_r=0.04, beta=0.3, kappa0=0.05, alpha_sq=6.0), 50),
        (ModelParams(ratio_r=0.06, beta=0.15, kappa0=-0.1, alpha_sq=12.0), 60),
        (ModelParams(ratio_r=0.05, beta=0.25, kappa0=0.0, alpha_sq=9.0), 55),
    ]
    times = np.linspace(0.0, 150.0, 301)
    for params, n_max in cases:
        series = transition_prob(params, times)
        gaps = {}
        for reading, scale in (("half_sum", 1.0), ("pauli_sum", 2.0)):
            result = evolve(
                replace(params, beta=scale * params.beta),
                n_max,
                times,
                compute_truncation_error=False,
            )
            gaps[reading] = float(
                np.max(np.abs(result.populations["P11"] - 2.0 * series))
            )
        assert gaps["half_sum"] < 0.1
        assert gaps["pauli_sum"] > 2.0 * gaps["half_sum"]


def test_concurrence_reference_states():
    bell = np.outer(BELL_SYMMETRIC, BELL_SYMMETRIC)
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)
    # Werner state: C = max(0, (3p - 1)/2) at p = 1/2
    werner = 0.5 * bell + 0.5 * np.eye(4) / 4.0
    assert concurrence(werner) == pytest.approx(0.25, abs=1e-12)
    separable = np.diag([1.0, 0.0, 0.0, 0.0])
    assert concurrence(separable) == 0.0


def test_concurrence_werner_by_direct_eigenvalues():
    # independent oracle: eigendecompose rho * rho_tilde explicitly
    p = 0.7
    bell = np.outer(BELL_SYMMETRIC, BELL_SYMMETRIC)
    werner = p * bell + (1.0 - p) * np.eye(4) / 4.0
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    syy = np.kron(sy, sy).real
    lams = np.sort(np.sqrt(np.clip(np.linalg.eigvals(werner @ syy @ werner.conj() @ syy).real, 0, None)))[::-1]
    expected = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    assert expected == pytest.approx((3.0 * p - 1.0) / 2.0, abs=1e-12)
    assert concurrence(werner) == pytest.approx(expected, abs=1e-12)


def _concurrence_mpmath(rho: np.ndarray) -> float:
    """Wootters' C from the eigenvalues of rho (sy x sy) rho* (sy x sy), at 40 digits."""
    with mpmath.workdps(40):
        r, flip = mpmath.matrix(rho.tolist()), mpmath.matrix(np.kron(SIGMA_Y, SIGMA_Y).tolist())
        evals = mpmath.eig(r * flip * r.H.T * flip, left=False, right=False)
        lams = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in evals), reverse=True)
        return float(max(0, lams[0] - lams[1] - lams[2] - lams[3]))


def test_concurrence_against_mpmath():
    rng = np.random.default_rng(7)
    stack = []
    for rank in (1, 1, 2, 3, 4, 4):  # pure, rank-deficient mixed and full-rank mixed states
        a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        stack.append(a @ a.conj().T / np.linalg.norm(a) ** 2)
    bell = np.outer(BELL_SYMMETRIC, BELL_SYMMETRIC)
    stack += [bell, np.diag([1.0, 0.0, 0.0, 0.0]), 0.3 * bell + 0.7 * np.eye(4) / 4.0]
    expected = np.array([_concurrence_mpmath(rho) for rho in stack])
    assert expected.min() == 0.0 and expected.max() == pytest.approx(1.0, abs=1e-15)
    for rho, value in zip(stack, expected):
        assert abs(concurrence(rho) - value) <= 1e-14
    stacked = concurrence(np.array(stack).reshape(3, 3, 4, 4))
    assert stacked.shape == (3, 3)
    assert np.abs(stacked.ravel() - expected).max() <= 1e-14


def test_concurrence_rejects_invalid_density_matrices():
    with pytest.raises(DomainError):
        concurrence(np.eye(4))  # trace 4
    bad_hermitian = np.eye(4) / 4.0 + 0.001j * np.eye(4)
    with pytest.raises(DomainError):
        concurrence(bad_hermitian)
    not_psd = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(DomainError):
        concurrence(not_psd)
    with pytest.raises(DomainError):
        concurrence(np.eye(2) / 2.0)
    with_nan = np.eye(4) / 4.0
    with_nan[0, 1] = np.nan
    with pytest.raises(DomainError, match="density matrix contains non-finite entries"):
        concurrence(with_nan)


def test_n_max_validation():
    params = ModelParams(ratio_r=0.2, beta=0.1)
    for run in (
        lambda n: build_hamiltonian(params, n),
        lambda n: evolve(params, n, [0.0, 1.0], initial_fock=0),
    ):
        for bad in (-1, 2.5):
            with pytest.raises(DomainError, match="n_max must be an integer >= 0"):
                run(bad)
        with pytest.raises(CapacityError, match=r"^dimension 8196 exceeds the ceiling 8192$"):
            run(2048)
    assert build_hamiltonian(params, 10).shape == (44, 44)


def test_required_n_max_examples():
    assert required_n_max(9.0) == math.ceil(9.0 + 10.0 * math.sqrt(10.0))
    assert required_n_max(0.0) == 10


# --- parity-reduced evolution -------------------------------------------------
#
# evolve() diagonalizes the two triplet blocks of the parity
# swap(|1,1>, |1,-1>) (x) (-1)^(a^dag a) and evolves the |0,0> sector in closed
# form.  These tests hold it to the full composite-basis Hamiltonian.

PARITY_PARAMS = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=1.0)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# columns: |1,1>, |1,-1>, |1,0>, |0,0> in the product basis (uu, ud, du, dd)
COMPOSITE_IN_PRODUCT = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, 0.0]]
) * np.array([1.0, 1.0, math.sqrt(0.5), math.sqrt(0.5)])


def _parity_basis(n_max: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns |1,1>|n> + e_n |1,-1>|n> (unnormalized), then |1,0>|m> for m of the
    block's parity; and the factor that normalizes each column."""
    n_osc = n_max + 1
    ms = list(range(parity, n_osc, 2))
    basis = np.zeros((4 * n_osc, n_osc + len(ms)))
    for n in range(n_osc):
        basis[n, n] = 1.0
        basis[n_osc + n, n] = (-1.0) ** (n + parity)
    for j, m in enumerate(ms):
        basis[2 * n_osc + m, n_osc + j] = 1.0
    scale = np.concatenate([np.full(n_osc, math.sqrt(0.5)), np.ones(len(ms))])
    return basis, scale


@pytest.mark.parametrize("beta_scale", [1.0, 2.0])
@pytest.mark.parametrize("n_max", [12, 13])
def test_parity_blocks_are_projections_of_the_full_hamiltonian(beta_scale, n_max):
    params = replace(PARITY_PARAMS, beta=beta_scale * PARITY_PARAMS.beta)
    h = build_hamiltonian(params, n_max)
    norm = np.linalg.norm(h, 2)
    even, odd = (_parity_basis(n_max, parity) for parity in (0, 1))
    assert np.all(even[0].T @ h @ odd[0] == 0.0)
    for parity, (basis, scale) in enumerate((even, odd)):
        projector = basis * scale
        block, _ = _parity_block(params, 0, n_max, parity)
        assert block.shape == (projector.shape[1],) * 2
        assert np.abs(block - projector.T @ h @ projector).max() <= 1e-14 * norm
        # the window [n_lo, n_max] keeps the s_n and |1,0>|m> with n, m >= n_lo, in order;
        # an odd n_lo starts the |1,0>|m> at the other parity's offset
        ms = np.arange(parity, n_max + 1, 2)
        for n_lo in (1, 2, 7):
            rows = np.r_[n_lo : n_max + 1, n_max + 1 + np.flatnonzero(ms >= n_lo)]
            window, _ = _parity_block(params, n_lo, n_max, parity)
            assert np.array_equal(window, block[np.ix_(rows, rows)])


def test_evolve_spectrum_is_the_full_spectrum():
    # the two parity blocks and the |0,0> energies n + k_eff are all that evolve diagonalizes
    n_max = 17
    blocks = [_checked_eigh(*_parity_block(PARITY_PARAMS, 0, n_max, p))[0] for p in (0, 1)]
    singlet = np.arange(n_max + 1) + effective_kappa(PARITY_PARAMS)
    spectrum = np.sort(np.concatenate([singlet, *blocks]))
    full, _ = eigendecompose(build_hamiltonian(PARITY_PARAMS, n_max))
    assert spectrum.shape == (4 * (n_max + 1),)
    assert np.abs(spectrum - full).max() <= 1e-10


def _wootters(rho: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lams = np.linalg.svd(root @ np.kron(SIGMA_Y, SIGMA_Y) @ root.conj(), compute_uv=False)
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def _dense_states(params, n_max, times, spin, initial_fock):
    """Evolved states from eigh of the full composite-basis Hamiltonian, one column per time."""
    n_osc = n_max + 1
    sector = [SpinState.J1M1, SpinState.J1M_MINUS1, SpinState.J1M0, SpinState.J0M0].index(spin)
    psi0 = np.zeros((4, n_osc))
    if initial_fock is None:
        psi0[sector] = _coherent_amplitudes(params.alpha_sq, n_max)
    else:
        psi0[sector, initial_fock] = 1.0
    evals, evecs = np.linalg.eigh(build_hamiltonian(params, n_max))
    coeff = evecs.T @ psi0.ravel()
    return evecs @ (np.exp(-1j * np.outer(evals, times)) * coeff[:, None])


@pytest.mark.parametrize("initial_fock", [None, 5])
@pytest.mark.parametrize("spin", list(SpinState))
def test_evolve_matches_full_space_dense_evolution(spin, initial_fock):
    # beside 31 times: 1 time, an exact block, a one-row tail block, several blocks
    n_max = 17
    n_osc = n_max + 1
    for size in (31, 1, 128, 129, 300):
        times = np.linspace(0.0, 60.0, size)
        result = evolve(
            PARITY_PARAMS,
            n_max,
            times,
            initial_spin=spin,
            initial_fock=initial_fock,
            compute_truncation_error=False,
            keep_states=True,
        )
        states = _dense_states(PARITY_PARAMS, n_max, times, spin, initial_fock)
        assert result.states.shape == states.shape
        assert np.abs(result.states - states).max() <= 1e-10
        sectors = states.reshape(4, n_osc, times.size)
        pops = np.sum(np.abs(sectors) ** 2, axis=1)
        for row, name in enumerate(("P11", "P1m1", "P10", "P00")):
            assert np.abs(result.populations[name] - pops[row]).max() <= 1e-10
        for j in range(times.size):
            rho = COMPOSITE_IN_PRODUCT @ (sectors[:, :, j] @ sectors[:, :, j].conj().T)
            rho = rho @ COMPOSITE_IN_PRODUCT.T
            expected = _wootters(rho / np.trace(rho).real)
            assert result.concurrence[j] == pytest.approx(expected, abs=1e-10)


def test_evolve_memory_does_not_grow_with_time_points():
    # less than one real (4, n_osc) amplitude row, 4 * 201 * 8 = 6,432 bytes, per added
    # time: amplitudes held for the whole grid grew the peak by about 14.5 kB per time
    params = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=16.0)
    n_max = 200
    peaks = []
    for size in (200, 1000):
        times = np.linspace(0.0, 400.0, size)
        tracemalloc.start()
        try:
            evolve(params, n_max, times)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 800 < 4 * (n_max + 1) * 8


def test_evolve_peak_memory_is_one_rerun_block_at_a_time():
    # traced numpy arrays only (LAPACK's workspace is not traced), in units of the re-run's
    # larger parity block, d = 332: about 4.5 d^2 doubles, against 7.3 with one block's
    # arrays still held during the next block's eigh and the re-run after the run
    params = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=16.0)
    n_max = 200
    n_osc = n_max + 1 + TRUNCATION_MARGIN
    dim = n_osc + (n_osc + 1) // 2
    tracemalloc.start()
    try:
        evolve(params, n_max, np.linspace(0.0, 400.0, 401), compute_truncation_error=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 8 * dim**2


def test_concurrence_of_a_stack_matches_each_matrix():
    bell = np.outer(BELL_SYMMETRIC, BELL_SYMMETRIC)
    stack = np.array([p * bell + (1.0 - p) * np.eye(4) / 4.0 for p in (0.2, 0.5, 0.7, 1.0)])
    values = concurrence(stack.reshape(2, 2, 4, 4))
    assert values.shape == (2, 2)
    assert values.ravel() == pytest.approx([concurrence(rho) for rho in stack], abs=1e-15)
    assert values.ravel() == pytest.approx([0.0, 0.25, 0.55, 1.0], abs=1e-12)
    stack[2] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(DomainError):
        concurrence(stack)


@pytest.mark.parametrize("beta_scale", [1.0, 2.0])
@pytest.mark.parametrize("n_max", [0, 1, 12, 13])
def test_parity_block_product_is_the_dense_product(beta_scale, n_max):
    params = replace(PARITY_PARAMS, beta=beta_scale * PARITY_PARAMS.beta)
    rng = np.random.default_rng(n_max)
    for parity in (0, 1):
        for n_lo in (0, 1, 2, 7):
            if n_lo > n_max:
                continue
            h, product = _parity_block(params, n_lo, n_max, parity)
            v = rng.standard_normal((h.shape[0], 7))
            assert np.abs(product(v) - h @ v).max() <= 1e-14 * np.abs(h).sum(axis=1).max()


# alpha_sq = 9 with a cutoff well past its required 41: the coherent tail, and
# the eigencomponents and Fock rows it cannot reach, fall below PRUNE_BOUND
PRUNE_PARAMS = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=9.0)


@pytest.mark.parametrize(
    "spin, initial_fock",
    [
        (SpinState.J1M0, None),
        (SpinState.J0M0, None),
        (SpinState.J1M1, 7),
        (SpinState.J1M0, 6),  # no weight in the odd parity block
    ],
)
def test_pruned_evolution_matches_unpruned_dense_evolution(spin, initial_fock, monkeypatch):
    from rabi_ent import oracle

    n_max = 100  # far enough past 41 that whole tiles of rows are out of reach
    n_osc = n_max + 1
    times = np.linspace(0.0, 40.0, 301)

    def run():
        return evolve(
            PRUNE_PARAMS,
            n_max,
            times,
            initial_spin=spin,
            initial_fock=initial_fock,
            compute_truncation_error=False,
            keep_states=True,
        )

    result = run()
    states = _dense_states(PRUNE_PARAMS, n_max, times, spin, initial_fock)
    assert np.abs(result.states - states).max() <= 1e-12
    sectors = states.reshape(4, n_osc, times.size)
    pops = np.sum(np.abs(sectors) ** 2, axis=1)
    for row, name in enumerate(("P11", "P1m1", "P10", "P00")):
        assert np.abs(result.populations[name] - pops[row]).max() <= 1e-12
    rho = COMPOSITE_IN_PRODUCT @ np.einsum("knt,lnt->tkl", sectors, sectors.conj())
    expected = [_wootters(r / np.trace(r).real) for r in rho @ COMPOSITE_IN_PRODUCT.T]
    assert np.abs(result.concurrence - expected).max() <= 1e-12
    # against the same evolution with nothing left out, the tiles with an empty span
    # leave exact zeros and no amplitude moves by more than PRUNE_BOUND
    monkeypatch.setattr(oracle, "PRUNE_BOUND", 0.0)
    unpruned = run().states
    if spin is not SpinState.J0M0:  # the |0,0> sector is evolved whole, by its phases alone
        assert np.count_nonzero(result.states == 0.0) > np.count_nonzero(unpruned == 0.0)
    assert np.abs(result.states - unpruned).max() <= PRUNE_BOUND


def _dropped(magnitudes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row, the sum of ``magnitudes`` outside columns [lo, hi)."""
    return magnitudes[:, :lo].sum(axis=1) + magnitudes[:, hi:].sum(axis=1)


@pytest.mark.parametrize("seed", range(8))
def test_component_span_drops_the_longest_head_then_tail_within_the_bound(seed):
    rng = np.random.default_rng(seed)
    rows, m = 7, 60
    scattered = rng.random((rows, m)) * 10.0 ** rng.uniform(-40.0, 0.0, (rows, m))
    center = rng.uniform(10.0, 50.0) + rng.uniform(-3.0, 3.0, (rows, 1))
    banded = np.exp(-0.5 * (np.arange(m) - center) ** 2) * rng.random((rows, m))
    # ends whose masses are comparable to the bound, so that head and tail trade off
    ends = np.where(np.abs(np.arange(m) - 30) < 12, 1.0, 2e-7 * rng.random((rows, m)))
    for magnitudes in (scattered, banded, ends):
        for bound in (0.0, PRUNE_BOUND, 1e-6):
            span = oracle._component_span(magnitudes, bound)
            lo, hi = span.start, span.stop
            assert _dropped(magnitudes, lo, hi).max() <= bound * (1 + 1e-12)
            # one more head column, or one more tail column beside the head, drops too much
            assert magnitudes[:, : lo + 1].sum(axis=1).max() > bound * (1 - 1e-12), (bound, span)
            assert _dropped(magnitudes, lo, hi - 1).max() > bound * (1 - 1e-12), (bound, span)
    # rows that sum to at most the bound need no column at all
    assert oracle._component_span(1e-20 * banded, PRUNE_BOUND) == slice(0, 0)
    assert oracle._component_span(np.zeros((rows, m)), 0.0) == slice(0, 0)
    # and are found before any cumulative sum, each as large as the tile
    tile = 1e-20 * rng.random((32, 600))
    tracemalloc.start()
    try:
        assert oracle._component_span(tile, PRUNE_BOUND) == slice(0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tile.nbytes
    # rows whose sums exceed the bound by rounding alone, which their cumulative sums,
    # added in another order, do not, need no column either
    tenths = np.full((rows, 10), 0.1)
    assert tenths.sum(axis=1).max() > np.cumsum(tenths, axis=1)[:, -1].max()
    assert oracle._component_span(tenths, np.cumsum(tenths, axis=1)[0, -1]) == slice(0, 0)


def test_empty_spans_write_zeros_into_the_shared_product(monkeypatch):
    # the odd block's spans forced empty: its rows must read zero, written by the empty
    # products into its product buffer, which is reused for re and im and every block of times
    built = []
    eigh, span = oracle._checked_eigh, oracle._component_span
    monkeypatch.setattr(oracle, "_checked_eigh", lambda *args: built.append(0) or eigh(*args))
    monkeypatch.setattr(
        oracle, "_component_span", lambda m, b: span(m, b) if len(built) % 2 else slice(0, 0)
    )
    n_max = 60
    times = np.linspace(0.0, 40.0, 301)
    result = evolve(PRUNE_PARAMS, n_max, times, compute_truncation_error=False, keep_states=True)
    states = result.states.reshape(4, n_max + 1, times.size)
    assert len(built) == 2 and oracle._window_start(PRUNE_PARAMS, n_max, None) == 0
    assert np.all(states[2, 1::2] == 0.0) and np.all(states[2, 0::2].any(axis=1)[:20])
    # with no odd s_n, |1,-1>|n> is the even block's e_n = (-1)^n times |1,1>|n>
    signs = (-1.0) ** np.arange(n_max + 1)
    assert np.array_equal(states[1], signs[:, None] * states[0])
    assert np.abs(states[0]).max() > 0.1


def test_tile_spans_cut_the_product_and_keep_the_bound(monkeypatch):
    # alpha_sq = 64 at a cutoff well past its required 145: each tile of Fock rows
    # reaches a band of eigencomponents, not the whole block
    params = replace(PRUNE_PARAMS, alpha_sq=64.0)
    n_max, times = 200, np.linspace(0.0, 40.0, 301)
    tiles, span = [], oracle._component_span

    def recorded(magnitudes, bound):
        tiles.append((magnitudes.shape, span(magnitudes, bound)))
        return tiles[-1][1]

    monkeypatch.setattr(oracle, "_component_span", recorded)
    result = evolve(params, n_max, times, compute_truncation_error=False, keep_states=True)
    tiled = sum(rows * (s.stop - s.start) for (rows, _), s in tiles)
    dense = sum(rows * components for (rows, components), _ in tiles)
    assert tiled < 0.5 * dense
    monkeypatch.setattr(oracle, "PRUNE_BOUND", 0.0)
    unpruned = evolve(params, n_max, times, compute_truncation_error=False, keep_states=True)
    assert np.abs(result.states - unpruned.states).max() <= PRUNE_BOUND


# --- the Fock window ------------------------------------------------------------
#
# A coherent start is evolved on [n_lo, n_max] only, n_lo = max(0, floor(2 alpha_sq -
# n_max)): the cutoff mirrored about the mean.  At alpha_sq = 130 and its required
# cutoff 245 the window is [15, 245].

WINDOW_PARAMS = ModelParams(ratio_r=0.2, beta=0.4717, kappa0=-0.7, alpha_sq=130.0)


def test_windowed_evolution_matches_full_space_dense_evolution():
    n_max = required_n_max(WINDOW_PARAMS.alpha_sq)
    assert (n_max, oracle._window_start(WINDOW_PARAMS, n_max, None)) == (245, 15)
    times = np.linspace(0.0, 200.0, 201)
    result = evolve(
        WINDOW_PARAMS, n_max, times, compute_truncation_error=False, keep_states=True
    )
    states = _dense_states(WINDOW_PARAMS, n_max, times, SpinState.J1M0, None)
    assert np.abs(result.states - states).max() <= 1e-11
    assert np.all(result.states.reshape(4, n_max + 1, times.size)[:, :15] == 0.0)


def test_truncation_error_sees_a_window_cut_into_the_poisson_bulk(monkeypatch):
    # the rule shifted up so that n_lo = alpha_sq - 2 sqrt(alpha_sq + 1) = 107 at n_max
    # 245; the re-run at n_max + 20 still gets n_lo - 20 and so sees the lost mass
    n_max, alpha_sq, rule = 245, WINDOW_PARAMS.alpha_sq, oracle._window_start
    bulk = math.floor(alpha_sq - 2.0 * math.sqrt(alpha_sq + 1.0))
    shift = bulk - rule(WINDOW_PARAMS, n_max, None)
    monkeypatch.setattr(oracle, "_window_start", lambda *args: rule(*args) + shift)
    with pytest.warns(TruncationWarning, match=r"widen the Fock window \[107, 245\]"):
        result = evolve(WINDOW_PARAMS, n_max, np.linspace(0.0, 50.0, 51))
    assert result.truncation_error > 1e-6


def test_window_leaves_out_less_coherent_mass_than_the_cutoff():
    # at n_max = required_n_max, the Poisson mass below n_lo is at most the mass above
    # n_max, so the truncation re-run, which widens both ends, measures both
    with mpmath.workdps(40):
        for alpha_sq in [*np.linspace(0.0, 1641.7, 165), 100.4, 100.6, 130.0, 250.0]:
            n_max = required_n_max(alpha_sq)
            params = replace(WINDOW_PARAMS, alpha_sq=float(alpha_sq))
            n_lo = oracle._window_start(params, n_max, None)
            below = mpmath.gammainc(n_lo, alpha_sq, mpmath.inf, regularized=True) if n_lo else 0
            above = mpmath.gammainc(n_max + 1, 0, alpha_sq, regularized=True)
            assert below <= above, alpha_sq
