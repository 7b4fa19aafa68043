import math
import warnings

import numpy as np
import pytest

from rabi_ent import (
    AdiabaticRegimeWarning,
    CapacityError,
    DomainError,
    EDConfig,
    HamiltonianVariant,
    ModelParams,
    SpinState,
    TruncationWarning,
    build_hamiltonian,
    coherent_amplitudes,
    concurrence,
    eigendecompose,
    evolve,
    poisson_logweights,
    required_n_max,
    transition_prob,
)

BELL_SYMMETRIC = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)


def quiet_params(**kwargs):
    """ModelParams builder that tolerates the flagged ratio_r = 0 edge."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticRegimeWarning)
        return ModelParams(**kwargs)


def test_free_oscillator_spectrum():
    params = quiet_params(ratio_r=0.0, beta=0.0, kappa0=0.0)
    h = build_hamiltonian(params, EDConfig(n_max=12))
    evals, _ = eigendecompose(h)
    expected = np.repeat(np.arange(13.0), 4)
    assert evals == pytest.approx(expected, abs=1e-12)


def test_displaced_oscillator_spectrum_half_sum():
    # kappa = 0, ratio_r = 0, beta != 0: displaced towers N - m^2 beta^2
    beta = 0.35
    params = quiet_params(ratio_r=0.0, beta=beta, kappa0=0.0)
    n_max = 40
    h = build_hamiltonian(params, EDConfig(n_max=n_max))
    evals, _ = eigendecompose(h)
    towers = sorted(
        [n - beta * beta for n in range(n_max + 1)] * 2
        + [float(n) for n in range(n_max + 1)] * 2
    )
    # compare the lower half, untouched by truncation
    keep = 2 * n_max
    assert evals[:keep] == pytest.approx(np.array(towers[:keep]), abs=1e-8)


def test_displaced_oscillator_spectrum_pauli_sum():
    beta = 0.35
    params = quiet_params(ratio_r=0.0, beta=beta, kappa0=0.0)
    config = EDConfig(n_max=40, variant=HamiltonianVariant.PAULI_SUM)
    evals, _ = eigendecompose(build_hamiltonian(params, config))
    towers = sorted(
        [n - 4.0 * beta * beta for n in range(41)] * 2 + [float(n) for n in range(41)] * 2
    )
    assert evals[:80] == pytest.approx(np.array(towers[:80]), abs=1e-8)


def test_antisymmetric_sector_decouples():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=4.0)
    config = EDConfig(n_max=30)
    h = build_hamiltonian(params, config)
    n_osc = config.n_max + 1
    block = h[3 * n_osc :, : 3 * n_osc]
    assert np.all(block == 0.0)
    # inside the sector: a bare displaced-free oscillator plus constant shift
    inner = h[3 * n_osc :, 3 * n_osc :]
    assert np.all(np.diag(inner, 1) == 0.0)


def test_hamiltonian_symmetric_and_capacity():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1)
    h = build_hamiltonian(params, EDConfig(n_max=20))
    assert np.array_equal(h, h.T)
    with pytest.raises(CapacityError):
        build_hamiltonian(params, EDConfig(n_max=2500))
    with pytest.raises(CapacityError):
        build_hamiltonian(params, EDConfig(n_max=100, dim_ceiling=400))
    assert build_hamiltonian(params, EDConfig(n_max=100, dim_ceiling=500)).shape == (404, 404)


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


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(DomainError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DomainError):
        eigendecompose(np.zeros((2, 3)))


def test_coherent_amplitudes_norm_and_values():
    amps = coherent_amplitudes(9.0, required_n_max(9.0))
    assert np.linalg.norm(amps) >= 1.0 - 1e-12
    alpha = 3.0
    assert amps[0] == pytest.approx(math.exp(-4.5), rel=1e-13)
    assert amps[2] == pytest.approx(math.exp(-4.5) * alpha**2 / math.sqrt(2.0), rel=1e-13)
    vacuum = coherent_amplitudes(0.0, 5)
    assert vacuum[0] == 1.0 and np.all(vacuum[1:] == 0.0)


@pytest.mark.parametrize("alpha_sq", [0.0, 0.0033, 0.37, 16.0, 106.0, 250.0])
def test_coherent_amplitudes_are_square_roots_of_the_poisson_table(alpha_sq):
    table = poisson_logweights(alpha_sq)
    amps = coherent_amplitudes(alpha_sq, table.n_cut)
    assert np.array_equal(amps, np.exp(0.5 * table.log_p))


def test_evolve_requires_adequate_cutoff():
    params = ModelParams(ratio_r=0.05, beta=0.2, alpha_sq=9.0)
    with pytest.raises(DomainError):
        evolve(params, EDConfig(n_max=30), np.linspace(0.0, 1.0, 3))


def test_antisymmetric_fock_states_are_stationary():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=4.0)
    result = evolve(
        params,
        EDConfig(n_max=40),
        np.linspace(0.0, 120.0, 121),
        initial_spin=SpinState.J0M0,
        initial_fock=10,
        compute_truncation_error=False,
    )
    pops = result.populations.channels
    assert np.ptp(pops["P00"]) <= 1e-10
    assert pops["P00"][0] == pytest.approx(1.0, abs=1e-12)
    for name in ("P11", "P1m1", "P10"):
        assert np.max(np.abs(pops[name])) <= 1e-10
    # the Bell state stays maximally entangled
    assert np.all(result.concurrence.channels["C"] >= 1.0 - 1e-10)


def test_zero_coupling_closed_form_populations():
    # beta = 0, kappa = 0 makes the closed forms exact:
    # P10 = 1 - (1/2)(1 - cos(2 r t)), P11 = P1m1 = (1/4)(1 - cos(2 r t))
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.0, alpha_sq=9.0)
    times = np.linspace(0.0, 40.0, 161)
    result = evolve(params, EDConfig(n_max=50), times, compute_truncation_error=False)
    pops = result.populations.channels
    envelope = 1.0 - np.cos(2.0 * 0.2 * times)
    assert pops["P10"] == pytest.approx(1.0 - 0.5 * envelope, abs=1e-10)
    assert pops["P11"] == pytest.approx(0.25 * envelope, abs=1e-10)
    assert pops["P1m1"] == pytest.approx(0.25 * envelope, abs=1e-10)
    assert np.max(np.abs(pops["P00"])) <= 1e-12


def test_variants_agree_at_zero_displacement():
    params = ModelParams(ratio_r=0.2, beta=0.0, kappa0=0.3, alpha_sq=4.0)
    times = np.linspace(0.0, 30.0, 61)
    half = evolve(
        params, EDConfig(n_max=30), times, compute_truncation_error=False
    ).populations.channels
    pauli = evolve(
        params,
        EDConfig(n_max=30, variant=HamiltonianVariant.PAULI_SUM),
        times,
        compute_truncation_error=False,
    ).populations.channels
    for name in half:
        assert half[name] == pytest.approx(pauli[name], abs=1e-12)


def test_unitarity_and_energy_conservation():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=9.0)
    config = EDConfig(n_max=50)
    times = np.linspace(0.0, 150.0, 151)
    result = evolve(params, config, times, compute_truncation_error=False, keep_states=True)
    pops = result.populations.channels
    total = pops["P11"] + pops["P1m1"] + pops["P10"] + pops["P00"]
    assert np.max(np.abs(total - 1.0)) <= 1e-10
    h = build_hamiltonian(params, config)
    states = result.states
    energies = np.real(np.einsum("it,ij,jt->t", states.conj(), h, states))
    drift = np.ptp(energies)
    assert drift <= 1e-9 * max(1.0, abs(energies[0]))


def test_truncation_error_reported_and_small():
    params = ModelParams(ratio_r=0.23, beta=0.26, kappa0=0.1, alpha_sq=9.0)
    result = evolve(params, EDConfig(n_max=50), np.linspace(0.0, 60.0, 61))
    assert result.truncation_error is not None
    assert result.truncation_error < 1e-8


def test_truncation_warning_fires_for_underresolved_state():
    params = ModelParams(ratio_r=0.23, beta=0.6, kappa0=0.1)
    with pytest.warns(TruncationWarning):
        result = evolve(
            params,
            EDConfig(n_max=25),
            np.linspace(0.0, 60.0, 31),
            initial_fock=24,
        )
    assert result.truncation_error > 1e-6


def test_initial_fock_validation():
    params = ModelParams(ratio_r=0.2, beta=0.1)
    with pytest.raises(DomainError):
        evolve(params, EDConfig(n_max=20), [0.0, 1.0], initial_fock=21)
    with pytest.raises(DomainError):
        evolve(params, EDConfig(n_max=20), [0.0, 1.0], initial_fock=-1)


def test_initial_state_is_maximally_entangled():
    params = ModelParams(ratio_r=0.05, beta=0.2, alpha_sq=4.0)
    result = evolve(
        params, EDConfig(n_max=35), np.array([0.0, 0.5]), compute_truncation_error=False
    )
    assert result.concurrence.channels["C"][0] == pytest.approx(1.0, abs=1e-12)


def test_ed_tracks_doubled_transition_series_in_aa_regime():
    # the closed-form series T(t) carries half the bright-channel population
    params = ModelParams(ratio_r=0.05, beta=0.2, kappa0=0.0, alpha_sq=9.0)
    times = np.linspace(0.0, 200.0, 401)
    result = evolve(params, EDConfig(n_max=60), times, compute_truncation_error=False)
    series = transition_prob(params, times).channels["T"]
    gap = np.max(np.abs(result.populations.channels["P11"] - 2.0 * series))
    assert gap <= 0.06  # recorded cross-validation tolerance


def test_low_spectrum_matches_closed_forms_in_slow_qubit_regime():
    # for a very slow qubit the closed-form tower {e0, e+, e-} per N plus the
    # decoupled antisymmetric tower N + k_eff approximates the exact spectrum
    from rabi_ent import aa_rows, effective_kappa

    params = ModelParams(ratio_r=0.02, beta=0.2, kappa0=0.1, alpha_sq=0.0)
    config = EDConfig(n_max=60)
    exact, _ = eigendecompose(build_hamiltonian(params, config))
    rows = aa_rows(params, 20)
    k_eff = effective_kappa(params)
    approx = sorted(
        [row.e0 for row in rows]
        + [row.eplus for row in rows]
        + [row.eminus for row in rows]
        + [n + k_eff for n in range(21)]
    )
    gap = np.max(np.abs(exact[:40] - np.array(approx[:40])))
    assert gap < 2e-4


def test_variant_discrimination_stable_across_parameter_set():
    # the half-sum reading tracks the doubled closed-form series at every
    # slow-qubit point tried; the literal pauli-sum reading never does
    cases = [
        (ModelParams(ratio_r=0.04, beta=0.3, kappa0=0.05, alpha_sq=6.0), 50),
        (ModelParams(ratio_r=0.06, beta=0.15, kappa0=-0.1, alpha_sq=12.0), 60),
        (ModelParams(ratio_r=0.05, beta=0.25, kappa0=0.0, alpha_sq=9.0), 55),
    ]
    times = np.linspace(0.0, 150.0, 301)
    for params, n_max in cases:
        series = transition_prob(params, times).channels["T"]
        gaps = {}
        for variant in HamiltonianVariant:
            result = evolve(
                params,
                EDConfig(n_max=n_max, variant=variant),
                times,
                compute_truncation_error=False,
            )
            gaps[variant] = float(
                np.max(np.abs(result.populations.channels["P11"] - 2.0 * series))
            )
        assert gaps[HamiltonianVariant.HALF_SUM] < 0.1
        assert gaps[HamiltonianVariant.PAULI_SUM] > 2.0 * gaps[HamiltonianVariant.HALF_SUM]


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


def test_edconfig_validation():
    with pytest.raises(DomainError):
        EDConfig(n_max=-1)
    with pytest.raises(DomainError):
        EDConfig(n_max=2.5)
    assert EDConfig(n_max=10).dim == 44


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


@pytest.mark.parametrize("variant", list(HamiltonianVariant))
@pytest.mark.parametrize("n_max", [12, 13])
def test_parity_blocks_are_projections_of_the_full_hamiltonian(variant, n_max):
    from rabi_ent.oracle import _parity_block

    config = EDConfig(n_max=n_max, variant=variant)
    h = build_hamiltonian(PARITY_PARAMS, config)
    norm = np.linalg.norm(h, 2)
    even, odd = (_parity_basis(n_max, parity) for parity in (0, 1))
    assert np.all(even[0].T @ h @ odd[0] == 0.0)
    for parity, (basis, scale) in enumerate((even, odd)):
        projector = basis * scale
        block = _parity_block(PARITY_PARAMS, config, parity)
        assert block.shape == (projector.shape[1],) * 2
        assert np.abs(block - projector.T @ h @ projector).max() <= 1e-14 * norm


def test_evolve_spectrum_is_the_full_spectrum():
    config = EDConfig(n_max=17)
    result = evolve(PARITY_PARAMS, config, [0.0, 1.0], compute_truncation_error=False)
    full, _ = eigendecompose(build_hamiltonian(PARITY_PARAMS, config))
    assert result.eigenvalues.shape == (config.dim,)
    assert np.abs(result.eigenvalues - full).max() <= 1e-10


def _wootters(rho: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lams = np.linalg.svd(root @ np.kron(SIGMA_Y, SIGMA_Y) @ root.conj(), compute_uv=False)
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


@pytest.mark.parametrize("initial_fock", [None, 5])
@pytest.mark.parametrize("spin", list(SpinState))
def test_evolve_matches_full_space_dense_evolution(spin, initial_fock):
    config = EDConfig(n_max=17)
    n_osc = config.n_max + 1
    times = np.linspace(0.0, 60.0, 31)
    result = evolve(
        PARITY_PARAMS,
        config,
        times,
        initial_spin=spin,
        initial_fock=initial_fock,
        compute_truncation_error=False,
        keep_states=True,
    )
    sector = [SpinState.J1M1, SpinState.J1M_MINUS1, SpinState.J1M0, SpinState.J0M0].index(spin)
    psi0 = np.zeros((4, n_osc))
    if initial_fock is None:
        psi0[sector] = coherent_amplitudes(PARITY_PARAMS.alpha_sq, config.n_max)
    else:
        psi0[sector, initial_fock] = 1.0
    evals, evecs = np.linalg.eigh(build_hamiltonian(PARITY_PARAMS, config))
    coeff = evecs.T @ psi0.ravel()
    states = evecs @ (np.exp(-1j * np.outer(evals, times)) * coeff[:, None])
    assert result.states.shape == states.shape
    assert np.abs(result.states - states).max() <= 1e-10
    sectors = states.reshape(4, n_osc, times.size)
    pops = np.sum(np.abs(sectors) ** 2, axis=1)
    for row, name in enumerate(("P11", "P1m1", "P10", "P00")):
        assert np.abs(result.populations.channels[name] - pops[row]).max() <= 1e-10
    for j in range(times.size):
        rho = COMPOSITE_IN_PRODUCT @ (sectors[:, :, j] @ sectors[:, :, j].conj().T)
        rho = rho @ COMPOSITE_IN_PRODUCT.T
        expected = _wootters(rho / np.trace(rho).real)
        assert result.concurrence.channels["C"][j] == pytest.approx(expected, abs=1e-10)


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
