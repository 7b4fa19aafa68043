"""Brute-force ground truth in a truncated Fock space.

Builds the two-qubit/oscillator Hamiltonian as dense real symmetric
matrices, one per parity block, diagonalizes them, evolves the chosen
initial state by spectral phases (exactly unitary at every time), and
extracts spin-sector populations and two-qubit concurrence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dynamics import TimeSeries, _as_times
from .errors import CapacityError, DomainError, TruncationWarning
from .params import ModelParams, SpinState, effective_kappa

SPIN_DIM = 4
TRUNCATION_MARGIN = 20

# composite spin basis order used throughout: |1,1>, |1,-1>, |1,0>, |0,0>
_SPIN_INDEX = {
    SpinState.J1M1: 0,
    SpinState.J1M_MINUS1: 1,
    SpinState.J1M0: 2,
    SpinState.J0M0: 3,
}

_SQRT_HALF = math.sqrt(0.5)

# (sz1 + sz2)/2 is diagonal in the composite basis with eigenvalues 1, -1, 0, 0
_SZ_HALF = np.diag([1.0, -1.0, 0.0, 0.0])

# sx1 + sx2 couples |1,0> to both |1,1> and |1,-1> with matrix element sqrt(2)
_SX_SUM = np.zeros((4, 4))
_SX_SUM[0, 2] = _SX_SUM[2, 0] = math.sqrt(2.0)
_SX_SUM[1, 2] = _SX_SUM[2, 1] = math.sqrt(2.0)

# sx1*sx2 swaps |1,1> <-> |1,-1> and is diagonal (+1, -1) on |1,0>, |0,0>
_SX_PROD = np.zeros((4, 4))
_SX_PROD[0, 1] = _SX_PROD[1, 0] = 1.0
_SX_PROD[2, 2] = 1.0
_SX_PROD[3, 3] = -1.0

# columns: composite states expressed in the product basis (uu, ud, du, dd)
_COMPOSITE_TO_PRODUCT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, _SQRT_HALF, _SQRT_HALF],
        [0.0, 0.0, _SQRT_HALF, -_SQRT_HALF],
        [0.0, 1.0, 0.0, 0.0],
    ]
)

# sigma_y (x) sigma_y in the product basis, used by the spin-flip construction
_SYSY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


class HamiltonianVariant(Enum):
    """Reading of the qubit-sum operator that multiplies the oscillator coupling.

    HALF_SUM uses (sz1 + sz2)/2 with eigenvalues {-1, 0, 1}, displacing
    adjacent spin sectors by one coupling unit; PAULI_SUM uses the literal
    sz1 + sz2 with eigenvalues {-2, 0, 2}.
    """

    HALF_SUM = "half_sum"
    PAULI_SUM = "pauli_sum"


@dataclass(frozen=True)
class EDConfig:
    """Truncation and variant switches for the dense oracle."""

    n_max: int
    variant: HamiltonianVariant = HamiltonianVariant.HALF_SUM
    dim_ceiling: int = 8192

    def __post_init__(self) -> None:
        if isinstance(self.n_max, bool) or int(self.n_max) != self.n_max:
            raise DomainError(f"n_max must be an integer, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {self.n_max}")
        if not isinstance(self.variant, HamiltonianVariant):
            raise DomainError("variant must be a HamiltonianVariant member")

    @property
    def dim(self) -> int:
        return SPIN_DIM * (self.n_max + 1)


@dataclass(frozen=True)
class EDResult:
    """Eigendecomposition summary plus time-evolved observables.

    ``truncation_error`` is the sup-norm change of the population channels
    when n_max grows by TRUNCATION_MARGIN; None when the check was skipped.
    ``states`` optionally carries the evolved vectors, one column per time.
    """

    eigenvalues: np.ndarray
    populations: TimeSeries
    concurrence: TimeSeries
    truncation_error: float | None
    states: np.ndarray | None = None


def required_n_max(alpha_sq: float) -> int:
    """Smallest Fock cutoff admitted for a coherent state of mean alpha_sq."""
    return math.ceil(alpha_sq + 10.0 * math.sqrt(alpha_sq + 1.0))


def _check_capacity(config: EDConfig) -> None:
    if config.dim > config.dim_ceiling:
        raise CapacityError(
            f"dimension {config.dim} exceeds the ceiling {config.dim_ceiling}"
        )


def build_hamiltonian(params: ModelParams, config: EDConfig) -> np.ndarray:
    """Dense real symmetric Hamiltonian, basis (composite spin) x (Fock number).

    Blocks: oscillator energy, the sector-displacing coupling beta*(a + a^dag)
    weighted by the variant's qubit-sum operator, the transverse qubit term,
    and the inter-qubit coupling.  The |0,0> spin sector couples to nothing.
    """
    _check_capacity(config)
    n_osc = config.n_max + 1
    eye_osc = np.eye(n_osc)
    ladder = np.diag(np.sqrt(np.arange(1.0, n_osc)), 1)
    number_op = np.diag(np.arange(float(n_osc)))
    position = ladder + ladder.T
    sector_op = _SZ_HALF if config.variant is HamiltonianVariant.HALF_SUM else 2.0 * _SZ_HALF
    omega = params.omega
    h = omega * np.kron(np.eye(SPIN_DIM), number_op)
    h += omega * params.beta * np.kron(sector_op, position)
    h -= 0.5 * params.ratio_r * omega * np.kron(_SX_SUM, eye_osc)
    h -= effective_kappa(params) * omega * np.kron(_SX_PROD, eye_osc)
    return h


def _parity_signs(n_osc: int, parity: int) -> np.ndarray:
    """e_n = (-1)^(n + parity) for n = 0..n_osc-1."""
    return np.where((np.arange(n_osc) + parity) % 2 == 0, 1.0, -1.0)


def _parity_block(params: ModelParams, config: EDConfig, parity: int) -> np.ndarray:
    """The triplet part of ``build_hamiltonian`` with parity (-1)^parity.

    The parity swap(|1,1>, |1,-1>) (x) (-1)^(a^dag a) commutes with H.  The
    block's basis is s_n = (|1,1>|n> + e_n |1,-1>|n>)/sqrt(2) for n = 0..n_max,
    e_n = (-1)^(n + parity), then |1,0>|m> for m = parity, parity + 2, ...;
    the couplings are s_n-s_(n+1) (oscillator) and s_m-|1,0>|m> (transverse).
    """
    n_osc = config.n_max + 1
    ms = np.arange(parity, n_osc, 2)
    coupling = params.beta if config.variant is HamiltonianVariant.HALF_SUM else 2.0 * params.beta
    omega, kappa = params.omega, effective_kappa(params)
    h = np.zeros((n_osc + ms.size, n_osc + ms.size))
    s, t = np.arange(n_osc), n_osc + np.arange(ms.size)
    h[s, s] = omega * (s - kappa * _parity_signs(n_osc, parity))
    h[s[:-1], s[1:]] = h[s[1:], s[:-1]] = omega * coupling * np.sqrt(s[1:])
    h[t, t] = omega * (ms - kappa)
    h[ms, t] = h[t, ms] = -params.ratio_r * omega
    return h


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Verifies the reconstruction residual ||H v - lambda v|| <= 1e-9 ||H||
    for every pair before returning.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {h.shape}")
    if not np.allclose(h, h.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(h).max())):
        raise DomainError("matrix is not symmetric")
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    norm = float(np.abs(evals).max()) if evals.size else 0.0
    if norm > 0.0:
        residuals = np.linalg.norm(h @ evecs - evecs * evals, axis=0)
        worst = float(residuals.max())
        if worst > 1e-9 * norm:
            raise RuntimeError(
                f"eigenpair residual {worst:.3e} exceeds 1e-9 * ||H|| = {1e-9 * norm:.3e}"
            )
    return evals, evecs


def coherent_amplitudes(alpha_sq: float, n_max: int) -> np.ndarray:
    """Fock amplitudes of |alpha> with alpha = sqrt(alpha_sq), real and positive."""
    if alpha_sq < 0.0:
        raise DomainError(f"alpha_sq must be >= 0, got {alpha_sq}")
    if alpha_sq == 0.0:
        amps = np.zeros(n_max + 1)
        amps[0] = 1.0
        return amps
    ns = np.arange(n_max + 1, dtype=float)
    log_amp = -0.5 * alpha_sq + 0.5 * ns * math.log(alpha_sq)
    log_amp -= 0.5 * np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)])
    return np.exp(log_amp)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of two-qubit density matrices (product basis).

    ``rho`` is one 4x4 matrix, giving a float, or a stack (..., 4, 4), giving
    an array.  The l_i, the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), are taken as the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)*, from Hermitian and SVD routines only;
    the concurrence is max(0, l1 - l2 - l3 - l4).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise DomainError("density matrix contains non-finite entries")
    adjoint = rho.conj().swapaxes(-1, -2)
    if np.any(np.abs(rho - adjoint) > 1e-10):
        raise DomainError("density matrix is not Hermitian within 1e-10")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(trace.real - 1.0) > 1e-10) or np.any(np.abs(trace.imag) > 1e-10):
        raise DomainError("density matrix trace differs from 1 by more than 1e-10")
    evals, evecs = np.linalg.eigh(0.5 * (rho + adjoint))
    if np.any(evals[..., 0] < -1e-10):
        raise DomainError("density matrix is not positive semidefinite within 1e-10")
    scaled = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    root = scaled @ evecs.conj().swapaxes(-1, -2)
    lams = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False)
    conc = np.clip(lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3], 0.0, 1.0)
    return float(conc) if conc.ndim == 0 else conc


def _initial_vector(
    params: ModelParams,
    config: EDConfig,
    initial_spin: SpinState,
    initial_fock: int | None,
) -> np.ndarray:
    n_osc = config.n_max + 1
    psi0 = np.zeros(SPIN_DIM * n_osc)
    sector = _SPIN_INDEX[initial_spin]
    if initial_fock is None:
        if config.n_max < required_n_max(params.alpha_sq):
            raise DomainError(
                f"n_max={config.n_max} below the coherent-state requirement "
                f"{required_n_max(params.alpha_sq)} for alpha_sq={params.alpha_sq}"
            )
        amps = coherent_amplitudes(params.alpha_sq, config.n_max)
        norm = float(np.linalg.norm(amps))
        if norm < 1.0 - 1e-12:
            raise DomainError(
                f"truncated coherent-state norm {norm:.15f} below 1 - 1e-12"
            )
        psi0[sector * n_osc : (sector + 1) * n_osc] = amps
    else:
        if isinstance(initial_fock, bool) or int(initial_fock) != initial_fock:
            raise DomainError(f"initial_fock must be an integer, got {initial_fock!r}")
        initial_fock = int(initial_fock)
        if not 0 <= initial_fock <= config.n_max:
            raise DomainError(
                f"initial_fock={initial_fock} outside the truncated space [0, {config.n_max}]"
            )
        psi0[sector * n_osc + initial_fock] = 1.0
    return psi0


def _evolve_amplitudes(
    params: ModelParams,
    config: EDConfig,
    times: np.ndarray,
    initial_spin: SpinState,
    initial_fock: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The full sorted spectrum and the sector amplitudes, shape (T, 4, n_osc).

    Each parity block is diagonalized on its own and evolved with two real
    products; the |0,0> sector has energies omega*(n + k_eff) and needs none.
    """
    _check_capacity(config)
    n_osc = config.n_max + 1
    psi0 = _initial_vector(params, config, initial_spin, initial_fock).reshape(SPIN_DIM, n_osc)
    amps = np.zeros((times.size, SPIN_DIM, n_osc), dtype=complex)
    spectra = [params.omega * (np.arange(n_osc) + effective_kappa(params))]
    amps[:, 3] = psi0[3] * np.exp(-1j * np.outer(times, spectra[0]))
    for parity in (0, 1):
        signs = _parity_signs(n_osc, parity)
        psi = np.concatenate([(psi0[0] + signs * psi0[1]) * _SQRT_HALF, psi0[2, parity::2]])
        evals, evecs = eigendecompose(_parity_block(params, config, parity))
        spectra.append(evals)
        coeff, phase = evecs.T @ psi, np.outer(times, evals)
        block = np.empty(phase.shape, dtype=complex)
        block.real = (np.cos(phase) * coeff) @ evecs.T
        block.imag = (np.sin(phase) * -coeff) @ evecs.T
        # s_n of both blocks combine into |1,1>|n> and, with sign e_n, |1,-1>|n>
        amps[:, 0] += block[:, :n_osc]
        amps[:, 1] += (1 - 2 * parity) * block[:, :n_osc]
        amps[:, 2, parity::2] = block[:, n_osc:]
    amps[:, 0] *= _SQRT_HALF
    amps[:, 1] *= _parity_signs(n_osc, 0) * _SQRT_HALF
    return np.sort(np.concatenate(spectra)), amps


def _populations(amps: np.ndarray) -> dict[str, np.ndarray]:
    parts = amps.view(float)
    pops = np.einsum("tkn,tkn->kt", parts, parts)
    return {"P11": pops[0], "P1m1": pops[1], "P10": pops[2], "P00": pops[3]}


def evolve(
    params: ModelParams,
    config: EDConfig,
    times,
    *,
    initial_spin: SpinState = SpinState.J1M0,
    initial_fock: int | None = None,
    compute_truncation_error: bool = True,
    keep_states: bool = False,
) -> EDResult:
    """Evolve an initial state and report populations plus concurrence.

    By default the initial state is |1,0> (x) |alpha> with alpha =
    sqrt(alpha_sq) taken real; pass ``initial_fock`` to start from a bare
    number state instead.  Evolution is by spectral decomposition, exact
    up to the Fock truncation, whose effect is measured by re-running with
    n_max + 20 unless ``compute_truncation_error`` is off.
    """
    times = _as_times(times)
    evals, amps = _evolve_amplitudes(params, config, times, initial_spin, initial_fock)
    channels = _populations(amps)
    rho = _COMPOSITE_TO_PRODUCT @ (amps @ amps.conj().swapaxes(1, 2)) @ _COMPOSITE_TO_PRODUCT.T
    # renormalize away the coherent-state truncation deficit (~1e-24)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    conc = concurrence(rho)
    states = amps.transpose(1, 2, 0).reshape(-1, times.size) if keep_states else None
    del amps  # freed before the larger re-run allocates its own
    truncation_error = None
    if compute_truncation_error:
        bigger = replace(
            config,
            n_max=config.n_max + TRUNCATION_MARGIN,
            dim_ceiling=config.dim_ceiling + SPIN_DIM * TRUNCATION_MARGIN,
        )
        channels_big = _populations(
            _evolve_amplitudes(params, bigger, times, initial_spin, initial_fock)[1]
        )
        truncation_error = max(
            float(np.abs(channels[name] - channels_big[name]).max()) for name in channels
        )
        if truncation_error > 1e-6:
            warnings.warn(
                f"truncation error {truncation_error:.3e} exceeds 1e-6; "
                f"increase n_max beyond {config.n_max}",
                TruncationWarning,
                stacklevel=2,
            )
    return EDResult(
        eigenvalues=evals,
        populations=TimeSeries(times=times, channels=channels),
        concurrence=TimeSeries(times=times, channels={"C": conc}),
        truncation_error=truncation_error,
        states=states,
    )
