"""Brute-force ground truth in a truncated Fock space.

Builds the two-qubit/oscillator Hamiltonian as dense real symmetric
matrices, one per parity block, diagonalizes them, evolves the chosen
initial state by spectral phases (exactly unitary at every time), and
extracts spin-sector populations and two-qubit concurrence.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dynamics import _PHASE_BLOCK, TimeSeries, _as_times, _phase_blocks
from .errors import CapacityError, DomainError, TruncationWarning
from .params import ModelParams, SpinState, _is_integer, _is_real, effective_kappa
from .specialfn import poisson_logpmf

SPIN_DIM = 4
TRUNCATION_MARGIN = 20
# evolution leaves out what moves no amplitude by more than this (see _evolve_amplitudes)
PRUNE_BOUND = 1e-15

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
    """Truncation and variant switches for the dense oracle.  ``dim_ceiling`` bounds the
    dimension 4 * (n_max + 1) of the requested cutoff; the truncation re-run is not held to it.
    """

    n_max: int
    variant: HamiltonianVariant = HamiltonianVariant.HALF_SUM
    dim_ceiling: int = 8192

    def __post_init__(self) -> None:
        if not (_is_integer(self.n_max) and self.n_max >= 0):
            raise DomainError(f"n_max must be an integer >= 0, got {self.n_max!r}")
        if not _is_integer(self.dim_ceiling):
            raise DomainError(f"dim_ceiling must be an integer, got {self.dim_ceiling!r}")
        object.__setattr__(self, "n_max", int(self.n_max))
        object.__setattr__(self, "dim_ceiling", int(self.dim_ceiling))
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
    ``states`` carries the evolved vectors, one column per time, only when
    ``evolve`` was asked to keep them; the entries that evolution skips as out
    of reach of the initial state (see PRUNE_BOUND) are exact zeros.
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
    h = np.kron(np.eye(SPIN_DIM), number_op)
    h += params.beta * np.kron(sector_op, position)
    h -= 0.5 * params.ratio_r * np.kron(_SX_SUM, eye_osc)
    h -= effective_kappa(params) * np.kron(_SX_PROD, eye_osc)
    return h


def _parity_signs(n_osc: int, parity: int) -> np.ndarray:
    """e_n = (-1)^(n + parity) for n = 0..n_osc-1."""
    return np.where((np.arange(n_osc) + parity) % 2 == 0, 1.0, -1.0)


def _parity_block(params: ModelParams, config: EDConfig, parity: int):
    """The triplet part of ``build_hamiltonian`` with parity (-1)^parity: the dense block
    h and ``v -> h @ v`` from h's at most three nonzeros per row, O(dim) per column.

    The parity swap(|1,1>, |1,-1>) (x) (-1)^(a^dag a) commutes with H.  The
    block's basis is s_n = (|1,1>|n> + e_n |1,-1>|n>)/sqrt(2) for n = 0..n_max,
    e_n = (-1)^(n + parity), then |1,0>|m> for m = parity, parity + 2, ...;
    the couplings are s_n-s_(n+1) (oscillator) and s_m-|1,0>|m> (transverse).
    """
    n_osc = config.n_max + 1
    ms = np.arange(parity, n_osc, 2)
    coupling = params.beta if config.variant is HamiltonianVariant.HALF_SUM else 2.0 * params.beta
    kappa = effective_kappa(params)
    s, t = np.arange(n_osc), n_osc + np.arange(ms.size)
    diag = np.concatenate([s - kappa * _parity_signs(n_osc, parity), ms - kappa])
    off = coupling * np.sqrt(s[1:])
    h = np.diag(diag)
    h[s[:-1], s[1:]] = h[s[1:], s[:-1]] = off
    h[ms, t] = h[t, ms] = -params.ratio_r

    def product(v: np.ndarray) -> np.ndarray:
        hv = diag[:, None] * v
        hv[: n_osc - 1] += off[:, None] * v[1:n_osc]
        hv[1:n_osc] += off[:, None] * v[: n_osc - 1]
        hv[ms] -= params.ratio_r * v[t]
        hv[t] -= params.ratio_r * v[ms]
        return hv

    return h, product


def _checked_eigh(h: np.ndarray, product) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a symmetric ``h``, with every residual ||H v - lambda v|| <= 1e-9 ||H||,
    H v taken as ``product(evecs)``."""
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    norm = float(np.abs(evals).max()) if evals.size else 0.0
    if norm > 0.0:
        residuals = np.linalg.norm(product(evecs) - evecs * evals, axis=0)
        worst = float(residuals.max())
        if worst > 1e-9 * norm:
            raise RuntimeError(
                f"eigenpair residual {worst:.3e} exceeds 1e-9 * ||H|| = {1e-9 * norm:.3e}"
            )
    return evals, evecs


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Verifies the reconstruction residual ||H v - lambda v|| <= 1e-9 ||H||
    for every pair before returning.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {h.shape}")
    if not np.abs(h - h.T).max() <= 1e-12 * max(1.0, np.abs(h).max()):
        raise DomainError("matrix is not symmetric")
    return _checked_eigh(h, h.__matmul__)


def coherent_amplitudes(alpha_sq: float, n_max: int) -> np.ndarray:
    """Fock amplitudes of |alpha> with alpha = sqrt(alpha_sq), real and positive."""
    if not (_is_real(alpha_sq) and alpha_sq >= 0.0):
        raise DomainError(f"alpha_sq must be a real number >= 0, got {alpha_sq!r}")
    if not (_is_integer(n_max) and n_max >= 0):
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    return np.exp(0.5 * poisson_logpmf(float(alpha_sq), int(n_max)))


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
    psi0 = np.zeros((SPIN_DIM, config.n_max + 1))
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
        psi0[sector] = amps
    else:
        if not (_is_integer(initial_fock) and 0 <= initial_fock <= config.n_max):
            raise DomainError(
                f"initial_fock must be an integer in [0, {config.n_max}], got {initial_fock!r}"
            )
        psi0[sector, int(initial_fock)] = 1.0
    return psi0


def _kept(weights: np.ndarray) -> np.ndarray:
    """Ascending indices left once the smallest ``weights`` are dropped while their sum
    stays <= PRUNE_BOUND."""
    order = np.argsort(weights, kind="stable")
    dropped = np.searchsorted(np.cumsum(weights[order]), PRUNE_BOUND, side="right")
    return np.sort(order[dropped:])


def _span(mask: np.ndarray) -> slice:
    """The shortest slice that holds every True entry of ``mask``."""
    hits = np.flatnonzero(mask)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


def _evolution(
    params: ModelParams,
    config: EDConfig,
    times: np.ndarray,
    initial_spin: SpinState,
    initial_fock: int | None,
) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray, np.ndarray]]]:
    """The full sorted spectrum, and the sector amplitudes' real and imaginary parts as
    (start, re, im) for times[start : start + rows], one block of at most _PHASE_BLOCK
    rows at a time, re and im of shape (rows, 4, n_osc).

    Each parity block is diagonalized on its own.  Its eigencomponents of least
    |c| = |<v|psi0>| are left out while their summed |c| stays <= PRUNE_BOUND, and so
    are its s_n rows, and its |1,0>|m> rows, outside the span of those whose bound
    sum_j |V_nj| |c_j| over the rest reaches PRUNE_BOUND: no amplitude moves by more
    than 2 * PRUNE_BOUND.  The rest evolves by two real products per block of times;
    the |0,0> sector has energies n + k_eff and needs none.  Every block is written
    into the same two buffers: a block is valid until the next one is drawn.
    """
    n_osc = config.n_max + 1
    psi0 = _initial_vector(params, config, initial_spin, initial_fock)
    spectra = [np.arange(n_osc) + effective_kappa(params)]
    singlet = _phase_blocks(-spectra[0], times) if psi0[3].any() else None
    parts = []
    for parity in (0, 1):
        signs = _parity_signs(n_osc, parity)
        psi = np.concatenate([(psi0[0] + signs * psi0[1]) * _SQRT_HALF, psi0[2, parity::2]])
        evals, evecs = _checked_eigh(*_parity_block(params, config, parity))
        spectra.append(evals)
        coeff = evecs.T @ psi
        kept = _kept(np.abs(coeff))
        reach = np.abs(evecs[:, kept]) @ np.abs(coeff[kept]) >= PRUNE_BOUND
        fock, ms = _span(reach[:n_osc]), _span(reach[n_osc:])
        weights = evecs[np.r_[fock, n_osc + ms.start : n_osc + ms.stop]][:, kept].T
        weights *= coeff[kept, None]
        split = fock.stop - fock.start
        m_rows = slice(parity + 2 * ms.start, parity + 2 * ms.stop, 2)
        # with no weights the spans are empty and a block writes nothing
        parts.append((_phase_blocks(-evals[kept], times), weights, parity, fock, split, m_rows))
    scale = np.array([np.ones(n_osc), _parity_signs(n_osc, 0)]) * _SQRT_HALF
    buffers = np.empty((2, min(times.size, _PHASE_BLOCK), SPIN_DIM, n_osc))

    def blocks():
        for start in range(0, times.size, _PHASE_BLOCK):
            re, im = buffers[:, : min(_PHASE_BLOCK, times.size - start)]
            re[:], im[:] = 0.0, 0.0
            if singlet is not None:
                _, cos, sin = next(singlet)
                re[:, 3], im[:, 3] = cos * psi0[3], sin * psi0[3]
            for phases, weights, parity, fock, split, m_rows in parts:
                _, cos, sin = next(phases)
                for out, part in ((re, cos @ weights), (im, sin @ weights)):
                    # s_n of both blocks combine into |1,1>|n> and, with sign e_n, |1,-1>|n>
                    out[:, 0, fock] += part[:, :split]
                    out[:, 1, fock] += (1 - 2 * parity) * part[:, :split]
                    out[:, 2, m_rows] = part[:, split:]
            re[:, :2] *= scale
            im[:, :2] *= scale
            yield start, re, im

    return np.sort(np.concatenate(spectra)), blocks()


def _populations(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.einsum("tkn,tkn->kt", re, re) + np.einsum("tkn,tkn->kt", im, im)


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
    n_max + 20 unless ``compute_truncation_error`` is off, and up to the
    eigencomponents and rows left out as below PRUNE_BOUND, which move no
    amplitude by more than 2 * PRUNE_BOUND.  Each block of _PHASE_BLOCK times is reduced
    before the next is evolved: per time, only the populations, one 4x4 density matrix
    and, with ``keep_states``, the state are held.
    """
    times = _as_times(times)
    _check_capacity(config)
    evals, blocks = _evolution(params, config, times, initial_spin, initial_fock)
    pops = np.empty((SPIN_DIM, times.size))
    rho = np.empty((times.size, SPIN_DIM, SPIN_DIM), dtype=complex)
    states = np.empty((SPIN_DIM, config.n_max + 1, times.size), complex) if keep_states else None
    for start, re, im in blocks:
        rows = slice(start, start + len(re))
        pops[:, rows] = _populations(re, im)
        re_t, im_t = re.swapaxes(1, 2), im.swapaxes(1, 2)
        rho[rows].real, rho[rows].imag = re @ re_t + im @ im_t, im @ re_t - re @ im_t
        if keep_states:
            states[..., rows] = (re + 1j * im).transpose(1, 2, 0)
    channels = dict(zip(("P11", "P1m1", "P10", "P00"), pops))
    rho = _COMPOSITE_TO_PRODUCT @ rho @ _COMPOSITE_TO_PRODUCT.T
    # renormalize away the coherent-state truncation deficit (~1e-24)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    conc = concurrence(rho)
    truncation_error = None
    if compute_truncation_error:
        bigger = replace(config, n_max=config.n_max + TRUNCATION_MARGIN)
        pops_big = np.empty_like(pops)
        for start, re, im in _evolution(params, bigger, times, initial_spin, initial_fock)[1]:
            pops_big[:, start : start + len(re)] = _populations(re, im)
        truncation_error = float(np.abs(pops - pops_big).max())
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
        states=None if states is None else states.reshape(-1, times.size),
    )
