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
from dataclasses import dataclass

import numpy as np

from .dynamics import _PHASE_BLOCK, _as_times
from .errors import CapacityError, DomainError, TruncationWarning
from .params import ModelParams, SpinState, _is_integer, _is_real, effective_kappa
from .specialfn import poisson_logpmf

SPIN_DIM = 4
TRUNCATION_MARGIN = 20
DIM_CEILING = 8192  # largest 4 * (n_max + 1) the oracle admits; its truncation re-run may pass it
# evolution leaves out what moves no amplitude by more than this (see _evolution)
PRUNE_BOUND = 1e-15
_TILE = 32  # Fock rows per tile of the evolution product (see _evolution)

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


@dataclass(frozen=True)
class EDResult:
    """Time-evolved observables of the dense oracle.

    ``populations`` maps P11, P1m1, P10 and P00, and ``concurrence`` holds C,
    each one value per time.  ``truncation_error`` is the sup-norm change of the
    populations when the Fock window [n_lo, n_max] widens by TRUNCATION_MARGIN at both
    ends (n_lo stops at 0); None when the check was skipped.  ``states`` carries the
    evolved vectors over 0..n_max, one column per time, only when ``evolve`` was asked to
    keep them; rows below n_lo and the tiles of rows that evolution leaves out as out of
    reach of the initial state (see PRUNE_BOUND) are exact zeros.
    """

    populations: dict[str, np.ndarray]
    concurrence: np.ndarray
    truncation_error: float | None
    states: np.ndarray | None = None


def required_n_max(alpha_sq: float) -> int:
    """Smallest Fock cutoff admitted for a coherent state of mean alpha_sq."""
    if not (_is_real(alpha_sq) and alpha_sq >= 0.0):
        raise DomainError(f"alpha_sq must be a real number >= 0, got {alpha_sq!r}")
    return math.ceil(alpha_sq + 10.0 * math.sqrt(alpha_sq + 1.0))


def _checked_n_max(n_max) -> int:
    """``n_max`` as an int, once it is an integer >= 0 whose dimension fits DIM_CEILING."""
    if not (_is_integer(n_max) and n_max >= 0):
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    dim = SPIN_DIM * (int(n_max) + 1)
    if dim > DIM_CEILING:
        raise CapacityError(f"dimension {dim} exceeds the ceiling {DIM_CEILING}")
    return int(n_max)


def build_hamiltonian(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense real symmetric Hamiltonian, basis (composite spin) x (Fock number).

    Blocks: oscillator energy, the sector-displacing coupling beta*(a + a^dag)
    weighted by (sz1 + sz2)/2, the transverse qubit term, and the inter-qubit
    coupling.  The |0,0> spin sector couples to nothing.  The literal sz1 + sz2
    reading is this Hamiltonian at 2 * beta, bit for bit.
    """
    n_osc = _checked_n_max(n_max) + 1
    eye_osc = np.eye(n_osc)
    ladder = np.diag(np.sqrt(np.arange(1.0, n_osc)), 1)
    number_op = np.diag(np.arange(float(n_osc)))
    position = ladder + ladder.T
    h = np.kron(np.eye(SPIN_DIM), number_op)
    h += params.beta * np.kron(_SZ_HALF, position)
    h -= 0.5 * params.ratio_r * np.kron(_SX_SUM, eye_osc)
    h -= effective_kappa(params) * np.kron(_SX_PROD, eye_osc)
    return h


def _parity_signs(fock: np.ndarray, parity: int) -> np.ndarray:
    """e_n = (-1)^(n + parity) for the Fock numbers n of ``fock``."""
    return np.where((fock + parity) % 2 == 0, 1.0, -1.0)


def _window_start(params: ModelParams, n_max: int, initial_fock: int | None) -> int:
    """n_lo of the Fock window [n_lo, n_max] evolved: 0 for a number state, else n_max
    mirrored about alpha_sq, below which a coherent state holds less than above n_max."""
    return 0 if initial_fock is not None else max(0, math.floor(2.0 * params.alpha_sq - n_max))


def _parity_block(params: ModelParams, n_lo: int, n_max: int, parity: int):
    """The triplet part of ``build_hamiltonian`` with parity (-1)^parity on the Fock
    window [n_lo, n_max]: the dense block h and ``v -> h @ v`` from h's at most three
    nonzeros per row, O(dim) per column.

    The parity swap(|1,1>, |1,-1>) (x) (-1)^(a^dag a) commutes with H.  The
    block's basis is s_n = (|1,1>|n> + e_n |1,-1>|n>)/sqrt(2) for n = n_lo..n_max,
    e_n = (-1)^(n + parity), then |1,0>|m> for the m >= n_lo of the block's parity;
    the couplings are s_n-s_(n+1) (oscillator) and s_m-|1,0>|m> (transverse): the
    principal submatrix of the n_lo = 0 block on those states.
    """
    fock = np.arange(n_lo, n_max + 1)
    n_osc = fock.size
    ms = np.arange((parity - n_lo) % 2, n_osc, 2)  # window rows of the s_m
    kappa = effective_kappa(params)
    s, t = np.arange(n_osc), n_osc + np.arange(ms.size)
    diag = np.concatenate([fock - kappa * _parity_signs(fock, parity), fock[ms] - kappa])
    off = params.beta * np.sqrt(fock[1:])
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
    H v taken as ``product`` of _PHASE_BLOCK eigenvectors at a time.  Each residual is
    divided by ||H|| before its norm is taken, so its squares do not overflow."""
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    norm = float(np.abs(evals).max()) if evals.size else 0.0
    if norm > 0.0:
        worst = 0.0
        for start in range(0, evals.size, _PHASE_BLOCK):
            chunk = slice(start, start + _PHASE_BLOCK)
            r = product(evecs[:, chunk])
            r -= evecs[:, chunk] * evals[chunk]
            r /= norm
            worst = max(worst, float(np.linalg.norm(r, axis=0).max()))
        if worst > 1e-9:
            raise RuntimeError(
                f"eigenpair residual {worst:.3e} * ||H|| exceeds 1e-9 * ||H||, ||H|| = {norm:.3e}"
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
    n_max: int,
    initial_spin: SpinState,
    initial_fock: int | None,
) -> np.ndarray:
    if not isinstance(initial_spin, SpinState):
        raise DomainError("initial_spin must be a SpinState member")
    psi0 = np.zeros((SPIN_DIM, n_max + 1))
    sector = _SPIN_INDEX[initial_spin]
    if initial_fock is None:
        if n_max < required_n_max(params.alpha_sq):
            raise DomainError(
                f"n_max={n_max} below the coherent-state requirement "
                f"{required_n_max(params.alpha_sq)} for alpha_sq={params.alpha_sq}"
            )
        # the Fock amplitudes of |alpha>, alpha = sqrt(alpha_sq) real and positive
        amps = np.exp(0.5 * poisson_logpmf(params.alpha_sq, n_max))
        norm = float(np.linalg.norm(amps))
        if norm < 1.0 - 1e-12:
            raise DomainError(
                f"truncated coherent-state norm {norm:.15f} below 1 - 1e-12"
            )
        psi0[sector] = amps
    else:
        if not (_is_integer(initial_fock) and 0 <= initial_fock <= n_max):
            raise DomainError(
                f"initial_fock must be an integer in [0, {n_max}], got {initial_fock!r}"
            )
        psi0[sector, int(initial_fock)] = 1.0
    return psi0


def _component_span(magnitudes: np.ndarray, bound: float) -> slice:
    """Columns (eigencomponents, in energy order) of ``magnitudes`` left after dropping the
    longest head that keeps every row (one Fock row's |weights|) within ``bound``, then the
    longest tail that fits beside each row's head; slice(0, 0) if every row fits whole."""
    if magnitudes.sum(axis=1).max() <= bound:  # before any cumulative sum, as large as the tile
        return slice(0, 0)
    head = np.cumsum(magnitudes, axis=1)
    lo = np.count_nonzero(head.max(axis=0) <= bound)
    room = bound - head[:, lo - 1] if lo else np.full(len(magnitudes), bound)
    tail = np.cumsum(magnitudes[:, lo:][:, ::-1], axis=1)
    hi = magnitudes.shape[1] - np.count_nonzero((tail <= room[:, None]).all(axis=0))
    # row sums and cumulative sums round apart, so a tile just over the bound may fit whole
    return slice(lo, hi) if hi > lo else slice(0, 0)


def _phase_blocks(freqs: np.ndarray, times: np.ndarray) -> Iterator[tuple]:
    """Yield (start, cos, sin) of outer(times[start : start + _PHASE_BLOCK], freqs).

    On a grid equal bit for bit to np.linspace(times[0], times[-1], n), the angles
    w*(t_s + j*dt), t_s a block's first time and 0 <= j < _PHASE_BLOCK, come by
    angle addition from those of w*t_s and w*j*dt: 2*(_PHASE_BLOCK + ceil(n/_PHASE_BLOCK))
    cos-plus-sin evaluations per frequency w once n >= _PHASE_BLOCK, not 2*n.  Any other
    grid takes np.cos and np.sin directly.  Before the first block, a DomainError reports
    angles that would overflow: each |w t|, and |w| (t_last - t_first) on a linspace grid,
    is at most max|w| (|t_first| + |t_last|).
    """
    w_max = float(np.abs(freqs).max(initial=0.0))
    if not math.isfinite(w_max * (abs(float(times[0])) + abs(float(times[-1])))):
        raise DomainError(
            f"phases E*t overflow: max|E| = {w_max:.3e} at times up to "
            f"{max(abs(times[0]), abs(times[-1])):.3e}"
        )
    if not np.array_equal(times, np.linspace(times[0], times[-1], times.size)):
        for start in range(0, times.size, _PHASE_BLOCK):
            angles = np.outer(times[start : start + _PHASE_BLOCK], freqs)
            yield start, np.cos(angles), np.sin(angles, out=angles)
        return
    step = (times[-1] - times[0]) / max(times.size - 1, 1)
    a = np.outer(np.arange(min(times.size, _PHASE_BLOCK)) * step, freqs)
    cos_j, sin_j = np.cos(a), np.sin(a, out=a)
    for start in range(0, times.size, _PHASE_BLOCK):
        c, s = cos_j[: times.size - start], sin_j[: times.size - start]
        cos_s, sin_s = np.cos(times[start] * freqs), np.sin(times[start] * freqs)
        cos = c * cos_s
        cos -= s * sin_s
        sin = s * cos_s
        sin += c * sin_s
        yield start, cos, sin


def _evolution(
    params: ModelParams,
    n_lo: int,
    n_max: int,
    times: np.ndarray,
    psi0: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The real and imaginary parts of the sector amplitudes evolved from ``psi0``
    (an ``_initial_vector`` at ``n_max``) projected onto the Fock window [n_lo, n_max],
    as (start, re, im) for times[start : start + rows], one block of at most
    _PHASE_BLOCK rows at a time, re and im of shape (rows, 4, n_max + 1 - n_lo).

    Each parity block is diagonalized on its own, its matrix and eigenvectors freed
    before the next block's eigh.  With c = V^T psi0 and b = PRUNE_BOUND / sqrt(2), each
    tile of _TILE of its s_n rows, or of its |1,0>|m> rows, drops from its weights
    V_nj c_j the longest head of eigencomponents that keeps every row within b, then the
    longest tail that fits beside it (_component_span); a tile whose rows each sum to at
    most b writes zeros.  A row thus moves by at most b, and |1,+-1>|n>, two blocks' s_n
    over sqrt(2), by at most PRUNE_BOUND.  The |0,0> sector has energies n + k_eff and
    needs no product.  Every block is written into the same two buffers: a block is
    valid until the next one is drawn.
    """
    bound = PRUNE_BOUND * _SQRT_HALF
    fock_numbers = np.arange(n_lo, n_max + 1)
    n_osc, psi0 = fock_numbers.size, psi0[:, n_lo:]
    singlet_energies = fock_numbers + effective_kappa(params)
    singlet = _phase_blocks(-singlet_energies, times) if psi0[3].any() else None
    parts = []
    for parity in (0, 1):
        first_m = (parity - n_lo) % 2  # window row of the block's first |1,0>|m>
        signs = _parity_signs(fock_numbers, parity)
        psi = np.concatenate([(psi0[0] + signs * psi0[1]) * _SQRT_HALF, psi0[2, first_m::2]])
        evals, weights = _checked_eigh(*_parity_block(params, n_lo, n_max, parity))
        weights *= weights.T @ psi  # V_nj c_j, c = V^T psi
        # the |1,0>|m> rows start tiles of their own: a tile follows one run of Fock numbers
        ends = ((0, n_osc), (n_osc, len(weights)))
        rows = [slice(r, min(r + _TILE, end)) for lo, end in ends for r in range(lo, end, _TILE)]
        spans = [_component_span(np.abs(weights[tile]), bound) for tile in rows]
        first = min((span.start for span in spans if span.stop), default=0)
        last = max((span.stop for span in spans), default=0)
        # phases for the union of the spans only; an empty span stays empty once shifted.
        # Each tile's weights are copied out transposed, which BLAS runs faster than a view.
        tiles = [
            (slice(s.start - first, s.stop - first), tile, weights[tile, s].T.copy())
            for s, tile in zip(spans, rows)
        ]
        product = np.empty((min(times.size, _PHASE_BLOCK), len(weights)))
        del weights
        parts.append((_phase_blocks(-evals[first:last], times), tiles, first_m, product))
    scale = _parity_signs(fock_numbers, 0) * _SQRT_HALF  # e_n / sqrt(2) of the even block
    buffers = np.zeros((2, min(times.size, _PHASE_BLOCK), SPIN_DIM, n_osc))

    def blocks():
        for start in range(0, times.size, _PHASE_BLOCK):
            re, im = buffers[:, : min(_PHASE_BLOCK, times.size - start)]
            if singlet is not None:
                _, cos, sin = next(singlet)
                re[:, 3], im[:, 3] = cos * psi0[3], sin * psi0[3]
            drawn = [next(phases)[1:] for phases, *_ in parts]
            for k, out in enumerate((re, im)):
                for (_, tiles, first_m, product), trig in zip(parts, drawn):
                    part = product[: len(out)]
                    # an empty span's product has no terms and writes zeros
                    for span, tile, weights in tiles:
                        np.matmul(trig[k][:, span], weights, out=part[:, tile])
                    out[:, 2, first_m::2] = part[:, n_osc:]
                even, odd = (product[: len(out), :n_osc] for *_, product in parts)
                # s_n of both blocks combine into |1,1>|n> and, with sign e_n, |1,-1>|n>
                np.add(even, odd, out=out[:, 0])
                np.subtract(even, odd, out=out[:, 1])
                out[:, 0] *= _SQRT_HALF
                out[:, 1] *= scale
            yield start, re, im

    return blocks()


def _populations(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.einsum("tkn,tkn->kt", re, re) + np.einsum("tkn,tkn->kt", im, im)


def evolve(
    params: ModelParams,
    n_max: int,
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
    number state instead.  Evolution is by spectral decomposition, exact up to the Fock
    window [n_lo, n_max] (see _window_start), whose effect is measured by re-running with
    n_max + 20, and so n_lo - 20, unless ``compute_truncation_error`` is off, and up to the
    ends of each tile of rows' eigencomponents left out as below PRUNE_BOUND, which move
    no amplitude by more than PRUNE_BOUND (see _evolution).
    Each block of _PHASE_BLOCK times is reduced before the next is evolved: per time,
    only the populations, one 4x4 density matrix and, with ``keep_states``, the state
    are held.  The initial state is checked at
    n_max before any eigh; the re-run, whose parity blocks are the larger, then goes
    first, so that the peak memory is one eigh of its larger block.
    """
    times = _as_times(times)
    n_max = _checked_n_max(n_max)
    psi0 = _initial_vector(params, n_max, initial_spin, initial_fock)
    n_lo = _window_start(params, n_max, initial_fock)
    pops_big = None
    if compute_truncation_error:
        bigger = n_max + TRUNCATION_MARGIN
        psi_big = _initial_vector(params, bigger, initial_spin, initial_fock)
        lower = _window_start(params, bigger, initial_fock)
        blocks = _evolution(params, lower, bigger, times, psi_big)
        pops_big = np.hstack([_populations(re, im) for _, re, im in blocks])
    blocks = _evolution(params, n_lo, n_max, times, psi0)
    pops = np.empty((SPIN_DIM, times.size))
    rho = np.empty((times.size, SPIN_DIM, SPIN_DIM), dtype=complex)
    states = np.zeros((SPIN_DIM, n_max + 1, times.size), complex) if keep_states else None
    for start, re, im in blocks:
        rows = slice(start, start + len(re))
        pops[:, rows] = _populations(re, im)
        re_t, im_t = re.swapaxes(1, 2), im.swapaxes(1, 2)
        rho[rows].real, rho[rows].imag = re @ re_t + im @ im_t, im @ re_t - re @ im_t
        if keep_states:
            states[:, n_lo:, rows] = (re + 1j * im).transpose(1, 2, 0)
    rho = _COMPOSITE_TO_PRODUCT @ rho @ _COMPOSITE_TO_PRODUCT.T
    # renormalize away the rounding in the Poisson amplitudes (1 - |psi0|^2 ~ 1e-16)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    conc = concurrence(rho)
    truncation_error = None
    if pops_big is not None:
        truncation_error = float(np.abs(pops - pops_big).max())
        if truncation_error > 1e-6:
            warnings.warn(
                f"truncation error {truncation_error:.3e} exceeds 1e-6; widen the Fock "
                f"window [{n_lo}, {n_max}]: increase n_max beyond {n_max}",
                TruncationWarning,
                stacklevel=2,
            )
    return EDResult(
        populations=dict(zip(("P11", "P1m1", "P10", "P00"), pops)),
        concurrence=conc,
        truncation_error=truncation_error,
        states=None if states is None else states.reshape(-1, times.size),
    )
