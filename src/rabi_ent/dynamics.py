"""Time-domain observables.

The coherent-state-averaged transition probability T(t), the survival
probability 1 - 2 T(t), and a Jaynes-Cummings inversion comparator W(t)
for the collapse-and-revival contrast.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams, _is_real
from .specialfn import DEFAULT_TAIL_TOL, LogWeightTable, poisson_logweights
from .spectrum import aa_columns, aa_row

_PHASE_BLOCK = 128


def _as_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly increasing")
    return times


@dataclass(frozen=True)
class TimeSeries:
    """A strictly increasing time grid with named value channels."""

    times: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        times = _as_times(self.times)
        object.__setattr__(self, "times", times)
        channels = {}
        for name, values in self.channels.items():
            values = np.asarray(values, dtype=float)
            if values.shape != times.shape:
                raise DomainError(f"channel {name!r} length does not match times")
            if not np.all(np.isfinite(values)):
                raise DomainError(f"channel {name!r} contains non-finite values")
            channels[name] = values
        object.__setattr__(self, "channels", channels)


def _phase_blocks(freqs: np.ndarray, times: np.ndarray, _sin: bool = True) -> Iterator[tuple]:
    """Yield (start, cos, sin) of outer(times[start : start + _PHASE_BLOCK], freqs).

    On a grid equal bit for bit to np.linspace(times[0], times[-1], n), the angles
    w*(t_s + j*dt), t_s a block's first time and 0 <= j < _PHASE_BLOCK, come by
    angle addition from those of w*t_s and w*j*dt: N*(_PHASE_BLOCK + n/_PHASE_BLOCK)
    trig calls, not N*n.  Any other grid takes np.cos and np.sin directly.  With
    ``_sin`` false (T, W, the grid scan) sin is None and cos keeps the same bits.

    Every block is written into the same two buffers, which the caller may
    overwrite: a block is valid until the next one is drawn.  All buffers come
    from one allocation per call, so that many calls in a row reuse heap memory
    instead of faulting in fresh pages block after block.
    """
    width = min(times.size, _PHASE_BLOCK)
    cos, sin, tmp, cos_j, sin_j = np.empty((5, width, freqs.size))
    uniform = np.array_equal(times, np.linspace(times[0], times[-1], times.size))
    if uniform:
        step = (times[-1] - times[0]) / max(times.size - 1, 1)
        np.outer(np.arange(width) * step, freqs, out=tmp)
        np.cos(tmp, out=cos_j)
        np.sin(tmp, out=sin_j)
    for start in range(0, times.size, _PHASE_BLOCK):
        rows = min(_PHASE_BLOCK, times.size - start)
        c, s, t = cos[:rows], sin[:rows], tmp[:rows]
        if uniform:
            cos_s, sin_s = np.cos(times[start] * freqs), np.sin(times[start] * freqs)
            np.multiply(cos_j[:rows], cos_s, out=c)
            c -= np.multiply(sin_j[:rows], sin_s, out=t)
            if _sin:
                np.multiply(sin_j[:rows], cos_s, out=s)
                s += np.multiply(cos_j[:rows], sin_s, out=t)
        else:
            np.outer(times[start : start + rows], freqs, out=t)
            np.cos(t, out=c)
            if _sin:
                np.sin(t, out=s)
        yield start, c, s if _sin else None


def _cosine_average(
    coeff: np.ndarray, freqs: np.ndarray, times: np.ndarray, shift: float
) -> np.ndarray:
    """sum_N coeff_N * (shift - cos(freqs_N * t)), one block of :func:`_phase_blocks` at a time.

    The cosines are clamped into [-1, 1], so T(0) = 0 exactly and 0 <= T <= 1/4
    hold under angle addition too.
    """
    out = np.empty_like(times)
    for start, cos, _ in _phase_blocks(freqs, times, _sin=False):
        block = np.subtract(shift, np.clip(cos, -1.0, 1.0, out=cos), out=cos)
        out[start : start + len(block)] = block @ coeff
    return out


def _t_coefficients(table: LogWeightTable, columns: dict[str, np.ndarray]) -> np.ndarray:
    """p(N) * weight_N for N = 0 .. table.n_cut; ``columns`` may reach past n_cut."""
    return table.masses() * columns["weight"][: table.n_cut + 1]


def transition_prob(
    params: ModelParams, times, tail_tol: float = DEFAULT_TAIL_TOL
) -> TimeSeries:
    """Averaged probability series T(t), channel "T".

    T(t) = sum_N p(N) * weight_N * (1 - cos(rabi_freq_N * t)), with p(N) the
    Poisson photon weights of the initial coherent state and weight_N,
    rabi_freq_N from the per-N spectrum rows.  Each weight is at most 1/8 and
    the (1 - cos) factor at most 2, so 0 <= T(t) <= 1/4; T(0) = 0 exactly.
    """
    times = _as_times(times)
    table = poisson_logweights(params.alpha_sq, tail_tol)
    columns = aa_columns(params, table.n_cut)
    T = _cosine_average(_t_coefficients(table, columns), columns["rabi_freq"], times, 1.0)
    return TimeSeries(times=times, channels={"T": T})


def _spectrum_key(params: ModelParams) -> tuple:
    """Every field of ``params`` but alpha_sq, floats by their bits (0.0 and -0.0 differ)."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for name, value in vars(params).items()
        if name != "alpha_sq"
    )


def _peak_transition_probs(
    points: Sequence[ModelParams], times: np.ndarray, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """max_t T(t) of every parameter set in ``points`` on a valid time grid.

    Each peak equals ``transition_prob(p, times, tail_tol).channels["T"].max()``
    bit for bit, except that a NaN in T gives a NaN peak instead of an error
    (elsewhere T lies in [0, 1/4]).  T reads alpha_sq only through the
    Poisson weights, so each distinct alpha_sq gets one Poisson table, and
    points that differ only in alpha_sq share one spectrum and one (1 - cos)
    block per block of times.  Tables are held in batches that together take
    about the room of one such block, and each point is reduced to its
    running maximum, so memory does not grow with the number of points.
    """
    rows_by_alpha: dict[float, list[int]] = {}
    for i, params in enumerate(points):
        rows_by_alpha.setdefault(params.alpha_sq, []).append(i)
    peaks = np.full(len(points), -np.inf)
    width = min(times.size, _PHASE_BLOCK)
    groups: dict[tuple, list[tuple[int, LogWeightTable]]] = {}
    held = longest = 0
    for k, (alpha_sq, rows) in enumerate(rows_by_alpha.items(), 1):
        table = poisson_logweights(alpha_sq, tail_tol)
        for i in rows:
            groups.setdefault(_spectrum_key(points[i]), []).append((i, table))
        held += table.n_cut + 1
        longest = max(longest, table.n_cut + 1)
        if held >= longest * width or k == len(rows_by_alpha):
            for members in groups.values():
                _group_peaks(points[members[0][0]], members, times, peaks)
            groups, held, longest = {}, 0, 0
    return peaks


def _group_peaks(
    params: ModelParams,
    members: list[tuple[int, LogWeightTable]],
    times: np.ndarray,
    peaks: np.ndarray,
) -> None:
    """Raise ``peaks[i]`` to max_t T(t) of ``params`` under ``table``, for each (i, table).

    One spectrum and one block at a time; both are freed on return, before
    the next group builds its own.
    """
    columns = aa_columns(params, max(table.n_cut for _, table in members))
    coeffs = [(i, _t_coefficients(table, columns)) for i, table in members]
    for _, cos, _ in _phase_blocks(columns["rabi_freq"], times, _sin=False):
        block = np.subtract(1.0, np.clip(cos, -1.0, 1.0, out=cos), out=cos)
        for i, coeff in coeffs:
            peaks[i] = np.maximum(peaks[i], (block[:, : coeff.size] @ coeff).max())


def survival_prob(
    params: ModelParams, times, tail_tol: float = DEFAULT_TAIL_TOL
) -> TimeSeries:
    """Stay probability 1 - 2 T(t), channel "P_stay"; values lie in [1/2, 1]."""
    base = transition_prob(params, times, tail_tol)
    return TimeSeries(
        times=base.times, channels={"P_stay": 1.0 - 2.0 * base.channels["T"]}
    )


def jc_inversion(
    delta: float,
    g: float,
    alpha_sq: float,
    times,
    tail_tol: float = DEFAULT_TAIL_TOL,
    corrected: bool = True,
) -> TimeSeries:
    """Jaynes-Cummings population inversion W(t) for a coherent field, channel "W".

    W(t) = sum_N p(N) [delta^2/Om_N^2 + (4 g^2 (N+1)/Om_N^2) cos(Om_N t)].
    With ``corrected`` (default) the quantum Rabi frequency is
    Om_N = sqrt(delta^2 + 4 g^2 (N+1)); with ``corrected=False`` the
    dimensionally inconsistent legacy expression Om_N = delta^2 + 4 g (N+1)
    is used verbatim for comparison.
    """
    if not _is_real(delta):
        raise DomainError(f"delta must be a real number, got {delta!r}")
    if not (_is_real(g) and g > 0.0):
        raise DomainError(f"g must be a real number > 0, got {g!r}")
    delta, g = float(delta), float(g)
    times = _as_times(times)
    table = poisson_logweights(alpha_sq, tail_tol)
    p = table.masses()
    n_plus_1 = np.arange(1.0, table.n_cut + 2.0)
    if corrected:
        om = np.sqrt(delta * delta + 4.0 * g * g * n_plus_1)
    else:
        om = delta * delta + 4.0 * g * n_plus_1
    om_sq = om * om
    const = float(np.dot(p, delta * delta / om_sq))
    osc_coeff = p * (4.0 * g * g * n_plus_1 / om_sq)
    # const + osc_coeff @ cos(om t), written for the shared (shift - cos) kernel
    W = const - _cosine_average(osc_coeff, om, times, 0.0)
    return TimeSeries(times=times, channels={"W": W})


def two_branch_interference_check(N: int, params: ModelParams, times) -> float:
    """Residual of the closed-form two-branch interference against the T(t) kernel.

    Evolves the branch amplitudes (y_pm / l2_pm) * exp(-i * e_pm * t)
    analytically.  They interfere to |c(t)|^2 = 2 * weight * (1 - cos(rabi * t));
    the transition-probability kernel counts half of that interference term per
    exit channel, so the check compares |c(t)|^2 / 2 against
    weight * (1 - cos(rabi_freq * t)) and returns the maximum absolute deviation.
    """
    times = _as_times(times)
    row = aa_row(N, params)
    if row.omega1N == 0.0:
        raise DomainError(
            f"row N={N} is degenerate: omega1N == 0, branch amplitudes undefined"
        )
    c_plus = (row.y_plus / row.l2_plus) * np.exp(-1j * row.eplus * times)
    c_minus = (row.y_minus / row.l2_minus) * np.exp(-1j * row.eminus * times)
    transfer = 0.5 * np.abs(c_plus + c_minus) ** 2
    reference = row.weight * (1.0 - np.cos(row.rabi_freq * times))
    return float(np.max(np.abs(transfer - reference)))
