"""Time-domain observables.

The coherent-state-averaged transition probability T(t), the survival
probability 1 - 2 T(t), and a Jaynes-Cummings inversion comparator W(t)
for the collapse-and-revival contrast.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .params import ModelParams, _is_real
from .specialfn import DEFAULT_TAIL_TOL, poisson_logweights
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


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, once none is NaN or inf: T and W overflow to NaN at extreme inputs."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"channel {name!r} contains non-finite values")
    return values


def _phase_blocks(freqs: np.ndarray, times: np.ndarray) -> Iterator[tuple]:
    """Yield (start, cos, sin) of outer(times[start : start + _PHASE_BLOCK], freqs).

    On a grid equal bit for bit to np.linspace(times[0], times[-1], n), the angles
    w*(t_s + j*dt), t_s a block's first time and 0 <= j < _PHASE_BLOCK, come by
    angle addition from those of w*t_s and w*j*dt: N*(_PHASE_BLOCK + n/_PHASE_BLOCK)
    trig calls, not N*n.  Any other grid takes np.cos and np.sin directly.

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
            np.multiply(sin_j[:rows], cos_s, out=s)
            s += np.multiply(cos_j[:rows], sin_s, out=t)
        else:
            np.outer(times[start : start + rows], freqs, out=t)
            np.cos(t, out=c)
            np.sin(t, out=s)
        yield start, c, s


def _cosine_rows(coeffs: list, freqs: np.ndarray, times: np.ndarray, shift: float) -> Iterator:
    """Yield (r, values): sum_N coeffs[r]_N (shift - cos(freqs_N t)) on row r's next
    times, for rows coeffs[r] >= 0 that each read the leading freqs.

    On a linspace grid, t = t_s + j dt with a = freqs j dt, b = freqs t_s, each term is
    (shift - cos a) + cos a (1 - cos b) + sin a sin b: a table of a for j < w ~ sqrt(n),
    b for _PHASE_BLOCK / 2 block starts at a time, two matrix-vector products per block
    and row.  Other grids take np.cos alone, laid out (freqs x times), which it evaluates
    faster than (times x freqs), for _PHASE_BLOCK times at a time.  Rows read prefix
    views of shared tables, so a row's bits are those of a call with it alone.  Values
    are clamped into [shift - 1, shift + 1] * sum(coeffs[r]): T(0) = 0 exactly.
    """
    bounds = [((shift - 1.0) * c.sum(), (shift + 1.0) * c.sum()) for c in coeffs]
    if not np.array_equal(times, np.linspace(times[0], times[-1], times.size)):
        for start in range(0, times.size, _PHASE_BLOCK):
            block = shift - np.cos(np.outer(freqs, times[start : start + _PHASE_BLOCK]))
            for r, c in enumerate(coeffs):
                yield r, np.clip(c @ block[: c.size], *bounds[r])
        return
    width = min(math.isqrt(times.size - 1) + 1, _PHASE_BLOCK)
    angles = np.outer(np.arange(width) * ((times[-1] - times[0]) / max(times.size - 1, 1)), freqs)
    sin_j, cos_j = np.sin(angles), np.cos(angles, out=angles)
    heads = [(shift - cos_j[:, : c.size]) @ c for c in coeffs]
    chunk = width * (_PHASE_BLOCK // 2)
    for start in range(0, times.size, chunk):
        sin_s = np.outer(times[start : start + chunk : width], freqs)  # b, until its sine
        vers_s, sin_s = np.subtract(1.0, np.cos(sin_s)), np.sin(sin_s, out=sin_s)
        for r, c in enumerate(coeffs):
            n = c.size
            values = heads[r] + np.matmul(cos_j[:, :n], (c * vers_s[:, :n])[..., None])[..., 0]
            values += np.matmul(sin_j[:, :n], (c * sin_s[:, :n])[..., None])[..., 0]
            yield r, np.clip(values.ravel()[: times.size - start], *bounds[r])


def _cosine_average(
    coeff: np.ndarray, freqs: np.ndarray, times: np.ndarray, shift: float
) -> np.ndarray:
    """sum_N coeff_N * (shift - cos(freqs_N * t)) on ``times``: one row of :func:`_cosine_rows`."""
    return np.concatenate([values for _, values in _cosine_rows([coeff], freqs, times, shift)])


def _t_coefficients(log_p: np.ndarray, columns: dict[str, np.ndarray]) -> np.ndarray:
    """p(N) * weight_N for N = 0 .. log_p.size - 1; ``columns`` may reach past that."""
    return np.exp(log_p) * columns["weight"][: log_p.size]


def transition_prob(
    params: ModelParams, times, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """Averaged transition probability T(t) on ``times``.

    T(t) = sum_N p(N) * weight_N * (1 - cos(rabi_freq_N * t)), with p(N) the
    Poisson photon weights of the initial coherent state and weight_N,
    rabi_freq_N from the per-N spectrum rows.  Each weight is at most 1/8 and
    the (1 - cos) factor at most 2, so 0 <= T(t) <= 1/4; T(0) = 0 exactly.
    """
    times = _as_times(times)
    log_p = poisson_logweights(params.alpha_sq, tail_tol)
    columns = aa_columns(params, log_p.size - 1)
    T = _cosine_average(_t_coefficients(log_p, columns), columns["rabi_freq"], times, 1.0)
    return _finite("T", T)


def _peak_transition_probs(
    points: Sequence[ModelParams], times: np.ndarray, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """max_t T(t) of every parameter set in ``points`` on a valid time grid.

    Each peak equals ``transition_prob(p, times, tail_tol).max()`` bit for bit,
    except that a NaN in T gives a NaN peak instead of an error.  T reads
    alpha_sq only through the Poisson weights, so each distinct alpha_sq gets
    one table, and points that differ only in alpha_sq (or in the sign of a
    zero, which T does not read) share one spectrum and its phase tables.
    The distinct alpha_sq go in order of first appearance, min(times.size,
    _PHASE_BLOCK) at a time, so the tables held take at most the room of
    _PHASE_BLOCK rows of phases; each point keeps only its running maximum.
    """
    rows_by_alpha: dict[float, list[int]] = {}
    for i, params in enumerate(points):
        rows_by_alpha.setdefault(params.alpha_sq, []).append(i)
    alphas = list(rows_by_alpha.items())
    peaks = np.full(len(points), -np.inf)
    width = min(times.size, _PHASE_BLOCK)
    for start in range(0, len(alphas), width):
        groups: dict[tuple, list[tuple[int, np.ndarray]]] = {}
        for alpha_sq, rows in alphas[start : start + width]:
            log_p = poisson_logweights(alpha_sq, tail_tol)
            for i in rows:
                p = points[i]
                key = (p.ratio_r, p.beta, p.kappa0, p.kappa_convention)
                groups.setdefault(key, []).append((i, log_p))
        for members in groups.values():
            _group_peaks(points[members[0][0]], members, times, peaks)
    return peaks


def _group_peaks(
    params: ModelParams, members: list[tuple[int, np.ndarray]], times: np.ndarray, peaks: np.ndarray
) -> None:
    """Raise ``peaks[i]`` to max_t T(t) of ``params`` under the Poisson weights ``log_p``,
    for each (i, log_p) of ``members``; the spectrum and phase tables are freed on return.
    """
    columns = aa_columns(params, max(log_p.size for _, log_p in members) - 1)
    coeffs = [_t_coefficients(log_p, columns) for _, log_p in members]
    for r, values in _cosine_rows(coeffs, columns["rabi_freq"], times, 1.0):
        peaks[members[r][0]] = np.maximum(peaks[members[r][0]], values.max())


def survival_prob(
    params: ModelParams, times, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """Stay probability 1 - 2 T(t) on ``times``; values lie in [1/2, 1]."""
    return 1.0 - 2.0 * transition_prob(params, times, tail_tol)


def jc_inversion(
    delta: float,
    g: float,
    alpha_sq: float,
    times,
    tail_tol: float = DEFAULT_TAIL_TOL,
    corrected: bool = True,
) -> np.ndarray:
    """Jaynes-Cummings population inversion W(t) for a coherent field on ``times``.

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
    p = np.exp(poisson_logweights(alpha_sq, tail_tol))
    n_plus_1 = np.arange(1.0, p.size + 1.0)
    if corrected:
        om = np.sqrt(delta * delta + 4.0 * g * g * n_plus_1)
    else:
        om = delta * delta + 4.0 * g * n_plus_1
    om_sq = om * om
    const = float(np.dot(p, delta * delta / om_sq))
    osc_coeff = p * (4.0 * g * g * n_plus_1 / om_sq)
    # const + osc_coeff @ cos(om t), written for the shared (shift - cos) kernel
    return _finite("W", const - _cosine_average(osc_coeff, om, times, 0.0))


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
    if row["omega1N"] == 0.0:
        raise DomainError(
            f"row N={N} is degenerate: omega1N == 0, branch amplitudes undefined"
        )
    c_plus = (row["y_plus"] / row["l2_plus"]) * np.exp(-1j * row["eplus"] * times)
    c_minus = (row["y_minus"] / row["l2_minus"]) * np.exp(-1j * row["eminus"] * times)
    transfer = 0.5 * np.abs(c_plus + c_minus) ** 2
    reference = row["weight"] * (1.0 - np.cos(row["rabi_freq"] * times))
    return float(np.max(np.abs(transfer - reference)))
