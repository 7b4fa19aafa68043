"""Time-domain observables.

The coherent-state-averaged transition probability T(t), the survival
probability 1 - 2 T(t), and a Jaynes-Cummings inversion comparator W(t)
for the collapse-and-revival contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams
from .specialfn import DEFAULT_TAIL_TOL, poisson_logweights
from .spectrum import aa_columns, aa_row

_TIME_BLOCK = 4096


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


def _cosine_average(
    coeff: np.ndarray, freqs: np.ndarray, times: np.ndarray, shift: float
) -> np.ndarray:
    """sum_N coeff_N * (shift - cos(freqs_N * t)), blocked over t to bound memory.

    The contraction over N runs in a fixed order for every block, so the
    result is independent of the blocking.
    """
    out = np.empty_like(times)
    for start in range(0, times.size, _TIME_BLOCK):
        block = times[start : start + _TIME_BLOCK]
        phases = np.outer(freqs, block)
        np.cos(phases, out=phases)
        out[start : start + block.size] = coeff @ np.subtract(shift, phases, out=phases)
    return out


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
    coeff = table.masses() * columns["weight"]
    T = _cosine_average(coeff, columns["rabi_freq"], times, 1.0)
    return TimeSeries(times=times, channels={"T": T})


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
    delta = float(delta)
    g = float(g)
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    if not math.isfinite(g) or g <= 0.0:
        raise DomainError(f"g must be finite and > 0, got {g}")
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
