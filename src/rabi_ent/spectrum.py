"""Closed-form three-level spectrum per photon number.

Within a fixed photon number N, the slow qubit pair mixes the three
displaced-sector states |1,1>|N_1>, |1,-1>|N_-1>, |1,0>|N_0>.  The
antisymmetric combination of the outer two decouples at energy ``e0``;
the symmetric combination and |1,0>|N_0> form a two-level system whose
branches sit at ``eplus``/``eminus`` and oscillate at ``rabi_freq``.

:func:`aa_columns` computes every field for a range of N as numpy columns;
:func:`aa_row` and :func:`aa_rows` are views over those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .params import ModelParams, _is_integer, effective_kappa
from .specialfn import laguerre_sequence

_SQRT2 = math.sqrt(2.0)
_SQRT8 = math.sqrt(8.0)


@dataclass(frozen=True)
class AASpectrumRow:
    """One photon number's energies, eigenvector weights, and Rabi frequency.

    ``y_plus``/``y_minus`` are the bright-branch eigenvector ratios; they and
    the squared norms ``l2_plus``/``l2_minus`` are None when omega1N == 0,
    where the ratio is undefined.  ``weight`` is the transition-probability
    prefactor in its stable rational form omega1N^2 / (t0tilde^2 + 8 omega1N^2),
    which removes the 0/0 at Laguerre roots of omega1N.  ``degenerate`` marks
    the doubly singular point omega1N == 0 == t0tilde, where the weight is
    pinned to 0.
    """

    N: int
    omega1N: float
    omega2N: float
    t0tilde: float
    e0: float
    eplus: float
    eminus: float
    y_plus: float | None
    y_minus: float | None
    l2_plus: float | None
    l2_minus: float | None
    weight: float
    rabi_freq: float
    degenerate: bool = False


def aa_columns(params: ModelParams, n_max: int, n_min: int = 0) -> dict[str, np.ndarray]:
    """Every :class:`AASpectrumRow` field for N = n_min .. n_max, one array per field.

    Keys follow the field order of :class:`AASpectrumRow`.  Where omega1N == 0
    the ``y_*``/``l2_*`` entries are NaN and the weight is 0.  One Laguerre
    recurrence pass per argument serves every row.
    """
    if not (_is_integer(n_min) and _is_integer(n_max) and 0 <= n_min <= n_max):
        raise DomainError(f"need integers 0 <= n_min <= n_max, got [{n_min!r}, {n_max!r}]")
    n_min, n_max = int(n_min), int(n_max)
    b2 = params.beta * params.beta
    k_eff = effective_kappa(params)
    lag1 = laguerre_sequence(n_max, b2)[n_min:]
    lag2 = laguerre_sequence(n_max, 4.0 * b2)[n_min:]
    n = np.arange(n_min, n_max + 1)
    om1 = -(params.ratio_r / _SQRT2) * math.exp(-0.5 * b2) * lag1
    om2 = -k_eff * math.exp(-2.0 * b2) * lag2
    t0 = -b2 + k_eff + om2
    radical = np.hypot(t0, _SQRT8 * om1)
    dark = om1 == 0.0
    upper = t0 > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # both terms scaled by the same exact power of two, so the squares
        # neither under- nor overflow and the ratio is unchanged
        exponent = np.frexp(np.maximum(np.abs(t0), np.abs(om1)))[1]
        om1_s = np.ldexp(om1, -exponent)
        t0_s = np.ldexp(t0, -exponent)
        weight = (om1_s * om1_s) / (t0_s * t0_s + 8.0 * om1_s * om1_s)
        # quadratic roots of om1*y^2 + t0*y - 2*om1 = 0: evaluate the
        # non-cancelling branch directly, recover the other from y+ * y- = -2
        direct = np.where(upper, -t0 - radical, -t0 + radical) / (2.0 * om1)
        direct[dark] = np.nan
        other = -2.0 / direct
        y_plus = np.where(upper, other, direct)
        y_minus = np.where(upper, direct, other)
        l2_plus = y_plus * y_plus + 2.0
        l2_minus = y_minus * y_minus + 2.0
    weight[dark] = 0.0
    return {
        "N": n,
        "omega1N": om1,
        "omega2N": om2,
        "t0tilde": t0,
        "e0": n - b2 - om2,
        # the constant -k_eff offset shifts both bright branches equally and
        # cancels from rabi_freq; it matters only for printed spectra
        "eplus": n - k_eff + 0.5 * (t0 + radical),
        "eminus": n - k_eff + 0.5 * (t0 - radical),
        "y_plus": y_plus,
        "y_minus": y_minus,
        "l2_plus": l2_plus,
        "l2_minus": l2_minus,
        "weight": weight,
        "rabi_freq": radical,
        "degenerate": dark & (t0 == 0.0),
    }


def aa_rows(params: ModelParams, n_max: int, n_min: int = 0) -> list[AASpectrumRow]:
    """Spectrum rows for N = n_min .. n_max, one view per row of :func:`aa_columns`."""
    columns = aa_columns(params, n_max, n_min)
    rows = [AASpectrumRow(*values) for values in zip(*(c.tolist() for c in columns.values()))]
    return [
        replace(row, y_plus=None, y_minus=None, l2_plus=None, l2_minus=None)
        if row.omega1N == 0.0
        else row
        for row in rows
    ]


def aa_row(N: int, params: ModelParams) -> AASpectrumRow:
    """Spectrum row for a single photon number."""
    if not (_is_integer(N) and N >= 0):
        raise DomainError(f"N must be a nonnegative integer, got {N!r}")
    return aa_rows(params, int(N), int(N))[0]
