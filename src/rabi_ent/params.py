"""Physical parameter set, unit conventions, and the two-qubit composite basis.

Everything downstream works in oscillator units: energies are reported in
units of h*omega and times in units of 1/omega, so omega is 1 by construction.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

from .errors import AdiabaticRegimeWarning, DomainError


def _is_real(value) -> bool:
    """Whether ``value`` is a finite real number, numpy scalars included, and no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _is_integer(value) -> bool:
    """Whether ``value`` passes :func:`_is_real` and is integral, an integral float included."""
    return _is_real(value) and int(value) == value


class KappaConvention(Enum):
    """How the quoted inter-qubit coupling enters the closed-form spectrum.

    OMEGA0_SCALED reads ``kappa0`` as kappa/(h*omega0), so the spectrum
    formulas receive kappa0 * ratio_r.  OMEGA_SCALED reads ``kappa0`` as
    kappa/(h*omega) and passes it through unchanged.
    """

    OMEGA0_SCALED = "omega0_scaled"
    OMEGA_SCALED = "omega_scaled"


class SpinState(Enum):
    """Composite |j, m> basis of the two qubits.

    J1M0 and J0M0 are the symmetric and antisymmetric Bell combinations,
    each with amplitude 1/sqrt(2) on |up,down> and |down,up>.
    """

    J1M1 = "1,1"
    J1M_MINUS1 = "1,-1"
    J1M0 = "1,0"
    J0M0 = "0,0"


@dataclass(frozen=True)
class ModelParams:
    """The five physical knobs of the two-qubit/oscillator model.

    ratio_r is the qubit/oscillator frequency ratio omega0/omega, beta the
    qubit-oscillator coupling (real), kappa0 the dimensionless inter-qubit
    coupling in the convention given by ``kappa_convention``, and alpha_sq
    the mean photon number of the initial coherent state.
    """

    ratio_r: float
    beta: float
    kappa0: float = 0.0
    alpha_sq: float = 0.0
    kappa_convention: KappaConvention = KappaConvention.OMEGA0_SCALED

    def __post_init__(self) -> None:
        for name in ("ratio_r", "beta", "kappa0", "alpha_sq"):
            value = getattr(self, name)
            if not _is_real(value):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.alpha_sq < 0.0:
            raise DomainError(f"alpha_sq must be >= 0, got {self.alpha_sq}")
        if not isinstance(self.kappa_convention, KappaConvention):
            raise DomainError("kappa_convention must be a KappaConvention member")
        if not self.in_adiabatic_regime:
            warnings.warn(
                f"ratio_r={self.ratio_r} is outside (0, 1); the closed-form "
                "spectrum assumes a qubit much slower than the oscillator",
                AdiabaticRegimeWarning,
                stacklevel=2,
            )

    @property
    def in_adiabatic_regime(self) -> bool:
        return 0.0 < self.ratio_r < 1.0


def effective_kappa(params: ModelParams) -> float:
    """Inter-qubit coupling in oscillator units, as the spectrum formulas consume it.

    Linear in kappa0 and zero iff kappa0 is zero, so the convention switch
    is inert at kappa0 = 0.
    """
    if params.kappa_convention is KappaConvention.OMEGA0_SCALED:
        return params.kappa0 * params.ratio_r
    return params.kappa0
