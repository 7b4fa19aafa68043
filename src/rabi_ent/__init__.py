"""Entanglement preservation of two qubits ultrastrongly coupled to an oscillator.

Closed-form per-photon-number spectra, the coherent-state-averaged
transition probability T(t), a dense exact-diagonalization oracle with
two-qubit concurrence, and a deterministic parameter-scan layer.
"""

__version__ = "0.1.0"

from .errors import (
    AdiabaticRegimeWarning,
    CapacityError,
    ConfigError,
    DomainError,
    TruncationWarning,
)
from .params import KappaConvention, ModelParams, SpinState, effective_kappa
from .specialfn import DEFAULT_TAIL_TOL, laguerre_sequence, poisson_logweights
from .spectrum import aa_row, aa_rows
from .dynamics import (
    jc_inversion,
    survival_prob,
    transition_prob,
    two_branch_interference_check,
)
from .oracle import (
    EDResult,
    build_hamiltonian,
    concurrence,
    eigendecompose,
    evolve,
    required_n_max,
)
from .scan import AxisRange, ScanResult, ScanSpec, grid_scan, objective, refine

__all__ = [
    "__version__",
    "AdiabaticRegimeWarning",
    "AxisRange",
    "CapacityError",
    "ConfigError",
    "DEFAULT_TAIL_TOL",
    "DomainError",
    "EDResult",
    "KappaConvention",
    "ModelParams",
    "ScanResult",
    "ScanSpec",
    "SpinState",
    "TruncationWarning",
    "aa_row",
    "aa_rows",
    "build_hamiltonian",
    "concurrence",
    "effective_kappa",
    "eigendecompose",
    "evolve",
    "grid_scan",
    "jc_inversion",
    "laguerre_sequence",
    "objective",
    "poisson_logweights",
    "refine",
    "required_n_max",
    "survival_prob",
    "transition_prob",
    "two_branch_interference_check",
]
