"""Reference computations written apart from the package under test.

Everything here is rebuilt from the model's formulas with scipy: Poisson
masses from ``scipy.stats``, Laguerre values from ``scipy.special`` (integer
degrees only; the float-degree path of ``eval_laguerre`` is inaccurate at
large N), the Hamiltonian in the product spin basis with ``scipy.sparse``,
and its eigenvectors from LAPACK's MRRR driver (``scipy.linalg.eigh`` with
``driver="evr"``), not the divide-and-conquer routine numpy uses.  Nothing
here imports ``rabi_ent``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, sparse, special, stats


def kappa_eff(model: dict) -> float:
    kappa0 = float(model.get("kappa0", 0.0))
    if model.get("kappa_convention", "omega0_scaled") == "omega0_scaled":
        return kappa0 * float(model["ratio_r"])
    return kappa0


def poisson_masses(alpha_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers 0..n_hi and their Poisson masses.

    n_hi lies 14 standard deviations plus 40 above the mean, where the tail
    mass is far below the package's own cut (tail_tol >= 1e-13 here).
    """
    n_hi = math.ceil(alpha_sq + 14.0 * math.sqrt(alpha_sq) + 40.0)
    ns = np.arange(n_hi + 1, dtype=np.int64)
    return ns, stats.poisson.pmf(ns, alpha_sq)


def spectrum_rows(model: dict, ns: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form spectrum columns for integer photon numbers ``ns``."""
    ns = np.asarray(ns, dtype=np.int64)
    r = float(model["ratio_r"])
    b2 = float(model["beta"]) ** 2
    k = kappa_eff(model)
    om1 = -(r / math.sqrt(2.0)) * math.exp(-0.5 * b2) * special.eval_laguerre(ns, b2)
    om2 = -k * math.exp(-2.0 * b2) * special.eval_laguerre(ns, 4.0 * b2)
    t0 = -b2 + k + om2
    rabi = np.sqrt(t0 * t0 + 8.0 * om1 * om1)
    with np.errstate(invalid="ignore"):
        weight = np.where(om1 == 0.0, 0.0, om1 * om1 / (t0 * t0 + 8.0 * om1 * om1))
    n = ns.astype(float)
    return {
        "N": n,
        "omega1N": om1,
        "omega2N": om2,
        "t0tilde": t0,
        "e0": n - b2 - om2,
        "eplus": n - k + 0.5 * (t0 + rabi),
        "eminus": n - k + 0.5 * (t0 - rabi),
        "weight": weight,
        "rabi_freq": rabi,
    }


def transition(model: dict, times: np.ndarray) -> np.ndarray:
    """T(t) = sum_N p(N) weight_N (1 - cos(rabi_N t))."""
    ns, p = poisson_masses(float(model.get("alpha_sq", 0.0)))
    rows = spectrum_rows(model, ns)
    coeff = p * rows["weight"]
    return (1.0 - np.cos(np.outer(np.asarray(times, float), rows["rabi_freq"]))) @ coeff


def max_transition(model: dict, horizon: float, time_points: int) -> float:
    return float(transition(model, np.linspace(0.0, horizon, time_points)).max())


def jc_inversion(jc: dict, times: np.ndarray) -> np.ndarray:
    """W(t) = sum_N p(N) [delta^2 + 4 g^2 (N+1) cos(Om_N t)] / Om_N^2."""
    delta, g = float(jc["delta"]), float(jc["g"])
    ns, p = poisson_masses(float(jc["alpha_sq"]))
    n1 = ns + 1.0
    if jc.get("corrected", True):
        om = np.sqrt(delta * delta + 4.0 * g * g * n1)
    else:
        om = delta * delta + 4.0 * g * n1
    osc = np.cos(np.outer(np.asarray(times, float), om))
    return (delta * delta + 4.0 * g * g * n1 * osc) / (om * om) @ p


# Product spin basis (uu, ud, du, dd), u the +1 eigenstate of sigma_z.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.diag([1.0, -1.0])
_I2 = np.eye(2)
_SYSY = np.kron(np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]))


def hamiltonian(model: dict, n_max: int, variant: str = "half_sum") -> np.ndarray:
    """H = a'a + beta M (a + a') - (r/2)(sx1 + sx2) - kappa sx1 sx2, product basis."""
    n_osc = n_max + 1
    lower = sparse.diags(np.sqrt(np.arange(1.0, n_osc)), 1)
    x = lower + lower.T
    number = sparse.diags(np.arange(float(n_osc)))
    sz_sum = np.kron(_SZ, _I2) + np.kron(_I2, _SZ)
    m = 0.5 * sz_sum if variant == "half_sum" else sz_sum
    sx_sum = np.kron(_SX, _I2) + np.kron(_I2, _SX)
    spin_only = -0.5 * float(model["ratio_r"]) * sx_sum - kappa_eff(model) * np.kron(_SX, _SX)
    eye = sparse.identity(n_osc)
    h = (
        sparse.kron(np.eye(4), number)
        + float(model["beta"]) * sparse.kron(m, x)
        + sparse.kron(spin_only, eye)
    )
    return h.toarray()


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the singular values of sqrt(rho) (sy x sy) sqrt(rho)*.

    Those singular values are the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), obtained here from Hermitian and SVD
    routines only.
    """
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


class OracleReference:
    """Exact evolution of |1,0> (x) |alpha> in the truncated Fock space."""

    def __init__(self, model: dict, n_max: int, variant: str = "half_sum"):
        self.n_osc = n_max + 1
        evals, evecs = linalg.eigh(hamiltonian(model, n_max, variant), driver="evr")
        alpha_sq = float(model.get("alpha_sq", 0.0))
        amps = np.sqrt(stats.poisson.pmf(np.arange(self.n_osc), alpha_sq))
        psi0 = np.zeros((4, self.n_osc))
        psi0[1] = psi0[2] = amps / math.sqrt(2.0)
        self.evals = evals
        self.evecs = evecs
        self.coeff0 = evecs.T @ psi0.ravel()

    def observables(self, t: float) -> dict[str, float]:
        """Populations of |1,1>, |1,-1>, |1,0>, |0,0> and the concurrence at t."""
        psi = (self.evecs @ (np.exp(-1j * self.evals * t) * self.coeff0)).reshape(4, self.n_osc)
        uu, ud, du, dd = psi
        rho = psi @ psi.conj().T
        rho /= np.trace(rho).real
        return {
            "P11": float(np.vdot(uu, uu).real),
            "P1m1": float(np.vdot(dd, dd).real),
            "P10": 0.5 * float(np.vdot(ud + du, ud + du).real),
            "P00": 0.5 * float(np.vdot(ud - du, ud - du).real),
            "C": concurrence(rho),
        }
