"""Correctness checks on the files a `rabi-ent` command wrote.

Each check takes the input configuration (read by the benchmark itself),
the CSV and sidecar text, and a seeded generator that picks which times,
points or photon numbers are compared with `reference.py`.  It returns the
list of problems found; an empty list means the output passed.  No check
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import io
import itertools
import json
import math

import numpy as np

import reference

# Tolerances: correct output agrees 200x or more inside each (the populations
# meet CROSS_THREAD_TOL with an 8x margin), and each lies far below any error
# that would change a figure.
T_TOL = 1e-10  # T(t), W(t) and scan objectives against the reference sums
SPECTRUM_ATOL, SPECTRUM_RTOL = 1e-9, 1e-12  # spectrum columns; e0/eplus/eminus grow like N
POP_TOL = 1e-9  # oracle populations against the reference eigenvectors
CONC_TOL = 1e-6  # concurrence, which the program computes to only ~1e-8
EXACT_TOL = 1e-15  # identities the program should meet to rounding: T(0), P_stay = 1 - 2T
CROSS_THREAD_TOL = 1e-12  # same command, other BLAS thread count
# Columns that fail CROSS_THREAD_TOL today because of a known fault:
# oracle.concurrence takes square roots of the eigenvalues of the
# non-Hermitian rho rho~, so C differs by ~1e-9 across thread counts.
KNOWN_FAULT_COLUMNS = ("C",)

FIG3_BETA = 0.4193  # beta of the fig3 presets: the 1-D scan must find it within one step
REVIVAL_SLACK = 0.15  # JC revival time within 15% of 2 pi sqrt(alpha_sq) / g
CROSS_CHECK_SUP = 0.06  # sup_t |P11 - 2 T| on the closed-form vs oracle config

_SPECTRUM_COLUMNS = ["N", "omega1N", "omega2N", "t0tilde", "e0", "eplus", "eminus", "weight", "rabi_freq"]
_ORACLE_COLUMNS = ["t", "P11", "P1m1", "P10", "P00", "C"]
_SWEEPABLE = ("beta", "alpha_sq", "kappa0", "ratio_r")


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    header, _, body = text.partition("\n")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return header.split(","), data


def _sample(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """Index 0, the last index, and `count` more drawn without replacement."""
    picks = rng.choice(size, size=min(count, size), replace=False)
    return np.unique(np.concatenate(([0, size - 1], picks)))


def _worst(problems: list[str], label: str, error: np.ndarray, tol: float) -> None:
    worst = float(np.max(error)) if error.size else 0.0
    if not worst <= tol:
        problems.append(f"{label}: worst deviation {worst:.3e} exceeds {tol:.0e}")


def _times_problems(cfg: dict, times: np.ndarray) -> list[str]:
    grid = cfg["time_grid"]
    t_min, t_max = float(grid.get("t_min", 0.0)), float(grid["t_max"])
    expected = np.linspace(t_min, t_max, int(grid.get("points", 2000)))
    if times.shape != expected.shape:
        return [f"time grid has {times.size} points, config asks for {expected.size}"]
    problems: list[str] = []
    _worst(problems, "time grid", np.abs(times - expected), 1e-12 * max(1.0, abs(t_max)))
    return problems


def _header_problem(header: list[str], expected: list[str]) -> list[str]:
    return [] if header == expected else [f"header {header} != {expected}"]


def check_tprob(cfg: dict, csv_text: str, sidecar_text: str, rng: np.random.Generator) -> list[str]:
    header, data = parse_csv(csv_text)
    problems = _header_problem(header, ["t", "T", "P_stay"])
    if problems:
        return problems
    t, T, p_stay = data.T
    problems += _times_problems(cfg, t)
    if problems:
        return problems
    if not abs(T[0]) <= EXACT_TOL:
        problems.append(f"T(0) = {T[0]!r}, expected 0")
    if not (T.min() >= -EXACT_TOL and T.max() <= 0.25 + EXACT_TOL):
        problems.append(f"T leaves [0, 1/4]: min {T.min()!r}, max {T.max()!r}")
    _worst(problems, "P_stay vs 1 - 2T", np.abs(p_stay - (1.0 - 2.0 * T)), EXACT_TOL)
    idx = _sample(rng, t.size, 64)
    _worst(problems, "T vs reference", np.abs(T[idx] - reference.transition(cfg["model"], t[idx])), T_TOL)
    if str(cfg.get("label", "")).startswith("fig3"):
        if not T.max() < 0.015:
            problems.append(f"fig3 max T = {T.max():.6g}, expected < 0.015")
        if not p_stay.min() >= 0.97:
            problems.append(f"fig3 min survival = {p_stay.min():.6g}, expected >= 0.97")
    sidecar = json.loads(sidecar_text)
    if sidecar.get("max_T") != T.max() or sidecar.get("min_P_stay") != p_stay.min():
        problems.append("sidecar max_T/min_P_stay disagree with the CSV")
    return problems


def check_spectrum(cfg: dict, csv_text: str, sidecar_text: str, rng: np.random.Generator) -> list[str]:
    import mpmath

    header, data = parse_csv(csv_text)
    problems = _header_problem(header, _SPECTRUM_COLUMNS)
    if problems:
        return problems
    n_min, n_max = int(cfg["spectrum"].get("n_min", 0)), int(cfg["spectrum"]["n_max"])
    ns = np.arange(n_min, n_max + 1)
    if data.shape[0] != ns.size or not np.array_equal(data[:, 0], ns):
        return [f"rows are not N = {n_min} .. {n_max}"]
    ref = reference.spectrum_rows(cfg["model"], ns)
    for j, name in enumerate(_SPECTRUM_COLUMNS[1:], start=1):
        tol = SPECTRUM_ATOL + SPECTRUM_RTOL * np.abs(ref[name])
        _worst(problems, f"{name} vs reference", np.abs(data[:, j] - ref[name]) - tol, 0.0)
    weight = data[:, _SPECTRUM_COLUMNS.index("weight")]
    if not (weight.min() >= 0.0 and weight.max() <= 0.125):
        problems.append(f"weight leaves [0, 1/8]: min {weight.min()!r}, max {weight.max()!r}")
    # one photon number against a 30-digit Laguerre value
    n = int(rng.integers(n_min, n_max + 1))
    model = cfg["model"]
    b2 = mpmath.mpf(model["beta"]) ** 2
    with mpmath.workdps(30):
        om1 = -(mpmath.mpf(model["ratio_r"]) / mpmath.sqrt(2)) * mpmath.exp(-b2 / 2) * mpmath.laguerre(n, 0, b2)
    if not abs(data[n - n_min, 1] - float(om1)) <= SPECTRUM_ATOL:
        problems.append(f"omega1N at N={n} differs from the mpmath value {float(om1)!r}")
    return problems


def check_jc(cfg: dict, csv_text: str, sidecar_text: str, rng: np.random.Generator) -> list[str]:
    header, data = parse_csv(csv_text)
    problems = _header_problem(header, ["t", "W"])
    if problems:
        return problems
    t, W = data.T
    problems += _times_problems(cfg, t)
    if problems:
        return problems
    if not abs(W[0] - 1.0) <= T_TOL:
        problems.append(f"W(0) = {W[0]!r}, expected 1")
    if not np.abs(W).max() <= 1.0 + EXACT_TOL:
        problems.append(f"|W| exceeds 1: {np.abs(W).max()!r}")
    idx = _sample(rng, t.size, 64)
    _worst(problems, "W vs reference", np.abs(W[idx] - reference.jc_inversion(cfg["jc"], t[idx])), T_TOL)
    jc = cfg["jc"]
    t_revival = 2.0 * math.pi * math.sqrt(float(jc["alpha_sq"])) / float(jc["g"])
    late = t >= 0.5 * t_revival
    t_peak = float(t[late][np.argmax(W[late])]) if late.any() else math.nan
    if not abs(t_peak - t_revival) <= REVIVAL_SLACK * t_revival:
        problems.append(f"revival peak at t = {t_peak:.4g}, expected {t_revival:.4g} +- 15%")
    return problems


def _grid_points(scan: dict) -> tuple[list[str], np.ndarray]:
    axes = [name for name in _SWEEPABLE if name in scan["ranges"]]
    grids = [
        np.linspace(float(a["min"]), float(a["max"]), int(a["steps"]))
        for a in (scan["ranges"][name] for name in axes)
    ]
    return axes, np.array(list(itertools.product(*grids)))


def _scan_objective(scan: dict, point: dict) -> float:
    model = {**scan["fixed"], **point, "kappa_convention": scan.get("kappa_convention", "omega0_scaled")}
    return reference.max_transition(model, float(scan["horizon"]), int(scan.get("time_points", 2000)))


def check_scan(cfg: dict, csv_text: str, sidecar_text: str, rng: np.random.Generator) -> list[str]:
    scan = cfg["scan"]
    axes, points = _grid_points(scan)
    header, data = parse_csv(csv_text)
    problems = _header_problem(header, axes + ["objective"])
    if problems:
        return problems
    if data.shape[0] != points.shape[0] or not np.allclose(data[:, :-1], points, rtol=0.0, atol=1e-12):
        return [f"rows are not the {points.shape[0]}-point grid of the config"]
    objectives = data[:, -1]
    for i in _sample(rng, objectives.size, 6):
        point = dict(zip(axes, points[i].tolist()))
        ref = _scan_objective(scan, point)
        if not abs(objectives[i] - ref) <= T_TOL:
            problems.append(f"objective at {point} is {objectives[i]!r}, reference {ref!r}")
    sidecar = json.loads(sidecar_text)
    best = int(np.argmin(objectives))
    if sidecar.get("best_objective") != objectives[best] or sidecar.get("best_point") != dict(
        zip(axes, data[best, :-1].tolist())
    ):
        problems.append("sidecar best point is not the argmin of the written rows")
    if axes == ["beta"]:
        step = (float(scan["ranges"]["beta"]["max"]) - float(scan["ranges"]["beta"]["min"])) / (
            int(scan["ranges"]["beta"]["steps"]) - 1
        )
        if not abs(data[best, 0] - FIG3_BETA) <= step * (1.0 + 1e-9):
            problems.append(f"1-D minimum at beta = {data[best, 0]!r}, not within {step} of {FIG3_BETA}")
    if "refine" in scan:
        bounds = scan["refine"].get("bounds") or {
            name: [scan["ranges"][name]["min"], scan["ranges"][name]["max"]] for name in axes
        }
        refined, value = sidecar.get("refined_point", {}), sidecar.get("refined_objective")
        if set(refined) != set(axes) or value is None:
            return problems + ["sidecar lacks the refined point"]
        if not value <= objectives[best]:
            problems.append(f"refined objective {value!r} worse than the grid best {objectives[best]!r}")
        if any(not bounds[n][0] <= refined[n] <= bounds[n][1] for n in axes):
            problems.append(f"refined point {refined} leaves the bounds {bounds}")
        ref = _scan_objective(scan, refined)
        if not abs(value - ref) <= T_TOL:
            problems.append(f"refined objective {value!r}, reference {ref!r}")
    return problems


def check_oracle(cfg: dict, csv_text: str, sidecar_text: str, rng: np.random.Generator) -> list[str]:
    header, data = parse_csv(csv_text)
    problems = _header_problem(header, _ORACLE_COLUMNS)
    if problems:
        return problems
    t = data[:, 0]
    problems += _times_problems(cfg, t)
    if problems:
        return problems
    pops, conc = data[:, 1:5], data[:, 5]
    _worst(problems, "population sum", np.abs(pops.sum(axis=1) - 1.0), POP_TOL)
    if not (conc.min() >= 0.0 and conc.max() <= 1.0):
        problems.append(f"C leaves [0, 1]: min {conc.min()!r}, max {conc.max()!r}")
    if not (abs(conc[0] - 1.0) <= CONC_TOL and abs(data[0, 3] - 1.0) <= POP_TOL):
        problems.append(f"C(0) = {conc[0]!r}, P10(0) = {data[0, 3]!r}, expected 1 and 1")
    error = json.loads(sidecar_text).get("truncation_error")
    if error is None or not error < 1e-6:
        problems.append(f"sidecar truncation_error {error!r}, expected < 1e-6")
    ed = cfg["ed"]
    oracle = reference.OracleReference(cfg["model"], int(ed["n_max"]), ed.get("variant", "half_sum"))
    idx = _sample(rng, t.size, 8)
    expected = np.array([[oracle.observables(t[i])[name] for name in _ORACLE_COLUMNS[1:]] for i in idx])
    _worst(problems, "populations vs reference", np.abs(pops[idx] - expected[:, :4]), POP_TOL)
    _worst(problems, "C vs reference", np.abs(conc[idx] - expected[:, 4]), CONC_TOL)
    if cfg.get("label") == "aa_vs_ed_cross_check":
        closed_form = 2.0 * reference.transition(cfg["model"], t)
        _worst(problems, "sup |P11 - 2T|", np.abs(data[:, 1] - closed_form), CROSS_CHECK_SUP)
    return problems


def check_cross_thread(csv_text: str, other_csv_text: str) -> tuple[list[str], list[str]]:
    """Every column of the same command must agree across BLAS thread counts.

    Returns the problems in `KNOWN_FAULT_COLUMNS` and, apart, all others.
    """
    header, data = parse_csv(csv_text)
    other_header, other = parse_csv(other_csv_text)
    if header != other_header or data.shape != other.shape:
        return [], ["outputs differ in shape across thread counts"]
    known: list[str] = []
    problems: list[str] = []
    for j, name in enumerate(header):
        error = np.abs(data[:, j] - other[:, j])
        label = f"column {name} across thread counts"
        _worst(known if name in KNOWN_FAULT_COLUMNS else problems, label, error, CROSS_THREAD_TOL)
    return known, problems


CHECKS = {
    "tprob": check_tprob,
    "spectrum": check_spectrum,
    "jc": check_jc,
    "scan": check_scan,
    "oracle": check_oracle,
}
