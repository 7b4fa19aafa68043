"""Parameter-space exploration.

Exhaustive grid scans and a derivative-free simplex refinement, both
minimizing the worst-case transition probability max_t T(t) over a fixed
time window.  Everything here is deterministic: no randomness, fixed
evaluation order, and box bounds enforced by clamping plus a penalty.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
from .params import KappaConvention, ModelParams, _is_integer, _is_real
from .specialfn import DEFAULT_TAIL_TOL
from .dynamics import _peak_transition_probs, transition_prob

SWEEPABLE = ("beta", "alpha_sq", "kappa0", "ratio_r")
GRID_CEILING = 20000  # most points one grid_scan evaluates, checked before any axis is built

_NM_REFLECT = 1.0
_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5
_PENALTY_SCALE = 1.0
_SIMPLEX_TOL = 1e-3  # refine converges only with every vertex this many steps from the best


@dataclass(frozen=True)
class AxisRange:
    """Inclusive sweep range with at least two steps."""

    min: float
    max: float
    steps: int

    def __post_init__(self) -> None:
        if not (_is_real(self.min) and _is_real(self.max) and self.min <= self.max):
            raise DomainError(f"axis range needs real min <= max, got {self.min!r}, {self.max!r}")
        if not _is_integer(self.steps) or self.steps < 2:
            raise DomainError(f"steps must be an integer >= 2, got {self.steps}")
        for name, cast in (("min", float), ("max", float), ("steps", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class ScanSpec:
    """A grid scan request: swept ranges, fixed values, and the objective window."""

    ranges: Mapping[str, AxisRange]
    fixed: Mapping[str, float]
    horizon: float
    time_points: int = 2000
    kappa_convention: KappaConvention = KappaConvention.OMEGA0_SCALED
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        ranges = dict(self.ranges)
        fixed = dict(self.fixed)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "fixed", fixed)
        for name in ranges:
            if name not in SWEEPABLE:
                raise DomainError(f"cannot sweep unknown parameter {name!r}")
        for name in fixed:
            if name not in SWEEPABLE:
                raise DomainError(f"cannot fix unknown parameter {name!r}")
        missing = [n for n in SWEEPABLE if n not in ranges and n not in fixed]
        if missing:
            raise DomainError(f"parameters neither swept nor fixed: {missing}")
        doubled = sorted(set(ranges) & set(fixed))
        if doubled:
            raise DomainError(f"parameters both swept and fixed: {doubled}")
        for name, value in zip(("horizon", "time_points"), _window(self.horizon, self.time_points)):
            object.__setattr__(self, name, value)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(n for n in SWEEPABLE if n in self.ranges)


@dataclass(frozen=True)
class ScanResult:
    """Grid evaluations, the best point found, and the refinement trace."""

    axis_names: tuple[str, ...]
    points: np.ndarray
    objectives: np.ndarray
    best_point: dict[str, float]
    best_objective: float
    trace: tuple[tuple[dict[str, float], float], ...] = ()
    metadata: dict = field(default_factory=dict)


class StartOutsideBounds(DomainError):
    """The refine start point lies outside the box bounds on ``axis``."""

    def __init__(self, axis: str, message: str) -> None:
        super().__init__(message)
        self.axis = axis


def _window(horizon: float, time_points: int) -> tuple[float, int]:
    """(horizon, time_points) as a float and an int, once the window on [0, horizon] checks out."""
    if not (_is_real(horizon) and horizon > 0.0):
        raise DomainError(f"horizon must be a real number > 0, got {horizon!r}")
    if not _is_integer(time_points) or time_points < 2:
        raise DomainError(f"time_points must be an integer >= 2, got {time_points}")
    return float(horizon), int(time_points)


def objective(
    params: ModelParams,
    horizon: float,
    time_points: int = 2000,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Worst-case transition probability over a uniform grid on [0, horizon]."""
    times = np.linspace(0.0, *_window(horizon, time_points))
    return float(transition_prob(params, times, tail_tol).max())


def _params_at(point: Mapping[str, float], spec: ScanSpec) -> ModelParams:
    values = dict(spec.fixed)
    values.update(point)
    return ModelParams(
        ratio_r=values["ratio_r"],
        beta=values["beta"],
        kappa0=values["kappa0"],
        alpha_sq=values["alpha_sq"],
        kappa_convention=spec.kappa_convention,
    )


def _point_objective(point: Mapping[str, float], spec: ScanSpec) -> float:
    return objective(_params_at(point, spec), spec.horizon, spec.time_points, spec.tail_tol)


def grid_scan(spec: ScanSpec) -> ScanResult:
    """Exhaustively evaluate the objective over the requested grid.

    Every objective equals ``objective(point)`` bit for bit.  Points are
    evaluated together (see :func:`dynamics._peak_transition_probs`): points
    that differ only in alpha_sq share one spectrum and one set of phase
    tables, and each distinct alpha_sq gets one Poisson table.  If
    any point fails, the grid is evaluated again point by point in row-major
    order over the canonical axis order, so it raises the error that
    ``objective`` raises at the first failing point.
    """
    axes = spec.axis_names
    total = math.prod(spec.ranges[name].steps for name in axes)
    if total > GRID_CEILING:
        raise CapacityError(f"grid has {total} points, exceeding ceiling {GRID_CEILING}")
    points = np.array(list(itertools.product(*(spec.ranges[name].grid() for name in axes))))
    named = [dict(zip(axes, row)) for row in points.tolist()]
    try:
        objectives = _peak_transition_probs(
            [_params_at(point, spec) for point in named],
            np.linspace(0.0, spec.horizon, spec.time_points),
            spec.tail_tol,
        )
        failed = not np.all(np.isfinite(objectives))
    except (DomainError, CapacityError):
        failed = True
    if failed:
        objectives = np.array([_point_objective(point, spec) for point in named])
    best_idx = int(np.argmin(objectives))
    return ScanResult(
        axis_names=axes,
        points=points,
        objectives=objectives,
        best_point=named[best_idx],
        best_objective=float(objectives[best_idx]),
        metadata={"grid_size": total},
    )


def refine(
    start_point: Mapping[str, float],
    step_scales: Mapping[str, float],
    max_iters: int = 200,
    ftol: float = 1e-8,
    *,
    bounds: Mapping[str, tuple[float, float]] | None = None,
    spec: ScanSpec | None = None,
    objective_fn: Callable[[dict[str, float]], float] | None = None,
) -> ScanResult:
    """Simplex descent from a start point; never reports worse than it started.

    ``start_point`` names the sweepable parameters searched, ``step_scales``
    their initial steps.  The default objective comes from ``spec`` (its
    fixed values, window, and convention); ``objective_fn`` is a seam for
    injecting a synthetic objective in tests.  Points outside ``bounds`` are
    clamped before evaluation and penalized by their clamping distance, so
    reported points always satisfy the bounds.  It converges once the simplex's
    values agree to ``ftol`` and its vertices to _SIMPLEX_TOL of a step.
    """
    if not start_point:
        raise DomainError("start_point must name at least one parameter")
    if not (_is_integer(max_iters) and max_iters >= 0):
        raise DomainError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    if not (_is_real(ftol) and ftol >= 0.0):
        raise DomainError(f"ftol must be a real number >= 0, got {ftol!r}")
    names = tuple(n for n in SWEEPABLE if n in start_point)
    if set(names) != set(start_point):
        raise DomainError("start_point keys must be sweepable parameter names")
    if set(step_scales) != set(names):
        raise DomainError("step_scales must cover exactly the start_point keys")
    for name in names:
        start, step = start_point[name], step_scales[name]
        if not _is_real(start):
            raise DomainError(f"start_point {name} must be a real number, got {start!r}")
        if not (_is_real(step) and step != 0.0):
            raise DomainError(f"step_scales {name} must be a nonzero real number, got {step!r}")
    if objective_fn is None:
        if spec is None:
            raise DomainError("refine needs either a ScanSpec or an objective_fn")
        objective_fn = functools.partial(_point_objective, spec=spec)

    lo = np.array([bounds[n][0] if bounds and n in bounds else -np.inf for n in names])
    hi = np.array([bounds[n][1] if bounds and n in bounds else np.inf for n in names])
    x0 = np.array([float(start_point[n]) for n in names])
    steps = np.array([float(step_scales[n]) for n in names])
    for name, x, a, b in zip(names, x0, lo, hi):
        if not a <= x <= b:
            raise StartOutsideBounds(name, f"start {name} = {x} lies outside the box [{a}, {b}]")

    # every clamped point that beats all before it; a NaN never does
    trace: list[tuple[dict[str, float], float]] = []

    def evaluate(x: np.ndarray) -> float:
        clamped = np.clip(x, lo, hi)
        point = {n: float(v) for n, v in zip(names, clamped)}
        base = float(objective_fn(point))
        if base < (trace[-1][1] if trace else math.inf):
            trace.append((point, base))
        return base + _PENALTY_SCALE * float(np.linalg.norm(x - clamped))

    dim = len(names)
    simplex = [x0]
    for i, step in enumerate(steps):
        vertex = x0.copy()
        vertex[i] += step if x0[i] + step <= hi[i] else -step
        simplex.append(vertex)
    values = np.array([evaluate(vertex) for vertex in simplex])

    iterations = 0
    converged = False
    for iterations in range(1, int(max_iters) + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = values[order]
        flat = abs(values[-1] - values[0]) <= ftol * (abs(values[0]) + abs(values[-1]) + 1e-30)
        if flat and np.abs(np.subtract(simplex[1:], simplex[0]) / steps).max() <= _SIMPLEX_TOL:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + _NM_REFLECT * (centroid - worst)
        f_r = evaluate(reflected)
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[0]:
            expanded = centroid + _NM_EXPAND * (centroid - worst)
            f_e = evaluate(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
            continue
        contracted = centroid + _NM_CONTRACT * (worst - centroid)
        f_c = evaluate(contracted)
        if f_c < values[-1]:
            simplex[-1], values[-1] = contracted, f_c
            continue
        best_vertex = simplex[0]
        for i in range(1, dim + 1):
            simplex[i] = best_vertex + _NM_SHRINK * (simplex[i] - best_vertex)
            values[i] = evaluate(simplex[i])

    if not trace:
        raise DomainError("no evaluated point had a finite objective")
    best_point, best = trace[-1]
    return ScanResult(
        axis_names=names,
        points=np.zeros((0, dim)),
        objectives=np.zeros(0),
        best_point=dict(best_point),
        best_objective=best,
        trace=tuple(trace),
        metadata={"iterations": iterations, "converged": converged},
    )
