"""Spans around the package's layer functions, recorded from outside.

`Tracer.installed()` replaces each layer function with a timing wrapper at
every module attribute of the package that holds it, which is where its
callers look it up (`cli.transition_prob`, `dynamics.transition_prob`,
`scan.transition_prob`, ...), and puts the originals back on exit.  Nothing
under `src/` changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# span name -> (module that defines the function, attribute name)
LAYER_FUNCTIONS = {
    "config.load_config": ("rabi_ent.config", "load_config"),
    "config.load_preset": ("rabi_ent.cli", "load_preset"),
    "specialfn.poisson_logweights": ("rabi_ent.specialfn", "poisson_logweights"),
    "specialfn.laguerre_sequence": ("rabi_ent.specialfn", "laguerre_sequence"),
    "spectrum.aa_rows": ("rabi_ent.spectrum", "aa_rows"),
    "dynamics.transition_prob": ("rabi_ent.dynamics", "transition_prob"),
    "dynamics.cosine_kernel": ("rabi_ent.dynamics", "_cosine_average"),
    "dynamics.jc_inversion": ("rabi_ent.dynamics", "jc_inversion"),
    "scan.grid_scan": ("rabi_ent.scan", "grid_scan"),
    "scan.refine": ("rabi_ent.scan", "refine"),
    "scan.objective": ("rabi_ent.scan", "objective"),
    "oracle.evolve": ("rabi_ent.oracle", "evolve"),
    "oracle.build_hamiltonian": ("rabi_ent.oracle", "build_hamiltonian"),
    "oracle.eigendecompose": ("rabi_ent.oracle", "eigendecompose"),
    "oracle.concurrence": ("rabi_ent.oracle", "concurrence"),
    "cli.main": ("rabi_ent.cli", "main"),
}


def _work_size(name: str, args: tuple, result) -> tuple[str, int] | None:
    """Work counted at a span, from argument and result sizes."""
    if name == "dynamics.cosine_kernel":  # (coeff, freqs, times)
        return "dynamics.sum_terms", args[0].size * args[2].size
    if name == "oracle.eigendecompose":  # (h,)
        return "oracle.eigh_dim3", args[0].shape[0] ** 3
    if name == "scan.refine":
        return "scan.refine.iterations", int(result.metadata["iterations"])
    return None


class Tracer:
    """Collects spans [name, start, end, parent index] and work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            work = _work_size(name, args, result)
            if work is not None:
                self.counters[work[0]] += work[1]
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function wherever the package holds it; restore on exit."""
        modules = [m for n, m in sys.modules.items() if n == "rabi_ent" or n.startswith("rabi_ent.")]
        replaced = []
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in replaced:
                setattr(mod, key, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return {name: tuple(v) for name, v in out.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a call of a no-op function.

    The fastest of several repeats, so that a slow stretch of the host does
    not count as tracer cost.
    """

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - middle) - (middle - start))
    return best / calls
