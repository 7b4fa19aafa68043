"""Every config the schema admits, and every one it does not, ends in exit 0, 2, 3 or 4.

Small configs, one per command, get one or two keys set to extreme values; each
mutated config runs through ``cli.main`` in-process.  A run that raises instead
of returning an exit code is a traceback, and fails the test.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_ent.cli import main

TIMES = {"t_max": 10.0, "points": 11}
BASES = {
    "spectrum": {"model": {"ratio_r": 0.2, "beta": 0.3, "alpha_sq": 9.0}, "spectrum": {"n_max": 20}},
    "tprob": {"model": {"ratio_r": 0.2, "beta": 0.3, "kappa0": 0.1, "alpha_sq": 9.0}, "time_grid": TIMES},
    "oracle": {
        "model": {"ratio_r": 0.2, "beta": 0.3, "kappa0": 0.1, "alpha_sq": 4.0},
        "time_grid": TIMES,
        "ed": {"n_max": 40},
    },
    "jc": {"jc": {"delta": 0.1, "g": 1.0, "alpha_sq": 9.0}, "time_grid": TIMES, "tail_tol": 1e-10},
    "scan": {
        "scan": {
            "ranges": {"beta": {"min": 0.3, "max": 0.5, "steps": 3}},
            "fixed": {"ratio_r": 0.12, "kappa0": 0.02, "alpha_sq": 9.0},
            "horizon": 50.0,
            "time_points": 50,
            "refine": {"step_scales": {"beta": 0.01}, "max_iters": 10, "ftol": 1e-8},
        }
    },
}
# Keys whose integer value sets the size of the work.  Only these are capped, so the
# test takes seconds: a large size costs time, but it is not a fault.
SIZE_KEYS = {"points", "n_min", "n_max", "initial_fock", "steps", "time_points", "max_iters"}
SIZE_CAP = 200
EXTREMES = [
    0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308, 1e200, -1e200, math.nan, math.inf, -math.inf,
    2**63, -(2**63), 1.0, -1.0, 0.5, True, False, "x", "", None, [], [1.0], {}, {"a": 1.0},
]  # fmt: skip


def leaf_paths(node, prefix=()):
    """The key path of every value in the config, objects included."""
    for key, value in node.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from leaf_paths(value, (*prefix, key))


def values_for(path):
    if path[-1] in SIZE_KEYS:
        return st.one_of(st.sampled_from(EXTREMES), st.integers(-2, SIZE_CAP))
    return st.sampled_from(EXTREMES)


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    cfg = copy.deepcopy(BASES[command])
    paths = sorted(leaf_paths(cfg))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        parent = cfg
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):  # not replaced by the first mutation
            parent[path[-1]] = copy.deepcopy(draw(values_for(path)))  # the pool stays as it is
    return command, cfg


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(mutated_configs())
def test_mutated_configs_end_in_a_documented_exit_code(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))  # NaN and +-inf as JSON NaN and Infinity
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    assert code in (0, 2, 3, 4), (code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
