"""Tests of the benchmark itself: its checks reject wrong output, its
tracer restores what it wraps, and a clean run fails only the known
cross-thread operation.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from spans import Tracer
from workloads import BENCH_DIR, CONFIGS, CROSS_THREAD_COMMAND, OWN_CONFIGS, PRESETS, ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

from rabi_ent import cli  # noqa: E402


def _run_cli(tmp_dir, argv, name):
    out = tmp_dir / f"{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(), out.with_name(out.name + ".json").read_text()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("outputs")
    cases = {
        "tprob": (["tprob", "--fig", "3", "--panel", "1"], PRESETS / "fig3_p1.json"),
        "jc": (["jc", "--config", str(CONFIGS / "jc_revival.json")], CONFIGS / "jc_revival.json"),
        "spectrum": (
            ["spectrum", "--config", str(OWN_CONFIGS / "spectrum_fig4_10k.json")],
            OWN_CONFIGS / "spectrum_fig4_10k.json",
        ),
        "scan": (["scan", "--config", str(CONFIGS / "beta_scan.json")], CONFIGS / "beta_scan.json"),
        "scan2d": (
            ["scan", "--config", str(OWN_CONFIGS / "scan_beta_alpha_2d.json")],
            OWN_CONFIGS / "scan_beta_alpha_2d.json",
        ),
        "oracle": (
            ["oracle", "--config", str(CONFIGS / "fig4_desk_oracle.json")],
            CONFIGS / "fig4_desk_oracle.json",
        ),
        "cross": (
            ["oracle", "--config", str(CONFIGS / "aa_vs_ed_cross_check.json")],
            CONFIGS / "aa_vs_ed_cross_check.json",
        ),
    }
    return {
        key: (json.loads(config.read_text()), *_run_cli(tmp_dir, argv, key))
        for key, (argv, config) in cases.items()
    }


CHECK_OF = {"scan2d": "scan", "cross": "oracle"}


def _check(key, cfg, csv, sidecar):
    return checks.CHECKS[CHECK_OF.get(key, key)](cfg, csv, sidecar, np.random.default_rng(7))


def _edit(csv, fn):
    """Apply fn to the parsed data and format it back the way the program does."""
    header, data = checks.parse_csv(csv)
    data = data.copy()
    fn(data)
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in data]
    return "\n".join(lines) + "\n"


def _edit_sidecar(sidecar, **changes):
    return json.dumps({**json.loads(sidecar), **changes})


@pytest.mark.parametrize("key", ["tprob", "jc", "spectrum", "scan", "scan2d", "oracle", "cross"])
def test_clean_output_passes(outputs, key):
    assert _check(key, *outputs[key]) == []


def _set(col, rows, value=None, add=None):
    def fn(data):
        if add is not None:
            data[rows, col] += add
        else:
            data[rows, col] = value

    return fn


def _tprob_t(rows, add):
    """Shift T and keep P_stay = 1 - 2T, so only the T checks can fire."""

    def fn(data):
        data[rows, 1] += add
        data[rows, 2] = 1.0 - 2.0 * data[rows, 1]

    return fn


PERTURBATIONS = [
    ("tprob", _tprob_t(0, 1e-13), "T(0)"),
    ("tprob", _tprob_t(slice(1, None), 10 * checks.T_TOL), "T vs reference"),
    ("tprob", _tprob_t(5, 0.25), "T leaves [0, 1/4]"),
    ("tprob", _tprob_t(5, 0.0151), "fig3 max T"),
    ("tprob", _set(2, -1, add=1e-14), "P_stay vs 1 - 2T"),
    ("jc", _set(1, 0, add=10 * checks.T_TOL), "W(0)"),
    ("jc", _set(1, slice(None), add=10 * checks.T_TOL), "W vs reference"),
    ("jc", _set(1, -2, value=0.999), "revival peak"),
    ("spectrum", _set(1, 1234, add=10 * checks.SPECTRUM_ATOL), "omega1N vs reference"),
    ("spectrum", _set(5, -1, add=1e-7), "eplus vs reference"),
    ("spectrum", _set(7, 3, value=0.126), "weight leaves"),
    ("scan", _set(1, slice(None), add=10 * checks.T_TOL), "objective at"),
    ("scan", _set(1, 0, value=1e-6), "1-D minimum"),
    ("scan2d", _set(2, slice(None), add=10 * checks.T_TOL), "objective at"),
    ("oracle", _set(1, 7, add=10 * checks.POP_TOL), "population sum"),
    ("oracle", _set(5, 9, value=1.0 + 1e-12), "C leaves [0, 1]"),
    ("oracle", _set(5, 0, add=-10 * checks.CONC_TOL), "C(0)"),
    ("oracle", _set(5, slice(None), add=-10 * checks.CONC_TOL), "C vs reference"),
    ("cross", _set(1, 400, add=0.12), "sup |P11 - 2T|"),
]


@pytest.mark.parametrize("key,perturb,message", PERTURBATIONS, ids=[p[2] for p in PERTURBATIONS])
def test_perturbed_output_fails(outputs, key, perturb, message):
    cfg, csv, sidecar = outputs[key]
    problems = _check(key, cfg, _edit(csv, perturb), sidecar)
    assert any(message in p for p in problems), problems


def test_oracle_populations_against_reference(outputs):
    # move population between P11 and P1m1, keeping every sum and bound intact
    def fn(data):
        data[1:, 1] += 10 * checks.POP_TOL
        data[1:, 2] -= 10 * checks.POP_TOL

    cfg, csv, sidecar = outputs["oracle"]
    problems = _check("oracle", cfg, _edit(csv, fn), sidecar)
    assert any("populations vs reference" in p for p in problems), problems


@pytest.mark.parametrize(
    "key,changes,message",
    [
        ("tprob", {"max_T": 0.5}, "sidecar max_T"),
        ("oracle", {"truncation_error": 2e-6}, "truncation_error"),
        ("oracle", {"truncation_error": None}, "truncation_error"),
        ("scan2d", {"best_point": {"beta": 0.39, "alpha_sq": 116.0}}, "argmin"),
        ("scan", {"refined_objective": 0.5}, "worse than the grid best"),
        ("scan", {"refined_point": {"beta": 0.55}}, "leaves the bounds"),
        ("scan", {"refined_objective": 0.0049}, "refined objective"),
    ],
)
def test_perturbed_sidecar_fails(outputs, key, changes, message):
    cfg, csv, sidecar = outputs[key]
    problems = _check(key, cfg, csv, _edit_sidecar(sidecar, **changes))
    assert any(message in p for p in problems), problems


def test_cross_thread_check(outputs):
    _, csv, _ = outputs["oracle"]
    assert checks.check_cross_thread(csv, csv) == ([], [])
    known, other = checks.check_cross_thread(csv, _edit(csv, _set(5, 100, add=10 * checks.CROSS_THREAD_TOL)))
    assert any("column C" in p for p in known) and other == []
    known, other = checks.check_cross_thread(csv, _edit(csv, _set(1, 100, add=10 * checks.CROSS_THREAD_TOL)))
    assert known == [] and any("column P11" in p for p in other)


@pytest.mark.parametrize(
    "column,expected",
    [(None, (True, 2, 0)), (5, (True, 2, 1)), (1, (False, 2, 1)), (4, (False, 2, 1))],
    ids=["agree", "C differs (known fault)", "P11 differs", "P00 differs"],
)
def test_judge_counts_only_column_c_as_the_known_failure(outputs, tmp_path, column, expected):
    _, csv, sidecar = outputs["oracle"]
    other = csv if column is None else _edit(csv, _set(column, 100, add=10 * checks.CROSS_THREAD_TOL))
    runner = run.Runner("oracle", tmp_path)
    runner.outputs = {(CROSS_THREAD_COMMAND, "parent"): (csv, sidecar), ("cross_thread", "child"): (other, sidecar)}
    runner.passes = [
        {"traced": False, "commands": {CROSS_THREAD_COMMAND: (0, 0.1, "parent", 0, 0)}, "cross_thread": (0, "child")}
    ]
    assert run.judge(runner, 3) == expected


def test_tracer_self_time_and_restore():
    import rabi_ent.dynamics as dynamics
    import rabi_ent.scan as scan
    from rabi_ent.params import ModelParams

    original = dynamics.transition_prob
    tracer = Tracer()
    with tracer.installed():
        assert scan.transition_prob is dynamics.transition_prob is not original
        scan.objective(ModelParams(ratio_r=0.12, beta=0.42, kappa0=0.02, alpha_sq=16.0), 50.0, 100)
    assert dynamics.transition_prob is original and scan.transition_prob is original
    totals = tracer.totals()
    calls, total, self_time = totals["scan.objective"]
    children = totals["dynamics.transition_prob"][1]
    assert calls == 1 and totals["dynamics.transition_prob"][0] == 1
    assert self_time == pytest.approx(total - children, abs=1e-12)
    assert tracer.counters["dynamics.sum_terms"] > 0
    assert [s["parent"] for s in tracer.dump()][0] == -1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_clean_run_fails_only_the_cross_thread_check(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == list(run.metric_units("end_to_end"))
    passes = 1
    per_pass = len(WORKLOADS[workload]) + (workload == "oracle")
    assert result["attempted"] == passes * per_pass
    assert result["failed"] == (passes if workload == "oracle" else 0)


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "scan", "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == list(run.metric_units("per_layer"))
    assert metrics["dynamics.transition_prob.calls_per_series"]["value"] == 1.0
    assert 0 < metrics["trace.overhead_share"]["value"] < 0.01
    assert metrics["scan.objective.calls"]["value"] == metrics["dynamics.transition_prob.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
