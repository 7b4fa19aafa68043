import collections
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rabi_ent import KappaConvention, config, evolve, oracle, scan, specialfn, transition_prob
from rabi_ent.cli import _csv_pieces, build_parser, load_preset, main, preset_name
from rabi_ent.config import (
    SCHEMA,
    MapOf,
    load_config,
    params_from_config,
    section,
    times_from_config,
    validate_config,
)
from rabi_ent.scan import ScanSpec, grid_scan

AA_VALID_MODEL = {"ratio_r": 0.05, "beta": 0.2, "kappa0": 0.0, "alpha_sq": 9.0}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_prose() -> str:
    """The README with every run of whitespace made one space, so prose reads across lines."""
    return " ".join(README.read_text().split())


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def read_csv(path: Path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_all_presets_load():
    for fig, panels in ((1, 4), (2, 3), (3, 3), (4, 1)):
        for panel in range(1, panels + 1):
            cfg = load_preset(fig, panel)
            assert cfg["label"] == preset_name(fig, panel)
            assert "model" in cfg and "time_grid" in cfg and "ed" in cfg


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")),
    ids=lambda path: path.name,
)
def test_committed_configs_load(path):
    load_config(path)


def test_tprob_fig3_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tprob", "--fig", "3", "--panel", "1"]) == 0
    csv_path = tmp_path / "tprob_fig3_p1.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,T,P_stay"
    data = read_csv(csv_path)
    assert data["T"].max() < 0.015
    assert data["P_stay"].min() >= 0.97
    sidecar = json.loads((tmp_path / "tprob_fig3_p1.csv.json").read_text())
    assert sidecar["command"] == "tprob"
    assert sidecar["resolved"]["model"]["beta"] == 0.4193
    assert "version" in sidecar


def test_csv_floats_round_trip_exactly(tmp_path, monkeypatch):
    # 17-significant-digit formatting reproduces the computed doubles bit for bit
    monkeypatch.chdir(tmp_path)
    assert main(["tprob", "--fig", "3", "--panel", "1", "--out", "rt.csv"]) == 0
    data = read_csv(tmp_path / "rt.csv")
    cfg = load_preset(3, 1)
    times = times_from_config(cfg)
    values = transition_prob(params_from_config(cfg), times)
    assert np.array_equal(data["t"], times)
    assert np.array_equal(data["T"], values)


def run_at_one_and_two_blas_threads(tmp_path, args):
    """Run ``rabi_ent.cli`` with ``args`` at 1 and at 2 BLAS threads; return both CSV paths."""
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]),
        }
        out = tmp_path / f"threads_{threads}.csv"
        command = [sys.executable, "-m", "rabi_ent.cli", *args, "--out", str(out)]
        subprocess.run(command, cwd=root, env=env, check=True, capture_output=True)
        outputs.append(out)
    return outputs


def test_oracle_output_agrees_across_blas_thread_counts(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "fig4_desk_oracle.json"
    outputs = run_at_one_and_two_blas_threads(tmp_path, ["oracle", "--config", str(config)])
    one, two = (read_csv(out) for out in outputs)
    assert one.dtype.names == ("t", "P11", "P1m1", "P10", "P00", "C")
    for name in one.dtype.names:
        assert np.abs(one[name] - two[name]).max() <= 1e-12, name


CLOSED_FORM_RUNS = {
    "tprob": ["--fig", "4"],
    "spectrum": ["--fig", "4"],
    "jc": ["--config", "configs/jc_revival.json"],
    "scan": ["--config", "configs/beta_scan.json"],
}


# a beta x alpha_sq grid (alpha_sq = 0 included) over more than one time block,
# written into the test's own directory
SCAN_2D_CONFIG = {
    "scan": {
        "ranges": {
            "beta": {"min": 0.3, "max": 0.45, "steps": 3},
            "alpha_sq": {"min": 0.0, "max": 40.0, "steps": 3},
        },
        "fixed": {"ratio_r": 0.12, "kappa0": 0.02},
        "horizon": 300.0,
        "time_points": 4500,
    }
}


@pytest.mark.parametrize("command", [*sorted(CLOSED_FORM_RUNS), "scan_2d"])
def test_closed_form_output_is_identical_across_blas_thread_counts(command, tmp_path):
    if command == "scan_2d":
        args = ["scan", "--config", write_config(tmp_path / "scan_2d.json", SCAN_2D_CONFIG)]
    else:
        args = [command, *CLOSED_FORM_RUNS[command]]
    outputs = run_at_one_and_two_blas_threads(tmp_path, args)
    one, two = ((out.read_bytes(), Path(f"{out}.json").read_bytes()) for out in outputs)
    assert one == two


@pytest.mark.parametrize("fig", ["3", "4"])
def test_oracle_truncation_error_stays_below_the_readme_floor(tmp_path, fig):
    # the README's *Truncation check* states the rounding floor of --fig 3 and --fig 4,
    # where the run and its re-run evolve different Fock windows
    readme = readme_prose()
    floor = re.search(r"On `--fig 3` and `--fig 4` the value .*? stays below `([0-9.e+-]+)`", readme)
    assert floor is not None and float(floor.group(1)) == 1e-12
    for out in run_at_one_and_two_blas_threads(tmp_path, ["oracle", "--fig", fig]):
        error = json.loads(Path(f"{out}.json").read_text())["truncation_error"]
        assert 0.0 < error < float(floor.group(1))


def test_readme_window_mass_bound_holds_at_every_admitted_cutoff():
    # the README's *Truncation check* bounds the coherent mass outside the oracle's
    # Fock window at the cutoff of every bundled preset and config
    root = Path(__file__).resolve().parents[1]
    readme = readme_prose()
    shown = re.search(r"mass outside the window is `([0-9.e-]+)` at most", readme)
    panels = ((1, 4), (2, 3), (3, 3), (4, 1))
    cfgs = [load_preset(fig, panel) for fig, count in panels for panel in range(1, count + 1)]
    configs = [load_config(str(path)) for path in sorted((root / "configs").glob("*.json"))]
    cfgs += [cfg for cfg in configs if "model" in cfg]  # not the jc and scan configs
    masses = []
    with mpmath.workdps(30):
        for cfg in cfgs:
            params = params_from_config(cfg)
            n_max = section(cfg, "ed")["n_max"]
            if n_max is None:
                n_max = oracle.required_n_max(params.alpha_sq)
            n_lo = oracle._window_start(params, n_max, None)
            mass = mpmath.gammainc(n_max + 1, 0, params.alpha_sq, regularized=True)
            if n_lo:
                mass += mpmath.gammainc(n_lo, params.alpha_sq, mpmath.inf, regularized=True)
            masses.append(float(mass))
    assert max(masses) <= float(shown.group(1)) < 1.05 * max(masses)


def test_outputs_are_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tprob", "--fig", "1", "--panel", "2", "--out", "a.csv"]) == 0
    assert main(["tprob", "--fig", "1", "--panel", "2", "--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    a_side = (tmp_path / "a.csv.json").read_text()
    b_side = (tmp_path / "b.csv.json").read_text()
    assert a_side == b_side


def per_value_csv(header, columns) -> str:
    # the writer's byte contract: integers as plain decimals, floats as f"{v:.17g}"
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(str(v) if isinstance(v, np.integer) else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
EDGE_FLOATS += [1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e16]


def test_csv_writer_matches_per_value_formatting():
    rng = np.random.default_rng(7)
    scales = 10.0 ** rng.integers(-300, 300, 40)
    floats = np.concatenate([EDGE_FLOATS, rng.standard_normal(40) * scales])
    nan_peaks = np.full(floats.size, np.nan)
    columns = (np.arange(12, 12 + floats.size), floats, floats[::-1].copy(), nan_peaks)
    header = ("N", "a", "b", "objective")
    text = "".join(_csv_pieces(header, columns))
    assert text == per_value_csv(header, columns)
    assert text.splitlines()[1].startswith("12,-0,")


def test_csv_writer_over_more_than_one_chunk():
    rng = np.random.default_rng(8)
    columns = (np.arange(9001), np.linspace(0.0, 900.0, 9001), rng.uniform(-1.0, 1.0, 9001))
    pieces = list(_csv_pieces(("N", "t", "W"), columns))
    assert len(pieces) == 1 + 3  # header, then chunks of 4096, 4096 and 809 rows
    assert "".join(pieces) == per_value_csv(("N", "t", "W"), columns)


def test_main_builds_its_parser_once_per_process(monkeypatch, tmp_path):
    import argparse

    argv = ["tprob", "--fig", "1", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(init(self, *a, **k))
    )
    assert main(argv) == 0 and main(argv) == 0
    assert built == []
    assert build_parser() is not build_parser() and len(built) == 2 * (1 + 5)


def test_scan_with_no_swept_axis_writes_only_the_objective(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    payload = {
        "scan": {
            "ranges": {},
            "fixed": {"ratio_r": 0.12, "beta": 0.4, "kappa0": 0.02, "alpha_sq": 16.0},
            "horizon": 100.0,
            "time_points": 300,
        }
    }
    path = write_config(tmp_path / "cfg.json", payload)
    assert main(["scan", "--config", path, "--out", "s.csv"]) == 0
    result = grid_scan(ScanSpec(**payload["scan"]))
    expected = per_value_csv(("objective",), (result.objectives,))
    assert (tmp_path / "s.csv").read_text() == expected
    assert expected.count("\n") == 2


def test_spectrum_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    from rabi_ent.config import params_from_config
    from rabi_ent.spectrum import aa_columns

    monkeypatch.chdir(tmp_path)
    cfg = load_preset(4)
    cfg["spectrum"] = {"n_min": 240, "n_max": 260}
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["spectrum", "--config", path, "--out", "rows.csv"]) == 0
    header = ("N", "omega1N", "omega2N", "t0tilde", "e0", "eplus", "eminus", "weight", "rabi_freq")
    columns = aa_columns(params_from_config(cfg), 260, 240)
    text = (tmp_path / "rows.csv").read_text()
    assert text == per_value_csv(header, [columns[name] for name in header])
    assert text.splitlines()[1].startswith("240,")


def test_spectrum_columns_and_uncoupled_weight(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"ratio_r": 0.2, "beta": 0.0, "kappa0": 0.0, "alpha_sq": 4.0},
            "spectrum": {"n_min": 0, "n_max": 25},
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", "spec.csv"]) == 0
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[0] == "N,omega1N,omega2N,t0tilde,e0,eplus,eminus,weight,rabi_freq"
    data = read_csv(tmp_path / "spec.csv")
    assert data.shape == (26,)
    assert np.all(data["weight"] == 0.125)
    assert np.all(data["N"] == np.arange(26))


def test_spectrum_rows_default_to_the_poisson_cut(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", {"model": AA_VALID_MODEL, "tail_tol": 1e-8})
    assert main(["spectrum", "--config", cfg, "--out", "spec.csv"]) == 0
    n_cut = specialfn.poisson_logweights(9.0, 1e-8).size - 1
    assert n_cut < specialfn.poisson_logweights(9.0).size - 1
    assert read_csv(tmp_path / "spec.csv")["N"].tolist() == list(range(n_cut + 1))
    sidecar = json.loads((tmp_path / "spec.csv.json").read_text())
    assert (sidecar["n_min"], sidecar["n_max"]) == (0, n_cut)


def test_oracle_stationary_initial_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"ratio_r": 0.23, "beta": 0.26, "kappa0": 0.1, "alpha_sq": 4.0},
            "time_grid": {"t_max": 50.0, "points": 51},
            "ed": {
                "n_max": 40,
                "initial_spin": "J0M0",
                "initial_fock": 8,
                "check_truncation": False,
            },
        },
    )
    assert main(["oracle", "--config", cfg, "--out", "oracle.csv"]) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "t,P11,P1m1,P10,P00,C"
    data = read_csv(tmp_path / "oracle.csv")
    assert np.ptp(data["P00"]) <= 1e-10
    assert np.all(np.abs(data["P11"]) <= 1e-10)
    assert np.all(data["C"] >= 1.0 - 1e-10)
    sidecar = json.loads((tmp_path / "oracle.csv.json").read_text())
    assert sidecar["truncation_error"] is None


def test_oracle_population_tracks_doubled_series(tmp_path, monkeypatch):
    # cross-module check at an AA-valid point; recorded tolerance 0.06
    monkeypatch.chdir(tmp_path)
    common_grid = {"t_max": 100.0, "points": 101}
    cfg_o = write_config(
        tmp_path / "o.json",
        {
            "model": AA_VALID_MODEL,
            "time_grid": common_grid,
            "ed": {"n_max": 60, "check_truncation": False},
        },
    )
    cfg_t = write_config(
        tmp_path / "t.json", {"model": AA_VALID_MODEL, "time_grid": common_grid}
    )
    assert main(["oracle", "--config", cfg_o, "--out", "o.csv"]) == 0
    assert main(["tprob", "--config", cfg_t, "--out", "t.csv"]) == 0
    oracle = read_csv(tmp_path / "o.csv")
    series = read_csv(tmp_path / "t.csv")
    assert np.max(np.abs(oracle["P11"] - 2.0 * series["T"])) <= 0.06


def test_jc_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "jc": {"delta": 0.0, "g": 1.0, "alpha_sq": 16.0, "corrected": True},
            "time_grid": {"t_max": 10.0, "points": 201},
            "tail_tol": 1e-13,
        },
    )
    assert main(["jc", "--config", cfg, "--out", "jc.csv"]) == 0
    data = read_csv(tmp_path / "jc.csv")
    assert abs(data["W"][0] - 1.0) <= 1e-12
    assert np.all(np.abs(data["W"]) <= 1.0 + 1e-12)


def test_scan_command_with_refinement(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "scan": {
                "ranges": {"beta": {"min": 0.35, "max": 0.48, "steps": 5}},
                "fixed": {"ratio_r": 0.12, "kappa0": 0.02, "alpha_sq": 106.0},
                "horizon": 200.0,
                "time_points": 400,
                "refine": {"step_scales": {"beta": 0.01}, "max_iters": 30},
            }
        },
    )
    assert main(["scan", "--config", cfg, "--out", "scan.csv"]) == 0
    data = read_csv(tmp_path / "scan.csv")
    assert data.shape == (5,)
    sidecar = json.loads((tmp_path / "scan.csv.json").read_text())
    assert sidecar["best_objective"] == float(np.min(data["objective"]))
    assert sidecar["refined_objective"] <= sidecar["best_objective"]
    assert 0.35 <= sidecar["refined_point"]["beta"] <= 0.48
    trace_values = [entry["objective"] for entry in sidecar["refine_trace"]]
    assert trace_values == sorted(trace_values, reverse=True)


def test_config_and_fig_are_mutually_exclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", {"model": AA_VALID_MODEL})
    assert main(["tprob", "--config", cfg, "--fig", "3"]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_source_is_config_error():
    assert main(["tprob"]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": {"ratio_r": 0.2, "beta": 0.1, "betta": 0.3}},
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def test_unreadable_config_is_config_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["tprob", "--config", str(path)]) == 2
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"model": {"ratio_r": 0.2, "beta": 1' + "0" * 5000 + "}}"],
    ids=["not-json", "integer-past-the-digit-limit"],
)
def test_invalid_json_is_config_error(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["tprob", "--config", str(bad)]) == 2


def test_numeric_domain_error_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"ratio_r": 0.2, "beta": 0.1, "alpha_sq": -4.0},
            "time_grid": {"t_max": 10.0},
        },
    )
    assert main(["tprob", "--config", cfg]) == 3
    assert "domain error" in capsys.readouterr().err


def test_capacity_error_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "scan": {
                "ranges": {
                    "beta": {"min": 0.0, "max": 0.5, "steps": 101},
                    "alpha_sq": {"min": 1.0, "max": 9.0, "steps": 199},
                },
                "fixed": {"ratio_r": 0.2, "kappa0": 0.0},
                "horizon": 10.0,
            }
        },
    )
    assert main(["scan", "--config", cfg]) == 4
    assert "grid has 20099 points, exceeding ceiling 20000" in capsys.readouterr().err


def test_unknown_figure_and_panel(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tprob", "--fig", "9"]) == 2
    assert main(["tprob", "--fig", "4", "--panel", "3"]) == 2


def test_out_path_respected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "nested" / "series.csv"
    assert main(["tprob", "--fig", "1", "--panel", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "nested" / "series.csv.json").exists()


def test_failed_replace_leaves_no_file_behind(tmp_path, monkeypatch):
    def failing(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "nested"
    with pytest.raises(PermissionError, match="series.csv"):
        main(["tprob", "--fig", "1", "--panel", "2", "--out", str(out / "series.csv")])
    assert list(out.iterdir()) == []


def test_configured_output_path_used_when_out_flag_absent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "model": AA_VALID_MODEL,
            "time_grid": {"t_max": 10.0, "points": 11},
            "output": {"path": "from_config.csv"},
        },
    )
    assert main(["tprob", "--config", cfg]) == 0
    assert (tmp_path / "from_config.csv").exists()
    # the --out flag still wins over the configured path
    assert main(["tprob", "--config", cfg, "--out", "flag.csv"]) == 0
    assert (tmp_path / "flag.csv").exists()


# --- configuration rejection table ------------------------------------------
#
# One row per configuration fault: (command, config, exit code, dotted path
# the error message must name).  Each config is a valid base config for its
# command with exactly one change.

_DELETE = object()

_BASES = {
    "tprob": {"model": AA_VALID_MODEL, "time_grid": {"t_max": 10.0, "points": 11}},
    "spectrum": {"model": AA_VALID_MODEL, "spectrum": {"n_min": 0, "n_max": 5}},
    "oracle": {
        "model": {"ratio_r": 0.05, "beta": 0.2, "alpha_sq": 1.0},
        "time_grid": {"t_max": 2.0, "points": 3},
        "ed": {"n_max": 16, "check_truncation": False},
    },
    "jc": {
        "jc": {"delta": 0.0, "g": 1.0, "alpha_sq": 4.0},
        "time_grid": {"t_max": 2.0, "points": 3},
    },
    "scan": {
        "scan": {
            "ranges": {"beta": {"min": 0.3, "max": 0.5, "steps": 3}},
            "fixed": {"ratio_r": 0.12, "kappa0": 0.02, "alpha_sq": 9.0},
            "horizon": 5.0,
            "time_points": 5,
            "refine": {"step_scales": {"beta": 0.01}, "max_iters": 2},
        }
    },
}


def _edited(command: str, dotted: str, value):
    cfg = json.loads(json.dumps(_BASES[command]))
    *parents, last = dotted.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


def _case(command, dotted, value, code, path):
    shown = "missing" if value is _DELETE else repr(value)
    cfg = _edited(command, dotted, value)
    return pytest.param(command, cfg, code, path, id=f"{command}-{dotted}={shown}")


_REJECTIONS = [
    pytest.param("tprob", [1, 2], 2, "config", id="top-level-not-an-object"),
    pytest.param("tprob", "model", 2, "config", id="top-level-a-string"),
    # unknown keys at every level
    _case("tprob", "modle", {}, 2, "config"),
    _case("tprob", "model.betta", 0.3, 2, "model"),
    _case("tprob", "time_grid.step", 0.1, 2, "time_grid"),
    _case("spectrum", "spectrum.n_top", 4, 2, "spectrum"),
    _case("oracle", "ed.nmax", 4, 2, "ed"),
    _case("oracle", "ed.variant", "half_sum", 2, "ed"),
    _case("oracle", "ed.dim_ceiling", "8192", 2, "ed"),
    _case("jc", "jc.omega", 1.0, 2, "jc"),
    _case("scan", "scan.range", {}, 2, "scan"),
    _case("scan", "scan.grid_ceiling", 1e4, 2, "scan"),
    _case("scan", "scan.ranges.beta.step", 3, 2, "scan.ranges.beta"),
    _case("scan", "scan.refine.maxiter", 3, 2, "scan.refine"),
    _case("tprob", "output.file", "x.csv", 2, "output"),
    # sections that are not objects
    _case("tprob", "model", [0.2, 0.1], 2, "model"),
    _case("tprob", "time_grid", 10.0, 2, "time_grid"),
    _case("oracle", "ed", "big", 2, "ed"),
    _case("scan", "scan.ranges", [], 2, "scan.ranges"),
    _case("scan", "scan.ranges.beta", 0.4, 2, "scan.ranges.beta"),
    _case("scan", "scan.fixed", 0.1, 2, "scan.fixed"),
    _case("scan", "scan.refine", True, 2, "scan.refine"),
    _case("scan", "scan.refine.step_scales", 0.01, 2, "scan.refine.step_scales"),
    _case("scan", "scan.refine.bounds", [0.3, 0.5], 2, "scan.refine.bounds"),
    # required keys missing
    _case("tprob", "model.ratio_r", _DELETE, 2, "model.ratio_r"),
    _case("tprob", "model.beta", _DELETE, 2, "model.beta"),
    _case("tprob", "time_grid.t_max", _DELETE, 2, "time_grid.t_max"),
    _case("jc", "jc.delta", _DELETE, 2, "jc.delta"),
    _case("jc", "jc.g", _DELETE, 2, "jc.g"),
    _case("jc", "jc.alpha_sq", _DELETE, 2, "jc.alpha_sq"),
    _case("scan", "scan.horizon", _DELETE, 2, "scan.horizon"),
    _case("scan", "scan.ranges.beta.min", _DELETE, 2, "scan.ranges.beta.min"),
    _case("scan", "scan.ranges.beta.max", _DELETE, 2, "scan.ranges.beta.max"),
    _case("scan", "scan.ranges.beta.steps", _DELETE, 2, "scan.ranges.beta.steps"),
    # wrong types, one kind at a time
    _case("tprob", "model.beta", "0.1", 2, "model.beta"),
    _case("tprob", "model.kappa0", True, 2, "model.kappa0"),
    _case("tprob", "model.alpha_sq", None, 2, "model.alpha_sq"),
    _case("tprob", "tail_tol", "1e-12", 2, "tail_tol"),
    _case("tprob", "time_grid.points", 3.0, 2, "time_grid.points"),
    _case("tprob", "time_grid.points", True, 2, "time_grid.points"),
    _case("spectrum", "spectrum.n_max", 5.0, 2, "spectrum.n_max"),
    _case("oracle", "ed.n_max", 8.0, 2, "ed.n_max"),
    _case("oracle", "ed.initial_fock", 1.5, 2, "ed.initial_fock"),
    _case("scan", "scan.ranges.beta.steps", 3.0, 2, "scan.ranges.beta.steps"),
    _case("scan", "scan.time_points", 5.0, 2, "scan.time_points"),
    _case("scan", "scan.refine.max_iters", 2.0, 2, "scan.refine.max_iters"),
    _case("scan", "scan.refine.ftol", "tiny", 2, "scan.refine.ftol"),
    _case("scan", "scan.fixed.kappa0", "0.02", 2, "scan.fixed.kappa0"),
    _case("scan", "scan.refine.step_scales.beta", False, 2, "scan.refine.step_scales.beta"),
    _case("scan", "scan.refine.bounds.beta", [0.3], 2, "scan.refine.bounds.beta"),
    _case("oracle", "ed.check_truncation", "no", 2, "ed.check_truncation"),
    _case("jc", "jc.corrected", 1, 2, "jc.corrected"),
    _case("tprob", "label", 7, 2, "label"),
    _case("tprob", "description", ["x"], 2, "description"),
    _case("tprob", "output.path", 3, 2, "output.path"),
    _case("tprob", "model.kappa_convention", "omega", 2, "model.kappa_convention"),
    _case("oracle", "ed.initial_spin", "1,0", 2, "ed.initial_spin"),
    _case("scan", "scan.kappa_convention", 1, 2, "scan.kappa_convention"),
    _case("tprob", "model.kappa_convention", [], 2, "model.kappa_convention"),
    # an integer past the float range is no number
    pytest.param(
        "tprob",
        _edited("tprob", "model.beta", 10**400),
        2,
        "model.beta",
        id="tprob-model.beta=10**400",
    ),
    pytest.param(
        "scan",
        _edited("scan", "scan.refine.bounds", {"beta": [0.3, 10**400]}),
        2,
        "scan.refine.bounds.beta",
        id="scan-scan.refine.bounds.beta=[0.3, 10**400]",
    ),
    # bounds checked at load
    _case("tprob", "time_grid.points", 1, 2, "time_grid.points"),
    _case("tprob", "time_grid.points", 10**7 + 1, 2, "time_grid.points"),
    _case("tprob", "time_grid.points", 10**30, 2, "time_grid.points"),
    _case("scan", "scan.time_points", 10**7 + 1, 2, "scan.time_points"),
    _case("scan", "scan.time_points", 10**30, 2, "scan.time_points"),
    _case("tprob", "time_grid.t_max", 0.0, 2, "time_grid"),
    _case("tprob", "time_grid.t_min", 10.0, 2, "time_grid"),
    _case("tprob", "tail_tol", 0.0, 2, "tail_tol"),
    _case("tprob", "tail_tol", 1e-5, 2, "tail_tol"),
    _case("spectrum", "spectrum.n_min", -1, 2, "spectrum.n_min"),
    _case("spectrum", "spectrum.n_min", 6, 2, "spectrum"),
    # scan structure
    _case("scan", "scan.ranges.omega", {"min": 0.0, "max": 1.0, "steps": 2}, 2, "scan.ranges.omega"),
    _case("scan", "scan.fixed.omega", 1.0, 2, "scan.fixed.omega"),
    _case("scan", "scan.fixed.beta", 0.4, 2, "scan"),
    _case("scan", "scan.fixed.kappa0", _DELETE, 2, "scan"),
    _case("scan", "scan.ranges.beta.steps", 1, 2, "scan"),
    _case("scan", "scan.ranges.beta.max", 0.2, 2, "scan"),
    _case("scan", "scan.horizon", -1.0, 2, "scan"),
    _case("scan", "scan.time_points", 1, 2, "scan"),
    _case("scan", "scan.refine.step_scales", {}, 2, "scan.refine.step_scales"),
    _case("scan", "scan.refine.step_scales.kappa0", 0.01, 2, "scan.refine.step_scales"),
    _case("scan", "scan.refine.bounds.beta", ["a", "b"], 2, "scan.refine.bounds.beta"),
    _case("scan", "scan.refine.bounds.betta", [0.3, 0.5], 2, "scan.refine.bounds.betta"),
    _case("scan", "scan.refine.bounds.beta", [0.5, 0.3], 2, "scan.refine.bounds.beta"),
    # checked after the grid scan: the bounds exclude the grid's best point
    _case("scan", "scan.refine.bounds.beta", [0.31, 0.32], 2, "scan.refine.bounds.beta"),
    # each command needs its sections
    _case("tprob", "model", _DELETE, 2, "model"),
    _case("tprob", "time_grid", _DELETE, 2, "time_grid"),
    _case("spectrum", "model", _DELETE, 2, "model"),
    _case("oracle", "time_grid", _DELETE, 2, "time_grid"),
    _case("jc", "jc", _DELETE, 2, "jc"),
    _case("scan", "scan", _DELETE, 2, "scan"),
    # valid structure, invalid physics or size: exit 3 and 4
    _case("tprob", "model.alpha_sq", -4.0, 3, "alpha_sq"),
    _case("tprob", "model.beta", math.nan, 3, "beta"),
    _case("tprob", "model.beta", math.inf, 3, "beta"),
    _case("oracle", "ed.n_max", -1, 3, "n_max"),
    _case("jc", "jc.g", 0.0, 3, "g"),
    _case("scan", "scan.refine.step_scales.beta", 0.0, 3, "step_scales"),
    _case("scan", "scan.refine.ftol", -1.0, 3, "ftol"),
    # past oracle.DIM_CEILING (dim 8196) and scan.GRID_CEILING, before any allocation
    _case("oracle", "ed.n_max", 2048, 4, "dimension 8196 exceeds the ceiling 8192"),
    _case("scan", "scan.ranges.beta.steps", 20001, 4, "grid has 20001 points"),
]


@pytest.mark.parametrize("command, cfg, code, path", _REJECTIONS)
def test_config_rejections(tmp_path, monkeypatch, capsys, command, cfg, code, path):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", cfg_path, "--out", "out.csv"]) == code
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", sorted(_BASES))
def test_rejection_table_bases_are_valid(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "cfg.json", _BASES[command])
    assert main([command, "--config", cfg_path, "--out", "out.csv"]) == 0


def test_refine_bounds_default_to_the_sweep_range_per_axis():
    cfg = {
        "scan": {
            "ranges": {
                "beta": {"min": 0.3, "max": 0.5, "steps": 3},
                "alpha_sq": {"min": 8.0, "max": 10.0, "steps": 3},
            },
            "fixed": {"ratio_r": 0.12, "kappa0": 0.02},
            "horizon": 5.0,
            "refine": {
                "step_scales": {"beta": 0.01, "alpha_sq": 0.5},
                "bounds": {"beta": [0.35, 0.45]},
            },
        }
    }
    options = section(validate_config(cfg), "scan")["refine"]
    assert options["bounds"] == {"beta": (0.35, 0.45), "alpha_sq": (8.0, 10.0)}
    assert (options["max_iters"], options["ftol"]) == (200, 1e-8)


def test_scan_reads_each_config_value_at_most_twice(tmp_path, monkeypatch):
    # once when the config is loaded, once when the command reads it
    calls = collections.Counter()
    value = config._value

    def counted(raw, field, path, siblings):
        calls[path] += 1
        return value(raw, field, path, siblings)

    monkeypatch.setattr(config, "_value", counted)
    beta_scan = Path(__file__).resolve().parents[1] / "configs" / "beta_scan.json"
    assert main(["scan", "--config", str(beta_scan), "--out", str(tmp_path / "s.csv")]) == 0
    assert calls["scan.refine.step_scales.beta"] == 2
    assert {path for path, n in calls.items() if n > 2} == set()


def _readme_schema_block() -> dict:
    readme = README.read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    return json.loads(re.sub(r"//[^\n]*", "", block))


def test_readme_schema_block_is_valid_and_names_every_key():
    block = validate_config(_readme_schema_block())

    def walk(spec, value, path):
        if isinstance(spec, dict):
            for key, sub in spec.items():
                assert key in value, f"README schema block omits {path}{key}"
                walk(sub, value[key], f"{path}{key}.")
        elif isinstance(spec, MapOf):
            assert value, f"README schema block shows no entry of {path[:-1]}"
            for name, item in value.items():
                walk(spec.value, item, f"{path}{name}.")

    walk(SCHEMA, block, "")


def _readme_row(first_cell: str) -> list[str]:
    readme = README.read_text()
    (row,) = [line for line in readme.splitlines() if line.strip().startswith(f"| {first_cell}")]
    return [cell.strip().strip("`").replace(",", "") for cell in row.strip().strip("|").split("|")]


# One row per guard of the README's *Capacity limits* table: the limit the
# code holds, and a config one past it that must exit with the table's code.
_CAPACITY_LIMITS = [
    pytest.param(
        "Laguerre degree",
        specialfn.MAX_LAGUERRE_DEGREE,
        "spectrum",
        _edited("spectrum", "spectrum.n_max", specialfn.MAX_LAGUERRE_DEGREE + 1),
        "degree must be an integer in [0, 1000000]",
        id="laguerre-degree",
    ),
    pytest.param(
        "Poisson table entries",
        2 * 10**6,
        "tprob",
        _edited("tprob", "model.alpha_sq", 1e7),
        "Poisson table would exceed 2e6 entries",
        id="poisson-table",
    ),
    pytest.param(
        "time points",
        SCHEMA["time_grid"]["points"].le,
        "tprob",
        _edited("tprob", "time_grid.points", 10**7 + 1),
        "time_grid.points: must be <= 10000000",
        id="time-points",
    ),
    pytest.param(
        "oracle dimension",
        oracle.DIM_CEILING,
        "oracle",
        _edited("oracle", "ed.n_max", 2048),
        "dimension 8196 exceeds the ceiling 8192",
        id="oracle-dimension",
    ),
    pytest.param(
        "scan grid points",
        scan.GRID_CEILING,
        "scan",
        _edited("scan", "scan.ranges.beta.steps", 20001),
        "grid has 20001 points, exceeding ceiling 20000",
        id="scan-grid",
    ),
]


@pytest.mark.parametrize("guard, limit, command, cfg, message", _CAPACITY_LIMITS)
def test_readme_capacity_limits_match_the_guards(
    tmp_path, monkeypatch, capsys, guard, limit, command, cfg, message
):
    _, shown, exit_code = _readme_row(guard)
    base, _, power = shown.partition("**")
    assert (int(base) ** int(power) if power else int(float(base))) == limit
    assert SCHEMA["scan"]["time_points"].le == SCHEMA["time_grid"]["points"].le
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    tracemalloc.start()
    try:
        code = main([command, "--config", cfg_path, "--out", "out.csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == int(exit_code)
    assert message in capsys.readouterr().err
    # rejected before the work it bounds allocates: one past any of these
    # limits would take at least 8 MB
    assert peak < 2**20


def test_readme_preset_table_matches_a_fresh_run():
    # fig3 p2 and fig4 p1 evolve a Fock window that starts above 0 (at n = 2 and 80)
    ratios, min_c = {3: [], 4: []}, []
    for fig, panel in ((3, 1), (3, 2), (3, 3), (4, 1)):
        cfg = load_preset(fig, panel)
        params, times = params_from_config(cfg), times_from_config(cfg)
        t_vals = transition_prob(params, times, section(cfg, "tail_tol"))
        result = evolve(params, section(cfg, "ed")["n_max"], times, compute_truncation_error=False)
        t_peak, pops = t_vals.max(), result.populations
        closed, *oracle_cells = _readme_row(f"fig{fig} p{panel}")[5:]
        peak_2t, bound = re.fullmatch(r"max 2T = ([\d.]+) 1 - 4T >= ([\d.]+)", closed).groups()
        assert f"{2.0 * t_peak:.4f}" == peak_2t
        # the bound is the largest 3-digit number at or below the minimum
        assert float(bound) <= (1.0 - 4.0 * t_vals).min() < float(bound) + 0.001
        shown = [pops["P10"].min(), pops["P11"].max(), result.concurrence.min()]
        assert [f"{value:.4f}" for value in shown] == oracle_cells
        min_c.append(shown[2])
        ratios[fig].append(((1.0 - shown[0]) / (4.0 * t_peak), shown[1] / (2.0 * t_peak)))
    readme = readme_prose()
    prose = re.search(
        r"`1 - min P10` is ([\d.]+)-([\d.]+)x the closed form's `4T`, and its max `P11` is "
        r"([\d.]+)-([\d.]+)x max `2T`; at fig4 both ratios are (\d+)-(\d+)x",
        readme,
    )
    for values, shown_range in zip(zip(*ratios[3]), (prose.group(1, 2), prose.group(3, 4))):
        assert (f"{min(values):.1f}", f"{max(values):.1f}") == shown_range
    low, high = map(int, prose.group(5, 6))
    assert all(low <= round(ratio) <= high for ratio in ratios[4][0])
    # the no-sudden-death bound is the largest 3-digit number at or below every min C
    floor = float(re.search(r"min `C` >= ([\d.]+) at every fig3/fig4 preset", readme).group(1))
    assert floor <= min(min_c) < floor + 0.001


def test_every_preset_cutoff_meets_the_coherent_state_requirement(tmp_path):
    for fig, count in ((1, 4), (2, 3), (3, 3), (4, 1)):
        for panel in range(1, count + 1):
            cfg = load_preset(fig, panel)
            required = oracle.required_n_max(params_from_config(cfg).alpha_sq)
            assert section(cfg, "ed")["n_max"] >= required, cfg["label"]
    assert main(["oracle", "--fig", "2", "--panel", "3", "--out", str(tmp_path / "o.csv")]) == 0


def test_readme_package_layout_names_every_module():
    block = re.search(r"## Package layout\n\n```\nsrc/rabi_ent/\n(.*?)```", README.read_text(), re.S)
    named = re.findall(r"^  (\S+\.py) ", block.group(1), re.M)
    assert sorted(named) == sorted(path.name for path in Path(oracle.__file__).parent.glob("*.py"))


def shown_as(value: float, shown: str) -> bool:
    """Whether ``value`` rounds to ``shown`` at the number of decimals ``shown`` has."""
    return f"{value:.{len(shown.partition('.')[2])}f}" == shown


def test_readme_kappa_convention_figures_match_a_fresh_run():
    # the README's *Kappa conventions*: fig4's closed-form suppression below the fig3
    # objective under each reading, and what the oracle gives under omega_scaled
    prose = readme_prose()
    omega, omega0 = re.search(
        r"`omega_scaled` reading suppresses `T\(t\)` about ([\d.]*\d)x below the fig3 "
        r"objective, while the default reading gives about ([\d.]*\d)x",
        prose,
    ).groups()
    p11, min_c, peak_2t = re.search(
        r"under `omega_scaled` it gives max `P11` = ([\d.]*\d) and min `C` = ([\d.]*\d), "
        r"where the closed form predicts max `2T` = ([\d.]*\d)",
        prose,
    ).groups()
    fig3, fig4 = load_preset(3, 1), load_preset(4, 1)
    fig3_max_t = transition_prob(params_from_config(fig3), times_from_config(fig3)).max()
    times = times_from_config(fig4)
    base = params_from_config(fig4)
    scaled = dataclasses.replace(base, kappa_convention=KappaConvention.OMEGA_SCALED)
    assert base.kappa_convention is KappaConvention.OMEGA0_SCALED
    t_scaled = transition_prob(scaled, times).max()
    assert shown_as(fig3_max_t / t_scaled, omega)
    assert shown_as(fig3_max_t / transition_prob(base, times).max(), omega0)
    assert shown_as(2.0 * t_scaled, peak_2t)
    result = evolve(scaled, section(fig4, "ed")["n_max"], times, compute_truncation_error=False)
    assert shown_as(result.populations["P11"].max(), p11)
    assert shown_as(result.concurrence.min(), min_c)


def test_readme_oracle_memory_follows_the_rerun_parity_block():
    # The README's *Oracle memory* puts the peak at one eigh of the truncation re-run's
    # larger parity block, 5 d^2 doubles.  d is taken here from the block the re-run
    # builds; this bounds the formula's inputs, not the resident memory LAPACK takes.
    prose = readme_prose()
    fig4_mb, fig4_d = re.search(r"so ([\d.]*\d) MB at `--fig 4` \(`d = (\d+)`\)", prose).groups()
    ceiling_mb, ceiling_d = re.search(r"it is about ([\d.]*\d) MB \(`d = (\d+)`\)", prose).groups()
    assert "`d ~ 1.5 (n_max - n_lo + 41)` (`1.5 (n_max + 21)` while `n_lo <= 20`)" in prose

    def rerun_block_dim(params, n_max):
        bigger = n_max + oracle.TRUNCATION_MARGIN
        n_lo = oracle._window_start(params, bigger, None)
        d = max(oracle._parity_block(params, n_lo, bigger, parity)[0].shape[0] for parity in (0, 1))
        # the README's formula, on the run's window start n_lo
        estimate = 1.5 * (n_max + 41 - max(oracle._window_start(params, n_max, None), 20))
        assert abs(d - estimate) <= 1.0
        return d

    fig4 = load_preset(4, 1)
    params = params_from_config(fig4)
    d = rerun_block_dim(params, section(fig4, "ed")["n_max"])
    assert d == int(fig4_d) and shown_as(5 * d * d * 8 / 1e6, fig4_mb)
    # the largest admitted n_max, with alpha_sq as high as keeps the re-run's window at 0
    n_max = oracle.DIM_CEILING // oracle.SPIN_DIM - 1
    edge = dataclasses.replace(params, alpha_sq=(n_max + oracle.TRUNCATION_MARGIN) / 2.0)
    assert oracle.required_n_max(edge.alpha_sq) <= n_max
    d = rerun_block_dim(edge, n_max)
    assert d == int(ceiling_d) and shown_as(5 * d * d * 8 / 1e6, ceiling_mb)
