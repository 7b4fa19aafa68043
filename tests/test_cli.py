import collections
import dataclasses
import decimal
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rabi_ent import (
    KappaConvention,
    config,
    dynamics,
    evolve,
    oracle,
    scan,
    specialfn,
    spectrum,
    transition_prob,
)
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
from rabi_ent.errors import ConfigError
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
    # the README's *Command line* gives the agreement across thread counts
    shown = re.search(r"every `oracle` column agrees within ([\d.e-]+);", readme_prose())
    config = Path(__file__).resolve().parents[1] / "configs" / "fig4_desk_oracle.json"
    outputs = run_at_one_and_two_blas_threads(tmp_path, ["oracle", "--config", str(config)])
    one, two = (read_csv(out) for out in outputs)
    assert one.dtype.names == ("t", "P11", "P1m1", "P10", "P00", "C")
    for name in one.dtype.names:
        assert np.abs(one[name] - two[name]).max() <= float(shown.group(1)), name


def test_readme_sidecar_example_leaves_out_the_defaults_it_names(tmp_path):
    # the README's *Command line*: a sidecar holds the config as given, and its example
    # config's sidecar lacks each key named, at whatever depth
    config, names = re.search(
        r"the sidecar of `(configs/[\w.]+)`, for example, has no (.*?)\. ", readme_prose()
    ).groups()
    keys = re.findall(r"`([\w.]+)`", names)
    assert keys, names
    config = Path(__file__).resolve().parents[1] / config
    out = tmp_path / "o.csv"
    assert main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    resolved = json.loads(Path(f"{out}.json").read_text())["resolved"]
    assert resolved == json.loads(config.read_text())

    def paths(node, prefix):
        for key, value in node.items():
            yield prefix + key
            if isinstance(value, dict):
                yield from paths(value, f"{prefix}{key}.")

    held = list(paths(resolved, ""))
    for key in keys:
        assert not [path for path in held if path == key or path.endswith(f".{key}")], key


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


def real_outputs():
    """(header, columns) of every command on every preset and every config that takes it;
    the oracle without its truncation re-run, which changes no column."""
    from rabi_ent import cli

    root = Path(__file__).resolve().parents[1]
    paths = sorted([*root.glob("configs/*.json"), *root.glob("perfbench/configs/*.json")])
    presets = [(fig, panel) for fig, n in cli._PRESET_PANELS.items() for panel in range(1, n + 1)]
    for cfg in [load_preset(*preset) for preset in presets] + [load_config(path) for path in paths]:
        cfg["ed"] = {**cfg.get("ed", {}), "check_truncation": False}
        for _, compute in cli._COMMANDS.values():
            try:
                header, columns, _, _ = compute(cfg)
            except ConfigError:  # a section the command needs is missing
                continue
            yield header, columns


def test_csv_writer_byte_contract():
    # the vectorized writer against per-value formatting, on values chosen to reach every
    # branch: exponents it steps, ties and the values it leaves to the % operator
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
    exponents = rng.integers(1023 - 930, 1023 + 54, bits.size, dtype=np.uint64)  # 1e-280 .. 1e16
    inside = rng.random(bits.size) < 0.9
    bits[inside] = bits[inside] & ~np.uint64(0x7FF << 52) | exponents[inside] << np.uint64(52)
    tens = np.array([float(f"1e{k}") for k in range(-300, 20)]).view(np.int64)
    near_tens = (tens[:, None] + np.arange(-30, 31)).view(np.float64).ravel()
    dyadic = np.ldexp(np.arange(1.0, 2000.0, 2.0)[:, None], -np.arange(1, 70)).ravel()
    ties = [x for x in dyadic[:5000].tolist() if len(decimal.Decimal(x).as_tuple().digits) == 18]
    assert 2.0**-25 in ties and len(ties) > 50
    decimals = rng.integers(-(10**6), 10**6, 10**5) / 10.0 ** rng.integers(0, 8, 10**5)
    integers = np.concatenate([np.arange(-20000.0, 20000.0), 2.0**53 + np.arange(-50.0, 50.0)])
    subnormals = rng.integers(0, 2**52, 1000, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e16, 1e-280, 9999999999999998.0])
    parts = (near_tens, dyadic, decimals, integers, subnormals, special)
    values = np.concatenate([bits.view(np.float64), *parts, *(-part for part in parts)])
    values = np.concatenate([values, np.zeros(-values.size % 4)])
    columns = tuple(values.reshape(-1, 4).T.copy())
    header = ("a", "b", "c", "d")
    text = "".join(_csv_pieces(header, columns))
    assert text == per_value_csv(header, [column.tolist() for column in columns])
    for header, columns in real_outputs():
        assert "".join(_csv_pieces(header, columns)) == per_value_csv(header, columns), header


def test_readme_per_value_classes_match_the_writer():
    # the README's *Command line* lists what the writer leaves to the % operator
    from rabi_ent import _csvtext

    prose = readme_prose()
    assert "`nan` and `±inf` take fixed fields of their own" in prose
    guard, tie, top, bottom, integer = re.search(
        r"a value within (\S+) of a rounding tie \(such as `(\S+)`\), \|x\| >= (\S+) or "
        r"0 < \|x\| < (\S+), and an integer beyond (\S+)\.",
        prose,
    ).groups()
    assert _csvtext._TIE_GUARD == float(guard)
    tie, integer = (2 ** int(text.removeprefix("2**")) for text in (tie, integer))
    edges = [tie, float(top), np.nextafter(float(top), 0.0), float(bottom)]
    edges += [np.nextafter(float(bottom), 0.0), np.nan, np.inf, -np.inf, 0.1, -0.0]
    values = np.array(edges)
    per_value = _csvtext._fields(values, 1, np.empty((values.size, 6), np.uint64))
    assert per_value.tolist() == [0, 1, 4]
    beyond = integer + 1  # a float would round it to 2**53
    text = "".join(_csv_pieces(("N",), (np.array([beyond, -beyond]),)))
    assert text == f"N\n{beyond}\n{-beyond}\n"


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
    n_lo, log_p = specialfn.poisson_logweights(9.0, 1e-8)
    n_cut = n_lo + log_p.size - 1
    assert n_lo == 0 and n_cut < specialfn.poisson_logweights(9.0)[1].size - 1
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


@pytest.mark.parametrize("key, value", [("kappa0", 1e200), ("kappa0", 1e308), ("kappa0", -1e308), ("beta", 1e200)])
def test_oracle_at_extreme_couplings_exits_without_traceback(key, value, tmp_path, capsys):
    # ||H|| past ~1e154 overflowed the squares of the eigenpair residual norm, and the
    # oracle exited 1 with a RuntimeError; 1e200 now runs, and at +-1e308 the phases E*t
    # overflow, which is reported before any phase is drawn, with no numpy warning
    model = {"ratio_r": 0.2, "beta": 0.3, "kappa0": 0.1, "alpha_sq": 4.0, key: value}
    cfg = write_config(
        tmp_path / "cfg.json",
        {"model": model, "time_grid": {"t_max": 10.0, "points": 11}, "ed": {"n_max": 40}},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow and invalid value
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == (3 if abs(value) == 1e308 else 0)
    assert "Traceback" not in err
    assert ("numeric domain error: phases E*t overflow: max|E| = 2.000e+307" in err) == (code == 3)


def test_out_path_respected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "nested" / "series.csv"
    assert main(["tprob", "--fig", "1", "--panel", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "nested" / "series.csv.json").exists()


def test_failed_replace_leaves_no_file_behind(tmp_path, monkeypatch, capsys):
    def failing(src, dst):
        raise error

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "nested" / "series.csv"
    argv = ["tprob", "--fig", "1", "--panel", "2", "--out", str(out)]
    # an OSError is an unwritable output (exit 2); any other exception propagates
    error = PermissionError("replace refused")
    assert main(argv) == 2
    assert f"config error: cannot write output {out}: replace refused" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []
    error = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize(
    "case", ["out-is-a-directory", "out-under-a-file", "out-two-under-a-file", "sidecar-is-a-directory"]
)
def test_unwritable_output_is_config_error(case, tmp_path, capsys):
    out = tmp_path / "series.csv"
    if case == "out-is-a-directory":
        out.mkdir()
        expected = f"cannot write output {out}: "
    elif case == "out-under-a-file":
        # the directory that cannot be created is named, not the output under it
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "series.csv"
        expected = f"cannot create directory {out.parent}: File exists\n"
    elif case == "out-two-under-a-file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub" / "series.csv"
        expected = f"cannot create directory {out.parent}: Not a directory\n"
    else:
        (tmp_path / "series.csv.json").mkdir()
        expected = f"cannot write output {tmp_path / 'series.csv.json'}: "
    assert main(["tprob", "--fig", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {expected}" in err
    # the message gives the OS reason alone, not the temp file that was removed
    assert ".tmp" not in err
    assert not [path for path in tmp_path.rglob("*") if path.name.endswith(".tmp")]
    # an exit 2 leaves neither this run's CSV nor its sidecar
    assert not out.is_file() and not out.with_name("series.csv.json").is_file()


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
    _case("scan", "scan.refine.max_iters", -3, 3, "max_iters must be an integer >= 0"),
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


def test_readme_time_point_cap_matches_the_schema():
    # the README's *Input checks*: the cap on both time-point keys and its memory
    first, second, base, power, megabytes = re.search(
        r"The schema caps `([\w.]+)` and `([\w.]+)` at `(\d+)\*\*(\d+)` "
        r"\((\d+) MB per float column\)",
        readme_prose(),
    ).groups()
    cap = int(base) ** int(power)
    for name in (first, second):
        table, key = name.split(".")
        assert SCHEMA[table][key].le == cap, name
    assert cap * np.dtype(float).itemsize == int(megabytes) * 10**6


def test_readme_oracle_pruning_figures_match_the_bound():
    # the README's *Oracle pruning*: the bound, each row's share of it, and the sum
    prose = readme_prose()
    bound = re.search(r"`oracle.PRUNE_BOUND = ([\d.e-]+)`", prose).group(1)
    total = re.search(r"no amplitude moves by more than `([\d.e-]+)`", prose).group(1)
    assert "`b = PRUNE_BOUND / sqrt(2)`" in prose and "tiles of 32" in prose
    assert float(bound) == float(total) == oracle.PRUNE_BOUND
    assert oracle._TILE == 32


def test_readme_oracle_tile_share_matches_fig4(monkeypatch):
    # the README's *Oracle pruning*: the tiles' multiply-adds at --fig 4 against the
    # product over every eigencomponent of the same rows, in the run and the re-run
    run_share, rerun_share = re.search(
        r"At `--fig 4` the tiles do (\d+)% of the multiply-adds .*? \((\d+)% in the truncation "
        r"re-run\)",
        readme_prose(),
    ).groups()
    tiles, span = [], oracle._component_span

    def recorded(magnitudes, bound):
        tiles.append((magnitudes.shape, span(magnitudes, bound)))
        return tiles[-1][1]

    monkeypatch.setattr(oracle, "_component_span", recorded)
    fig4 = load_preset(4, 1)
    params = params_from_config(fig4)
    n_max = section(fig4, "ed")["n_max"]
    for n_max, share in ((n_max, run_share), (n_max + oracle.TRUNCATION_MARGIN, rerun_share)):
        tiles.clear()
        psi0 = oracle._initial_vector(params, n_max, section(fig4, "ed")["initial_spin"], None)
        n_lo = oracle._window_start(params, n_max, None)
        oracle._evolution(params, n_lo, n_max, np.zeros(1), psi0)  # draws every tile's span
        tiled = sum(rows * (s.stop - s.start) for (rows, _), s in tiles)
        dense = sum(rows * components for (rows, components), _ in tiles)
        assert round(100 * tiled / dense) == int(share), n_max


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


def test_readme_desk_kappa_inversion_matches_a_fresh_run():
    # the README's *Kappa conventions*: at desk scale under omega_scaled, the closed form's
    # max 2T falls from kappa0 = -0.5 to -0.7 while the oracle's max P11 rises
    prose = readme_prose()
    found = re.findall(
        r"`kappa0 = (-[\d.]*\d)` gives max `2T` = ([\d.]*\d) and max `P11` = ([\d.]*\d)", prose
    )
    assert [kappa0 for kappa0, *_ in found] == ["-0.5", "-0.7"]
    assert "with a `truncation_error` below 1e-9" in prose
    desk = load_config(README.parent / "configs" / "fig4_desk_oracle.json")
    times = times_from_config(desk)
    peaks = []
    for kappa0, peak_2t, p11 in found:
        params = dataclasses.replace(
            params_from_config(desk),
            kappa0=float(kappa0),
            kappa_convention=KappaConvention.OMEGA_SCALED,
        )
        result = evolve(params, oracle.required_n_max(params.alpha_sq), times)
        peaks.append((2.0 * transition_prob(params, times).max(), result.populations["P11"].max()))
        assert shown_as(peaks[-1][0], peak_2t) and shown_as(peaks[-1][1], p11)
        assert result.truncation_error <= 1e-9
    (t_half, p11_half), (t_deep, p11_deep) = peaks
    # measured: 2T falls 0.0256 -> 0.0165 while P11 rises 0.0765 -> 0.2291
    assert t_deep < 0.8 * t_half and p11_deep > 2.0 * p11_half


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


def test_readme_phase_kernels_count_their_cos_and_sin_evaluations(monkeypatch):
    # the README's *Phases* and *Oracle phases* give cos-plus-sin evaluations per
    # frequency; count the elements np.cos and np.sin receive
    prose = readme_prose()
    t_count = re.search(
        r"`2 \(w \+ ⌈n/w⌉\)` cos-plus-sin evaluations per frequency \(([\d,]+) at 1,000 times\)",
        prose,
    ).group(1)
    oracle_counts = re.search(
        r"`2 \(128 \+ ⌈n/128⌉\)` cos-plus-sin evaluations per energy "
        r"\(([\d,]+) at 1,000 times, ([\d,]+) at 2,000\)",
        prose,
    ).groups()
    received = []

    def counting(ufunc):
        def call(x, *args, **kwargs):
            received.append(np.size(x))
            return ufunc(x, *args, **kwargs)

        return call

    monkeypatch.setattr(np, "cos", counting(np.cos))
    monkeypatch.setattr(np, "sin", counting(np.sin))
    freqs = np.linspace(-3.0, 3.0, 7)

    def per_frequency(kernel, points):
        received.clear()
        kernel(np.linspace(0.0, 50.0, points))
        return sum(received) / freqs.size

    def t_kernel(times):
        dynamics._cosine_average(np.ones(freqs.size), freqs, times, 1.0)

    def oracle_kernel(times):
        list(oracle._phase_blocks(freqs, times))

    assert per_frequency(t_kernel, 1000) == int(t_count.replace(",", ""))
    for points, shown in zip((1000, 2000), oracle_counts):
        assert per_frequency(oracle_kernel, points) == int(shown.replace(",", ""))


def test_readme_oracle_window_figures_match_a_fresh_computation():
    # the README's *Oracle Fock window*: n_lo and the parity block sizes at --fig 4,
    # and the coherent mass below n_lo against that above n_max at alpha_sq = 250,
    # reckoned as in test_window_leaves_out_less_coherent_mass_than_the_cutoff
    prose = readme_prose()
    shown = re.search(
        r"At `--fig 4` \(`n_lo = (\d+)`\) the parity blocks have (\d+) and (\d+) states, "
        r"against (\d+) and (\d+) over the whole range",
        prose,
    ).groups()
    fig4 = load_preset(4, 1)
    params, n_max = params_from_config(fig4), section(fig4, "ed")["n_max"]
    n_lo = oracle._window_start(params, n_max, None)
    sizes = [oracle._parity_block(params, lo, n_max, p)[0].shape[0] for lo in (n_lo, 0) for p in (0, 1)]
    assert [n_lo, *sizes] == [int(value) for value in shown]
    alpha_sq, below_shown, above_shown = re.search(
        r"at `alpha_sq = ([\d.]+)`, `1e(-[\d.]+)` against `1e(-[\d.]+)`", prose
    ).groups()
    alpha_sq = float(alpha_sq)
    n_max = oracle.required_n_max(alpha_sq)
    n_lo = oracle._window_start(dataclasses.replace(params, alpha_sq=alpha_sq), n_max, None)
    with mpmath.workdps(40):
        below = mpmath.gammainc(n_lo, alpha_sq, mpmath.inf, regularized=True)
        above = mpmath.gammainc(n_max + 1, 0, alpha_sq, regularized=True)
        assert shown_as(float(mpmath.log10(below)), below_shown)
        assert shown_as(float(mpmath.log10(above)), above_shown)


def test_readme_poisson_window_figures_match_the_presets():
    # the README's *Poisson window*: the lower-mass threshold, the bound it puts on T
    # (each term is p(N) w_N (1 - cos) <= p(N) / 4), and the terms dropped per preset
    prose = readme_prose()
    low, moved = re.search(
        r"cumulative mass exceeds `([\d.e-]+)`\. The terms below `n_lo` hold at most `\1` of "
        r"the mass, so leaving them out moves `T` by at most `([\d.e-]+)`",
        prose,
    ).groups()
    assert float(low) == specialfn._LOW_MASS and float(moved) == specialfn._LOW_MASS / 4
    drops = re.search(
        r"The window drops (\d+) of (\d+) terms at `--fig 3 --panel 1`, (\d+) of (\d+) at "
        r"`--fig 3 --panel 2` and (\d+) of (\d+) at `--fig 4`, and none at `--fig 1` or `--fig 2`",
        prose,
    ).groups()

    def window(fig, panel):
        cfg = load_preset(fig, panel)
        n_lo, log_p = specialfn.poisson_logweights(
            params_from_config(cfg).alpha_sq, section(cfg, "tail_tol")
        )
        return n_lo, n_lo + log_p.size

    shown = [window(3, 1), window(3, 2), window(4, 1)]
    assert [int(value) for value in drops] == [n for pair in shown for n in pair]
    assert all(window(fig, panel)[0] == 0 for fig, panel in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)])


# SCHEMA defaults that repeat a keyword default: (schema path, function, keyword)
SCHEMA_KEYWORD_DEFAULTS = [
    (("spectrum", "n_min"), spectrum.aa_columns, "n_min"),
    (("ed", "initial_spin"), oracle.evolve, "initial_spin"),
    (("ed", "initial_fock"), oracle.evolve, "initial_fock"),
    (("ed", "check_truncation"), oracle.evolve, "compute_truncation_error"),
    (("jc", "corrected"), dynamics.jc_inversion, "corrected"),
    (("scan", "refine", "max_iters"), scan.refine, "max_iters"),
    (("scan", "refine", "ftol"), scan.refine, "ftol"),
]


@pytest.mark.parametrize(
    "path, function, keyword",
    SCHEMA_KEYWORD_DEFAULTS,
    ids=[".".join(path) for path, _, _ in SCHEMA_KEYWORD_DEFAULTS],
)
def test_schema_defaults_equal_the_keyword_defaults_they_repeat(path, function, keyword):
    field = SCHEMA
    for key in path:
        field = field[key]
    default = inspect.signature(function).parameters[keyword].default
    assert (type(field.default), field.default) == (type(default), default)
