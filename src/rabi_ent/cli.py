"""Command-line driver.

Subcommands compute the closed-form spectrum, the averaged transition
probability, the dense-oracle populations, the JC inversion comparator, or
a parameter scan, and write a CSV plus a JSON sidecar holding the config
as given: validated, defaults not filled in.  With the same package version
it reproduces the run, byte for byte at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

from . import __version__
from ._csvtext import rows_text
from .config import (
    _scanspec,
    load_config,
    params_from_config,
    section,
    times_from_config,
    validate_config,
)
from .dynamics import jc_inversion, transition_prob
from .errors import CapacityError, ConfigError, DomainError
from .oracle import evolve, required_n_max
from .scan import StartOutsideBounds, grid_scan, refine
from .spectrum import aa_columns
from .specialfn import poisson_logweights

_PRESET_PANELS = {1: 4, 2: 3, 3: 3, 4: 1}


def _write_outputs(files) -> None:
    """Write each (path, pieces) of ``files`` to a temp file beside it, then move all into
    place; on any failure, remove the temp files and the paths already moved into.
    """
    umask = os.umask(0)  # mkstemp creates 0600; give the ordinary umask-derived mode
    os.umask(umask)
    temps, moved = [], []
    try:
        for path, pieces in files:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create directory {exc.filename}: {exc.strerror}") from exc
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            temps.append(tmp_name)
            with os.fdopen(fd, "w") as handle:
                handle.writelines(pieces)
            os.chmod(tmp_name, 0o666 & ~umask)
        for tmp_name, (path, _) in zip(temps, files):
            os.replace(tmp_name, path)
            moved.append(path)
    except BaseException as exc:
        for name in [*temps, *moved]:
            with contextlib.suppress(OSError):
                os.unlink(name)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc
        raise


def preset_name(fig: int, panel: int) -> str:
    if fig not in _PRESET_PANELS:
        raise ConfigError(f"unknown figure preset {fig}; available: {sorted(_PRESET_PANELS)}")
    if not 1 <= panel <= _PRESET_PANELS[fig]:
        raise ConfigError(
            f"figure {fig} has panels 1..{_PRESET_PANELS[fig]}, got panel {panel}"
        )
    return f"fig{fig}_p{panel}"


def load_preset(fig: int, panel: int = 1) -> dict:
    """Load one of the bundled figure presets as a validated config."""
    name = preset_name(fig, panel)
    source = resources.files("rabi_ent.presets").joinpath(f"{name}.json")
    raw = json.loads(source.read_text())
    return validate_config(raw)


def _resolve_config(args) -> tuple[dict, str]:
    """The validated config and the name of its source, the default label."""
    if args.config is not None and args.fig is not None:
        raise ConfigError("--config and --fig are mutually exclusive")
    if args.config is not None:
        return load_config(args.config), Path(args.config).stem
    if args.fig is not None:
        return load_preset(args.fig, args.panel), preset_name(args.fig, args.panel)
    raise ConfigError("provide either --config FILE or --fig N [--panel K]")


def _csv_pieces(header, columns):
    """The CSV text in pieces of 4096 rows: integer columns by %d, float columns by %.17g."""
    yield ",".join(header) + "\n"
    for start in range(0, columns[0].size, 4096):
        yield rows_text([col[start : start + 4096] for col in columns])


# Each compute function maps a validated config to the CSV header, the CSV
# columns (a tuple of 1-D arrays), the summary values added to the sidecar,
# and the tail of the line printed after "wrote <path>".


def _spectrum(cfg: dict):
    params = params_from_config(cfg)
    rows_cfg = section(cfg, "spectrum")
    n_min, n_max = rows_cfg["n_min"], rows_cfg["n_max"]
    if n_max is None:
        n_lo, log_p = poisson_logweights(params.alpha_sq, section(cfg, "tail_tol"))
        n_max = n_lo + log_p.size - 1
    header = ("N", "omega1N", "omega2N", "t0tilde", "e0", "eplus", "eminus", "weight", "rabi_freq")
    columns = tuple(map(aa_columns(params, n_max, n_min).get, header))
    return header, columns, {"n_min": n_min, "n_max": n_max}, f"({n_max - n_min + 1} rows)"


def _tprob(cfg: dict):
    params = params_from_config(cfg)
    times = times_from_config(cfg)
    t_vals = transition_prob(params, times, section(cfg, "tail_tol"))
    p_vals = 1.0 - 2.0 * t_vals
    summary = {"max_T": float(t_vals.max()), "min_P_stay": float(p_vals.min())}
    note = f"({times.size} rows); max T = {t_vals.max():.6g}"
    return ("t", "T", "P_stay"), (times, t_vals, p_vals), summary, note


def _oracle(cfg: dict):
    params = params_from_config(cfg)
    times = times_from_config(cfg)
    ed = section(cfg, "ed")
    n_max = required_n_max(params.alpha_sq) if ed["n_max"] is None else ed["n_max"]
    result = evolve(
        params,
        n_max,
        times,
        initial_spin=ed["initial_spin"],
        initial_fock=ed["initial_fock"],
        compute_truncation_error=ed["check_truncation"],
    )
    pops = result.populations
    columns = (times, pops["P11"], pops["P1m1"], pops["P10"], pops["P00"], result.concurrence)
    summary = {
        "n_max": n_max,
        "truncation_error": result.truncation_error,
    }
    note = f"({times.size} rows); truncation_error = {result.truncation_error}"
    return ("t", "P11", "P1m1", "P10", "P00", "C"), columns, summary, note


def _jc(cfg: dict):
    jc = section(cfg, "jc", required=True)
    times = times_from_config(cfg)
    w_vals = jc_inversion(times=times, tail_tol=section(cfg, "tail_tol"), **jc)
    return ("t", "W"), (times, w_vals), {}, f"({times.size} rows)"


def _scan(cfg: dict):
    scan = section(cfg, "scan", required=True)
    spec = _scanspec(scan, section(cfg, "tail_tol"))
    result = grid_scan(spec)
    summary = {
        "best_point": result.best_point,
        "best_objective": result.best_objective,
        "grid_size": result.metadata.get("grid_size"),
    }
    best = result.best_objective
    options = scan.get("refine")
    if options is not None:
        try:
            refined = refine(result.best_point, spec=spec, **options)
        except StartOutsideBounds as exc:
            raise ConfigError(
                f"scan.refine.bounds.{exc.axis}: must contain the grid's best point; {exc}"
            ) from exc
        summary["refined_point"] = refined.best_point
        summary["refined_objective"] = refined.best_objective
        summary["refine_trace"] = [
            {"point": point, "objective": value} for point, value in refined.trace
        ]
        summary["refine_metadata"] = refined.metadata
        best = refined.best_objective
    note = f"({result.objectives.size} grid rows); best objective = {best:.6g}"
    return (*result.axis_names, "objective"), (*result.points.T, result.objectives), summary, note


# command -> (help text, compute function)
_COMMANDS = {
    "spectrum": ("per-photon-number closed-form spectrum rows as CSV", _spectrum),
    "tprob": ("averaged transition probability T(t) and survival 1-2T(t)", _tprob),
    "oracle": ("dense-diagonalization populations and concurrence", _oracle),
    "jc": ("Jaynes-Cummings inversion comparator W(t)", _jc),
    "scan": ("grid scan (and optional refinement) of max_t T(t)", _scan),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi-ent",
        description="Two qubits ultrastrongly coupled to an oscillator: "
        "spectra, transition probabilities, dense-oracle checks, and scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="JSON run configuration")
        cmd.add_argument("--fig", type=int, default=None, help="bundled figure preset number")
        cmd.add_argument("--panel", type=int, default=1, help="panel within the figure preset")
        cmd.add_argument("--out", type=str, default=None, help="output CSV path")
    return parser


_parser = functools.cache(build_parser)  # main's parser, built on first use


def main(argv=None) -> int:
    """Run one command: write its CSV, its sidecar and a summary line; return the exit code."""
    args = _parser().parse_args(argv)
    try:
        cfg, source = _resolve_config(args)
        header, columns, summary, note = _COMMANDS[args.command][1](cfg)
        out = args.out if args.out is not None else section(cfg, "output")["path"]
        path = Path(out if out is not None else f"{args.command}_{cfg.get('label', source)}.csv")
        payload = {"command": args.command, "version": __version__, "resolved": cfg, **summary}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        sidecar = path.with_name(path.name + ".json")
        _write_outputs([(path, _csv_pieces(header, columns)), (sidecar, [text])])
        print(f"wrote {path} {note}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
