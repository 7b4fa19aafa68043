"""Benchmark of the `rabi-ent` command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {figures,scan,oracle} --seed N \
        --seconds S --trace {0,1}

One closed-loop caller runs the workload's commands through
`rabi_ent.cli.main(argv)`, the entry point of the `rabi-ent` script, one
after another, in whole passes for S seconds.  Timings are the fastest pass
of the run: on a shared host, other tenants slow whole stretches of passes
by 20-60%, and the fastest pass varies far less from run to run than the
median does (see README.md).  `setup_s` is the median of fresh set-up
processes spread over the window between passes.  Every output is checked
against `reference.py` after the timed section.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
with the end-to-end metrics when `--trace 0` and the per-layer metrics
(from spans recorded by `spans.py`) when `--trace 1`, each named as
`BENCHMARK.json` lists them.
The seed only chooses which times, points and photon numbers are checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, wrapper_cost
from workloads import BENCH_DIR, CROSS_THREAD_COMMAND, ROOT, SRC, WORKLOADS

BLAS_THREADS = 1  # this process; never above nproc
OTHER_BLAS_THREADS = 2  # the cross-thread child of the oracle workload
SETUP_PROBES = 15
WORK_DIR = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def missing_inputs(workload: str) -> list[Path]:
    needed = [SRC / "rabi_ent" / "__init__.py"] + [c.config for c in WORKLOADS[workload]]
    return [path for path in needed if not path.is_file()]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "rabi_ent").glob("*.py")))


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as `BENCHMARK.json` lists them under `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def setup_probe(workload: str) -> float:
    """Set-up time of one fresh process: import plus config loading."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "cross_thread_blas_threads": OTHER_BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "package.src_lines": src_lines(),
    }


class Runner:
    """Runs passes of one workload and keeps what is needed to check them."""

    def __init__(self, workload: str, work_dir: Path):
        sys.path.insert(0, str(SRC))
        from rabi_ent import cli

        self.cli = cli
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.work_dir = work_dir
        self.outputs: dict[tuple[str, str], tuple[str, str]] = {}  # (command, digest) -> (csv, sidecar)
        self.passes: list[dict] = []

    def _out(self, name: str) -> Path:
        return self.work_dir / f"{name}.csv"

    def _collect(self, name: str, path: Path) -> tuple[str, int, int]:
        try:
            csv, sidecar = path.read_text(), path.with_name(path.name + ".json").read_text()
        except OSError:
            return "", 0, 0
        digest = hashlib.sha256(f"{csv}\0{sidecar}".encode()).hexdigest()
        self.outputs.setdefault((name, digest), (csv, sidecar))
        return digest, csv.count("\n") - 1, len(csv.encode())

    def run_pass(self, tracer=None) -> dict:
        """One closed-loop pass; returns per-command (rc, seconds, digest, rows, bytes)."""
        for command in self.commands:
            out = self._out(command.name)
            out.unlink(missing_ok=True)
            out.with_name(out.name + ".json").unlink(missing_ok=True)
        timings = {}
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            with tracer.installed() if tracer else contextlib.nullcontext():
                for command in self.commands:
                    argv = [*command.argv, "--out", str(self._out(command.name))]
                    start = time.perf_counter()
                    try:
                        rc = self.cli.main(argv)
                    except Exception:  # an uncaught error is a failed operation, not a crash
                        traceback.print_exc(file=sys.stderr)
                        rc = -1
                    timings[command.name] = (rc, time.perf_counter() - start)
        record = {"traced": tracer is not None, "commands": {}}
        for command in self.commands:
            rc, seconds = timings[command.name]
            record["commands"][command.name] = (rc, seconds, *self._collect(command.name, self._out(command.name)))
        if self.workload == "oracle":
            record["cross_thread"] = self._cross_thread()
        self.passes.append(record)
        return record

    def _cross_thread(self) -> tuple[int, str]:
        """Re-run the desk oracle in a child process at the other BLAS thread count."""
        command = next(c for c in self.commands if c.name == CROSS_THREAD_COMMAND)
        out = self._out("cross_thread")
        out.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(OTHER_BLAS_THREADS)
        proc = subprocess.run(
            [sys.executable, "-m", "rabi_ent.cli", *command.argv, "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        digest = self._collect("cross_thread", out)[0]
        return proc.returncode, digest

    def seconds(self, record: dict, group: str | None = None) -> float:
        """Wall time of one pass's commands, all of them or one group."""
        return sum(record["commands"][c.name][1] for c in self.commands if group in (None, c.group))


def judge(runner: Runner, seed: int) -> tuple[bool, int, int]:
    """Check every distinct output once; returns (correct, attempted, failed)."""
    import numpy as np

    import checks

    by_name = {c.name: (index, c) for index, c in enumerate(runner.commands)}
    verdicts: dict[tuple[str, str], list[str]] = {}
    for (name, digest), (csv, sidecar) in runner.outputs.items():
        if name in by_name:
            index, command = by_name[name]
            cfg = json.loads(command.config.read_text())
            rng = np.random.default_rng([seed, index])
            verdicts[(name, digest)] = checks.CHECKS[command.kind](cfg, csv, sidecar, rng)
    attempted = failed = 0
    unexpected = []
    for record in runner.passes:
        for name, (rc, _, digest, _, _) in record["commands"].items():
            attempted += 1
            problems = [f"exit code {rc}"] if rc != 0 else verdicts.get((name, digest), ["no output"])
            if problems:
                failed += 1
                unexpected.append((name, problems))
        if "cross_thread" in record:
            attempted += 1
            rc, digest = record["cross_thread"]
            parent = record["commands"][CROSS_THREAD_COMMAND][2]
            if rc != 0 or not digest or (CROSS_THREAD_COMMAND, parent) not in runner.outputs:
                failed += 1
                unexpected.append(("cross_thread", [f"child exit code {rc}, or an output missing"]))
            else:
                known, other = checks.check_cross_thread(
                    runner.outputs[(CROSS_THREAD_COMMAND, parent)][0], runner.outputs[("cross_thread", digest)][0]
                )
                # A disagreement in checks.KNOWN_FAULT_COLUMNS fails on every run
                # until oracle.concurrence is made backward stable; one in any
                # other column is a new fault.
                if other:
                    unexpected.append(("cross_thread", other))
                failed += bool(known or other)
    reported = set()
    for name, problems in unexpected:
        if name not in reported:
            reported.add(name)
            print(f"FAILED {name}: {'; '.join(problems[:4])}", file=sys.stderr)
    return not unexpected, attempted, failed


def end_to_end(runner: Runner, setup_s: float, peak_rss_mib: float) -> dict:
    return {
        "setup_s": setup_s,
        "small_inputs_s": min(runner.seconds(r, "small") for r in runner.passes),
        "large_inputs_s": min(runner.seconds(r, "large") for r in runner.passes),
        "peak_rss_mib": peak_rss_mib,
    }


def per_command_report(runner: Runner) -> dict:
    """Fastest and median seconds of each command, for the human-readable report line."""
    report = {"passes": len(runner.passes)}
    for c in runner.commands:
        seconds = [r["commands"][c.name][1] for r in runner.passes]
        report[c.name] = {"min": min(seconds), "median": statistics.median(seconds)}
    return report


def pass_difference(runner: Runner) -> float:
    """Median over traced passes of the pass time minus the mean of its untraced neighbours."""
    seconds = [runner.seconds(r) for r in runner.passes]
    differences = []
    for i, record in enumerate(runner.passes):
        if record["traced"]:
            neighbours = [seconds[j] for j in (i - 1, i + 1) if j < len(seconds) and not runner.passes[j]["traced"]]
            differences.append(seconds[i] - statistics.fmean(neighbours))
    return statistics.median(differences)


def per_layer(runner: Runner, tracer, traced: list[dict]) -> dict:
    n = len(traced)
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    rows = sum(v[3] for r in traced for v in r["commands"].values())
    csv_bytes = sum(v[4] for r in traced for v in r["commands"].values())
    oracle_rows = sum(
        r["commands"][c.name][3] for r in traced for c in runner.commands if c.kind == "oracle"
    )
    series = n * sum(c.kind == "tprob" for c in runner.commands) + calls("scan.objective")
    # what the tracer adds: spans per pass times the cost of one wrapped call
    overhead_s = len(tracer.spans) / n * wrapper_cost()
    untraced_s = statistics.median(runner.seconds(r) for r in runner.passes if not r["traced"])
    counters = tracer.counters
    return {
        "config.load_s": (total_s("config.load_config") + total_s("config.load_preset")) / n,
        "specialfn.poisson_logweights.calls": calls("specialfn.poisson_logweights") / n,
        "specialfn.poisson_logweights.s": total_s("specialfn.poisson_logweights") / n,
        "specialfn.laguerre_sequence.calls": calls("specialfn.laguerre_sequence") / n,
        "specialfn.laguerre_sequence.s": total_s("specialfn.laguerre_sequence") / n,
        "spectrum.aa_rows.calls": calls("spectrum.aa_rows") / n,
        "spectrum.aa_rows.self_s": self_s("spectrum.aa_rows") / n,
        "dynamics.transition_prob.calls": calls("dynamics.transition_prob") / n,
        "dynamics.transition_prob.self_s": self_s("dynamics.transition_prob") / n,
        "dynamics.transition_prob.calls_per_series": ratio(calls("dynamics.transition_prob"), series),
        "dynamics.cosine_kernel.s": total_s("dynamics.cosine_kernel") / n,
        "dynamics.sum_terms": counters["dynamics.sum_terms"] / n,
        "dynamics.sum_terms_per_s": ratio(counters["dynamics.sum_terms"], total_s("dynamics.cosine_kernel")),
        "dynamics.jc_inversion.s": total_s("dynamics.jc_inversion") / n,
        "scan.objective.calls": calls("scan.objective") / n,
        "scan.objective.self_s": self_s("scan.objective") / n,
        "scan.refine.iterations": counters["scan.refine.iterations"] / n,
        "oracle.build_hamiltonian.s": total_s("oracle.build_hamiltonian") / n,
        "oracle.eigendecompose.calls": calls("oracle.eigendecompose") / n,
        "oracle.eigendecompose.s": total_s("oracle.eigendecompose") / n,
        "oracle.eigh_dim3": counters["oracle.eigh_dim3"] / n,
        "oracle.concurrence.calls": calls("oracle.concurrence") / n,
        "oracle.concurrence.s": total_s("oracle.concurrence") / n,
        "oracle.concurrence.calls_per_row": ratio(calls("oracle.concurrence"), oracle_rows),
        "oracle.evolve.self_s": self_s("oracle.evolve") / n,
        "cli.main.self_s": self_s("cli.main") / n,
        "cli.csv_rows": rows / n,
        "cli.csv_bytes": csv_bytes / n,
        "cli.csv_bytes_per_s": ratio(csv_bytes, self_s("cli.main")),
        "package.src_lines": src_lines(),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s,
        "trace.pass_difference_s": pass_difference(runner),
    }


def run(args: argparse.Namespace, work_dir: Path) -> dict:
    runner = Runner(args.workload, work_dir)
    tracer = Tracer() if args.trace else None
    setup_samples: list[float] = []
    start = time.perf_counter()
    while len(runner.passes) < 1 + bool(tracer) or time.perf_counter() - start < args.seconds:
        if tracer is None:
            # set-up probes run between passes, spread evenly over the window,
            # so that a slow stretch of the host covers only some of them
            share = (time.perf_counter() - start) / args.seconds if args.seconds > 0 else 1.0
            while len(setup_samples) < min(SETUP_PROBES, 1 + int(share * SETUP_PROBES)):
                setup_samples.append(setup_probe(args.workload))
        # traced and untraced passes alternate; the first, which pays lazy
        # initialisation, runs untraced
        use_tracer = tracer is not None and len(runner.passes) % 2 == 1
        runner.run_pass(tracer if use_tracer else None)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while tracer is None and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(args.workload))
    env = environment()
    correct, attempted, failed = judge(runner, args.seed)
    if args.trace:
        traced = [r for r in runner.passes if r["traced"]]
        metrics = per_layer(runner, tracer, traced)
        units = metric_units("per_layer")
        SPAN_DIR.mkdir(exist_ok=True)
        (SPAN_DIR / f"spans_{args.workload}.json").write_text(json.dumps(tracer.dump()))
    else:
        metrics = end_to_end(runner, statistics.median(setup_samples), peak_rss_mib)
        units = metric_units("end_to_end")
        print("report " + json.dumps(per_command_report(runner)))
    print("env " + json.dumps(env))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_inputs(args.workload)
    if missing:
        print("perfbench: missing inputs: " + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
