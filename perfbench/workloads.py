"""The benchmark's workloads: which `rabi-ent` commands one pass runs.

Each command is one operation.  Its `group` says which end-to-end metric
its wall time feeds: `small_inputs_s` or `large_inputs_s`.  Its output is
checked by the function in `checks.py` named after its subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PRESETS = SRC / "rabi_ent" / "presets"
CONFIGS = ROOT / "configs"
OWN_CONFIGS = BENCH_DIR / "configs"

PRESET_PANELS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    config: Path
    group: str

    @property
    def kind(self) -> str:
        """The `rabi-ent` subcommand."""
        return self.argv[0]


def _from_preset(command: str, fig: int, panel: int, name: str, group: str) -> Command:
    return Command(
        name=name,
        argv=(command, "--fig", str(fig), "--panel", str(panel)),
        config=PRESETS / f"fig{fig}_p{panel}.json",
        group=group,
    )


def _from_file(command: str, config: Path, name: str, group: str) -> Command:
    return Command(name=name, argv=(command, "--config", str(config)), config=config, group=group)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "figures": tuple(
        _from_preset("tprob", fig, panel, f"tprob_fig{fig}_p{panel}", "small")
        for fig, panel in PRESET_PANELS
    )
    + (
        _from_file("jc", CONFIGS / "jc_revival.json", "jc_revival", "large"),
        _from_file("spectrum", OWN_CONFIGS / "spectrum_fig4_10k.json", "spectrum_fig4_10k", "large"),
    ),
    "scan": (
        _from_file("scan", CONFIGS / "beta_scan.json", "scan_beta_1d", "small"),
        _from_file("scan", OWN_CONFIGS / "scan_beta_alpha_2d.json", "scan_beta_alpha_2d", "large"),
    ),
    "oracle": (
        _from_file("oracle", CONFIGS / "fig4_desk_oracle.json", "oracle_fig4_desk", "small"),
        _from_file("oracle", CONFIGS / "aa_vs_ed_cross_check.json", "oracle_cross_check", "small"),
        _from_preset("oracle", 4, 1, "oracle_fig4_full", "large"),
    ),
}

# The oracle workload re-runs this command once per pass in a child process
# at the other BLAS thread count and requires every column to agree.
CROSS_THREAD_COMMAND = "oracle_fig4_desk"
