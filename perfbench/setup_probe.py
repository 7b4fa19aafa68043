"""Set-up cost of one workload, measured in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Times `import rabi_ent.cli` plus loading and validating every config and
preset the workload's commands use, and prints the seconds as JSON.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from workloads import SRC, WORKLOADS  # noqa: E402


def main(workload: str) -> None:
    sys.path.insert(0, str(SRC))
    from rabi_ent import cli
    from rabi_ent.config import load_config

    for command in WORKLOADS[workload]:
        argv = command.argv
        if "--fig" in argv:
            cli.load_preset(int(argv[argv.index("--fig") + 1]), int(argv[argv.index("--panel") + 1]))
        else:
            load_config(command.config)
    print(f'{{"setup_s": {time.perf_counter() - START!r}}}')


if __name__ == "__main__":
    main(sys.argv[1])
