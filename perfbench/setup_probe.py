"""Set one workload up in a fresh process, print ``ready`` and exit.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

``run.py`` times this from process start to the ``ready`` line: interpreter
start, imports (numpy included), config and grid builds, up to the point
where the first timed call would begin.
"""

import sys

import run  # pins the BLAS threads before numpy is imported


def main() -> int:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    run.load_package()
    from workloads import WORKLOADS

    WORKLOADS[name](seed, out_dir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
