"""Cold ``polycam run`` wall and CPU times of two source trees, side by side.

Generates ``leo-2406-001`` ... ``leo-2406-005`` (``polycam generate --seed
2406``, default band) once, in a process of its own, since ``generate``
loads ``scipy.optimize`` and the runs must start cold. Then runs each
scenario N times per tree, each time in a fresh ``python -m polycam run``
process, alternating the trees (and which goes first) so that host drift
falls on both alike. Prints one line per run, then per scenario and tree
the median wall time of the process, the median of its CPU time (user plus
system, from ``RUSAGE_CHILDREN``, so CPU spent off the main thread counts),
the median of the result's own ``wall_time_s`` and the exit codes::

    python tests/cold_run.py PARENT_TREE CHANGE_TREE 5
    python tests/cold_run.py PARENT_TREE CHANGE_TREE 5 --order 3

A tree is a checkout holding ``src/polycam``; flags after N go to every
``polycam run``. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# generate numbers its scenarios from 000
SCENARIOS = [f"leo-2406-{k:03d}" for k in range(1, 6)]


def _env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("runs", type=int, metavar="N")
    parser.add_argument("run_flags", nargs=argparse.REMAINDER,
                        help="flags passed to every polycam run")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        count = str(len(SCENARIOS) + 1)
        subprocess.run([sys.executable, "-m", "polycam", "generate", "--seed",
                        "2406", "--count", count, "--out-dir", work],
                       check=True, capture_output=True, cwd=work,
                       env=_env(args.trees[0]))
        runs = {(name, tree): [] for name in SCENARIOS for tree in args.trees}
        for k in range(args.runs):
            for name in SCENARIOS:
                for tree in args.trees[::1 if k % 2 == 0 else -1]:
                    began = time.perf_counter()
                    cpu_began = _children_cpu()
                    proc = subprocess.run(
                        [sys.executable, "-m", "polycam", "run",
                         os.path.join(work, f"{name}.json"), *args.run_flags],
                        capture_output=True, text=True, cwd=work,
                        env=_env(tree))
                    wall = time.perf_counter() - began
                    cpu = _children_cpu() - cpu_began
                    try:
                        own = json.loads(proc.stdout).get("wall_time_s")
                    except ValueError:  # a crash prints no result
                        own = None
                    runs[name, tree].append((wall, cpu, own, proc.returncode))
                    print(f"{name} {tree} {wall:.3f} {cpu:.3f} {own} "
                          f"{proc.returncode}", flush=True)
    print("# scenario tree median_wall_s median_cpu_s median_wall_time_s "
          "exit_codes")
    for (name, tree), rows in runs.items():
        own = [row[2] for row in rows if row[2] is not None]
        print(f"# {name} {tree} {statistics.median(r[0] for r in rows):.3f} "
              f"{statistics.median(r[1] for r in rows):.3f} "
              f"{f'{statistics.median(own):.3f}' if own else '-'} "
              f"{sorted({row[3] for row in rows})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
