"""In-process A/B of two source trees on the designs of one benchmark workload.

Imports both trees' ``polycam`` side by side in this process, builds the
first N designs of WORKLOAD at the seed (``perfbench/workloads.py`` of
TREE_A, with TREE_A's ``polycam``; WORKLOAD may also name one of the
``DESIGN_SETS`` of ``tests/replay_digests.py``, which no workload runs)
and runs each design through each tree's ``polycam.cli.run_scenario``,
alternating which tree goes first so that host drift falls on both
alike. Prints one line per design with the
CPU time of each tree and their ratio B/A, then the median ratio and the
count of designs on which B took less CPU time, overall and per design
kind (the label's suffix after its last ``/``, or ``cislunar`` for a
label without one). ``--repeat R`` runs each design R times on each
tree, alternating, and keeps each tree's least CPU time. A design whose
results differ also shows how far its validated PoC and total delta-v
moved, relative to A, and the summary gives the largest of each move::

    python tests/ab_designs.py PARENT_TREE CHANGE_TREE multi_node 16
    python tests/ab_designs.py PARENT_TREE CHANGE_TREE single_impulse 40 --seed 11
    python tests/ab_designs.py PARENT_TREE CHANGE_TREE single_impulse 40 --repeat 7
    python tests/ab_designs.py PARENT_TREE CHANGE_TREE j2_three_node 8

Exits 1 if any design's result JSON differs between the trees other than
in ``wall_time_s`` and ``solution.solve_wall_time_s``. A tree is a
checkout holding ``src/polycam`` and ``perfbench/``. Each tree first runs
the first design once untimed, so that the algebra tables, which each
tree builds and caches on its own, are built before the timed runs.
The C library's mmap threshold is pinned first (:func:`_pin_allocator`),
so that both trees allocate alike. The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import importlib
import importlib.util
import json
import math
import os
import statistics
import sys
import time

from replay_digests import DESIGN_SETS, set_designs


def _pin_allocator() -> None:
    """Pin glibc's mmap threshold at its starting 128 KiB; a no-op where the
    C library has no ``mallopt``. Left to itself the threshold rises the
    first time a large mmapped block is freed, which happens in the first
    tree's warm-up run: that tree's tables sit in blocks of their own and
    the other tree's come from the heap. Two byte-identical trees then
    read a median B/A of 0.989 to 1.019 over 20 ``multi_node`` designs
    at ``--repeat 7`` (above 1.004 in 4 of 6 processes), and 0.992 to
    1.006 with the threshold pinned, on a 2-core host."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], \
            ctypes.c_int
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def _is_polycam(name: str) -> bool:
    return name == "polycam" or name.startswith("polycam.")


def _activate(modules: dict) -> None:
    """Make ``modules`` the ``polycam`` that imports in this process find."""
    for name in [m for m in sys.modules if _is_polycam(m)]:
        del sys.modules[name]
    sys.modules.update(modules)


def _load(tree: str) -> dict:
    """The ``polycam`` modules of ``tree``, imported fresh."""
    _activate({})
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    try:
        importlib.import_module("polycam.cli")
    finally:
        sys.path.pop(0)
    return {m: mod for m, mod in sys.modules.items() if _is_polycam(m)}


def _workloads(tree: str):
    """``perfbench/workloads.py`` of ``tree``, imported fresh."""
    path = os.path.join(os.path.abspath(tree), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _compared(payload: dict) -> str:
    """The result JSON without its two timing fields."""
    payload = copy.deepcopy(payload)
    payload.pop("wall_time_s", None)
    payload.get("solution", {}).pop("solve_wall_time_s", None)
    return json.dumps(payload, sort_keys=True)


def _moves(a: dict, b: dict) -> tuple[float, float] | None:
    """Relative moves of the validated PoC and the total delta-v from
    result ``a`` to result ``b``; None when either design failed."""
    try:
        pairs = [(a["validation"]["validated_poc"],
                  b["validation"]["validated_poc"]),
                 (a["solution"]["dv_total_ms"], b["solution"]["dv_total_ms"])]
    except KeyError:
        return None
    return tuple(abs(y - x) / abs(x) if x else math.inf for x, y in pairs)


def _run(modules: dict, design) -> tuple[float, dict]:
    """(CPU seconds, result JSON with the exit code) of one design on one
    tree."""
    _activate(modules)
    cli = modules["polycam.cli"]
    args = cli.build_parser().parse_args(
        ["run", f"{design.label}.json", *design.argv])
    doc = copy.deepcopy(design.doc)
    began = time.process_time()
    code, payload = cli.run_scenario(doc, args)
    spent = time.process_time() - began
    # keep the modules that the run imported for later runs of this tree
    modules.update((m, mod) for m, mod in sys.modules.items()
                   if _is_polycam(m))
    return spent, {"exit_code": code, **payload}


def _kind(label: str) -> str:
    """The design kind of a workload label: ``kepler``, ``j2``, ``filter``,
    ``umax``, a design set's name, or ``cislunar``, whose labels have no
    suffix."""
    return label.rsplit("/", 1)[1] if "/" in label else "cislunar"


def _summary(name: str, ratios: list) -> str:
    wins = sum(r < 1.0 for r in ratios)
    return (f"{name}: median B/A {statistics.median(ratios):.3f} over "
            f"{len(ratios)} designs; B faster in {wins} of {len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("workload")
    parser.add_argument("count", type=int, metavar="N")
    parser.add_argument("--seed", type=int, default=2406)
    parser.add_argument("--repeat", type=int, default=1, metavar="R",
                        help="runs per design and tree; the least CPU counts")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    _pin_allocator()
    trees = [_load(tree) for tree in args.trees]
    _activate(trees[0])
    workloads = _workloads(args.trees[0])
    if args.workload in DESIGN_SETS:
        designs = set_designs(args.workload, args.seed, workloads, args.count)
    else:
        designs = workloads.WORKLOADS[args.workload].build(args.seed,
                                                           args.count)
    for modules in trees:
        _run(modules, designs[0])
    ratios, kinds, differ, moves = [], {}, [], []
    for k, design in enumerate(designs):
        first = k % 2
        runs = {0: [], 1: []}
        for _ in range(args.repeat):
            for t in (first, 1 - first):
                runs[t].append(_run(trees[t], design))
        (cpu_a, out_a), (cpu_b, out_b) = (
            (min(cpu for cpu, _ in runs[t]), runs[t][0][1]) for t in (0, 1))
        ratios.append(cpu_b / cpu_a)
        kinds.setdefault(_kind(design.label), []).append(ratios[-1])
        verdict = "same"
        if _compared(out_a) != _compared(out_b):
            differ.append(design.label)
            verdict = "differs"
            move = _moves(out_a, out_b)
            if move is not None:
                moves.append(move)
                verdict += f" (PoC {move[0]:.1e}, dv {move[1]:.1e})"
        print(f"{k:3d} {design.label:28s} A {cpu_a:8.4f} s  B {cpu_b:8.4f} s"
              f"  B/A {ratios[-1]:.3f}  {verdict}"
              f"  ({'AB'[first]} first)", flush=True)
    for kind, kind_ratios in kinds.items():
        print(_summary(kind, kind_ratios))
    print(_summary("all", ratios) + f"; results differ in {len(differ)}")
    if moves:
        print(f"largest relative move: validated PoC "
              f"{max(m[0] for m in moves):.1e}, total delta-v "
              f"{max(m[1] for m in moves):.1e}")
    for label in differ:
        print(f"differs: {label}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
