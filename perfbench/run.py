"""polycam benchmark: closed-loop maneuver designs from one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single_impulse --seed 1 --seconds 25 --trace 0

Each operation is one maneuver design, a ``polycam.cli.run_scenario(doc,
args)`` call made in this process (parse, map build, recursive solve,
nonlinear validation, result JSON); the next design starts only after the
previous one returns. BLAS threads are capped at the usable cores. A run
is a fixed amount of work: the design list comes from ``--seed`` and holds
as many designs as take about ``--seconds`` on the reference host (see
``workloads.py``); each runs once and is timed, the first too: a
``polycam run`` command makes one design per process, so its users pay for
what polycam defers to its first call, and the latencies show it. The designs
attempted and failed are the same in every run with that seed. Every
design is checked (see ``checks.py``): ``failed`` counts the designs that
fail a check, and ``correct`` is false when a design's result changes on a
rerun: the quickest design runs again, untimed, after all the others, and
a traced run replays them all.

The end-to-end times are in reference-host seconds: each design, and each
cold set-up, is bracketed by samples of a fixed calibration kernel (a
design is also sampled every half second while it runs) and its time
scaled to a host where that kernel takes a fixed time (see
``hostspeed.py``), so the shared host's drift in speed does not reach the
figures. The record keeps the raw figures too.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics declared in ``BENCHMARK.json``. With ``--trace 1`` the run measures
half of ``--seconds`` worth of designs untraced, replays the same designs
with every layer entry point wrapped (see ``spans.py``), runs the layer
micro-benchmarks (see ``micro.py``), and reports the per-layer metrics
instead; those are in host seconds. The line before the last holds the run
record:
environment, per-design latencies and result digests, the tail percentile
used, and the quality figures. The same record, and the spans of a traced
run as JSON lines, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# BLAS takes its thread count from these variables when numpy loads, and
# importing hostspeed loads numpy: cap the threads at the usable cores first.
CORES = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CORES)

import hostspeed  # noqa: E402
from checks import check_design, result_digest, tail_percentile  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Cold set-ups per run; setup_s is their median.
SETUP_REPEATS = 4
# Cold table constructions behind dapoly.tables_s.*, per traced run.
TABLE_REPEATS = 3
TABLE_ALGEBRAS = ((9, 5), (12, 5))


def _git_sha() -> str | None:
    """HEAD commit read from ``.git`` at the root, or None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code built."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "polycam")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _cold_setups(algebras, repeats: int) -> list[dict]:
    """Import polycam and build ``algebras`` in fresh interpreters; each
    record gains the set-up time ``setup_s`` and its scaled ``scaled_s``."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), SRC]
    argv += [f"{m},{n}" for m, n in algebras]
    out = []
    for _ in range(repeats):
        before = hostspeed.sample()
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, check=True)
        after = hostspeed.sample()
        record = json.loads(done.stdout.strip().splitlines()[-1])
        if not os.path.samefile(os.path.dirname(record["polycam_file"]),
                                os.path.join(SRC, "polycam")):
            raise RuntimeError(f"set-up imported {record['polycam_file']}")
        record["setup_s"] = record["import_s"] + sum(record["tables_s"].values())
        record["scaled_s"] = record["setup_s"] * hostspeed.scale(before, after)
        out.append(record)
    return out


class Loop:
    """Closed loop over a design list with one client."""

    def __init__(self, designs, parsed):
        from polycam.cli import run_scenario
        self.run_scenario = run_scenario
        self.designs = designs
        self.parsed = parsed
        self.first_digest: dict[int, str] = {}
        self.first_payload: dict[int, tuple[int, dict]] = {}
        self.nondeterministic: set[int] = set()

    def design(self, index: int, sampler=None):
        """(exit code, payload, latency s) of one design; with a
        :class:`hostspeed.Sampler`, the latency leaves out its samples."""
        slot = index
        doc = self.designs[slot].doc
        began = time.perf_counter()
        with sampler or contextlib.nullcontext():
            try:
                code, payload = self.run_scenario(doc, self.parsed[slot])
            except Exception as exc:  # a traceback is a failed design
                code, payload = -1, {"status": "exception", "error": repr(exc)}
        latency = time.perf_counter() - began
        if sampler is not None:
            latency -= sampler.spent_s
        self._note(slot, code, payload)
        return code, payload, latency

    def _note(self, slot: int, code: int, payload: dict) -> None:
        digest = result_digest({"exit_code": code, "result": payload})
        if slot not in self.first_digest:
            self.first_digest[slot] = digest
            self.first_payload[slot] = (code, payload)
        elif self.first_digest[slot] != digest:
            self.nondeterministic.add(slot)

    def run(self, count: int, tracer=None):
        """Designs 0 .. ``count`` - 1, each bracketed by host-speed samples
        and, untraced, sampled during as well (traced, the samples would
        land in the spans); returns their raw and scaled latencies and CPU
        times, the latencies scaled by the bracketing samples alone (which
        traced and untraced designs share), their labels, the failures and
        the phase's wall time."""
        phase = {"latencies": [], "scaled": [], "cpu": [], "scaled_cpu": [],
                 "bracketed": [], "labels": [], "failed": 0}
        sampler = hostspeed.Sampler()
        before = hostspeed.sample()
        began = time.perf_counter()
        for index in range(count):
            cpu0 = time.process_time()
            if tracer is None:
                code, payload, latency = self.design(index, sampler)
                during, spent = sampler.samples, sampler.spent_s
            else:
                with tracer.design(index):
                    code, payload, latency = self.design(index)
                during, spent = [], 0.0
            cpu = time.process_time() - cpu0 - spent
            after = hostspeed.sample()
            factor = hostspeed.scale(before, *during, after)
            phase["bracketed"].append(latency * hostspeed.scale(before, after))
            before = after
            phase["latencies"].append(latency)
            phase["scaled"].append(latency * factor)
            phase["cpu"].append(cpu)
            phase["scaled_cpu"].append(cpu * factor)
            phase["labels"].append(self.designs[index].label)
            phase["failed"] += bool(check_design(code, payload))
        phase["wall_s"] = time.perf_counter() - began
        return phase


def _quality(loop: Loop) -> dict | None:
    """Figures over the distinct designs run (the whole list unless the run
    is traced), deterministic for a seed; the error and Δv figures cover the
    designs that returned finite ones. None when no design did."""
    reasons, log_errors, dvs = {}, [], []
    for slot, (code, payload) in sorted(loop.first_payload.items()):
        why = check_design(code, payload)
        if why:
            reasons[loop.designs[slot].label] = why
        try:
            error = float(payload["validation"]["poc_log_error"])
            dv = float(payload["validation"]["dv_total_ms"])
        except (KeyError, TypeError, ValueError):
            continue
        if code == 0 and math.isfinite(error) and math.isfinite(dv):
            log_errors.append(error)
            dvs.append(dv)
    if not log_errors:
        return None
    n = len(loop.first_payload)
    return {
        "designs": n,
        "failed_designs": reasons,
        "fail_ratio": len(reasons) / n,
        "poc_log_error_max": max(log_errors),
        "dv_ms_mean": statistics.fmean(dvs),
        "digests": {loop.designs[s].label: d
                    for s, d in sorted(loop.first_digest.items())},
        "list_digest": hashlib.sha256("".join(
            d for _, d in sorted(loop.first_digest.items())).encode()
        ).hexdigest(),
    }


def _irreproducible(loop: Loop) -> list[str]:
    """Designs whose result changed when they ran again (traced or not)."""
    return [loop.designs[s].label for s in sorted(loop.nondeterministic)]


def _summary(phase) -> dict:
    n = len(phase["latencies"])
    return {"designs": n, "failed": phase["failed"], "wall_s": phase["wall_s"],
            "design_s": sum(phase["latencies"]),
            "scaled_design_s": sum(phase["scaled"]),
            "cpu_s": sum(phase["cpu"]),
            "host_factor_median": statistics.median(
                s / t for s, t in zip(phase["scaled"], phase["latencies"]))}


def _op_figures(latencies, cpus) -> tuple[dict[str, float], float]:
    """Throughput, median and tail latency and CPU per design, and the
    percentile ``op_tail_s`` stands for."""
    percentile, tail = tail_percentile(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "cpu_per_op_s": sum(cpus) / len(latencies),
    }, percentile


def _end_to_end(phase, setups) -> tuple[dict, dict, float]:
    """The end-to-end figures (scaled), the same figures unscaled, and the
    percentile ``op_tail_s`` stands for."""
    scaled, percentile = _op_figures(phase["scaled"], phase["scaled_cpu"])
    raw, _ = _op_figures(phase["latencies"], phase["cpu"])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled.update(setup_s=statistics.median(s["scaled_s"] for s in setups),
                  peak_rss_mb=rss)
    raw.update(setup_s=statistics.median(s["setup_s"] for s in setups),
               peak_rss_mb=rss)
    return scaled, raw, percentile


def _per_layer(loop, untraced, seed) -> tuple[dict, dict, object]:
    """Replay the untraced designs with tracing on, then the micro-benchmarks;
    returns the figures, the traced phase and the tracer."""
    import micro
    tracer = Tracer()
    with tracer.installed():
        traced = loop.run(len(untraced["latencies"]), tracer=tracer)
    figures = layer_metrics(tracer)
    figures["trace.overhead_ratio"] = (sum(untraced["bracketed"])
                                       / sum(traced["bracketed"]))
    figures.update(micro.mul_us(seed))
    figures.update(micro.step_us(seed))
    tables = _cold_setups(TABLE_ALGEBRAS, TABLE_REPEATS)
    for m, n in TABLE_ALGEBRAS:
        key = micro.algebra_key(m, n)
        figures[f"dapoly.tables_s.{key}"] = statistics.median(
            t["tables_s"][key] for t in tables)
    return figures, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polycam", "__init__.py")):
        print(f"polycam sources not found under {SRC}", file=sys.stderr)
        return 1
    with open(SPEC) as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    setups = [] if args.trace else _cold_setups(workload.algebras,
                                                SETUP_REPEATS)

    import numpy
    import scipy
    import polycam
    from polycam.cli import build_parser
    for m, n in workload.algebras:
        polycam.TaylorPoly.zero(polycam.AlgebraConfig(m, n))

    count = workload.count(args.seconds / 2 if args.trace else args.seconds)
    designs = workload.build(args.seed, count)
    cli = build_parser()
    parsed = [cli.parse_args(["run", f"{d.label}.json", *d.argv])
              for d in designs]
    loop = Loop(designs, parsed)
    hostspeed.sample()  # warms the calibration kernel, not polycam

    # A traced run replays its untraced designs traced, so both see one mix.
    phase = loop.run(count)
    # Untimed rerun of the quickest design: a result that changes marks the run.
    loop.design(min(range(count), key=phase["latencies"].__getitem__))
    quality = _quality(loop)
    if quality is None:
        print("no design returned a finite answer", file=sys.stderr)
        return 1
    phases = {"untraced": phase}
    tracer = percentile = raw = None
    if args.trace:
        metrics, phases["traced"], tracer = _per_layer(loop, phase, args.seed)
        for name in ("fail_ratio", "poc_log_error_max", "dv_ms_mean"):
            metrics[f"quality.{name}"] = quality[name]
    else:
        metrics, raw, percentile = _end_to_end(phase, setups)
    irreproducible = _irreproducible(loop)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) ^ set(metrics))
        print(f"metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "environment": {
            "cores": CORES, "blas_threads": CORES,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "machine": platform.machine(),
        },
        "reference_kernel_s": hostspeed.REFERENCE_S,
        "phases": {name: _summary(p) for name, p in phases.items()},
        "latencies_s": list(zip(phase["labels"], phase["latencies"])),
        "scaled_latencies_s": phase["scaled"],
        "tail_percentile": percentile,
        "unscaled_metrics": raw,
        "irreproducible": irreproducible,
        "quality": quality,
        "setup": setups,
    }
    if args.trace:
        import micro
        record["untraced_targets"] = tracer.missing
        record["bytes_per_product_computed"] = {
            micro.algebra_key(m, n): micro.product_bytes_computed(m, n)
            for m, n in micro.MUL_ALGEBRAS}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".record.json", "w") as handle:
        json.dump({**record, "metrics": metrics}, handle, indent=1)
    if tracer is not None:
        tracer.write_jsonl(stem + ".spans.jsonl")

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not irreproducible,
        "attempted": sum(len(p["latencies"]) for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
