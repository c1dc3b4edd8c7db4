#!/usr/bin/env python3
"""Closed-loop benchmark of metricinv, run from the root of a checkout.

    python3 perfbench/run.py --workload survey4d --seed 1 --seconds 30 --trace 0

One process, one client: the next operation starts only when the previous
one has returned. The workload (see `workloads.py`) turns `--seed` into
the program's inputs; operations run until their summed latency reaches
`--seconds`, each output is checked outside the timed region, and the last
line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the `end_to_end` list of BENCHMARK.json with
`--trace 0`, and the `per_layer` list with `--trace 1`. End-to-end
times are scaled to a fixed host speed, read off a reference computation
timed between operations (see `speed.py`); the line before the JSON
gives them unscaled. The traced run alternates blocks of two
untraced and two traced operations, so the tracing overhead is measured
under the same conditions as the spans; the spans go to
`perfbench/out/`. `--smoke` caps a run at a few operations and one
set-up probe. The program is imported from `src/` of the checkout;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"
SETUP_REPEATS = 7
SMOKE_OPS = 4
# Timed seconds of operations between two reference probes.
PROBE_EVERY_S = 0.1


def load_workloads():
    """Import the checkout's metricinv from source, then the workloads."""
    if not (SRC / "metricinv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no metricinv sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import metricinv
    import workloads

    if Path(metricinv.__file__).resolve().parent != SRC / "metricinv":
        raise SystemExit(f"perfbench: imported metricinv from {metricinv.__file__}, not {SRC}")
    return workloads


def prepare(workloads, name: str, seed: int):
    """Build the workload (parsing its metrics) and run one untimed op.

    The warm-up fills the program's lazily built tables, such as the
    jet index tables, before anything is timed.
    """
    workload = workloads.WORKLOADS[name](seed, ROOT)
    inp = workload.inputs(workloads.WARM_UP_OP)
    reason = workload.check(inp, workload.run(inp))
    if reason is not None:
        raise SystemExit(f"perfbench: warm-up op failed its check: {reason}")
    return workload


def setup_probe(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a warmed-up workload."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    # CLOCK_MONOTONIC is shared by all processes on the machine.
    return float(proc.stdout.split()[-1]) - start


def run_ops(workload, seconds: float, max_ops: int | None, tracer=None, pauses=()):
    """The closed loop. Returns per-op records
    (op, latency_s, scaled_latency_s, traced, error).

    A reference probe runs, untimed, whenever the ops since the last one
    reach PROBE_EVERY_S, and around each pause; those ops are scaled by
    the mean of the probes on either side. Each of `pauses` is called,
    untimed, once the timed seconds pass its share of `seconds` (share i
    of n is (i + 0.5) / n); any not reached when the loop stops are called
    after it.
    """
    records = []
    timed = 0.0
    op = 0
    pending = list(pauses)
    block: list[list] = []
    for _ in range(3):  # warm-up
        speed.probe_ms()
    probe = speed.probe_ms()

    def scale_block():
        nonlocal probe, block
        after = speed.probe_ms()
        factor = speed.REFERENCE_MS / ((probe + after) / 2)
        for record in block:
            record[2] = record[1] * factor
        probe, block = after, []

    while timed < seconds and (max_ops is None or op < max_ops):
        if pending and timed >= seconds * (len(pauses) - len(pending) + 0.5) / len(pauses):
            if block:
                scale_block()
            pending.pop(0)()
            probe = speed.probe_ms()
        inp = workload.inputs(op)
        traced = tracer is not None and (op // 2) % 2 == 1
        if traced:
            tracer.install(op)
        start = time.perf_counter()
        try:
            out = workload.run(inp)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                error = workload.check(inp, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append([op, elapsed, None, traced, error])
        block.append(records[-1])
        if sum(record[1] for record in block) >= PROBE_EVERY_S:
            scale_block()
        timed += elapsed
        op += 1
    if block:
        scale_block()
    for pause in pending:
        pause()
    return records


def end_to_end(records, setup_s: float, column: int = 2) -> dict[str, float]:
    """The end-to-end metrics from the scaled latencies (column 2), or from
    the unscaled ones (column 1)."""
    ok = [record[column] for record in records if record[4] is None]
    lat_ms = sorted(1e3 * lat for lat in ok) or [float("nan")]
    return {
        "ops_per_s": len(ok) / sum(record[column] for record in records),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
        if len(lat_ms) > 1 else lat_ms[0],
        "success_rate": len(ok) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(records, tracer) -> dict[str, float]:
    traced = {op: lat for op, lat, _, is_traced, error in records if is_traced and error is None}
    plain = [lat for _, lat, _, is_traced, error in records if not is_traced and error is None]
    if not traced or not plain:
        raise SystemExit("perfbench: the traced run needs at least four operations")
    metrics = tracer.layer_metrics(traced)
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(traced.values()) / statistics.fmean(plain) - 1.0
    )
    return metrics


def report(values: dict[str, float], spec: list[dict], records) -> dict:
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(names))} "
                         "do not match BENCHMARK.json")
    failed = sum(1 for *_, error in records if error is not None)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"stop after {SMOKE_OPS} ops and one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        prepare(workloads, args.workload, args.seed)
        print(time.monotonic(), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    max_ops = SMOKE_OPS if args.smoke else None
    workload = prepare(workloads, args.workload, args.seed)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        records = run_ops(workload, args.seconds, max_ops, tracer)
        values = per_layer(records, tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "op_latency_s": {str(op): lat for op, lat, *_ in records},
            **tracer.to_json(),
        }))
        result = report(values, spec["per_layer"], records)
    else:
        # Set-up probes are spread over the run, so that they meet the same
        # machine conditions as the timed ops.
        setups: list[float] = []

        def probe():
            setups.append(setup_probe(args.workload, args.seed))

        records = run_ops(workload, args.seconds, max_ops,
                          pauses=[probe] * (1 if args.smoke else SETUP_REPEATS))
        # The host's speed changes within the half second of a set-up, so
        # probes next to one do not tell the speed it ran at. The set-ups
        # are spread over the run, so they are scaled by the run's mean
        # speed factor instead.
        factor = sum(r[2] for r in records) / sum(r[1] for r in records)
        setup_s = statistics.median(setups)
        result = report(end_to_end(records, setup_s * factor), spec["end_to_end"], records)
        unscaled = end_to_end(records, setup_s, column=1)

    for op, *_, error in records:
        if error is not None:
            print(f"perfbench: op {op} failed: {error}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    if not args.trace:
        print("unscaled: " + ", ".join(
            f"{name} {unscaled[name]:.6g}"
            for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
