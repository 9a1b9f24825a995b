"""End-to-end benchmark of the shipped profiles, with a traced layer split.

Run from the repository root::

    python3 perfbench/run.py --workload tcp-bulk-sim --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28 --trace 1

``--trace 0`` measures the end-to-end metrics untraced.  Timed metrics
are scaled to a reference host speed measured between reps (see
``hostspeed.py``); the raw timings are printed and kept beside them.
``--trace 1`` first runs a few reps untraced, then wraps every layer's
entry points (see ``spans.py``) and reports per-layer self time and
counts, the tracing overhead, and checks that the span accounting adds
up and that the bypass predictions hold.  Every rep's outputs are checked in both
modes; any mismatch makes the result incorrect and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run is also
appended, stamped with host and traffic parameters, to
``perfbench/trajectory.jsonl``.  ``--workload all`` runs every workload
in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
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
from pathlib import Path
from typing import Any

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.jsonl"
MIN_REPS = 3


# ----------------------------------------------------------------------
# Statistics and stamps
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (``q`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def source_digest(directory: Path) -> str:
    """sha256 over the Python files under ``directory``, for checkouts
    without git."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """The checkout's git commit, or ``"none"`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return out.stdout.strip() if out.returncode == 0 else "none"


def stamp(workload: str, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Host, code and traffic identity of one result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(ROOT / "src"),
        "bench_sha256": source_digest(HERE),
        "workload": workload,
        "seed": seed,
        "params": params,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_reps(rep_fn, seed: int, seconds: float, phases,
             min_reps: int = MIN_REPS, tracer=None) -> list:
    """Repeat ``rep_fn`` for ``seconds``, and at least ``min_reps`` times.

    A rep starts only if one more as long as the last still ends within
    ``seconds``.  A host-speed probe block runs before the first rep and
    after each rep; every rep starts from a swept heap.
    """
    reps = []
    start = last_end = time.perf_counter()
    gc.collect()
    before = hostspeed.block()
    while True:
        rep = rep_fn(seed, len(reps), phases)
        if tracer is not None:
            rep.counters["access_records"] = tracer.harvest_access_records()
        gc.collect()
        after = hostspeed.block()
        rep.slowdown = hostspeed.slowdown(before, after)
        before = after
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= min_reps and (now - start) + (now - last_end) > seconds:
            return reps
        last_end = now


def check(workload: str, reps: list) -> list[str]:
    """Output checks beyond each rep's own byte comparison."""
    import workloads

    problems = [f"rep {i}: {r.failed} of {r.attempted} failed"
                for i, r in enumerate(reps) if r.failed]
    if workload == "net-echo-loopback":
        problems += [f"rep {i}: {r.counters['errors']} client errors"
                     for i, r in enumerate(reps) if r.counters["errors"]]
    if workload == "fleet-grid-256":
        digests = {r.counters["order_digest"] for r in reps}
        if digests != {workloads.FLEET_ORDER_DIGEST}:
            problems.append(f"fleet delivery order digests {sorted(digests)}")
    return problems


BENCH_UNITS = {
    "goodput_mbps": "Mbit/s",
    "units_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and kept in the trajectory, but not in the result line: on a
# shared host the tail holds the host's stalls more than the program's
# cost, and ten runs of the same code spread past any allowed bound.
INFO_UNITS = {"latency_p99_ms": "ms"}


def end_to_end(reps: list, scaled: bool = True) -> tuple[dict[str, float], int]:
    """The end-to-end metrics and the latency sample count.

    With ``scaled``, each rep's timings are divided by its host slowdown,
    giving host time on the reference host of ``hostspeed.py``.  Rates
    are means over the reps weighted by run time, that is, the work of
    all reps over their summed run time on the sims and the fleet.
    """
    def slow(rep) -> float:
        return rep.slowdown if scaled else 1.0

    weights = [r.run_s / slow(r) for r in reps]

    def rate(values) -> float:
        return sum(v * w for v, w in zip(values, weights)) / sum(weights)

    samples = [x / slow(r) for r in reps for x in r.latency_s]
    return {
        "goodput_mbps": rate(r.goodput_bps * slow(r) for r in reps) / 1e6,
        "units_per_s": rate(r.units_per_s * slow(r) for r in reps),
        "latency_p50_ms": percentile(samples, 50) * 1e3,
        "latency_p99_ms": percentile(samples, 99) * 1e3,
        "setup_s": statistics.median(r.setup_s / slow(r) for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(samples)


SPAN_METRICS = {
    "core.wiring": "core.wiring.self_s",
    "core.header.pack": "core.header.pack_s",
    "core.header.unpack": "core.header.unpack_s",
    "transport.osr": "transport.osr.self_s",
    "transport.rd": "transport.rd.self_s",
    "transport.cm": "transport.cm.self_s",
    "transport.dm": "transport.dm.self_s",
    "datalink.arq": "datalink.arq.self_s",
    "datalink.errordetect": "datalink.errordetect.self_s",
    "datalink.framing": "datalink.framing.self_s",
    "phys.encoding": "phys.encoding.self_s",
    "net.codec.encode": "net.codec.encode_s",
    "net.codec.decode": "net.codec.decode_s",
    "net.endpoint.recv": "net.endpoint.recv_self_s",
    "net.endpoint.send": "net.endpoint.send_self_s",
    "sim.engine": "sim.engine.self_s",
    "network.router": "network.router.self_s",
    "topo.links.send": "topo.links.send_s",
}
SETUP_SPAN_METRICS = {
    "topo.spec.fibs": "topo.spec.fibs_s",
    "topo.region.build": "topo.region.build_s",
}
LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS.values()},
    **{name: "s" for name in SETUP_SPAN_METRICS.values()},
    "net.loop.other_s": "s",
    "transport.rd.useful_frac": "ratio",
    "trace.overhead_x": "x",
}


def per_layer(workload: str, traced: list, baseline: list, phases) -> tuple[dict, list]:
    """Per-layer metrics from the traced reps, and the trace checks."""
    n = len(traced)
    units = sum(r.units for r in traced)
    wall = sum(r.run_s for r in traced)
    other = wall - phases.run_top_s
    self_s = dict(phases.run_self_s)
    calls = phases.run_calls
    counts = phases.run_counts
    problems = []

    spanned = sum(self_s.values())
    if abs(spanned + other - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"self times {spanned:.6f} + other {other:.6f} != wall {wall:.6f}")
    negative = [k for k, v in self_s.items() if v < -1e-6]
    if negative:
        problems.append(f"negative self time in {negative}")
    if workload != "net-echo-loopback":
        # Simulator.run covers the run phase; what is left is the
        # harness's own call, folded into the engine's remainder.
        if other > 0.02 * wall:
            problems.append(f"{other:.4f} s of {wall:.4f} s outside Simulator.run")
        self_s["sim.engine"] = self_s.get("sim.engine", 0.0) + other
        other = 0.0

    def layer_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    # The bypass predictions: these layers must read zero.
    if workload == "tcp-bulk-sim":
        if counts.get("bits", 0) or layer_calls("net.codec"):
            problems.append("tcp-bulk-sim made Bits or codec calls")
    if workload in ("hdlc-frames-sim", "fleet-grid-256"):
        if layer_calls("transport."):
            problems.append(f"{workload} made transport calls")

    metrics: dict[str, float] = {}
    for layer, name in SPAN_METRICS.items():
        metrics[name] = self_s.get(layer, 0.0) / n
        if layer != "sim.engine":
            metrics[f"{layer}.calls_per_unit"] = calls.get(layer, 0) / units
    for layer, name in SETUP_SPAN_METRICS.items():
        metrics[name] = phases.setup_self_s.get(layer, 0.0) / n
    metrics["net.loop.other_s"] = other / n
    metrics["core.instrument.state_ops_per_pkt"] = counts.get("state_ops", 0) / units
    metrics["core.instrument.access_records"] = sum(
        r.counters["access_records"] for r in traced) / n
    metrics["core.bits.allocs_per_frame"] = counts.get("bits", 0) / units
    metrics["net.endpoint.datagrams_per_msg"] = calls.get("net.endpoint.recv", 0) / units
    metrics["sim.engine.events_per_unit"] = sum(
        r.counters.get("sim_events", 0) for r in traced) / units
    rd_new = sum(r.counters.get("rd_segments_new", 0) for r in traced)
    rd_re = sum(r.counters.get("rd_retransmits", 0) for r in traced)
    metrics["transport.rd.retransmits"] = rd_re / n
    metrics["transport.rd.useful_frac"] = rd_new / (rd_new + rd_re) if rd_new else 0.0
    metrics["datalink.arq.retransmits"] = sum(
        r.counters.get("arq_retransmits", 0) for r in traced) / n
    metrics["trace.overhead_x"] = (
        sum(r.run_s / r.slowdown for r in traced[:len(baseline)])
        / sum(r.run_s / r.slowdown for r in baseline)
    )
    return metrics, problems


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; returns the result with its stamp and checks."""
    import workloads

    rep_fn, params = workloads.WORKLOADS[workload]
    problems: list[str] = []
    raw: dict[str, float] = {}
    info: dict[str, float] = {}
    if not trace:
        reps = run_reps(rep_fn, seed, seconds, workloads.Phases())
        scaled, samples = end_to_end(reps)
        raw = end_to_end(reps, scaled=False)[0]
        metrics = {name: scaled[name] for name in BENCH_UNITS}
        info = {name: scaled[name] for name in INFO_UNITS}
        units = BENCH_UNITS
    else:
        from spans import Tracer

        # The traced reps replay the untraced reps' inputs (same rep
        # indices), so the overhead ratio compares equal work.
        baseline = run_reps(rep_fn, seed, seconds / 4, workloads.Phases(), min_reps=1)
        tracer = Tracer()
        tracer.install()
        phases = workloads.Phases(tracer)
        try:
            reps = run_reps(rep_fn, seed, seconds * 3 / 4, phases,
                            min_reps=len(baseline), tracer=tracer)
        finally:
            tracer.restore()
        metrics, problems = per_layer(workload, reps, baseline, phases)
        reps = baseline + reps
        samples = 0
        units = {name: LAYER_UNITS.get(name, "count") for name in metrics}
    problems += check(workload, reps)
    return {
        "stamp": stamp(workload, seed, params),
        "reps": len(reps),
        "latency_samples": samples,
        "slowdown": statistics.median(r.slowdown for r in reps),
        "raw_metrics": raw,
        "info": info,
        "problems": problems,
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_result(workload: str, result: dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"# {workload}: " + json.dumps(result["stamp"], sort_keys=True))
    print(f"# reps={result['reps']} attempted={result['attempted']} "
          f"failed={result['failed']} latency_samples={result['latency_samples']} "
          f"host_slowdown={result['slowdown']:.4f}")
    raw = result["raw_metrics"]
    for name, metric in result["metrics"].items():
        unscaled = f"   (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}{unscaled}")
    for name, value in result["info"].items():
        print(f"{name:40s} {value:>14.6g} {INFO_UNITS[name]}   "
              f"(unscaled {raw[name]:.6g}; not bounded)")
    print(f"{'failed_frac':40s} {result['failed'] / result['attempted']:>14.6g} ratio")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def append_trajectory(result: dict[str, Any], trace: bool, seconds: float) -> None:
    """One summary line per run, kept with the benchmark."""
    record = {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "trace": int(trace),
        "seconds": seconds,
        **result["stamp"],
        "reps": result["reps"],
        "latency_samples": result["latency_samples"],
        "slowdown": result["slowdown"],
        "probe_reference_s": hostspeed.REFERENCE_S,
        "raw_metrics": result["raw_metrics"],
        "info": result["info"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }
    with TRAJECTORY.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; one table; 1 on any failure."""
    import workloads

    status = 0
    table: dict[str, dict[str, Any]] = {}
    for name in workloads.WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace))],
                capture_output=True, text=True, timeout=900,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out")
            status = 1
            continue
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = 1
            continue
        status |= int(proc.returncode != 0 or not result["correct"])
        table[name] = result["metrics"]
        table[name]["failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    names = list(dict.fromkeys(m for metrics in table.values() for m in metrics))
    print()
    print(f"{'metric':40s}" + "".join(f"{w:>20s}" for w in table) + "  unit")
    for m in names:
        unit = next(t[m]["unit"] for t in table.values() if m in t)
        cells = "".join(
            f"{table[w][m]['value']:>20.6g}" if m in table[w] else f"{'-':>20s}"
            for w in table
        )
        print(f"{m:40s}{cells}  {unit}")
    print("all outputs correct" if status == 0 else "FAILED")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)} or 'all'")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    append_trajectory(result, bool(args.trace), args.seconds)
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
