"""mmray benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_tunnels --seed 1 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
same requests untraced and then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The package is imported from
src/ of the checkout; the run fails if it is not there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
UNTRACED_SHARE = 0.4  # of a traced run's time, for the overhead baseline
POOL_PASSES = 3  # passes of the 1- and 2-worker sweeps behind channel.pool_speedup


def import_mmray():
    package = ROOT / "src" / "mmray"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of an mmray checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import mmray
    if Path(mmray.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported mmray from {mmray.__file__}, not {package}")


def run_passes(requests, seconds: float, ledger, trace=None, min_passes: int = 2):
    """Repeat the pass of requests until `seconds` have elapsed (and min_passes ran)."""
    latency = {r.label: [] for r in requests}
    pass_s = []
    deadline = time.perf_counter() + seconds
    while len(pass_s) < min_passes or time.perf_counter() < deadline:
        if trace is not None:
            trace.begin_pass()
        total = 0.0
        for req in requests:
            if trace is not None:
                trace.request_id += 1
                trace.cells_per_path = req.cells_per_path
            t0 = time.perf_counter()
            try:
                out = req.run()
                dt = time.perf_counter() - t0
                error = req.check(out)
            except Exception:
                ledger.record(req.label, traceback.format_exc(limit=3))
                continue
            total += dt
            latency[req.label].append(dt)
            ledger.record(req.label, error)
        if trace is not None:
            trace.end_pass()
        pass_s.append(total)
    return latency, pass_s


def setup_probes(scenarios, n: int = SETUP_PROBES):
    """Wall time of fresh interpreters from start to a ready workload, with phases."""
    walls, phases = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"), *scenarios],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        walls.append(time.perf_counter() - t0)
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        phases.append(json.loads(line))
    phase = {k: statistics.median(p[k] for p in phases) for k in phases[0]}
    return statistics.median(walls), phase


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, args, ledger):
    from spans import percentile, tail_percentile

    requests = workload.requests()
    latency, pass_s = run_passes(requests, args.seconds, ledger)
    rss = peak_rss_mb()  # before the set-up probes, which are child processes too
    setup_s, _ = setup_probes(workload.scenarios)
    samples = [x for values in latency.values() for x in values]
    if not samples:
        raise RuntimeError("every request raised")
    tail = tail_percentile(len(samples))
    print(f"# {len(samples)} requests in {len(pass_s)} passes; " + (
        f"p{tail:g} is the highest percentile with ten samples beyond it: "
        f"{percentile(samples, tail) * 1e3:.4f} ms" if tail else
        "too few for any percentile with ten samples beyond it"))
    return {
        "setup_s": (setup_s, "s"),
        "positions_per_s": (sum(r.positions for r in requests) / statistics.median(pass_s),
                            "1/s"),
        "query_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
        # With too few samples for ten beyond p99 (the sweep workloads run
        # tens of requests), the slowest one is too noisy to compare, so the
        # metric falls back to the highest percentile that has them, or p50.
        "query_p99_ms": (percentile(samples, min(99, tail or 50)) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_share": (1.0 - ledger.failed / max(ledger.attempted, 1), "ratio"),
    }


def per_layer(workload, args, ledger):
    from spans import Trace
    from workloads import POOL_WORKERS

    requests = workload.requests()
    _, base_pass = run_passes(requests, args.seconds * UNTRACED_SHARE, ledger)
    trace = Trace()
    trace.install()
    try:
        _, traced_pass = run_passes(requests, args.seconds * (1 - UNTRACED_SHARE),
                                    ledger, trace)
    finally:
        trace.uninstall()
    _, setup = setup_probes(workload.scenarios)

    passes = trace.pass_summaries()
    exact = ("tracer.enumerate_paths.calls", "tracer.paths", "tracer.nocov",
             "tracer.candidates", "channel.tap_cells", "cli.csv_bytes",
             "antenna.gain.calls")
    for key in exact:
        values = {p.get(key, 0) for p in passes}
        ledger.record(f"exact count {key}",
                      None if len(values) == 1 else f"differs between passes: {sorted(values)}")

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    first = passes[0]
    calls = first.get("tracer.enumerate_paths.calls", 0)
    paths = first.get("tracer.paths", 0)
    candidates = first.get("tracer.candidates", 0)
    tap_cells = first.get("channel.tap_cells", 0)
    busy = med("tracer.enumerate_paths.busy_s")
    kernel = statistics.median(
        sum(v for k, v in p.items() if k.startswith("channel.") and k.endswith(".self_s"))
        for p in passes)
    pool = workload.pool_requests()
    if pool:
        latency, _ = run_passes(pool, 0.0, ledger, min_passes=POOL_PASSES)
        one, many = (statistics.median(latency[r.label]) for r in pool)
        speedup = one / many
    else:
        speedup = 1.0  # no pool: one worker
    trace.dump(OUT / args.workload / "trace.npz")

    return {
        "tracer.calls": (calls, "count"),
        "tracer.paths": (paths, "count"),
        "tracer.nocov_share": (first.get("tracer.nocov", 0) / calls if calls else 0.0, "ratio"),
        "tracer.candidates": (candidates, "count"),
        "tracer.yield": (paths / candidates if candidates else 0.0, "ratio"),
        "tracer.busy_s": (busy, "s"),
        "tracer.us_per_call": (busy / calls * 1e6 if calls else 0.0, "us"),
        "channel.kernel_self_s": (kernel, "s"),
        "channel.tap_cells": (tap_cells, "count"),
        "channel.ns_per_tap_cell": (kernel / tap_cells * 1e9 if tap_cells else 0.0, "ns"),
        "channel.impulse_response_s": (med("channel.impulse_response.busy_s"), "s"),
        "channel.received_power_s": (med("channel.received_power.busy_s"), "s"),
        "channel.pdp_s": (med("channel.power_delay_profile.busy_s"), "s"),
        "channel.moments_s": (statistics.median(
            p.get("channel.rms_delay_spread.busy_s", 0.0)
            + p.get("channel.mean_excess_delay.busy_s", 0.0) for p in passes), "s"),
        "channel.pool_speedup": (speedup, "ratio"),
        "channel.pool_efficiency": (speedup / POOL_WORKERS if pool else 1.0, "ratio"),
        "antenna.gain_calls": (first.get("antenna.gain.calls", 0), "count"),
        "antenna.gain_busy_s": (med("antenna.gain.busy_s"), "s"),
        "setup.import_s": (setup["import_s"], "s"),
        "antenna.make_system_s": (setup["make_system_s"], "s"),
        "scene.build_s": (setup["build_s"], "s"),
        "cli.parse_s": (setup["parse_s"], "s"),
        "cli.csv_write_s": (med("cli.write_sweep_csvs.busy_s"), "s"),
        "cli.csv_bytes": (first.get("cli.csv_bytes", 0), "bytes"),
        "trace.overhead_share": (statistics.median(traced_pass) / statistics.median(base_pass)
                                 - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_mmray()
    from workloads import WORKLOADS, Ledger, Reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    ledger = Ledger()
    reference = Reference()
    workload = WORKLOADS[args.workload](args.seed, OUT / args.workload, ledger, reference)
    workload.prepare()

    if args.trace:
        metrics = per_layer(workload, args, ledger)
    else:
        metrics = end_to_end(workload, args, ledger)

    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<18} {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
