"""hilsim benchmark: one workload per run, outputs checked, one JSON result line.

    python3 perfbench/run.py --workload suites_local --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports hilsim from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, measured with tracing off. With ``--trace 1`` the run spends a
third of ``--seconds`` untraced and the rest with layer spans installed, and
the last line carries the per-layer metrics of BENCHMARK.json; every per-layer
figure the trace yields, the tracing overhead among them, goes to the human
summary and to the result file ``perfbench/out/<workload>-seed<n>-trace<t>.json``.

``correct`` is false when an output misses its expectation for a reason other
than a defect listed in ``oracle.KNOWN_DEFECTS``. ``attempted`` and ``failed``
count the checks of the seed's first ``counted_units`` units of work, so they
repeat exactly for a seed; ``failed`` counts every miss among them, known
defects included, so fixing one shows as fewer failed operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("suites_local", "edges_local", "tcp_suites")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(phase, setup_times, peak_rss_mb) -> dict:
    """Case rate and latency percentiles are medians over the phase's windows;
    edges and simulated time per case are exact ratios over the whole phase."""
    windows = phase.windows()

    def over_windows(samples_of, q):
        return statistics.median(percentile(samples_of(w), q) for w in windows)

    rate = statistics.median(len(cases) / scaled_s for scaled_s, cases, _ in windows)
    cases = len(phase.case_ns)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "cases_per_s": (rate, "1/s"),
        "case_p50_ms": (over_windows(lambda w: w[1], 50) / 1e6, "ms"),
        "case_p99_ms": (over_windows(lambda w: w[1], 99) / 1e6, "ms"),
        "req_p50_us": (over_windows(lambda w: w[2], 50) / 1e3, "us"),
        "req_p99_us": (over_windows(lambda w: w[2], 99) / 1e3, "us"),
        "edges_per_s": (phase.edges / cases * rate, "1/s"),
        "sim_s_per_host_s": (phase.sim_ns / 1e9 / cases * rate, "s/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def whole_phase(phase) -> dict:
    """The same figures over the whole phase, without windows, for reference."""
    requests = [ns for samples in phase.req_ns.values() for ns in samples]
    return {
        "cases_per_s": len(phase.case_ns) / phase.host_s,
        "case_p50_ms": percentile(phase.case_ns, 50) / 1e6,
        "case_p99_ms": percentile(phase.case_ns, 99) / 1e6,
        "req_p50_us": percentile(requests, 50) / 1e3,
        "req_p99_us": percentile(requests, 99) / 1e3,
        "raw_cases_per_s": len(phase.case_ns) / (phase.raw_host_ns / 1e9),
    }


def merge_summaries(summaries) -> tuple[dict, Counter]:
    """Earlier summaries win for a span name; counters add up."""
    spans, counters = {}, Counter()
    for summary in summaries:
        for name, stats in summary.get("spans", {}).items():
            spans.setdefault(name, stats)
        counters.update(summary.get("counters", {}))
    return spans, counters


SPAN_METRICS = [
    ("bench.construct_us", "bench.construct", "median_us"),
    ("bench.reset_us", "bench.reset", "median_us"),
    ("refdev.regfile_init_us", "refdev.regfile_init", "median_us"),
    ("memmap.compute_layout_us", "memmap.compute_layout", "median_us"),
    ("memmap.emit_csv_us", "memmap.emit_csv", "median_us"),
    ("pal.namemap_build_us", "pal.namemap_build", "median_us"),
    *[(f"refdev.handle_line_us.{c}", f"refdev.handle_line.{c}", "median_us") for c in ("rr", "wr", "ex", "-v")],
    *[(f"dut.handle_line_us.{f}", f"dut.handle_line.{f}", "self_median_us")
      for f in ("i2c", "spi", "uart", "gpio", "timer", "infra")],
    *[(f"sim.bus.txn_us.{b}", f"sim.bus.txn.{b}", "median_us") for b in ("i2c", "spi", "uart")],
    ("sim.trace.publish_us", "sim.trace.publish", "median_us"),
    ("sim.trace.record_edge_us", "sim.trace.record_edge", "median_us"),
    ("sim.clock.run_until_idle_us", "sim.clock.run_until_idle", "median_us"),
    ("pal.read_reg_us", "pal.read_reg", "self_median_us"),
    ("pal.write_reg_us", "pal.write_reg", "self_median_us"),
    ("pal.execute_us", "pal.execute", "self_median_us"),
    ("harness.run_case_self_us", "harness.run_case", "self_median_us"),
    ("harness.read_trace_us", "harness.read_trace", "median_us"),
    ("harness.stats_us", "harness.stats", "median_us"),
]


def per_layer(spans: dict, counters: Counter, untraced, traced, served: bool) -> dict:
    """Every per-layer figure. Span times are medians per call in µs, self time where named."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {metric: (spans.get(span, {}).get(field, 0.0), "us") for metric, span, field in SPAN_METRICS}
    written = counters["sim.trace.entries_written"]
    out.update({
        "bench.reset_calls": (calls("bench.reset"), "count"),
        "sim.bus.txns": (sum(calls(f"sim.bus.txn.{b}") for b in ("i2c", "spi", "uart")), "count"),
        "sim.trace.publish_calls": (calls("sim.trace.publish"), "count"),
        "sim.trace.entries_written": (written, "count"),
        "sim.trace.publish_useful_ratio": (counters["sim.trace.new_events_published"] / written if written else 0.0, "ratio"),
        "sim.clock.events_run": (counters["sim.clock.events_run"], "count"),
    })
    for endpoint in ("ref", "dut"):
        out[f"pal.requests_per_case.{endpoint}"] = (traced.case_requests[endpoint] / len(traced.case_ns), "count")
    out["tracing.overhead_pct"] = (
        (len(untraced.case_ns) / untraced.host_s) / (len(traced.case_ns) / traced.host_s) * 100 - 100, "%")
    if served:
        # round trips come from the untraced phase; in-process handle_line from the traced server
        overhead_sum = overhead_n = 0
        for (endpoint, cmd), samples in sorted(untraced.req_ns.items()):
            rtt = statistics.median(samples) / 1e3
            out[f"serve.rtt_us.{endpoint}.{cmd}"] = (rtt, "us")
            handled = spans.get(f"{'refdev' if endpoint == 'ref' else 'dut'}.handle_line.{cmd}")
            if handled:
                overhead_sum += (rtt - handled["median_us"]) * len(samples)
                overhead_n += len(samples)
        out["serve.rtt_overhead_us"] = (overhead_sum / overhead_n, "us")
    return out


def pin_to_one_cpu() -> None:
    """Keep this process, and the server child it starts, on one CPU.

    With client and server free to run on either of two virtual CPUs of a
    shared host, served-suite throughput varied 2.5 times between runs and its
    p99 latencies 3 times; on one CPU each request and reply is a switch
    between two processes on the same CPU, and those spreads over ten seeds
    were at most 0.10 of the median.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def metadata(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "network": "tcp_suites traffic crosses loopback (127.0.0.1) on one host, not a real link",
    }


def run_workload(args) -> dict:
    from oracle import KNOWN_DEFECTS
    from tracer import Tracer
    from workloads import WORKLOADS, Phase

    workload = WORKLOADS[args.workload](args.seed, ROOT, OUT_DIR)
    try:
        setups = workload.timed_setups()
        setup_times = [scaled for scaled, _ in setups]
        if args.trace:
            untraced = workload.run_phase(Phase(), args.seconds / 3)
            tracer = Tracer()
            workload.start_tracing(tracer)
            traced = workload.run_phase(Phase(tracer), args.seconds * 2 / 3)
            server_reports = workload.traced_setup(tracer)
            tracer.uninstall()
            phases = [untraced, traced]
        else:
            phases = [workload.run_phase(Phase(), args.seconds)]
    finally:
        closing = workload.close()
    if args.workload == "tcp_suites":
        # the served bench's clock is the simulated time
        end_sim = closing["server"]["sim_now_ns"]
        switch = workload.sim_at_switch if args.trace else end_sim
        phases[0].sim_ns = switch
        if args.trace:
            phases[1].sim_ns = end_sim - switch
    # attempted and failed: the checks of the seed's first counted units, so
    # they repeat exactly for a seed; the whole run's checks decide correct
    counted = workload.counted
    misses = [m for p in phases for m in p.misses]
    result = {
        "metadata": metadata(args),
        "digest": workload.digest,
        "digest_units": workload.digested,
        "counted_units": workload.counted_units,
        "attempted": counted.attempted,
        "failed": len(counted.misses),
        "failed_share": len(counted.misses) / counted.attempted,
        "known_defects": {name: {"misses": count, "defect": KNOWN_DEFECTS[name]}
                          for name, count in Counter(m.defect for m in counted.misses if m.defect).items()},
        "whole_run": {"units": workload.units, "attempted": sum(p.attempted for p in phases),
                      "failed": len(misses),
                      "known_defects": dict(Counter(m.defect for m in misses if m.defect))},
        "unexplained": [m.detail for m in misses if not m.defect][:20],
        "setup_s": {"scaled": setup_times, "raw": [raw for _, raw in setups]},
        "phases": [
            {"traced": p.tracer is not None, "host_s": p.host_s, "raw_host_s": p.raw_host_ns / 1e9,
             "cases": len(p.case_ns),
             "requests": sum(map(len, p.req_ns.values())), "suite_runs": p.suite_runs,
             "edges": p.edges, "sim_ns": p.sim_ns,
             "windows": len(p.windows()), "whole_phase": whole_phase(p),
             "end_to_end": end_to_end(p, setup_times, closing["peak_rss_mb"])}
            for p in phases
        ],
    }
    if args.trace:
        summaries = [tracer.summary(), closing.get("server", {}), *server_reports]
        spans, counters = merge_summaries(summaries)
        result["per_layer"] = per_layer(spans, counters, untraced, traced, args.workload == "tcp_suites")
        result["spans"] = spans
        result["spans_dropped"] = sum(s.get("spans_dropped", 0) for s in summaries)
    return result


def last_line(result: dict, wanted: list[str], metrics: dict) -> dict:
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not result["unexplained"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }


def print_summary(name: str, result: dict, line: dict) -> None:
    print(f"[{name}] seed {result['metadata']['seed']}, digest {result['digest']} "
          f"over {result['digest_units']} units")
    for p in result["phases"]:
        label = "traced" if p["traced"] else "untraced"
        print(f"[{name}] {label}: {p['cases']} cases, {p['requests']} requests, {p['suite_runs']} suite runs, "
              f"{p['edges']} edges in {p['host_s']:.2f} s")
        for metric, (value, unit) in p["end_to_end"].items():
            print(f"[{name}]   {metric:<20} {value:14.6g} {unit}")
    whole = result["whole_run"]
    print(f"[{name}] oracle: {result['failed']} of {result['attempted']} checks missed "
          f"(failed_share {result['failed_share']:.4f}) in the first {result['counted_units']} units; "
          f"{whole['failed']} of {whole['attempted']} in all {whole['units']}")
    for defect, entry in result["known_defects"].items():
        print(f"[{name}]   {entry['misses']} x {defect}: {entry['defect']}")
    for detail in result["unexplained"]:
        print(f"[{name}] UNEXPLAINED: {detail}")
    for metric, (value, unit) in result.get("per_layer", {}).items():
        print(f"[{name}]   {metric:<34} {value:14.6g} {unit}")
    print(f"[{name}] correct={line['correct']}")


def run_all(args) -> dict:
    """Each workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # run the finally blocks that stop the server child when asked to stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hilsim").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"run from a hilsim checkout: {ROOT / 'src' / 'hilsim'} is missing\n")
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT_DIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    result = run_workload(args)
    if args.trace:
        wanted, metrics = [m["name"] for m in spec["per_layer"]], result["per_layer"]
    else:
        wanted, metrics = [m["name"] for m in spec["end_to_end"]], result["phases"][0]["end_to_end"]
    line = last_line(result, wanted, metrics)
    result["result"] = line
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str) + "\n", "utf-8")
    print_summary(args.workload, result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
