#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload rpc_tcp --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as users
run it: observability off, the interpreter's GC and thread switch
interval at their defaults.  ``--trace 1`` measures the per-layer
metrics instead: it first runs the workload untraced for half the time
(the baseline for the tracing overhead), then wraps the calls into each
layer (see ``probes.py``), builds a fresh world, and runs the traced
half; it writes the spans to ``perfbench/results/`` as a Chrome
``trace_event`` file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give every metric by name and unit, the latency tail, and host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Settings that change what the program does; a measurement under any of
#: them would not be what users get.
REFUSED_ENV = ("TDP_OBS", "TDP_SANITIZE", "TDP_FAULTPLAN")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "p50_ms": "ms",
    "launch_ms": "ms",
    "cpu_ms_per_op": "ms",
    "rss_mb": "MB",
}

#: Per-layer metrics of the attribute-space layers, on every workload.
PER_LAYER = {
    "client.call_us": "us",
    "client.frame_build_us": "us",
    "client.wakeup_us": "us",
    "codec.encode_us": "us",
    "codec.decode_us": "us",
    "codec.bytes_per_op": "B",
    "framing.feed_us": "us",
    "framing.frames_per_feed": "ratio",
    "transport.hop_us": "us",
    "transport.sends_per_op": "count",
    "server.dispatch_us": "us",
    "server.requests_per_op": "count",
    "store.op_us": "us",
    "store.calls_per_op": "count",
    "seam.unattributed_us": "us",
    "notify.publish_us": "us",
    "notify.deliveries_per_publish": "count",
    "federation.notify_relay_ms": "ms",
    "federation.miss_get_ms": "ms",
    "federation.forwards_per_event": "count",
    "federation.forwarded_gets_per_event": "count",
    "federation.cass_egress_per_event": "count",
    "trace.overhead_cpu_ms_per_op": "ms",
}

#: Per-layer metrics of the resource manager, TDP and tool daemons, added
#: on the scenario workloads (``pilot``, ``mpi16``).
SCENARIO_LAYER = {
    "condor.submit_us": "us",
    "condor.submit_to_start_ms": "ms",
    "tdp.create_process_us": "us",
    "tdp.attach_us": "us",
    "tdp.continue_process_us": "us",
    "tdp.get_wait_ms": "ms",
    "paradyn.launch_to_attach_ms": "ms",
    "mpi.rank_launch_ms": "ms",
    "handle.polls_per_job": "count",
    "handle.empty_poll_ratio": "ratio",
    "tdp.put_many_per_job": "count",
    "sim.slices_per_job": "count",
    "transport.inmem_msgs_per_job": "count",
    "log.records_per_job": "count",
    "framing.roundtrip_us": "us",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- host facts ---------------------------------------------------------------------

def _cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> int | None:
    """Run this process's threads on one CPU; returns it (None if unsupported).

    Called before any thread starts, so every daemon, server loop and
    client thread inherits it.  On a 2-vCPU VM, unpinned runs follow how
    much host time the second vCPU gets and now and then fail: in ten
    30 s runs each, unpinned ``rpc_tcp`` ops/s spread 0.38 and 5 runs
    lost an op or crashed, ``fed_relay`` spread 0.53 with 3 failing;
    pinned, both spread under 0.1 with none failing (see README).
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_facts(ticks_before: list[int] | None, pinned: int | None) -> dict:
    """Facts that let a noisy run be recognised beside its figures."""
    ticks_after = _cpu_ticks()
    steal = None
    if ticks_before is not None and ticks_after is not None:
        delta = [b - a for a, b in zip(ticks_before, ticks_after)]
        total = sum(delta)
        # fields: user nice system idle iowait irq softirq steal
        steal = round(delta[7] / total, 4) if total else 0.0
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "steal_share": steal,
        "loadavg": load,
    }


# -- measurement --------------------------------------------------------------------

_clock = time.perf_counter


#: The timed loop is cut into windows of at least this much wall time;
#: throughput and CPU per op are medians over windows, so a burst of
#: host noise moves one window, not the run's figure.
WINDOW_S = 1.0


class Loop:
    """One timed loop: the ops' sample plus per-window (ops, wall, cpu)."""

    def __init__(self, sample, windows, wall, cpu):
        self.sample = sample
        self.windows = windows
        self.wall = wall
        self.cpu = cpu

    def ops_per_s(self) -> float:
        return statistics.median(ops / wall for ops, wall, _cpu in self.windows)

    def cpu_ms_per_op(self) -> float:
        return statistics.median(cpu / ops * 1e3 for ops, _wall, cpu in self.windows)


def timed_loop(workload, seconds: float) -> Loop:
    """Whole rounds until ``seconds`` have passed."""
    from workloads import Sample

    sample = Sample()
    windows: list[tuple[int, float, float]] = []
    ops = wall = cpu = 0
    cpu0 = time.process_time()
    start = _clock()
    while True:
        done0, t0, c0 = len(sample.latencies), _clock(), time.process_time()
        workload.run_round(sample)
        ops += len(sample.latencies) - done0
        wall += _clock() - t0
        cpu += time.process_time() - c0
        if wall >= WINDOW_S and ops:
            windows.append((ops, wall, cpu))
            ops = wall = cpu = 0
        if _clock() - start >= seconds:
            break
    if ops and not windows:
        windows.append((ops, wall, cpu))
    return Loop(sample, windows, _clock() - start, time.process_time() - cpu0)


def _quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_report(latencies: Sequence[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(latencies)
    for q in (0.99, 0.95, 0.90):
        if n * (1 - q) >= 10:
            return f"p{round(q * 100)}={_quantile(latencies, q) * 1e3:.4f} ms (n={n})"
    return f"no tail percentile: n={n} leaves fewer than ten samples beyond p90"


def measure_untraced(cls, seed: int, seconds: float) -> tuple[dict, object, list[str]]:
    setups = []
    workload = None
    for i in range(cls.setup_repeats):
        workload = cls(seed)
        start = _clock()
        workload.build()
        setups.append(_clock() - start)
        if i < cls.setup_repeats - 1:
            workload.teardown()
    loop = timed_loop(workload, seconds)
    # read the peak before the checks and the statistics below allocate
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample = loop.sample
    problems = workload.problems()
    workload.teardown()
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": loop.ops_per_s(),
        "p50_ms": statistics.median(sample.latencies) * 1e3,
        "launch_ms": statistics.median(sample.launches) * 1e3,
        "cpu_ms_per_op": loop.cpu_ms_per_op(),
        "rss_mb": rss_mb,
    }
    print(f"latency tail: {tail_report(sample.latencies)}")
    print(f"timed loop: {len(sample.latencies)} ops in {loop.wall:.2f} s, "
          f"{len(loop.windows)} windows")
    print(f"setup repeats: {', '.join(f'{s:.4f}' for s in setups)} s")
    return metrics, sample, problems


def measure_traced(cls, seed: int, seconds: float) -> tuple[dict, object, list[str]]:
    import probes

    rec = probes.RECORDER
    half = seconds / 2
    workload = cls(seed)
    workload.build()
    base = timed_loop(workload, half)
    problems = workload.problems()
    workload.teardown()

    probes.install()
    workload = cls(seed)
    workload.pause = rec.paused

    def next_op() -> None:
        rec.op += 1

    workload.on_op = next_op
    workload.build()
    rec.reset()
    before = workload.counters()
    rec.active = True
    traced = timed_loop(workload, half)
    rec.active = False
    after = workload.counters()
    problems += workload.problems()
    workload.teardown()

    sample = traced.sample
    ops = len(sample.latencies)
    delta = {k: after[k] - before[k] for k in after}
    seams = probes.rpc_seams(threading.get_ident()) if cls.one_call_in_flight else {}
    metrics = layer_metrics(ops, delta, sample, seams, probes.launch_breakdown())
    metrics["trace.overhead_cpu_ms_per_op"] = (
        traced.cpu / ops - base.cpu / len(base.sample.latencies)) * 1e3

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{cls.name}-seed{seed}.json"
    written = probes.write_chrome(str(path))
    print(f"span file: {path.relative_to(ROOT)} ({written} spans, Chrome trace_event)")
    # the untraced half's ops were attempted too
    sample.latencies = base.sample.latencies + sample.latencies
    sample.failed += base.sample.failed
    return metrics, sample, problems


#: Above these shares the seam breakdown is flagged as not describing
#: the calls (see ``probes.rpc_seams``).
SEAM_MISORDERED_MAX = 0.01
SEAM_UNATTRIBUTED_MAX = 0.10


def layer_metrics(ops: int, counters: dict, sample, seams: dict, launch: dict) -> dict:
    import probes

    totals = probes.RECORDER.totals
    empty = probes.Totals()

    def t(name: str):
        return totals.get(name, empty)

    def per_op_us(ns: float) -> float:
        return ns / ops / 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_ms(values: Sequence[float]) -> float:
        return statistics.fmean(values) * 1e3 if values else 0.0

    m = {
        "client.call_us": per_op_us(t("client.call").total_ns),
        "client.frame_build_us": 0.0,
        "client.wakeup_us": 0.0,
        "transport.hop_us": 0.0,
        "seam.unattributed_us": 0.0,
    }
    if seams:
        # exactly one call in flight: the per-call seam breakdown applies
        m["client.call_us"] = seams["call"]
        m["client.frame_build_us"] = seams["frame_build"]
        m["client.wakeup_us"] = seams["wakeup"]
        m["transport.hop_us"] = seams["hop"]
        m["seam.unattributed_us"] = seams["unattributed"]
        accounted = (seams["frame_build"] + seams["hop"] + seams["wakeup"]
                     + seams["unattributed"] + seams["covered"])
        # The sum matches the call unless spans of different threads
        # overlap; the sequence and the unattributed share can fail.
        misordered = ratio(seams["misordered"], seams["calls"])
        unattributed = ratio(seams["unattributed"], seams["call"])
        print(f"seam check: seams + unattributed = {accounted:.2f} us, "
              f"client call = {seams['call']:.2f} us "
              f"(ratio {ratio(accounted, seams['call']):.4f} over {seams['calls']} calls); "
              f"out of sequence {misordered:.4f} of calls, "
              f"unattributed {unattributed:.4f} of call time")
        if misordered > SEAM_MISORDERED_MAX or unattributed > SEAM_UNATTRIBUTED_MAX:
            print(f"seam check WARNING: more than {SEAM_MISORDERED_MAX} of calls out of "
                  f"sequence or {SEAM_UNATTRIBUTED_MAX} of call time unattributed; "
                  "the seam breakdown does not describe these calls")
    m.update({
        "codec.encode_us": per_op_us(t("codec.encode").self_ns),
        "codec.decode_us": per_op_us(t("codec.decode").self_ns),
        "codec.bytes_per_op": t("codec.encode").units / ops,
        "framing.feed_us": per_op_us(t("framing.feed").self_ns),
        "framing.frames_per_feed": ratio(t("framing.feed").units, t("framing.feed").calls),
        "transport.sends_per_op": t("transport.send").calls / ops,
        "server.dispatch_us": per_op_us(t("server.dispatch").self_ns),
        "server.requests_per_op": t("server.dispatch").calls / ops,
        "store.op_us": per_op_us(t("store.op").self_ns),
        "store.calls_per_op": t("store.op").outer / ops,
        "notify.publish_us": per_op_us(t("notify.publish").self_ns),
        "notify.deliveries_per_publish": ratio(
            t("notify.publish").units, t("notify.publish").calls),
        "federation.notify_relay_ms": mean_ms(sample.relay),
        "federation.miss_get_ms": mean_ms(sample.miss_get),
        "federation.forwards_per_event": counters.get("federation.forwards", 0) / ops,
        "federation.forwarded_gets_per_event":
            counters.get("federation.forwarded_gets", 0) / ops,
        "federation.cass_egress_per_event": counters.get("cass.egress", 0) / ops,
        "condor.submit_us": per_op_us(t("condor.submit").total_ns),
        "tdp.create_process_us": per_op_us(t("tdp.create_process").total_ns),
        "tdp.attach_us": per_op_us(t("tdp.attach").total_ns),
        "tdp.continue_process_us": per_op_us(t("tdp.continue_process").total_ns),
        "handle.polls_per_job": t("handle.service_events").calls / ops,
        "handle.empty_poll_ratio": ratio(
            t("handle.service_events").units, t("handle.service_events").calls),
        "tdp.put_many_per_job": t("tdp.put_many").calls / ops,
        "sim.slices_per_job": counters.get("sim.slices", 0) / ops,
        "transport.inmem_msgs_per_job": t("transport.inmem_send").calls / ops,
        "log.records_per_job": t("log.record").calls / ops,
        "framing.roundtrip_us": per_op_us(t("framing.roundtrip").total_ns),
    })
    m.update(launch)
    return m


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to measure with {', '.join(refused)} set: the benchmark "
              "measures the program as users run it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from repro import obs
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 1
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"imported repro from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if obs.enabled():
        print("observability is on; the benchmark measures with it off", file=sys.stderr)
        return 1

    pinned = pin_to_one_cpu()
    ticks = _cpu_ticks()
    if args.trace:
        metrics, sample, problems = measure_traced(cls, args.seed, args.seconds)
        units = dict(PER_LAYER, **(SCENARIO_LAYER if cls.parador else {}))
        metrics = {name: metrics[name] for name in units}
    else:
        metrics, sample, problems = measure_untraced(cls, args.seed, args.seconds)
        units = END_TO_END
    assert set(metrics) == set(units), sorted(set(metrics) ^ set(units))

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name:38s} {metrics[name]:14.6f} {unit}")
    print(f"host: {json.dumps(host_facts(ticks, pinned))}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
