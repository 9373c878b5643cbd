"""Measure one workload: set-up, timed passes, correctness, metrics.

``measure`` runs in this order: set-up (repeated, median reported),
references, then either the timed passes (``trace=False``: end-to-end
metrics) or the traced run (``trace=True``: untraced and traced passes
alternate; per-layer metrics).  A ``gc.collect()`` precedes every pass;
outputs are checked after each pass stops its clock.  End-to-end times
(``setup_s``, the rates, the latency percentiles) are host-normalised
seconds (``perfbench.hostclock``); per-layer seconds are wall seconds.
Per-layer seconds and counts are per traced pass.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench.hostclock import REF_PROBE_S, probe, scales
from perfbench.layers import SpanRecorder, copy_bandwidth, traced
from perfbench.workloads import make_workload

#: End-to-end metric -> unit (emitted on every workload).
END_TO_END = {
    "setup_s": "s",
    "gates_per_s": "gates/s",
    "rows_per_s": "rows/s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_mem_mb": "MiB",
    "ok_frac": "fraction",
}

#: Per-layer metric -> unit (emitted on every workload by the traced run).
PER_LAYER = {
    "dmav.kernel_s": "s",
    "dmav.calls": "count",
    "dmav.gate_us_p50": "us",
    "dmav.macs": "count",
    "dmav.bytes_computed": "bytes",
    "dmav.gbps": "GB/s",
    "dmav.roofline_frac": "fraction",
    "sweep.array_s": "s",
    "sweep.gates_batched": "count",
    "sweep.gates_rowloop": "count",
    "sweep.groups": "count",
    "plan.get_s": "s",
    "plan.hit_ratio": "fraction",
    "plan.compiles": "count",
    "gatecache.get_s": "s",
    "gatecache.calls": "count",
    "gatecache.hit_ratio": "fraction",
    "dd.mv_s": "s",
    "dd.mv_calls": "count",
    "dd.node_count_s": "s",
    "ewma.update_s": "s",
    "ewma.convert_at": "gate",
    "dd.gc_s": "s",
    "dd.gc_calls": "count",
    "dd.rewind_s": "s",
    "conversion.s": "s",
    "conversion.gbps": "GB/s",
    "reorder.s": "s",
    "run.self_s": "s",
    "serve.submit_s": "s",
    "serve.scheduler_s": "s",
    "serve.dedup_ratio": "fraction",
    "serve.cache_hit_ratio": "fraction",
    "serve.cache_s": "s",
    "serve.worker_self_s": "s",
    "host.copy_gbps": "GB/s",
    "host.speed": "fraction",
    "trace.overhead_frac": "fraction",
}

#: Set-ups per run; their median is ``setup_s``.
SETUPS = 3


def _timed_pass(wl, recorder: SpanRecorder | None = None):
    """One pass after a ``gc.collect()``, traced when given a recorder.

    Its outputs are checked (mismatches join ``failed``), then dropped.
    """
    gc.collect()
    if recorder is None:
        p = wl.run_pass()
    else:
        with traced(recorder), recorder.span("pass"):
            p = wl.run_pass()
    p.failed += wl.check(p)
    p.outputs = []
    return p


def _run_for(seconds: float, step) -> list:
    """Repeat ``step`` (which returns a list of passes) for ``seconds``."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes += step()
    return passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_each(lists) -> list[float]:
    """Per position, the median of equally ordered lists."""
    return [statistics.median(xs) for xs in zip(*lists)]


def _units(p) -> list[float]:
    """The pass's unit times in host-normalised seconds."""
    return [u * k for u, k in zip(p.units, scales(p.probes))]


def _latencies(p) -> list[float]:
    """The pass's job latencies in host-normalised seconds."""
    k = scales(p.probes)
    return [x * k[u] for x, u in zip(p.latencies, p.latency_units)]


def _wall(passes) -> float:
    """A pass in host-normalised seconds: the sum over its units of
    each unit's median across ``passes``."""
    return sum(_median_each(_units(p) for p in passes))


def end_to_end(passes, setup_s: float) -> dict:
    """End-to-end metrics.

    Times are host-normalised (``perfbench.hostclock``): rates use
    ``_wall`` and latency percentiles each job's median latency across
    the passes; correctness counts every pass.
    """
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall = _wall(passes)
    latencies = _median_each(_latencies(p) for p in passes) or [0.0]
    return {
        "setup_s": setup_s,
        "gates_per_s": max(p.gates for p in passes) / wall,
        "rows_per_s": max(p.rows for p in passes) / wall,
        "jobs_per_s": max(p.jobs for p in passes) / wall,
        "job_p50_s": float(np.percentile(latencies, 50)),
        "job_p90_s": float(np.percentile(latencies, 90)),
        "peak_mem_mb": statistics.median(
            p.peak_mem_bytes / 2**20 for p in passes
        ),
        "ok_frac": _ratio(attempted - failed, attempted),
    }


def per_layer(rec: SpanRecorder, passes, untraced_wall: float,
              host_gbps: float) -> dict:
    n = len(passes)
    tot = rec.layer_totals()

    def self_s(layer):
        return tot.get(layer, {}).get("self_s", 0.0) / n

    def calls(layer):
        return tot.get(layer, {}).get("calls", 0)

    def meta_sum(key):
        return sum(m.get(key) or 0 for p in passes for m in p.metadata) / n

    converted = [
        m["conversion_gate_index"] for p in passes for m in p.metadata
        if m.get("conversion_gate_index") is not None
    ]
    dmav_s = self_s("dmav")
    dmav_bytes = rec.counters["dmav.bytes"] / n
    dmav_gbps = _ratio(dmav_bytes, dmav_s) / 1e9
    dmav_times = rec.durations("dmav")
    # The cache counters live on each service; the last drain's report
    # of a pass holds that pass's totals.
    cache = [p.reports[-1].cache for p in passes if p.reports]
    jobs = sum(r.jobs for p in passes for r in p.reports)
    traced_wall = _wall(passes)
    return {
        "dmav.kernel_s": dmav_s,
        "dmav.calls": calls("dmav") / n,
        "dmav.gate_us_p50": (
            statistics.median(dmav_times) * 1e6 if dmav_times else 0.0
        ),
        "dmav.macs": meta_sum("dmav_macs_total"),
        "dmav.bytes_computed": dmav_bytes,
        "dmav.gbps": dmav_gbps,
        "dmav.roofline_frac": _ratio(dmav_gbps, host_gbps),
        "sweep.array_s": self_s("sweep"),
        "sweep.gates_batched": meta_sum("gates_batched"),
        "sweep.gates_rowloop": meta_sum("gates_rowloop"),
        "sweep.groups": meta_sum("groups"),
        "plan.get_s": self_s("plan"),
        "plan.hit_ratio": _ratio(rec.counters["plan.gate_hits"], calls("plan")),
        "plan.compiles": rec.counters["plan.compiles"] / n,
        "gatecache.get_s": self_s("gatecache"),
        "gatecache.calls": calls("gatecache") / n,
        "gatecache.hit_ratio": _ratio(
            rec.counters["gatecache.hits"], calls("gatecache")
        ),
        "dd.mv_s": self_s("mv"),
        "dd.mv_calls": calls("mv") / n,
        "dd.node_count_s": self_s("node_count"),
        "ewma.update_s": self_s("ewma"),
        # Mean conversion gate over converted runs; -1 when none converted
        # (sweep results do not report it).
        "ewma.convert_at": (
            statistics.fmean(converted) if converted else -1.0
        ),
        "dd.gc_s": self_s("gc"),
        "dd.gc_calls": calls("gc") / n,
        "dd.rewind_s": self_s("rewind"),
        "conversion.s": self_s("conversion"),
        "conversion.gbps": _ratio(
            rec.counters["conversion.bytes"] / n, self_s("conversion")
        ) / 1e9,
        "reorder.s": self_s("reorder"),
        "run.self_s": self_s("run"),
        "serve.submit_s": self_s("submit"),
        "serve.scheduler_s": self_s("scheduler"),
        "serve.dedup_ratio": _ratio(
            sum(r.deduped_jobs for p in passes for r in p.reports), jobs
        ),
        "serve.cache_hit_ratio": _ratio(
            sum(c["hits"] for c in cache),
            sum(c["hits"] + c["misses"] for c in cache),
        ),
        "serve.cache_s": self_s("cache"),
        "serve.worker_self_s": self_s("worker"),
        "host.copy_gbps": host_gbps,
        "host.speed": REF_PROBE_S / statistics.median(
            x for p in passes for x in p.probes
        ),
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall, untraced_wall),
    }


def _write_spans(path: Path, workload: str, seed: int, rec: SpanRecorder):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "columns": ["layer", "start_s", "end_s", "parent"],
                "spans": rec.spans,
            },
            fh,
        )


def _print_breakdown(rec: SpanRecorder, passes) -> None:
    n = len(passes)
    wall = sum(p.wall_s for p in passes) / n
    print(f"per-layer self time per pass ({n} traced passes, "
          f"{wall:.3f} s each):")
    rows = sorted(rec.layer_totals().items(), key=lambda kv: -kv[1]["self_s"])
    for layer, t in rows:
        print(f"  {layer:<12} {t['self_s'] / n:9.4f} s  "
              f"{100 * t['self_s'] / n / wall:5.1f}%  "
              f"calls={t['calls'] / n:g}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0, tiny: bool = False,
            copy_amplitudes: int | None = None,
            spans_path: Path | None = None) -> dict:
    """Run ``workload`` and return the result object the CLI prints."""
    setup_times, raw_times = [], []
    for _ in range(SETUPS):
        before = probe()
        t0 = time.perf_counter()
        wl = make_workload(workload, seed, tiny)
        wl.build()
        wl.run_pass()  # warm-up
        raw_times.append(time.perf_counter() - t0)
        setup_times.append(raw_times[-1] * scales([before, probe()])[0])
    setup_s = import_s + statistics.median(setup_times)
    print(f"setup (host-normalised s): import {import_s:.3f} + median of "
          f"{[round(t, 3) for t in setup_times]} "
          f"(wall {[round(t, 3) for t in raw_times]})")
    wl.references()

    if not trace:
        passes = _run_for(seconds, lambda: [_timed_pass(wl)])
        metrics = end_to_end(passes, setup_s)
        units = END_TO_END
        print(f"{len(passes)} timed passes of wall "
              f"{[round(p.wall_s, 3) for p in passes]} s; median pass "
              f"{_wall(passes):.3f} host-normalised s over "
              f"{len(passes[0].units)} units; latency percentiles over "
              f"{len(passes[0].latencies)} jobs' median latencies")
    else:
        copy = copy_bandwidth(copy_amplitudes)
        print(f"host copy: {copy['gbps']:.2f} GB/s over complex128 arrays "
              f"of {copy['array_bytes'] / 2**20:.0f} MiB each "
              f"(last-level cache {copy['llc_bytes'] / 2**20:.0f} MiB; "
              "bytes computed from array sizes)")
        # Untraced and traced passes alternate, so the tracing overhead
        # compares passes run under the same host load.
        rec = SpanRecorder()
        passes = _run_for(
            seconds, lambda: [_timed_pass(wl), _timed_pass(wl, rec)]
        )
        plain, traced_passes = passes[0::2], passes[1::2]
        _print_breakdown(rec, traced_passes)
        if spans_path is not None:
            _write_spans(spans_path, workload, seed, rec)
        metrics = per_layer(rec, traced_passes, _wall(plain), copy["gbps"])
        units = PER_LAYER

    failed = sum(p.failed for p in passes)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
