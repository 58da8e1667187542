"""The traced run: per-layer numbers for every layer of all three workloads.

Each workload gets a third of the run.  Its passes alternate untraced
and traced; the difference in their mean wall time is the tracing
overhead.  Layer times are span self times (span minus child spans) per
traced pass, so within one workload they add up to the traced pass's
wall time.  Reference figures that no workload gates — the fleet at
``jobs=2``, the wire codec, allocations under tracemalloc — are taken
after the passes.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.service.wire import decode_frame, encode_frame

from checks import CHECKS
from common import HostProbe, NullTracer, Tracer
from workloads import (
    Engine,
    build,
    engine_config,
    load_inputs,
    result_digest,
    result_to_dict,
)

#: Engine profiler stages and the per-layer names they report as.
KERNEL_STAGES = {
    "extirpolate": "lomb.extirpolate_s",
    "fft": "ffts.fft_s",
    "lomb_combine": "lomb.combine_s",
    "assemble": "lomb.assemble_s",
}

#: Self times of all spans must add up to the traced pass wall time
#: within this share (the loop code outside the root span).
SPAN_COVERAGE_TOLERANCE = 0.02

#: Span names and the per-layer names their self times report as.
SPAN_LAYERS = {
    "ecg_ward": {
        "ecg.qrs": "ecg.qrs_s",
        "ingest.source": "ingest.clean_s",
        "engine.hub_feed": "engine.hub_feed_s",
        "engine.hub_flush": "engine.hub_flush_s",
        "engine.hub_finalize": "engine.hub_finalize_s",
    },
    "holter_cohort": {"engine.analyze": "engine.analyze_s"},
    "ward_gateway": {
        "service.feed": "service.feed_s",
        "service.finalize": "service.finalize_s",
        "service.read": "service.read_s",
    },
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


class _Traced:
    """One workload's alternating untraced and traced passes.

    ``traced_workload`` runs the traced passes when they need their own
    engine (the profiled one); by default the same workload runs both.
    """

    def __init__(self, name, arrays, seconds, host, layers, failures,
                 traced_workload=None):
        self.workload = build(name, arrays)
        self.workload.warm()
        traced_workload = traced_workload or self.workload
        tracer = Tracer()
        self.plain, self.traced = [], []
        deadline = time.perf_counter() + seconds
        while not self.traced or time.perf_counter() < deadline:
            host.sample()
            self.plain.append(
                self.workload.run_pass(NullTracer(), keep=not self.plain)
            )
            self.traced.append(traced_workload.run_pass(tracer, keep=False))
        failures.extend(CHECKS[name](arrays, self.plain + self.traced))
        self.n = len(self.traced)
        self_times = tracer.self_times()
        for span, layer in SPAN_LAYERS[name].items():
            layers[layer] = self_times.get(span, 0.0) / self.n
        self.counters = self.traced[0].counters
        self.accounting = {
            "untraced_pass_s": _mean(p.wall for p in self.plain),
            "traced_pass_s": _mean(p.wall for p in self.traced),
            "span_self_s": sum(self_times.values()) / self.n,
        }
        self.attempted = sum(p.attempted for p in self.plain + self.traced)


def _traced_ecg(arrays, seconds, host, layers, failures) -> _Traced:
    run = _Traced("ecg_ward", arrays, seconds, host, layers, failures)
    layers["ecg.samples"] = run.counters["samples"]
    layers["ecg.beats"] = run.counters["beats"]
    layers["hrv.corrected_beats"] = run.counters["corrected"]
    layers["engine.flushes"] = run.counters["flushes"]
    layers["engine.windows_per_flush"] = (
        run.counters["flushed_windows"] / run.counters["flushes"]
    )
    return run


def _traced_holter(arrays, seconds, host, layers, failures) -> _Traced:
    profiled = build("holter_cohort", arrays, profile=True)
    profiled.warm()
    engine = profiled.engine
    engine.profiler.reset()
    arena_before = engine.arena.stats()
    run = _Traced(
        "holter_cohort", arrays, seconds, host, layers, failures,
        traced_workload=profiled,
    )
    report = engine.profiler.report()
    kernel = 0.0
    for stage, layer in KERNEL_STAGES.items():
        layers[layer] = report.get(stage, {"seconds": 0.0})["seconds"] / run.n
        kernel += layers[layer]
    layers["engine.analyze_rest_s"] = layers["engine.analyze_s"] - kernel
    arena = engine.arena.stats()
    for key in ("hits", "misses"):
        layers[f"perf.arena_{key}"] = (arena[key] - arena_before[key]) / run.n

    # Net bytes allocated inside the kernel stages, per window, for one
    # recording under tracemalloc (its own slow pass, untimed).
    recordings = [rr for _, _, rr, _ in run.workload.cohort]
    engine.profiler.reset()
    engine.profiler.trace_alloc = True
    tracemalloc.start()
    try:
        result = engine.analyze(recordings[0], count_ops=True)
    finally:
        tracemalloc.stop()
        engine.profiler.trace_alloc = False
    allocated = sum(
        stage["alloc_bytes"] for stage in engine.profiler.report().values()
    )
    layers["perf.alloc_bytes_per_window"] = allocated / result.welch.n_windows

    # Reference only: one jobs=2 pass of the same cohort over the fleet.
    with Engine(engine_config("holter_cohort", jobs=2)) as fleet:
        fleet.analyze_cohort(recordings[:1], count_ops=True)
        start = time.perf_counter()
        results = fleet.analyze_cohort(recordings, count_ops=True)
        layers["fleet.cohort_s"] = time.perf_counter() - start
    digests = run.plain[0].digests
    for (subject, *_), result in zip(run.workload.cohort, results):
        if result_digest(result_to_dict(result)) != digests[subject]:
            failures.append(f"{subject}: fleet result differs from analyze")
    return run


def _codec_seconds(workload, outputs) -> float:
    """Re-encode and decode one pass's frames through the wire codec."""
    frames = []
    for subject, _, times, intervals, bursts, _ in workload.ward:
        frames.extend(
            {"op": "feed", "t": times[lo:hi].tolist(),
             "rr": intervals[lo:hi].tolist()}
            for lo, hi in bursts
        )
        frames.extend(outputs["windows"][subject])
        frames.append(outputs["results"][subject])
    start = time.perf_counter()
    for frame in frames:
        decode_frame(encode_frame(frame))
    return time.perf_counter() - start


def _traced_gateway(arrays, seconds, host, layers, failures) -> _Traced:
    run = _Traced("ward_gateway", arrays, seconds, host, layers, failures)
    for key in ("bytes_sent", "bytes_received", "frames_out"):
        layers[f"service.{key}"] = run.counters[key]
    layers["service.wire_bytes_per_window"] = (
        run.counters["wire_bytes"] / run.traced[0].windows
    )
    layers["service.codec_s"] = _codec_seconds(
        run.workload, run.plain[0].outputs
    )
    return run


def traced_run(inputs_paths: dict, seconds: float) -> dict:
    """Per-layer metrics of all three workloads (see module docstring)."""
    layers: dict[str, float] = {}
    failures: list[str] = []
    accounting = {}
    attempted = 0
    host = HostProbe()
    for name, trace in (
        ("ecg_ward", _traced_ecg),
        ("holter_cohort", _traced_holter),
        ("ward_gateway", _traced_gateway),
    ):
        arrays = load_inputs(inputs_paths[name])
        run = trace(arrays, seconds / 3.0, host, layers, failures)
        accounting[name] = run.accounting
        attempted += run.attempted
        covered = run.accounting["span_self_s"] / run.accounting[
            "traced_pass_s"
        ]
        if abs(covered - 1.0) > SPAN_COVERAGE_TOLERANCE:
            failures.append(
                f"{name}: span self times cover {covered:.1%} of the "
                "traced pass"
            )
    layers["trace.overhead_s"] = sum(
        a["traced_pass_s"] - a["untraced_pass_s"] for a in accounting.values()
    )
    return {
        "attempted": attempted,
        "metrics": layers,
        "failures": failures,
        "accounting": accounting,
        "host": host.medians(),
    }
