"""The three closed loops, driven from one generator process.

Each workload replays its fixed input set in *passes*; a run repeats
whole passes until its time is up and reports medians over them.
``ecg_ward`` and ``holter_cohort`` are the timed workloads;
``ward_gateway`` runs only in the traced run (see README.md).  The
benchmark calls the program only through its public entry points and
opens a span (``tracer.span``) around each call into a layer; with
tracing off the spans are shared no-ops.

All engines pin ``provider``, ``chunk_windows`` and ``jobs=1``, and no
SLO controller is attached: its quality decisions depend on timing,
which would make outputs differ from run to run.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from repro import Engine, EngineConfig
from repro.ecg import StreamingQrsDetector
from repro.hrv.rr import RRSeries
from repro.ingest import ECGSource, ecg_frames
from repro.service import (
    GatewayThread,
    ServiceClient,
    ServiceConfig,
    TenantSpec,
    rest_windows,
)
from repro.service.wire import encode_frame, result_to_dict

from common import CHUNK_WINDOWS, NULL_PROBE, PROVIDER, median, percentile
from inputs import FRAME_SAMPLES, SAMPLING_RATE, subjects

TENANT = "bench"
TOKEN = "bench-token"
#: Seconds of beats one gateway ``feed`` carries (an uplink burst).
BURST_SECONDS = 60.0
#: A feed that needs more ping round trips than this to deliver the
#: windows it completed counts as a lost window.
MAX_SYNCS_PER_FEED = 200
_SYNC_BYTES = len(encode_frame({"op": "ping"})) + len(
    encode_frame({"op": "pong"})
)
#: How often a pass ticks the host probe: every this many ECG source
#: steps (~25 ms of work), or this many ticks before each 24 h
#: ``analyze`` call (~0.5 s).
ECG_STEPS_PER_TICK = 16
HOLTER_TICKS_PER_CALL = 8


def engine_config(workload: str, jobs: int = 1, profile: bool = False):
    """The pinned config each workload runs under."""
    if workload == "ward_gateway":
        return EngineConfig(
            provider=PROVIDER, chunk_windows=CHUNK_WINDOWS, jobs=jobs
        )
    return EngineConfig.for_mode(
        "set3",
        provider=PROVIDER,
        chunk_windows=CHUNK_WINDOWS,
        jobs=jobs,
        profile=profile,
    )


def service_config() -> ServiceConfig:
    return ServiceConfig(
        listen="127.0.0.1:0",
        tenants=(
            TenantSpec(TENANT, TOKEN, engine=engine_config("ward_gateway")),
        ),
        count_ops=True,
    )


def result_digest(wire_result: dict) -> str:
    """Hash of a result's full wire form (spectra, counts, metrics)."""
    body = {k: v for k, v in wire_result.items() if k not in ("op", "subject")}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def _ops(counts) -> int:
    return int(counts["mults"]) + int(counts["adds"])


def welch_starts(times: np.ndarray, window_seconds: float, step: float):
    """Start times of the Welch windows: a grid from the first beat.

    The last window is the first one reaching the final beat.  Worked
    out here apart from the program (windows too sparse to analyse are
    not dropped; the generated tachograms have none).
    """
    starts = []
    start = float(times[0])
    while start < times[-1]:
        starts.append(start)
        if start + window_seconds >= times[-1]:
            break
        start += step
    return np.asarray(starts)


class PassResult:
    """Measurements and outputs of one pass over a workload's inputs."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        #: The host's slowdown during the pass (``HostProbe``).
        self.slowdown = 1.0
        self.windows = 0
        self.attempted = 0
        self.latencies: list[float] = []
        self.extra: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.outputs: dict | None = None


# ----------------------------------------------------------------------
# ecg_ward: ECG frames -> QRS -> RR cleaning -> hub -> kernel
# ----------------------------------------------------------------------


class _RecordingDetector(StreamingQrsDetector):
    """The program's streaming detector, timed and with its beats kept."""

    def __init__(self, tracer, beats: list, **kwargs):
        super().__init__(**kwargs)
        self._tracer = tracer
        self._beats = beats

    def push(self, times, ecg):
        with self._tracer.span("ecg.qrs"):
            beats = super().push(times, ecg)
        self._beats.append(beats)
        return beats

    def finalize(self):
        with self._tracer.span("ecg.qrs"):
            beats = super().finalize()
        self._beats.append(beats)
        return beats


def _stamped_frames(t, ecg, box: list):
    """512-sample frames, recording into ``box`` when each is pulled.

    ``box`` holds the pull time and last sample instant of the newest
    frame, and the frame count.  The end of the stream is stamped too:
    it is the input that releases the detector's last beats.
    """
    for frame_t, frame_x in ecg_frames(t, ecg, frame_samples=FRAME_SAMPLES):
        box[0] = time.perf_counter()
        box[1] = float(frame_t[-1])
        box[2] += 1
        yield frame_t, frame_x
    box[0] = time.perf_counter()


class EcgWard:
    """A ward's ECG replayed round-robin through one in-process hub."""

    def __init__(self, arrays, engine: Engine):
        self.engine = engine
        self.ward = [
            (subject, condition, arrays[f"{subject}/t"],
             arrays[f"{subject}/ecg"], arrays[f"{subject}/beats"])
            for subject, condition in subjects(arrays)
        ]
        self.window_seconds = engine.config.psa.window_seconds

    def warm(self) -> None:
        """Untimed: one subject's first minutes, so lazy set-up is done."""
        subject, _, t, ecg, _ = self.ward[0]
        n = min(t.size, int(5 * 60 * SAMPLING_RATE))
        hub = self.engine.open_hub(count_ops=True)
        for event in ECGSource(subject, ecg_frames(t[:n], ecg[:n]),
                               sampling_rate=SAMPLING_RATE):
            hub.feed(*event)
            hub.flush()
        hub.finalize_all()
        hub.close()

    def run_pass(self, tracer, keep: bool, probe=NULL_PROBE) -> PassResult:
        out = PassResult()
        hub = self.engine.open_hub(count_ops=True)
        states = []
        for subject, _, t, ecg, _ in self.ward:
            box = [0.0, 0.0, 0]
            beats: list = []
            detector = _RecordingDetector(
                tracer, beats, sampling_rate=SAMPLING_RATE
            )
            source = iter(ECGSource(
                subject, _stamped_frames(t, ecg, box),
                sampling_rate=SAMPLING_RATE, detector=detector,
            ))
            states.append((subject, source, box, beats))
        lags = []
        corrected = 0
        flushes = 0
        flushed_windows = 0
        steps = 0
        probe.start_pass()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span("pass"):
            live = list(states)
            while live:
                for state in list(live):
                    if steps % ECG_STEPS_PER_TICK == 0:
                        probe.tick()
                    steps += 1
                    _, source, box, _ = state
                    with tracer.span("ingest.source"):
                        event = next(source, None)
                    if event is None:
                        live.remove(state)
                        continue
                    corrected += int(np.count_nonzero(event.corrected))
                    with tracer.span("engine.hub_feed"):
                        hub.feed(*event)
                    with tracer.span("engine.hub_flush"):
                        emitted = hub.flush()
                    if not emitted:
                        continue
                    done = time.perf_counter()
                    flushes += 1
                    for emissions in emitted.values():
                        for emission in emissions:
                            out.latencies.append(done - box[0])
                            lags.append(
                                box[1] - (emission.start + self.window_seconds)
                            )
                            flushed_windows += 1
            with tracer.span("engine.hub_finalize"):
                results = hub.finalize_all()
        out.wall = time.perf_counter() - t0 - probe.spent_wall
        out.cpu = time.process_time() - cpu0 - probe.spent_cpu
        out.slowdown = probe.pass_slowdown()
        hub.close()
        wire = {s: result_to_dict(r) for s, r in results.items()}
        out.windows = sum(r["n_windows"] for r in wire.values())
        out.attempted = sum(box[2] for _, _, box, _ in states)
        out.extra["lag"] = lags
        out.counters = {
            "ops": sum(_ops(r["counts"]) for r in wire.values()),
            "samples": sum(t.size for _, _, t, _, _ in self.ward),
            "beats": sum(
                sum(b.size for b in beats) for _, _, _, beats in states
            ),
            "corrected": corrected,
            "flushes": flushes,
            "flushed_windows": flushed_windows,
        }
        out.digests = {s: result_digest(r) for s, r in wire.items()}
        if keep:
            out.outputs = {
                "results": results,
                "beats": {
                    subject: np.concatenate(beats)
                    for subject, _, _, beats in states
                },
            }
        return out

    def end_to_end(self, passes) -> dict:
        return {
            **pass_timings(passes),
            "emission_lag_s": median(
                x for p in passes for x in p.extra["lag"]
            ),
            "ops_per_window": _ops_per_window(passes),
        }


# ----------------------------------------------------------------------
# holter_cohort: whole 24 h tachograms through Engine.analyze
# ----------------------------------------------------------------------


class HolterCohort:
    """24 h tachograms, each analysed whole on the quality-scalable system."""

    def __init__(self, arrays, engine: Engine):
        self.engine = engine
        self.cohort = [
            (subject, condition, RRSeries(
                times=arrays[f"{subject}/times"],
                intervals=arrays[f"{subject}/intervals"],
            ), float(arrays[f"{subject}/expected_lf_hf"]))
            for subject, condition in subjects(arrays)
        ]

        psa = engine.config.psa
        step = psa.window_seconds * (1.0 - psa.overlap)
        # A whole-recording analysis releases every window at once, when
        # the recording ends.
        self.lags = [
            x
            for _, _, rr, _ in self.cohort
            for x in rr.times[-1] - psa.window_seconds
            - welch_starts(rr.times, psa.window_seconds, step)
        ]

    def warm(self) -> None:
        rr = self.cohort[0][2]
        n = int(np.searchsorted(rr.times, rr.times[0] + 1800.0))
        self.engine.analyze(
            RRSeries(times=rr.times[:n], intervals=rr.intervals[:n]),
            count_ops=True,
        )

    def run_pass(self, tracer, keep: bool, probe=NULL_PROBE) -> PassResult:
        out = PassResult()
        results = {}
        ops = 0
        probe.start_pass()
        with tracer.span("pass"):
            for subject, _, rr, _ in self.cohort:
                for _ in range(HOLTER_TICKS_PER_CALL):
                    probe.tick()
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                with tracer.span("engine.analyze"):
                    result = self.engine.analyze(rr, count_ops=True)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                n = result.welch.n_windows
                out.latencies.extend([wall] * n)
                out.wall += wall
                out.cpu += cpu
                out.windows += n
                ops += result.counts.mults + result.counts.adds
                results[subject] = result
        out.slowdown = probe.pass_slowdown()
        out.attempted = len(self.cohort)
        out.counters = {"ops": ops}
        out.digests = {
            s: result_digest(result_to_dict(r)) for s, r in results.items()
        }
        if keep:
            out.outputs = {"results": results}
        return out

    def end_to_end(self, passes) -> dict:
        return {
            **pass_timings(passes),
            "emission_lag_s": median(self.lags),
            "ops_per_window": _ops_per_window(passes),
        }


# ----------------------------------------------------------------------
# ward_gateway: framed beat bursts + REST reads over the network gateway
# ----------------------------------------------------------------------


def _bursts(times: np.ndarray):
    """``[(lo, hi)]`` beat ranges of consecutive 60 s uplink bursts."""
    edges = np.arange(
        BURST_SECONDS, times[-1] + BURST_SECONDS, BURST_SECONDS
    )
    cuts = np.searchsorted(times, edges, side="left")
    bounds = np.unique(np.concatenate(([0], cuts, [times.size])))
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _releases(times, bursts, window_seconds, step):
    """Running count of the windows completed once each burst is in.

    A window ``[s, s + W)`` is complete once a beat lies strictly beyond
    ``s + W``, so the client knows how many window frames each feed
    must bring back.
    """
    ends = welch_starts(times, window_seconds, step) + window_seconds
    return [
        int(np.searchsorted(ends, float(times[hi - 1]), side="left"))
        for _, hi in bursts
    ]


class WardGateway:
    """Tachogram bursts streamed to an in-process gateway, read back by REST.

    Subjects stream one after another on their own connection; while a
    subject streams, the previous subject's windows are read back over
    REST, so at most two connections are open at any time.  Runs in the
    traced run only: its timings follow the host's contention far more
    steeply than the host probe does, so they are not gated.
    """

    def __init__(self, arrays, config: ServiceConfig):
        self.config = config
        psa = config.tenants[0].engine.psa
        step = psa.window_seconds * (1.0 - psa.overlap)
        self.ward = []
        for subject, condition in subjects(arrays):
            times = arrays[f"{subject}/times"]
            intervals = arrays[f"{subject}/intervals"]
            bursts = _bursts(times)
            targets = _releases(times, bursts, psa.window_seconds, step)
            self.ward.append(
                (subject, condition, times, intervals, bursts, targets)
            )

    def warm(self) -> None:
        subject, _, times, intervals, bursts, _ = self.ward[0]
        with GatewayThread(self.config) as gateway:
            with ServiceClient(gateway.address, TENANT, TOKEN) as client:
                client.open("warm-" + subject)
                for lo, hi in bursts[:8]:
                    client.feed(times[lo:hi], intervals[lo:hi])
                client.finalize()

    def _stream(self, client, subject, times, intervals, bursts, targets,
                tracer, latencies) -> tuple[dict, int]:
        """One subject's closed loop; returns its result frame and pings."""
        total_syncs = 0
        for (lo, hi), target in zip(bursts, targets):
            seen = len(client.windows)
            sent = time.perf_counter()
            syncs = 0
            with tracer.span("service.feed"):
                client.feed(times[lo:hi], intervals[lo:hi])
                while True:
                    now = time.perf_counter()
                    latencies.extend(
                        [now - sent] * (len(client.windows) - seen)
                    )
                    seen = len(client.windows)
                    if seen >= target:
                        break
                    if syncs == MAX_SYNCS_PER_FEED:
                        raise RuntimeError(
                            f"{subject}: {target - seen} window frame(s) "
                            f"missing after burst ending at beat {hi}"
                        )
                    client.sync()
                    syncs += 1
            total_syncs += syncs
        seen = len(client.windows)
        sent = time.perf_counter()
        with tracer.span("service.finalize"):
            result = client.finalize()
        now = time.perf_counter()
        latencies.extend([now - sent] * (len(client.windows) - seen))
        return result, total_syncs

    def run_pass(self, tracer, keep: bool) -> PassResult:
        out = PassResult()
        results = {}
        windows = {}
        rest = {}
        wire_bytes = 0
        sent_bytes = received_bytes = 0
        with GatewayThread(self.config) as gateway:
            address = gateway.address
            frames_before = gateway.server.stats()["wire"]["frames_out"]
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            previous = None
            with tracer.span("pass"):
                for subject, _, times, intervals, bursts, targets in self.ward:
                    client = ServiceClient(address, TENANT, TOKEN)
                    try:
                        with tracer.span("service.hello"):
                            client.open(subject)
                        if previous is not None:
                            with tracer.span("service.read"):
                                rest[previous] = rest_windows(
                                    address, TOKEN, previous
                                )
                        results[subject], syncs = self._stream(
                            client, subject, times, intervals, bursts,
                            targets, tracer, out.latencies,
                        )
                    finally:
                        client.close()
                    windows[subject] = client.windows
                    sent_bytes += client.bytes_sent
                    received_bytes += client.bytes_received
                    wire_bytes += (
                        client.bytes_sent + client.bytes_received
                        - syncs * _SYNC_BYTES
                    )
                    previous = subject
                with tracer.span("service.read"):
                    rest[previous] = rest_windows(address, TOKEN, previous)
            out.wall = time.perf_counter() - t0
            out.cpu = time.process_time() - cpu0
            frames_out = (
                gateway.server.stats()["wire"]["frames_out"] - frames_before
            )
        out.windows = sum(r["n_windows"] for r in results.values())
        n_feeds = sum(len(w[4]) for w in self.ward)
        out.attempted = n_feeds + 2 * len(self.ward)
        out.counters = {
            "ops": sum(_ops(r["counts"]) for r in results.values()),
            "wire_bytes": wire_bytes,
            "bytes_sent": sent_bytes,
            "bytes_received": received_bytes,
            "frames_out": frames_out,
        }
        out.digests = {s: result_digest(r) for s, r in results.items()}
        if keep:
            out.outputs = {
                "results": results, "windows": windows, "rest": rest,
            }
        return out


def pass_timings(passes, scaled: bool = True) -> dict:
    """The timing metrics: each taken per pass, then the median over passes.

    A pass replays the same inputs, so its figures are comparable from
    pass to pass; the median keeps a pass the host disturbed from setting
    the run's figure, which a percentile pooled over all passes' windows
    would let it do.  With ``scaled``, each pass's timings are first
    brought to the nominal host speed by dividing them by the pass's
    slowdown (rates: multiplying).
    """
    def speed(p):
        return p.slowdown if scaled else 1.0

    return {
        "windows_per_s": median(
            p.windows / p.wall * speed(p) for p in passes
        ),
        "cpu_ms_per_window": median(
            1e3 * p.cpu / p.windows / speed(p) for p in passes
        ),
        "window_latency_p50_ms": median(
            1e3 * median(p.latencies) / speed(p) for p in passes
        ),
        "window_latency_p95_ms": median(
            1e3 * percentile(p.latencies, 95.0) / speed(p) for p in passes
        ),
    }


def _ops_per_window(passes) -> float:
    return sum(p.counters["ops"] for p in passes) / sum(
        p.windows for p in passes
    )


def load_inputs(path: str) -> dict:
    """The ``{key: ndarray}`` input set the parent process generated."""
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def build(name: str, arrays, profile: bool = False):
    """The named workload over ``arrays``, on its own pinned engine."""
    if name == "ward_gateway":
        return WardGateway(arrays, service_config())
    engine = Engine(engine_config(name, profile=profile))
    return {"ecg_ward": EcgWard, "holter_cohort": HolterCohort}[name](
        arrays, engine
    )
