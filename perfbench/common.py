"""Shared pieces of the system benchmark: pins, spans, statistics, memory.

Nothing here imports :mod:`repro`; the program is imported by the
workload modules only after :func:`pin_environment` has run, so every
pin is in place before numpy or the engine load.
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: Execution settings pinned on every engine the benchmark builds, so the
#: provider autoselect probe and the chunk auto-tuner never run.
PROVIDER = "numpy"
CHUNK_WINDOWS = 256

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_environment(cache_dir: pathlib.Path) -> dict:
    """Single-threaded BLAS and a throwaway repro cache, set before numpy.

    Returns the environment for child processes (cold starts), which
    inherit the same pins.
    """
    for name in _THREAD_VARS:
        os.environ[name] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["PYTHONPATH"] = str(SRC)
    return dict(os.environ)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    def span(self, name: str):
        return _NULL_SPAN


class _Span:
    __slots__ = ("_tracer", "_name", "_index", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        self._index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans[self._index] = (self._name, self._start, end, parent)
        return False


class Tracer:
    """Spans kept in memory as ``(name, start, end, parent_index)``.

    The benchmark opens a span around each call it makes into a layer of
    the program; a span's parent is the span open around it.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_total):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals


# ----------------------------------------------------------------------
# Statistics and memory
# ----------------------------------------------------------------------


class HostProbe:
    """A fixed pure-Python loop and a fixed numpy FFT loop, timed often.

    The host's speed drifts by tens of percent within seconds and by up to
    two-fold over minutes, and every timing moves with it.  So each run
    times these loops, which do not touch the program, in the same
    seconds as the workload:

    * :meth:`sample` runs both loops for about 0.1 s between passes;
    * :meth:`tick` runs one round of the Python loop inside a pass, at
      points outside every timed interval of a window; a pass calls it
      every few dozen milliseconds of work and subtracts the time the
      ticks took (:attr:`spent_wall`, :attr:`spent_cpu`) from its own.

    :meth:`pass_slowdown` is the factor by which the Python loop ran
    slower than its nominal time during one pass; each pass's timings are
    divided by it.  The Python loop tracks the workloads' drift better
    than the FFT loop does (the program spends most of its time in the
    interpreter), so the FFT loop is reported but not used.
    """

    #: Nominal median seconds of one round of the Python loop: a round
    #: figure near what it takes on a 2-vCPU Xeon at 2.0 GHz.
    NOMINAL_PY_LOOP_S = 1.0e-3
    #: Rounds of both loops per :meth:`sample` (about 0.1 s).
    ROUNDS = 50

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).standard_normal(1 << 12)
        self.samples: dict[str, list[float]] = {
            "host.py_loop_s": [],
            "host.numpy_fft_s": [],
        }
        self.start_pass()

    @staticmethod
    def _py_round() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i
        return time.perf_counter() - start

    def sample(self) -> None:
        py, fft = self.samples.values()
        rfft = self._np.fft.rfft
        x = self._x
        for _ in range(self.ROUNDS):
            py.append(self._py_round())
            start = time.perf_counter()
            for _ in range(8):
                rfft(x)
            fft.append(time.perf_counter() - start)

    def start_pass(self) -> None:
        self._ticks: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def tick(self) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        self._ticks.append(self._py_round())
        self.spent_wall += time.perf_counter() - start
        self.spent_cpu += time.process_time() - cpu

    def pass_slowdown(self) -> float:
        """Median tick of the current pass over the nominal loop time."""
        self.samples["host.py_loop_s"].extend(self._ticks)
        return median(self._ticks) / self.NOMINAL_PY_LOOP_S

    def medians(self) -> dict[str, float]:
        return {name: median(v) for name, v in self.samples.items()}

    def slowdown(self) -> float:
        """Median of every Python-loop round over the nominal time."""
        loop = median(self.samples["host.py_loop_s"])
        return loop / self.NOMINAL_PY_LOOP_S


class NullProbe:
    """Probing off (the traced run): ticks do nothing and cost nothing."""

    spent_wall = 0.0
    spent_cpu = 0.0

    def start_pass(self) -> None:
        pass

    def tick(self) -> None:
        pass

    def pass_slowdown(self) -> float:
        return 1.0


NULL_PROBE = NullProbe()


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolated linearly between samples."""
    values = sorted(values)
    rank = q / 100.0 * (len(values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def peak_rss_mb() -> float:
    """High-water resident set size of this process, MB."""
    return _status_kb("VmHWM:") / 1024.0
