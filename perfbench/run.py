"""System benchmark of the HRV spectral-analysis stack (see README.md).

Usage, from the repository root::

    python3 perfbench/run.py --workload ecg_ward --seed 1 --seconds 40 \
        --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing
off; ``--trace 1`` runs the traced variant, which reports the per-layer
metrics of all three loops (the two workloads and the gateway's).
``--toy`` shrinks every input set for the benchmark's self-test
(``perfbench/selftest.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SCRATCH, SRC, median, pin_environment  # noqa: E402

#: The gated workloads; the traced run also runs the gateway's loop.
WORKLOAD_NAMES = ("ecg_ward", "holter_cohort")
TRACED_NAMES = (*WORKLOAD_NAMES, "ward_gateway")
#: Timed cold starts per run; one more untimed start precedes them, and
#: the measured process's own start is one more sample.
COLD_STARTS = 2
#: Every process a run starts is killed once the run has lasted this long.
RUN_TIMEOUT_S = 170.0
UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "cpu_ms_per_window": "ms",
    "window_latency_p50_ms": "ms",
    "window_latency_p95_ms": "ms",
    "emission_lag_s": "s",
    "ops_per_window": "count",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs (self-test only)"
    )
    return parser.parse_args(argv)


class Child:
    """A worker process; ``ready_s`` is its spawn-to-ready wall time."""

    def __init__(self, args, env):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
        )
        self.parts = None
        self.ready_s = None
        self.result = None

    def read(self, deadline: float) -> None:
        """Collect the READY (and RESULT) lines, then reap the process.

        A watchdog kills the process at ``deadline``, which ends the
        read with a non-zero exit status.
        """
        watchdog = threading.Timer(
            max(0.0, deadline - time.perf_counter()), self.proc.kill
        )
        watchdog.start()
        try:
            for line in self.proc.stdout:
                tag, _, payload = line.partition(" ")
                if tag == "READY":
                    self.ready_s = time.perf_counter() - self.started
                    self.parts = json.loads(payload)
                elif tag == "RESULT":
                    self.result = json.loads(payload)
            self.proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"worker {self.proc.args[2:]} exited with "
                f"{self.proc.returncode}"
            )


def cold_starts(kinds, env, deadline: float) -> list:
    """One untimed warm-up start, then one timed start per entry."""
    samples = []
    for i, kind in enumerate([kinds[0], *kinds]):
        child = Child(["setup", kind], env)
        child.read(deadline)
        if i:
            samples.append((kind, child.ready_s, child.parts))
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's sources are missing ({SRC}); run "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def _run(args, scratch) -> int:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = pin_environment(scratch / "cache")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import inputs

    names = TRACED_NAMES if args.trace else (args.workload,)
    paths = {}
    for name in names:
        paths[name] = str(scratch / f"{name}.npz")
        np.savez(paths[name], **inputs.generate(name, args.seed, args.toy))

    if args.trace:
        starts = cold_starts(["holter_cohort", "ward_gateway"], env, deadline)
        child = Child(["trace", args.workload, json.dumps(paths),
                       str(args.seconds)], env)
    else:
        starts = cold_starts([args.workload] * COLD_STARTS, env, deadline)
        child = Child(["run", args.workload, paths[args.workload],
                       str(args.seconds)], env)
    child.read(deadline)
    result = child.result
    if result is None:
        print("perfbench: the measured process printed no result",
              file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(result["metrics"])
        imports = [parts["import_s"] for _, _, parts in starts]
        metrics["setup.import_s"] = median(imports)
        metrics["setup.engine_s"] = starts[0][2]["engine_s"]
        metrics["setup.gateway_s"] = starts[1][2]["gateway_s"]
        metrics.update(result["host"])
        units = {name: _layer_unit(name) for name in metrics}
        print(json.dumps({"accounting": result["accounting"]}))
    else:
        metrics = dict(result["metrics"])
        # The cold starts ran in the minute before the measured run, so
        # they are scaled by the slowdown the measured process saw.
        setup = [ready for _, ready, _ in starts] + [child.ready_s]
        metrics["setup_s"] = median(setup) / result["host"]["host.slowdown"]
        units = UNITS
        print(json.dumps({
            "raw": {**result["raw"], "setup_s": median(setup)},
            "slowdowns": result["slowdowns"],
            "setup_samples_s": setup,
            "setup_parts": [parts for _, _, parts in starts] + [child.parts],
            "passes": result["passes"],
            "latency_samples": result["latency_samples"],
        }))
    print(json.dumps({"host": {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **result["fingerprint"],
        **result["host"],
    }}))
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("service.bytes") or name.endswith("bytes_per_window"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
