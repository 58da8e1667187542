"""The measured process: one cold start, then optionally the timed run.

``python3 perfbench/worker.py setup WORKLOAD`` starts from a fresh
interpreter, imports the program, builds what the workload needs
(engine and hub, or gateway and a completed ``hello``), prints one
``READY`` line and exits.  ``run`` does the same and then loads the
inputs, runs the workload's timed loop, checks the outputs and prints a
``RESULT`` line; ``trace`` runs the traced variant over all three
workloads.  :mod:`run` (the benchmark command) spawns these processes;
they are not meant to be run by hand.
"""

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


#: Passes every timed run makes at least; peak memory is read after them.
MIN_PASSES = 2


def cold_start(workload: str):
    """Import and build; returns ``(parts, handles)``."""
    t0 = time.perf_counter()
    import workloads  # the program: repro with numpy, scipy and service

    t1 = time.perf_counter()
    parts = {"import_s": t1 - t0, "engine_s": 0.0, "gateway_s": 0.0}
    handles = {}
    if workload == "ward_gateway":
        gateway = workloads.GatewayThread(workloads.service_config())
        gateway.__enter__()
        client = workloads.ServiceClient(
            gateway.address, workloads.TENANT, workloads.TOKEN
        )
        client.open("cold-start")
        parts["gateway_s"] = time.perf_counter() - t1
        handles["gateway"] = (gateway, client)
    else:
        engine = workloads.Engine(workloads.engine_config(workload))
        if workload == "ecg_ward":
            handles["hub"] = engine.open_hub(count_ops=True)
        parts["engine_s"] = time.perf_counter() - t1
        handles["engine"] = engine
    parts["ready_s"] = time.perf_counter() - _T_START
    return parts, handles


def release(handles) -> None:
    if "gateway" in handles:
        from workloads import TENANT

        gateway, client = handles.pop("gateway")
        client.close()
        # Drain only once the server has let the connection go: a stream
        # that detaches unfinalized while the drain runs can make
        # GatewayServer.shutdown raise CancelledError (see CHANGES.md).
        deadline = time.perf_counter() + 30.0
        while gateway.server.stats()["tenants"][TENANT]["connections"]:
            if time.perf_counter() > deadline:
                raise RuntimeError("gateway kept the cold-start connection")
            time.sleep(0.001)
        gateway.__exit__(None, None, None)
    if "hub" in handles:
        handles.pop("hub").close()
    if "engine" in handles:
        handles.pop("engine").close()


def _emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def _fingerprint(name: str) -> dict:
    import numpy
    import scipy

    import workloads

    with workloads.Engine(workloads.engine_config(name)) as engine:
        resolved = engine.resolved
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "provider": resolved.provider,
        "chunk_windows": resolved.chunk_windows,
        "jobs": resolved.jobs,
    }


def timed_run(name: str, inputs_path: str, seconds: float) -> dict:
    """The untraced run: whole passes until ``seconds`` have elapsed."""
    from checks import CHECKS
    from common import HostProbe, NullTracer, median, peak_rss_mb
    from workloads import build, load_inputs, pass_timings

    arrays = load_inputs(inputs_path)
    workload = build(name, arrays)
    workload.warm()
    host = HostProbe()
    inputs_mb = sum(a.nbytes for a in arrays.values()) / 2**20
    tracer = NullTracer()
    passes = []
    durations = []
    deadline = time.perf_counter() + seconds
    # A pass starts only if a pass of the median length so far ends
    # before the deadline, so a run lasts about ``seconds``.
    while len(passes) < MIN_PASSES or (
        time.perf_counter() + median(durations) < deadline
    ):
        start = time.perf_counter()
        host.sample()
        passes.append(workload.run_pass(tracer, not passes, host))
        durations.append(time.perf_counter() - start)
        if len(passes) == MIN_PASSES:
            # Read after a fixed number of passes, so that how many
            # passes fit in the run cannot move it.  The whole process
            # counts (interpreter, libraries, the program and its state)
            # bar the inputs: `ecg_ward`'s own state is a few MB, within
            # the allocator's jitter from seed to seed.
            peak_mb = peak_rss_mb() - inputs_mb
    metrics = workload.end_to_end(passes)
    metrics["peak_rss_mb"] = peak_mb
    failures = CHECKS[name](arrays, passes)
    return {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "latency_samples": sum(len(p.latencies) for p in passes),
        "raw": pass_timings(passes, scaled=False),
        "slowdowns": [p.slowdown for p in passes],
        "host": {**host.medians(), "host.slowdown": host.slowdown()},
        "metrics": metrics,
        "failures": failures,
    }


def main(argv) -> int:
    mode, name = argv[1], argv[2]
    parts, handles = cold_start(name)
    _emit("READY", parts)
    release(handles)
    if mode == "run":
        result = timed_run(name, argv[3], float(argv[4]))
    elif mode == "trace":
        from tracing import traced_run

        result = traced_run(json.loads(argv[3]), float(argv[4]))
    else:
        return 0
    result["fingerprint"] = _fingerprint(name)
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
