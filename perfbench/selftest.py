"""Self-test of the benchmark at toy size (about two minutes).

Runs every workload untraced and one traced run with ``--toy``, and
checks that each prints a result line with exactly the metrics
``BENCHMARK.json`` declares, passes its correctness checks, and that
the command fails without printing a result where the program's sources
are missing.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc, names) -> None:
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == names, (
        sorted(set(result["metrics"]) ^ names)
    )
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    common = ["--seed", "7", "--seconds", "2", "--toy"]
    for workload in spec["workloads"]:
        proc = _run(["--workload", workload["name"], "--trace", "0", *common])
        _result(proc, end_to_end)
        print(f"ok  {workload['name']} --trace 0")
    proc = _run(["--workload", "ecg_ward", "--trace", "1", *common])
    _result(proc, per_layer)
    print("ok  --trace 1")

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "ecg_ward", "--trace", "0", *common],
                    cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    print("ok  fails without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
