"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

For each workload (all three by default) it makes two traced runs at the
same seed and asserts that every count metric repeats exactly, that both
runs pass their correctness gates, and that each run prints every per-layer
metric listed in BENCHMARK.json.  It then checks the untraced result line
against the end-to-end list, and that run.py, copied without the addkrig
sources, exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics that depend only on the seed and the code, never on timing.
COUNT_SUFFIXES = (".calls", ".runs", ".cells", ".count", "_ratio", ".bytes_written")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name.startswith(("estimate.calls.", "src.lines."))


def run(workload: str, trace: int, seconds: int = 1, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], sorted(res)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_workload(workload: str) -> None:
    traced = []
    for _ in range(2):
        code, out = run(workload, trace=1)
        assert code == 0, f"{workload}: traced run exited {code}"
        metrics = result(out)["metrics"]
        missing = {m["name"] for m in SPEC["per_layer"]} - set(metrics)
        assert not missing, f"{workload}: per-layer metrics missing: {sorted(missing)}"
        traced.append(metrics)
    differ = [k for k in traced[0] if is_count(k) and traced[0][k] != traced[1][k]]
    assert not differ, f"{workload}: counts differ between runs: {differ}"

    code, out = run(workload, trace=0)
    assert code == 0, f"{workload}: untraced run exited {code}"
    metrics = result(out)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}, sorted(metrics)
    assert all(v["value"] > 0 for v in metrics.values()), metrics
    print(f"ok {workload}", flush=True)


def check_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        code, out = run("surrogate", trace=0, cwd=bare)
        assert code != 0 and not out.strip(), (code, out)
    finally:
        shutil.rmtree(bare)
    print("ok without sources", flush=True)


def main() -> int:
    for workload in sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]:
        check_workload(workload)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
