"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

1. Every workload, in tiny mode, traced and untraced: the run passes its
   checks and its last line names exactly the metrics of BENCHMARK.json,
   each with its unit, and no end-to-end metric reads 0.
2. With a deliberately wrong expected value, failures are counted, the
   result says ``correct: false`` and the exit code is 1.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   fails without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(["--workload", workload, "--seed", "7", "--seconds", "0",
                             "--trace", str(trace), "--tiny"])
            result = last_json(out)
            where = f"{workload} trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, {result}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            wanted = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics {got} != {wanted}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or (trace == 0 and m["value"] == 0):
                    problems.append(f"{where}: {name} = {m['value']!r}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} operations checked")

    code, out = run(["--workload", "grid_sweep", "--seed", "7", "--seconds", "0",
                     "--trace", "0", "--tiny", "--wrong-expected"])
    result = last_json(out)
    if code != 1 or result["correct"] or result["failed"] == 0:
        problems.append(f"wrong expected value not caught: exit {code}, {result}")
    print(f"wrong expected value: {result['failed']} of {result['attempted']} "
          f"operations failed, exit {code}")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        code, out = run(["--workload", "grid_sweep", "--seed", "7", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
    if code == 0 or out.strip():
        problems.append(f"run without the package: exit {code}, printed {out!r}")
    print(f"without the package: exit {code}")

    for problem in problems:
        print("PROBLEM:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
