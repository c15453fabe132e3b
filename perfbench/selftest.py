"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` untraced and traced, and checks the
result line against ``BENCHMARK.json``: exactly the four keys, every
declared metric present with its unit and a finite value, and every
workload metric printed by name.  Then checks that a directory holding only
the benchmark (no package source) fails without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Workload metrics printed before the result line, beyond setup_s,
# peak_rss_mb and error_rate, which every workload prints.
PRINTED = {
    "crack-w16": ["recover_s.p50"],
    "crack-generic-w10": ["recover_s.p50"],
    "stream-io": ["gen_words_per_s", "load_words_per_s", "check_trials_per_s"],
    "certify-small": ["recover_s.p50", "recover_s.p90", "certify_s.p50"],
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _problems(workload: str, trace: int) -> list[str]:
    out = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr.strip()[-500:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{where}: nothing attempted")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{where}: bad metric {m['name']}: {got}")
    for name in PRINTED[workload] + ["setup_s", "peak_rss_mb", "error_rate"]:
        if not any(line.startswith(f"metric {name} = ") for line in lines):
            problems.append(f"{where}: workload metric {name} not printed")
    return problems


def _bare_dir_problems() -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(bare, "crack-w16", 0)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["bare directory: the benchmark did not fail cleanly"]
    return []


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    problems = []
    for workload in PRINTED:
        for trace in (0, 1):
            found = _problems(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    problems += _bare_dir_problems()
    for p in problems:
        print(p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
