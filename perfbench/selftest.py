"""Self-test of the benchmark on tiny inputs: python3 perfbench/run.py --self-test

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the smoke runs are correct, and that the correctness gate fires: a
falsified expected answer and falsified recorded digests must show up as
failed requests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["batch-small", "seq-large", "repair-large"]


def run_child(workload, trace, *extra):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    checked = next(int(ln.split("; ")[1].split()[0]) for ln in lines if ln.startswith("error_rate"))
    return json.loads(lines[-1]), checked


def self_test() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    store = BENCH / "out" / "selftest-digests.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    store.unlink(missing_ok=True)
    results = []

    def case(name, condition):
        results.append(condition)
        print(f"{'PASS' if condition else 'FAIL'} {name}")

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_child(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            case(f"{workload} trace {trace}: every {key} metric with its unit", got == want)
            case(f"{workload} trace {trace}: correct, no failures",
                 result["correct"] and result["failed"] == 0 and result["attempted"] > 0)
        result, _ = run_child(workload, 0, "--corrupt", "answer")
        case(f"{workload}: a falsified answer counts as failed",
             not result["correct"] and result["failed"] >= 1)

    for workload in ("seq-large", "repair-large"):
        run_child(workload, 0, "--record-digests", str(store))
        result, checked = run_child(workload, 0, "--digests", str(store))
        case(f"{workload}: recorded digests match",
             result["correct"] and checked == result["attempted"])
        result, _ = run_child(workload, 0, "--digests", str(store), "--corrupt", "digest")
        case(f"{workload}: falsified digests count as failed",
             not result["correct"] and result["failed"] == result["attempted"])
    store.unlink(missing_ok=True)
    print(f"{sum(results)} of {len(results)} self-test checks passed")
    return 0 if all(results) else 1
