"""Self-test of the benchmark at a tiny size (400-row hub, two epochs).

    python3 perfbench/selftest.py

Run from the checkout root.  For every workload, untraced and traced, it
checks the result line's schema against BENCHMARK.json, that the run's
output checks passed, and that every headline figure is printed.  It then
checks compare mode, and that the benchmark exits non-zero without printing
a result when the checkout holds only the benchmark.  Not part of the
package test suite; takes well under a minute.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SEED = 7
FIGURES = {
    "fit": {"failed_ratio", "train_rows_per_s"},
    "unlearn": {"failed_ratio", "unlearn_s", "prune_s", "finetune_s", "unlearn.prune_share"},
    "estimate": {"failed_ratio", "estimate_ms_p50", "estimate_ms_p95", "qerr_oq_p50",
                 "qerr_oq_p95", "qerr_cq_p50", "qerr_cq_p95"},
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(HERE.name) / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(line: str, expected: dict) -> list[str]:
    errs = []
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True:
        errs.append("correct is not true")
    for k in ("attempted", "failed"):
        if not isinstance(res.get(k), int) or res[k] < (1 if k == "attempted" else 0):
            errs.append(f"{k} = {res.get(k)!r}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(expected):
        errs.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            errs.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errs.append(f"{name} value {m['value']!r}")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    scratch = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "results.jsonl"
    failures = []
    try:
        for wl in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                p = run(["--workload", wl, "--seed", str(SEED), "--seconds", "1", "--trace",
                         str(trace), "--size", "tiny", "--out", str(out)])
                tag = f"{wl} trace={trace}"
                if p.returncode != 0:
                    failures.append(f"{tag}: exit {p.returncode}: {p.stderr[-500:]}")
                    continue
                lines = p.stdout.strip().splitlines()
                failures += [f"{tag}: {e}" for e in check_result(lines[-1], units[trace])]
                printed = {ln.split()[1] for ln in lines if ln.startswith("figure ")}
                missing = FIGURES[wl] - printed
                if missing:
                    failures.append(f"{tag}: figures not printed: {sorted(missing)}")

        p = run(["--compare", str(out), str(out), "--size", "tiny"])
        if p.returncode != 0 or "within bound" not in p.stdout:
            failures.append(f"compare mode: exit {p.returncode}: {p.stdout[-300:]}")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = run(["--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if p.returncode == 0 or p.stdout.strip():
            failures.append(f"bare checkout: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for spans in scratch.parent.glob(f"spans-*-{SEED}.json"):
            spans.unlink()

    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
