"""cardest benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fit|unlearn|estimate --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Run from the root of a checkout; the package is imported from ``src``.
Prints every figure with its unit, an environment record, and as the last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  ``--out`` appends the result, its
figures and the environment as one JSON line, the input of ``--compare``.
Scratch files live under ``.perfbench/`` and are removed at exit; a traced
run leaves its spans there.  ``perfbench/results/`` holds reference sets of
untraced runs, one JSON line per run, as ``--out`` writes them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def _cap_threads():
    """One client: evaluation runs single-threaded, BLAS on at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        want = os.environ.get(var, "")
        os.environ[var] = str(min(int(want), nproc)) if want.isdigit() else str(nproc)
    os.environ["CEP_THREADS"] = "1"
    return nproc


def _git_commit() -> str:
    # only the checkout's own repository: a plain checkout records "unknown"
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def environment(nproc: int, load_at_start) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "CEP_THREADS": os.environ["CEP_THREADS"],
            "git_commit": _git_commit(), "loadavg_at_start": list(load_at_start)}


def bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def compare(old_path, new_path, size="desk") -> int:
    """Per workload and metric: median of NEW over median of OLD, flagged when
    it is worse than the bound BENCHMARK.json fixes (per-layer metrics have
    no bound and are only listed).  Only runs at ``size`` whose output checks
    passed count; the failed and attempted operations of each side are
    printed per workload."""
    spec = bench_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        runs: dict = {}
        ops: dict = {}
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            res = rec["result"]
            tally = ops.setdefault(rec["workload"], [0, 0, 0])
            tally[0] += res["failed"]
            tally[1] += res["attempted"]
            if rec["size"] != size or not res["correct"]:
                tally[2] += 1
                continue
            for k, v in res["metrics"].items():
                runs.setdefault((rec["workload"], k), []).append(v["value"])
        return runs, ops

    (old, old_ops), (new, new_ops) = load(old_path), load(new_path)
    for wl in sorted(set(old_ops) | set(new_ops)):
        for side, tallies in (("old", old_ops), ("new", new_ops)):
            failed, attempted, skipped = tallies.get(wl, (0, 0, 0))
            print(f"{wl:<10} {side}: {failed}/{attempted} operations failed, "
                  f"{skipped} runs skipped (checks failed or size is not {size})")
    worse = 0
    print(f"{'workload':<10} {'metric':<40} {'old':>12} {'new':>12} {'ratio':>8}  verdict")
    for key in sorted(set(old) & set(new)):
        wl, name = key
        mo, mn = statistics.median(old[key]), statistics.median(new[key])
        ratio = mn / mo if mo else float("nan")
        verdict = ""
        if name in bounds:
            b = bounds[name]
            limit = 1 + b["bound"] if b["better"] == "lower" else 1 - b["bound"]
            bad = ratio > limit if b["better"] == "lower" else ratio < limit
            verdict = f"WORSE than bound {b['bound']}" if bad else "within bound"
            worse += bad
        print(f"{wl:<10} {name:<40} {mo:>12.6g} {mn:>12.6g} {ratio:>8.4f}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("fit", "unlearn", "estimate"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result record to this JSON-lines file")
    ap.add_argument("--size", choices=("desk", "tiny"), default="desk",
                    help="tiny is for the self-test only; with --compare, the size "
                         "of the runs that count")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, size=args.size)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]

    load_at_start = os.getloadavg()
    nproc = _cap_threads()
    src = ROOT / "src"
    if not (src / "cardest" / "__init__.py").is_file():
        print(f"error: no cardest package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import Bench, StageFailed

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench"
    run_dir = scratch / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, seconds, bool(args.trace), run_dir, args.size)
    try:
        result = bench.run()
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if bench.tracer:
        bench.tracer.write(scratch / f"spans-{args.workload}-{args.seed}.json")

    env = environment(nproc, load_at_start)
    for name, (value, unit) in bench.figures.items():
        print(f"figure {name} = {value!r} {unit}")
    for name, ok in bench.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": seconds, "size": args.size, "env": env,
                  "figures": {k: v for k, (v, _) in bench.figures.items()},
                  "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
