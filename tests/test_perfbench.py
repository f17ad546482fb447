"""The benchmark's self-test as a package test: a change that renames or
drops a function, option or per-layer metric the benchmark pins fails here
instead of in a benchmark run.  Takes about ten seconds."""
import functools
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# per-layer metrics computed from run results, not from a traced function
DERIVED = {"workload.excluded"}


def test_perfbench_selftest_passes():
    p = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]


def pinned_functions() -> set[str]:
    """Every cardest function whose spans feed a per-layer metric, as
    ``module.name`` or ``module.Class.method``.  A metric ``f.field`` reads
    the spans of ``f`` (``setup.f.field`` those of the set-up phase), and
    ``cli.<stage>.field`` those of ``cli.cmd_<stage>``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    names = {".".join(m) for m in tracer.METHODS}
    for metric in workloads._per_layer():
        base = metric.rpartition(".")[0].removeprefix("setup.")
        module, _, attr = base.partition(".")
        if module in tracer.MODULES and attr and base not in DERIVED:
            names.add(f"cli.cmd_{attr}" if module == "cli" else base)
    return names


def test_pinned_functions_exist():
    # a renamed or deleted function would read as 0 in every traced run
    names = pinned_functions()
    assert {"model.loss_and_grad", "model.AdamState.step", "unlearn.fine_tune",
            "cli.cmd_train", "datagen.gen_star_schema"} <= names
    for name in sorted(names):
        module, *path = name.split(".")
        obj = functools.reduce(getattr, path, importlib.import_module(f"cardest.{module}"))
        assert callable(obj), name
