"""The three benchmark workloads, their output checks and their metrics.

Every workload drives cardest through its public entry points
(``cardest.cli.main`` for pipeline stages, ``cardest.workload.evaluate`` for
single queries) in this one process, with one client in a closed loop.

fit       ``gen-data`` is set-up; the measured work is the ``train`` stage.
          Nothing samples or prunes: the bypass for estimation and pruning.
unlearn   set-up trains the checkpoint and applies the deletion; the measured
          work is ``unlearn --method cep``: sensitivity scoring over the
          K=3 deleted joins, pruning, then fine-tuning the changed model.
estimate  set-up also unlearns; the measured work is the OQ+CQ workload
          estimated one query at a time on the CEP model (no backward pass,
          no optimizer) through the domains the unlearn stage remapped.

All three share one config: the desk schema (10k-row skewed hub, two
500-row dimensions), the 185k-parameter model at batch 128, deletion task
A-3-1.0 and the README ``cep`` block.  The model trains for 3 epochs
rather than the README's 30 so that set-up fits the run budget; the
per-step work is the same.

The dataset is the README's (data seed 1) on every run: with Zipf-skewed
foreign keys, whether a popular dimension row falls inside a deletion range
moves the retained join, and so the unlearn work, by 2x between data seeds.
``--seed`` drives the model initialisation, the query workload and the
sampling streams.

An untraced run reports the end-to-end metrics.  ``setup_s`` is the median
set-up time; set-ups run in forked children, so ``peak_rss_mb`` (this
process's ``ru_maxrss`` when the measured loop ends) covers only the
measured work.  ``stage_s`` is the median wall time of one measured unit (a
train stage, an unlearn stage, one OQ+CQ pass).  ``op_ms_p50`` and
``op_ms_p95`` are nearest-rank percentiles of per-operation latency (a train
step, a fine-tune step, a query) within each unit, median over the units.
A traced run sets up once in-process and reports the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import cardest
from cardest import cli, model as cmodel, unlearn as cunlearn, workload as cworkload
from cardest.errors import CardestError
from cardest.queries import Predicate, Query
from cardest.relational import load_dataset, materialize_join

from tracer import MODULES, NAME, PARENT, PHASE, Tracer

# set-up rounds per untraced run (at most) and set-ups per round, reported
# as their median.  Each round runs in a forked child just before one of the
# first measured units, so the set-ups spread over the run as the units do:
# on a shared 2-vCPU host one thread's speed can swing 2x for seconds at a
# time.  fit's set-up (gen-data) takes ~30 ms, so it has a round before each
# of its ~9 units and repeats the set-up in each; the first set-up in a fresh
# child pays its copy-on-write faults, and the median drops it.  estimate's
# set-up includes a full unlearn (~6.5 s), so it runs once to keep the run
# inside its time budget.
SETUP_ROUNDS = {"fit": (9, 4), "unlearn": (3, 1), "estimate": (1, 1)}
# measured units per untraced run, even past ``--seconds``: one OQ+CQ pass
# takes ~10 s, and a median over fewer units rests on one sample
MIN_UNITS = 3
JOIN_CAP = 5_000_000
DATA_SEED = 1
CONDITIONS = [{"table": "fact", "column": "amount", "lo": 300.0, "hi": 800.0},
              {"table": "dim1", "column": "val1", "lo": 200.0, "hi": 700.0},
              {"table": "dim2", "column": "val2", "lo": 300.0, "hi": 800.0}]
# a range wholly inside the deleted fact.amount gap: must estimate exactly 0
GAP_PREDICATE = ("fact.amount", 400.0, 700.0)

SIZES = {
    "desk": {"hub_rows": 10_000, "dim_rows": [500, 500], "epochs": 3,
             "finetune_epochs": 12, "ns": 50, "n_queries": 150, "num_samples": 512},
    # self-test only: checks the result schema in seconds
    "tiny": {"hub_rows": 400, "dim_rows": [40, 40], "epochs": 2,
             "finetune_epochs": 1, "ns": 5, "n_queries": 12, "num_samples": 64},
}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "stage_s": "s",
              "op_ms_p50": "ms", "op_ms_p95": "ms"}


def _per_layer() -> dict[str, str]:
    m = {}
    for name, fields in (
            ("model.loss_and_grad", ("calls", "s", "rows")),
            ("model.AdamState.step", ("calls", "s")),
            ("model.forward", ("calls", "rows", "s")),
            ("model.estimate_selectivity", ("calls", "s")),
            ("model.encode_relation", ("s", "rows", "invalid_rows")),
            ("model.save_checkpoint", ("s", "bytes")),
            ("model.load_checkpoint", ("s",)),
            ("unlearn.accumulate_scores", ("calls", "s", "tuples_used", "tuples_skipped")),
            ("unlearn.prune_step", ("s", "pruned", "saturated")),
            ("unlearn.apply_domain_pruning", ("s", "codes_dropped", "remaps")),
            ("unlearn.fine_tune", ("s",)),
            ("relational.materialize_join", ("calls", "s", "rows_out")),
            ("relational.semi_join_deletion", ("s", "rows")),
            ("relational.apply_deletion", ("s",)),
            ("workload.true_cardinality", ("calls", "s")),
            ("workload.model_constraints", ("s",)),
            ("domains.remap_array", ("calls", "s"))):
        for f in fields:
            m[f"{name}.{f}"] = {"calls": "count", "s": "s", "bytes": "bytes",
                                "rows": "rows", "invalid_rows": "rows",
                                "rows_out": "rows", "tuples_used": "tuples",
                                "tuples_skipped": "tuples"}.get(f, "count")
    m.update({"model.forward_per_estimate": "count",
              "unlearn.tuples_used_ratio": "ratio",
              "unlearn.prune_share": "ratio",
              "unlearn.score_s_per_iter_table": "s",
              "workload.included_ratio": "ratio",
              "workload.excluded.model_zero": "count",
              "workload.excluded.true_zero": "count"})
    for q in ("oq", "cq"):
        for p in ("p50", "p95"):
            m[f"workload.qerr_{q}_{p}"] = "ratio"
    for stage in ("gen_data", "train", "delete", "unlearn", "eval"):
        m[f"cli.{stage}.s"] = "s"
        m[f"cli.{stage}.overhead_s"] = "s"
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = "s"
    for mod in MODULES:
        m[f"setup.{mod}.self_s"] = "s"
    m["setup.datagen.gen_star_schema.s"] = "s"
    m["trace.spans"] = "count"
    m["trace.overhead_share"] = "ratio"
    return m


PER_LAYER = _per_layer()


class StageFailed(RuntimeError):
    pass


def nearest_rank(values, pct):
    # the benchmark's own copy, so a change to the program cannot redefine
    # the latency percentiles it is judged by
    vals = sorted(values)
    return float(vals[max(1, math.ceil(pct / 100.0 * len(vals))) - 1])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class StepClock:
    """Times every optimizer step of ``train`` through its ``step_hook``."""

    def __init__(self):
        self.steps: list[float] = []

    def wrap(self, fn):
        def timed(*a, **kw):
            user_hook = kw.get("step_hook")
            last = [time.perf_counter()]

            def hook(step, model):
                now = time.perf_counter()
                self.steps.append(now - last[0])
                last[0] = now
                if user_hook is not None:
                    user_hook(step, model)
            kw["step_hook"] = hook
            return fn(*a, **kw)
        return timed


class Bench:
    """One benchmark invocation: one workload, one seed, one run directory."""

    def __init__(self, workload, seed, seconds, trace, run_dir, size="desk"):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = SIZES[size]
        self.run_dir = Path(run_dir)
        self.cfg_path = self.run_dir / "experiment.yaml"
        self.out = self.run_dir / "out"
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.figures: dict[str, tuple[float, str]] = {}
        self.tracer = Tracer(cardest) if trace else None
        self.clock = StepClock()
        self.seeds = {"data": DATA_SEED, "model": seed, "workload": seed + 1, "eval": seed + 2}
        self.unlearn_timings: list[dict] = []   # timing.csv of each measured unlearn
        self.query_rows: list[list] = []        # QueryResults of each measured pass

    # -- plumbing ------------------------------------------------------------

    def write_config(self):
        s = self.size
        doc = {
            "output_dir": str(self.out),
            "seeds": self.seeds,
            "datagen": {"hub_rows": s["hub_rows"], "dim_rows": s["dim_rows"],
                        "profile": "skewed"},
            "model": {"embedding_dim": 16, "hidden_dim": 128, "residual_blocks": 4,
                      "dropout": 0.1, "numeric_bins": 64, "epochs": s["epochs"],
                      "batch_size": 128},
            "task": {"name": "A-3-1.0", "conditions": CONDITIONS},
            "cep": {"alpha": 0.5, "sampling_iterations": s["ns"],
                    "finetune_epochs": s["finetune_epochs"]},
            "workload": {"n_queries": s["n_queries"], "num_samples": s["num_samples"]},
            "join_cap": JOIN_CAP,
        }
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(yaml.safe_dump(doc, sort_keys=True))

    def stage(self, *argv):
        """Run one CLI stage in-process; a non-zero exit or an exception is a
        failed operation that ends the run."""
        self.attempted += 1
        if self.tracer:
            self.tracer.op += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([argv[0], "-c", str(self.cfg_path), *argv[1:]])
        except Exception as exc:  # noqa: BLE001 - any crash is a failed stage
            rc = repr(exc)
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"cardest {' '.join(argv)} failed: {rc}")

    def check(self, name, ok):
        self.attempted += 1
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += 1

    def figure(self, name, value, unit):
        self.figures[name] = (float(value), unit)

    def phase(self, name):
        if self.tracer:
            self.tracer.phase = name

    # -- workloads -------------------------------------------------------------

    def setup(self) -> float:
        """Build the workload's starting state on disk; returns its seconds."""
        t0 = time.perf_counter()
        self.stage("gen-data")
        if self.workload != "fit":
            self.stage("train")
            self.stage("delete")
        if self.workload == "estimate":
            self.stage("unlearn", "--method", "cep")
        return time.perf_counter() - t0

    def setup_in_child(self, repeats) -> list[float]:
        """Run the set-ups in a forked child, so that this process's peak RSS
        covers only the measured phase; returns the per-set-up seconds."""
        times_path = self.run_dir / "setup_times.json"
        before = self.attempted
        # fork, not spawn: the child starts with cardest imported, so only the
        # set-up is timed.  The process runs no Python threads (evaluation is
        # single-threaded here) and OpenBLAS stops its pool around a fork.
        pid = os.fork()
        if pid == 0:
            # the child never returns into this process's code: every way
            # out, interrupts included, ends in os._exit with a status
            code = 1
            try:
                times = [self.setup() for _ in range(repeats)]
                times_path.write_text(json.dumps({"seconds": times,
                                                  "attempted": self.attempted - before}))
                code = 0
            except BaseException as exc:  # noqa: BLE001 - reported by the exit status
                print(f"error: set-up: {exc}", file=sys.stderr, flush=True)
            finally:
                os._exit(code)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status != 0:
            self.attempted += 1
            self.failed += 1
            raise StageFailed(f"set-up failed (wait status {status})")
        done = json.loads(times_path.read_text())
        self.attempted += done["attempted"]
        return done["seconds"]

    def load_estimate_state(self):
        cfg = cli.load_config(self.cfg_path)
        db = load_dataset(self.out / "data")
        retained = load_dataset(self.out / "split" / "retained", validate=False)
        model = cmodel.load_checkpoint(self.out / "unlearn-cep" / "model.ckpt")
        total_rows = materialize_join(retained.tables, retained.joins, cap=JOIN_CAP).cardinality
        cond_cols = tuple(f"{c['table']}.{c['column']}" for c in CONDITIONS)
        wl = cworkload.WorkloadConfig(n_queries=self.size["n_queries"],
                                      num_samples=self.size["num_samples"],
                                      focus_columns=cond_cols)
        oq = cworkload.gen_workload(db, wl.n_queries, cfg.seeds["workload"], wl)
        cq = [c for q in oq if (c := cworkload.complement_query(q, set(cond_cols))) is not None]
        labeled = [("OQ", q) for q in oq] + [("CQ", q) for q in cq]
        return {"model": model, "retained": retained, "total_rows": total_rows,
                "labeled": labeled}

    def measure_once(self, state, record):
        """One unit of measured work; returns its wall seconds and appends
        per-operation latencies (seconds) to ``record``."""
        t0 = time.perf_counter()
        if self.workload == "fit":
            n = len(self.clock.steps)
            self.stage("train")
            record.extend(self.clock.steps[n:])
        elif self.workload == "unlearn":
            n = len(self.clock.steps)
            self.stage("unlearn", "--method", "cep")
            record.extend(self.clock.steps[n:])
            timing = {r["stage"]: float(r["seconds"])
                      for r in _read_csv(self.out / "unlearn-cep" / "timing.csv")}
            self.unlearn_timings.append(timing)
        else:
            rows = []
            for item in state["labeled"]:
                self.attempted += 1
                if self.tracer:
                    self.tracer.op += 1
                q0 = time.perf_counter()
                rep = cworkload.evaluate(state["model"], [item], state["retained"].tables,
                                         state["retained"].joins, state["total_rows"],
                                         seed=self.seeds["eval"],
                                         num_samples=self.size["num_samples"],
                                         cap=JOIN_CAP, threads=1)
                record.append(time.perf_counter() - q0)
                r = rep.rows[0]
                if not (math.isfinite(r.est_card) and 0.0 <= r.est_card <= state["total_rows"]):
                    self.failed += 1
                rows.append(r)
            self.query_rows.append(rows)
        return time.perf_counter() - t0

    def measure(self, state, seconds, traced=False, between=None):
        """Repeat the measured work while another round fits in ``seconds``
        of measured time (at least MIN_UNITS rounds untraced, one traced),
        calling ``between(i)`` before round ``i`` > 0; returns (per-unit wall
        seconds, per-unit lists of per-operation latencies, untraced
        reference seconds).  A traced round runs one unit untraced, the
        reference for the tracing overhead, then one traced: alternating
        keeps warm-up and machine drift out of the difference."""
        units, ops, ref = [], [], []
        per_round = 2 if traced else 1
        least = 1 if traced else MIN_UNITS
        while len(units) < least or (sum(units) + sum(ref)
                                     + per_round * statistics.median(units) <= seconds):
            if units and between:
                between(len(units))
            if traced:
                self.phase("untraced")
                with self.instrumented(False):
                    ref.append(self.measure_once(state, []))
                self.phase("measure")
            ops.append([])
            with self.instrumented(traced):
                units.append(self.measure_once(state, ops[-1]))
        return units, ops, ref

    # -- checks ----------------------------------------------------------------

    def check_fit(self):
        trace = [float(r["loss"]) for r in _read_csv(self.out / "model" / "train_trace.csv")]
        epochs = self.size["epochs"]
        self.check("fit.loss_finite", trace and all(math.isfinite(v) for v in trace))
        per_epoch = np.array_split(np.asarray(trace), epochs)
        self.check("fit.loss_decreases", per_epoch[-1].mean() < per_epoch[0].mean())
        manifest = json.loads((self.out / "model" / "manifest.json").read_text())
        try:
            reloaded = cmodel.load_checkpoint(self.out / "model" / "original.ckpt")
            ok = reloaded.parameter_count() == manifest["parameters"]
        except CardestError:
            ok = False
        self.check("fit.checkpoint_reloads", ok)
        self.join_rows = manifest["join_rows"]

    def check_unlearn(self):
        m = cmodel.load_checkpoint(self.out / "unlearn-cep" / "model.ckpt")
        remapped = {c.name for c in m.columns if c.remap is not None}
        want = {f"{c['table']}.{c['column']}" for c in CONDITIONS}
        self.check("unlearn.remaps_on_condition_columns", want <= remapped)

    def check_estimate(self, state):
        col, lo, hi = GAP_PREDICATE
        q = Query(qid=-1, scope=("fact",), predicates=(Predicate(col, "range", lo=lo, hi=hi),))
        sel = cmodel.estimate_selectivity(state["model"],
                                          cworkload.model_constraints(state["model"], q),
                                          num_samples=self.size["num_samples"],
                                          rng=np.random.default_rng(self.seed))
        self.check("estimate.deleted_gap_is_zero", sel == 0.0)
        # the batch CLI evaluation must reproduce the per-query percentiles
        self.stage("eval", "--method", "cep")
        summary = {r["qtype"]: r for r in _read_csv(self.out / "eval-cep" / "summary.csv")}
        mine = cworkload.summarize(self.query_rows[0]).percentiles
        same = set(summary) == set(mine) and all(
            float(summary[t][f"p{p}"]) == mine[t][p] for t in mine for p in cworkload.PERCENTILES)
        self.check("estimate.percentiles_match_cli_eval", same)

    # -- the run -----------------------------------------------------------------

    @contextlib.contextmanager
    def instrumented(self, traced):
        """Step timing always; spans only when ``traced``.  The step clock
        wraps whatever ``train`` binding the tracer left, so it goes on after
        the tracer and comes off before it."""
        if traced:
            self.tracer.install()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr in
                 ((cli, "train"), (cunlearn, "train"))]
        for owner, attr, fn in saved:
            setattr(owner, attr, self.clock.wrap(fn))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            if traced:
                self.tracer.uninstall()

    def run(self) -> dict:
        self.write_config()
        rounds, per_round = SETUP_ROUNDS[self.workload]
        setup_times: list[float] = []

        def setup_round(i):
            if i < rounds:
                setup_times.extend(self.setup_in_child(per_round))

        with self.instrumented(self.trace):
            # a traced run sets up once in-process, so its spans cover set-up
            if self.trace:
                setup_times.append(self.setup())
            else:
                setup_round(0)
            state = self.load_estimate_state() if self.workload == "estimate" else None
        self.phase("measure")
        units, ops, ref_units = self.measure(state, self.seconds, traced=self.trace,
                                             between=None if self.trace else setup_round)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.phase("check")
        with self.instrumented(self.trace):
            if self.workload == "fit":
                self.check_fit()
            elif self.workload == "unlearn":
                self.check_unlearn()
            else:
                self.check_estimate(state)

        stage_s = statistics.median(units)
        # latency percentiles per unit, then their median over units: a unit
        # that ran while the machine was slow cannot set the tail on its own
        lat_ms = [[v * 1000.0 for v in unit] for unit in ops]
        self.end_to_end = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "stage_s": stage_s,
            "op_ms_p50": statistics.median(nearest_rank(u, 50) for u in lat_ms),
            "op_ms_p95": statistics.median(nearest_rank(u, 95) for u in lat_ms),
        }
        self.figure("units_timed", len(units), "count")
        self.figure("ops_timed_per_unit", statistics.median(len(u) for u in lat_ms), "count")
        self.figure("setups_timed", len(setup_times), "count")
        self.derive_figures(stage_s)
        if self.trace:
            self.per_layer = self.layer_metrics(units, ref_units)
        return self.result()

    def derive_figures(self, stage_s):
        """The workload's own headline figures (printed, not gated)."""
        self.figure("failed_ratio", self.failed / self.attempted, "ratio")
        if self.workload == "fit":
            rows = self.join_rows * self.size["epochs"]
            self.figure("train_rows_per_s", rows / stage_s, "rows/s")
        elif self.workload == "unlearn":
            prune = statistics.median(t["prune_seconds"] for t in self.unlearn_timings)
            ft = statistics.median(t["finetune_seconds"] for t in self.unlearn_timings)
            self.figure("unlearn_s", stage_s, "s")
            self.figure("prune_s", prune, "s")
            self.figure("finetune_s", ft, "s")
            self.figure("unlearn.prune_share", prune / ft, "ratio")
        else:
            self.figure("estimate_ms_p50", self.end_to_end["op_ms_p50"], "ms")
            self.figure("estimate_ms_p95", self.end_to_end["op_ms_p95"], "ms")
            pct = cworkload.summarize(self.query_rows[0]).percentiles
            for t in ("OQ", "CQ"):
                for p in (50, 95):
                    self.figure(f"qerr_{t.lower()}_p{p}", pct.get(t, {}).get(p, 0.0), "ratio")

    def layer_metrics(self, traced_units, untraced_units) -> dict:
        tr = self.tracer
        measure = tr.summary("measure")
        fn, out = measure["functions"], {}
        for name in PER_LAYER:
            base, _, field = name.rpartition(".")
            if base in fn:
                out[name] = fn[base].get(field, 0.0)
        est_calls = fn["model.estimate_selectivity"]["calls"] if \
            "model.estimate_selectivity" in fn else 0
        fwd_in_est = sum(1 for s in tr.spans
                         if s[PHASE] == "measure" and s[NAME] == "model.forward"
                         and s[PARENT] >= 0
                         and tr.spans[s[PARENT]][NAME] == "model.estimate_selectivity")
        out["model.forward_per_estimate"] = fwd_in_est / est_calls if est_calls else 0.0
        acc = fn.get("unlearn.accumulate_scores", {})
        used, skipped = acc.get("tuples_used", 0), acc.get("tuples_skipped", 0)
        out["unlearn.tuples_used_ratio"] = used / (used + skipped) if used + skipped else 0.0
        out["unlearn.score_s_per_iter_table"] = \
            acc["s"] / (acc["calls"] * self.size["ns"]) if acc.get("calls") else 0.0
        out["unlearn.prune_share"] = self.figures.get("unlearn.prune_share", (0.0,))[0]
        if self.query_rows:
            rows = self.query_rows[0]
            rep = cworkload.summarize(rows)
            out["workload.included_ratio"] = len(rep.included()) / len(rows)
            out["workload.excluded.model_zero"] = rep.excluded.get("model-zero", 0)
            out["workload.excluded.true_zero"] = rep.excluded.get("true-zero", 0)
            for t in ("OQ", "CQ"):
                for p in (50, 95):
                    out[f"workload.qerr_{t.lower()}_p{p}"] = rep.percentiles.get(t, {}).get(p, 0.0)
        for mod, v in measure["layers"].items():
            out[f"layer.{mod}.self_s"] = v
        setup = tr.summary("setup")
        for mod, v in setup["layers"].items():
            out[f"setup.{mod}.self_s"] = v
        out["setup.datagen.gen_star_schema.s"] = \
            setup["functions"].get("datagen.gen_star_schema", {}).get("s", 0.0)
        for phase in ("setup", "measure", "check"):
            for stage, v in tr.summary(phase)["stages"].items():
                for k in ("s", "overhead_s"):
                    key = f"cli.{stage}.{k}"
                    if key in PER_LAYER:
                        out[key] = out.get(key, 0.0) + v[k]
        out["trace.spans"] = len(tr.spans)
        out["trace.overhead_share"] = \
            statistics.median(traced_units) / statistics.median(untraced_units) - 1.0
        self.figure("trace.overhead_share", out["trace.overhead_share"], "ratio")
        return {k: float(out.get(k, 0.0)) for k in PER_LAYER}

    def result(self) -> dict:
        names = PER_LAYER if self.trace else END_TO_END
        values = self.per_layer if self.trace else self.end_to_end
        metrics = {k: {"value": float(values[k]), "unit": names[k]} for k in names}
        return {"correct": self.failed == 0 and all(self.checks.values()),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}
