"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

The desk benchmark (shared session fixture): a skewed 3-table star schema
with a 10,000-row hub and 500-row dimensions, a <=200k-parameter model
trained for 30 epochs, full-deletion tasks on one and on all three tables,
and pooled OQ+CQ workloads of >=200 queries, across 3 seeds.  Trend
criteria require a majority of seeds.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest
import yaml

from cardest.cli import main as cli_main
from cardest.datagen import DataGenConfig, gen_star_schema
from cardest.domains import NumericRemap, remap_array
from cardest.model import (ModelConfig, encode_relation, estimate_selectivity,
                           init_model, train)
from cardest.queries import Predicate, Query
from cardest.relational import (Condition, DeletionTask, apply_deletion,
                                materialize_join, semi_join_deletion)
from cardest.unlearn import (CepConfig, accumulate_scores, column_shift_weights,
                             prune_step, run_method, zero_scores)
from cardest.workload import (WorkloadConfig, complement_query, evaluate,
                              gen_workload, model_constraints)
from conftest import (enumerate_probabilities, fd_gradient, full_gradient,
                      max_relative_error, with_dtype)

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2)
FT_EPOCHS = 12
NUM_SAMPLES = 256
EVAL_THREADS = 2


def crit(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# desk benchmark fixture


def a1_task():
    return DeletionTask("A", (Condition("fact", "amount", lo=300.0, hi=800.0),), 1.0)


def a3_task():
    return DeletionTask("A", (Condition("fact", "amount", lo=300.0, hi=800.0),
                              Condition("dim1", "val1", lo=200.0, hi=700.0),
                              Condition("dim2", "val2", lo=300.0, hi=800.0)), 1.0)


def cond_cols(task):
    return {f"{c.table}.{c.column}" for c in task.conditions}


@dataclass
class TaskRuns:
    split: object
    total_rows: int
    labeled: list
    ft: object
    cep: object
    ft_pct: dict
    cep_pct: dict
    cep_q95_trace: list = field(default_factory=list)   # (step, q95)
    ft_final_q95_reduced: float = 0.0
    total_steps: int = 0


@dataclass
class SeedRuns:
    db: object
    original: object
    tasks: dict


def _labeled_workload(db, task, seed):
    focus = tuple(sorted(cond_cols(task)))
    wcfg = WorkloadConfig(n_queries=150, focus_columns=focus, focus_prob=0.5)
    oq = gen_workload(db, 150, seed=400 + seed, cfg=wcfg)
    cq = [c for q in oq if (c := complement_query(q, cond_cols(task))) is not None]
    return [("OQ", q) for q in oq] + [("CQ", q) for q in cq]


def _pooled(model, labeled, split, total_rows, seed):
    rep = evaluate(model, labeled, split.retained, split.joins, total_rows,
                   seed=500 + seed, num_samples=NUM_SAMPLES, threads=EVAL_THREADS)
    return rep.percentiles["ALL"]


def _reduced_q95(model, labeled, split, total_rows, seed):
    rep = evaluate(model, labeled[:48], split.retained, split.joins, total_rows,
                   seed=900 + seed, num_samples=128, threads=EVAL_THREADS)
    return rep.percentiles["ALL"][95]


@pytest.fixture(scope="session")
def desk():
    runs = {}
    for s in SEEDS:
        db = gen_star_schema(DataGenConfig(hub_rows=10_000, dim_rows=(500, 500),
                                           seed=100 + s))
        rel = materialize_join(db.tables, db.joins)
        mc = ModelConfig(epochs=30)
        original = init_model(rel.columns, mc, seed=200 + s)
        assert original.parameter_count() <= 200_000
        codes, _ = encode_relation(original, rel)
        train(original, codes, seed=200 + s)

        tasks = {}
        for tname, task in (("A-1-1.0", a1_task()), ("A-3-1.0", a3_task())):
            split = apply_deletion(db, task, seed=100 + s)
            total_rows = split.retained_join().cardinality
            labeled = _labeled_workload(db, task, s)
            cfg = CepConfig(finetune_epochs=FT_EPOCHS)

            ft = run_method("finetune", split, original.copy(), cfg, seed=300 + s)

            trace: list = []
            total_steps = math.ceil(total_rows / original.cfg.batch_size) * FT_EPOCHS
            interval = max(1, total_steps // 10)

            def hook(step, m, _labeled=labeled, _split=split, _tr=total_rows,
                     _trace=trace, _interval=interval, _total=total_steps, _s=s,
                     _want=(tname == "A-3-1.0")):
                if _want and (step % _interval == 0 or step == _total):
                    _trace.append((step, _reduced_q95(m, _labeled, _split, _tr, _s)))

            cep = run_method("cep", split, original.copy(), cfg, seed=300 + s,
                             model_cfg=mc, step_hook=hook)

            tr = TaskRuns(split=split, total_rows=total_rows, labeled=labeled,
                          ft=ft, cep=cep,
                          ft_pct=_pooled(ft.model, labeled, split, total_rows, s),
                          cep_pct=_pooled(cep.model, labeled, split, total_rows, s),
                          cep_q95_trace=trace, total_steps=total_steps)
            if tname == "A-3-1.0":
                tr.ft_final_q95_reduced = _reduced_q95(ft.model, labeled, split,
                                                       total_rows, s)
            tasks[tname] = tr
        runs[s] = SeedRuns(db=db, original=original, tasks=tasks)
    return runs


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    from cardest.relational import CATEGORICAL, ColumnSpec
    specs = [ColumnSpec("t.a", CATEGORICAL, dictionary=np.arange(3, dtype=np.int64)),
             ColumnSpec("t.num", "numerical", lo=0.0, hi=1.0)]
    cfg = ModelConfig(embedding_dim=2, hidden_dim=4, residual_blocks=1,
                      dropout=0.0, numeric_bins=3)
    worst = 0.0
    masked_zero = True
    for masked in (False, True):
        # float64: the dtype central differences at h = 1e-5 resolve
        model = init_model(specs, cfg, seed=31, dtype=np.float64)
        assert model.parameter_count() <= 500
        if masked:
            model.keep[::3] = 0.0
            model.theta[:model.keep.size] *= model.keep
        rng = np.random.default_rng(32)
        X = np.stack([rng.integers(0, c.domain_size, 8) for c in model.columns],
                     axis=1)
        shift = np.array([0.7, 1.9])
        for weights in (None,
                        shift,
                        np.full(model.ncols, shift.sum())):
            analytic = full_gradient(model, X, weights)[1]
            numeric = fd_gradient(model, X, weights, h=1e-5)
            worst = max(worst, max_relative_error(analytic, numeric))
            masked_zero &= bool((analytic[:model.keep.size][model.keep == 0] == 0).all())
    elapsed = time.perf_counter() - t0
    crit(1, "finite-difference gradient check",
         worst < 1e-4 and masked_zero and elapsed < 30.0,
         f"max rel err {worst:.2e} on trainable positions, "
         f"exact 0 on masked ones={masked_zero}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence on a small-domain join


def _small_join_model(dtype):
    from cardest.relational import CATEGORICAL, NUMERICAL, ColumnSpec, Join, SchemaGraph, TableData
    rng = np.random.default_rng(21)
    n_dim, n_hub = 40, 800
    dim = TableData("cust", [
        ColumnSpec("id", CATEGORICAL, dictionary=np.arange(n_dim, dtype=np.int64)),
        ColumnSpec("seg", CATEGORICAL, dictionary=np.array([10, 20, 30, 40, 50])),
        ColumnSpec("age", NUMERICAL, lo=0.0, hi=80.0),
    ], [np.arange(n_dim, dtype=np.int64),
        rng.integers(0, 5, n_dim).astype(np.int64),
        rng.integers(0, 81, n_dim).astype(np.float64)])
    hub = TableData("orders", [
        ColumnSpec("cid", CATEGORICAL, dictionary=np.arange(n_dim, dtype=np.int64)),
        ColumnSpec("kind", CATEGORICAL, dictionary=np.array([1, 2, 3, 4, 5, 6])),
        ColumnSpec("price", NUMERICAL, lo=0.0, hi=100.0),
    ], [rng.integers(0, n_dim, n_hub).astype(np.int64),
        rng.integers(0, 6, n_hub).astype(np.int64),
        rng.integers(0, 101, n_hub).astype(np.float64)])
    db = SchemaGraph([hub, dim], [Join("orders", "cid", "cust", "id")], hub="orders")
    db.validate()
    rel = materialize_join(db.tables, db.joins)
    cfg = ModelConfig(embedding_dim=4, hidden_dim=16, residual_blocks=2,
                      dropout=0.0, numeric_bins=8, epochs=10)
    model = init_model(rel.columns, cfg, seed=22, dtype=dtype)
    codes, _ = encode_relation(model, rel)
    train(model, codes, seed=23)
    return db, model


def _oracle_queries(model, probs, combos, tolerance):
    """Estimate 50 random one- and two-predicate queries on ``model`` and
    compare each with its exact mass under the enumerated ``probs``; returns
    (query index, exact, estimate, sem) for each query off by more than
    ``tolerance(sem, exact)``."""
    rng = np.random.default_rng(24)
    failures = []
    for k in range(50):
        constraints = {}
        n_preds = rng.integers(1, 3)
        cols = rng.choice(model.ncols, size=n_preds, replace=False)
        for i in cols:
            col = model.columns[i]
            w = np.zeros(col.domain_size)
            if col.kind == "categorical":
                w[rng.integers(0, col.domain_size)] = 1.0
            else:
                a, b = sorted(rng.integers(0, col.domain_size, 2).tolist())
                w[a:b + 1] = 1.0
            constraints[col.name] = w
        mask = np.ones(len(combos), dtype=bool)
        for name, w in constraints.items():
            i = model.column_index(name)
            mask &= w[combos[:, i]] > 0
        exact = float(probs[mask].sum())
        est, sem, _ = estimate_selectivity(model, constraints, 512,
                                           np.random.default_rng(600 + k),
                                           with_error=True)
        if abs(est - exact) > tolerance(sem, exact):
            failures.append((k, exact, est, sem))
    return failures


def test_criterion_2_oracle_equivalence():
    # float64, the dtype the 1e-9 floor is set for
    db, model = _small_join_model(np.float64)
    combos, probs = enumerate_probabilities(model)
    domain_product = int(np.prod([c.domain_size for c in model.columns]))
    assert domain_product <= 10_000
    total_ok = abs(probs.sum() - 1.0) <= 1e-6
    failures = _oracle_queries(model, probs, combos,
                               lambda sem, exact: 3 * max(sem, 1e-9) + 1e-12)
    crit(2, "progressive sampling vs exhaustive enumeration",
         total_ok and not failures,
         f"sum(p)={probs.sum():.9f}, {50 - len(failures)}/50 queries within 3 SE")


# float32 rounding allowed on a float32 estimate, in units of the exact mass:
# a query constrained only at the first positions gives every path the same
# weight, so its SE is ~0 and only rounding separates it from the exact mass
F32_ALLOWANCE = 16 * float(np.finfo(np.float32).eps)


def test_criterion_2_float32_sampling_vs_float64_enumeration():
    # the float32-trained weights sampled in float32, against float64
    # enumeration of the same weights
    db, model = _small_join_model(np.float32)
    combos, probs = enumerate_probabilities(with_dtype(model, np.float64))
    total_ok = abs(probs.sum() - 1.0) <= 1e-6
    failures = _oracle_queries(model, probs, combos,
                               lambda sem, exact: 3 * sem + F32_ALLOWANCE * exact)
    crit(2, "float32 progressive sampling vs float64 enumeration",
         total_ok and not failures,
         f"sum(p)={probs.sum():.9f}, {50 - len(failures)}/50 queries within "
         f"3 SE + {F32_ALLOWANCE:.2e} x exact")


# ---------------------------------------------------------------------------
# criterion 3: remap unit vectors


def test_criterion_3_remap_unit_vectors():
    remap = NumericRemap(0.0, 100.0, ((0.0, 40.0), (60.0, 100.0)))
    wants = [62.5, 25.0, 50.0, 50.0]
    checks = list(zip(remap_array(remap, [70.0, 20.0, 40.0, 60.0]), wants))
    ok = all(abs(got - want) <= 1e-12 for got, want in checks)
    crit(3, "numeric compaction unit vectors",
         ok, ", ".join(f"{g:.6g}=={w:.6g}" for g, w in checks))


# ---------------------------------------------------------------------------
# criterion 4: domain-disappearance hard guarantee


def test_criterion_4_domain_disappearance(desk):
    runs = desk[SEEDS[0]]
    db, original = runs.db, runs.original
    grp = db.table("dim1")
    counts = np.bincount(grp.column("grp1"), minlength=grp.spec("grp1").domain_size)
    present = np.nonzero(counts > 0)[0]
    victim_code = int(present[np.argmin(counts[present])])
    victim = float(grp.spec("grp1").dictionary[victim_code])

    task = DeletionTask("A", (Condition("dim1", "grp1", value=victim),
                              Condition("fact", "amount", lo=300.0, hi=800.0)), 1.0)
    split = apply_deletion(db, task, seed=100)
    cfg = CepConfig(finetune_epochs=6)
    cep = run_method("cep", split, original.copy(), cfg, seed=41, model_cfg=original.cfg)
    ft = run_method("finetune", split, original.copy(), cfg, seed=41)
    total_rows = split.retained_join().cardinality

    q_cat = Query(0, ("fact", "dim1"), (Predicate("dim1.grp1", "eq", value=victim),))
    q_gap = Query(1, ("fact",), (Predicate("fact.amount", "range", lo=420.0, hi=640.0),))
    def card(m, q):
        return estimate_selectivity(m, model_constraints(m, q), 128,
                                    np.random.default_rng(1)) * total_rows

    cep_cat, cep_gap = card(cep.model, q_cat), card(cep.model, q_gap)
    ft_cat, ft_gap = card(ft.model, q_cat), card(ft.model, q_gap)
    ok = cep_cat == 0.0 and cep_gap == 0.0 and (ft_cat > 0.0 or ft_gap > 0.0)
    crit(4, "deleted domains estimate exactly zero",
         ok, f"cep=({cep_cat}, {cep_gap}), finetune=({ft_cat:.2f}, {ft_gap:.2f})")


# ---------------------------------------------------------------------------
# criteria 5/6: trend checks


def _trend(desk, task_name):
    wins, details = 0, []
    for s in SEEDS:
        tr = desk[s].tasks[task_name]
        assert len(tr.labeled) >= 200
        win = tr.cep_pct[99] <= tr.ft_pct[99]
        wins += win
        details.append(f"seed{s}: cep {tr.cep_pct[99]:.2f} vs ft {tr.ft_pct[99]:.2f}")
    return wins, "; ".join(details)


def test_criterion_5_full_deletion_trend(desk):
    wins, details = _trend(desk, "A-1-1.0")
    crit(5, "single-table full deletion: cep p99 <= finetune p99 (majority)",
         wins >= 2, details)


def test_criterion_6_multi_table_trend(desk):
    wins, details = _trend(desk, "A-3-1.0")
    crit(6, "three-table full deletion: cep p99 <= finetune p99 (majority)",
         wins >= 2, details)


# ---------------------------------------------------------------------------
# criterion 7: pruning overhead


def test_criterion_7_overhead(desk):
    ratios = []
    for s in SEEDS:
        t = desk[s].tasks["A-1-1.0"].cep.timings
        ratios.append(t["prune_seconds"] / t["finetune_seconds"])
    ok = all(r < 0.10 for r in ratios)
    crit(7, "prune time < 10% of fine-tune time",
         ok, ", ".join(f"{r:.1%}" for r in ratios))


# ---------------------------------------------------------------------------
# criterion 8: complexity scaling


def test_criterion_8_complexity_scaling(desk):
    runs = desk[SEEDS[0]]
    split = runs.tasks["A-3-1.0"].split
    model = runs.original.copy()
    shift = column_shift_weights(model, split.original_join(), split.retained_join())
    rel_fact = semi_join_deletion(split, 0)
    rel_dim1 = semi_join_deletion(split, 1)

    def timed(fn):
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    base_ns = 50
    t_ns1 = timed(lambda: accumulate_scores(model, rel_fact, shift, base_ns, 128,
                                            np.random.default_rng(0)))
    t_ns2 = timed(lambda: accumulate_scores(model, rel_fact, shift, 2 * base_ns, 128,
                                            np.random.default_rng(0)))

    def k1():
        accumulate_scores(model, rel_fact, shift, base_ns, 128,
                          np.random.default_rng(1))

    def k2():
        accumulate_scores(model, rel_fact, shift, base_ns, 128,
                          np.random.default_rng(1))
        accumulate_scores(model, rel_dim1, shift, base_ns, 128,
                          np.random.default_rng(2))

    t_k1, t_k2 = timed(k1), timed(k2)
    r_ns, r_k = t_ns2 / t_ns1, t_k2 / t_k1
    ok = 1.0 <= r_ns <= 3.0 and 1.0 <= r_k <= 3.0
    crit(8, "score accumulation scales linearly in sampling iterations and tables",
         ok, f"2x iterations -> x{r_ns:.2f}, 2x tables -> x{r_k:.2f}")


# ---------------------------------------------------------------------------
# criterion 9: convergence


def test_criterion_9_convergence(desk):
    wins, details = 0, []
    for s in SEEDS:
        tr = desk[s].tasks["A-3-1.0"]
        target = tr.ft_final_q95_reduced
        reach = [step for step, q in tr.cep_q95_trace if q <= target]
        first = min(reach) if reach else None
        win = first is not None and first <= tr.total_steps
        wins += win
        details.append(f"seed{s}: reach@{first} of {tr.total_steps} "
                       f"(target {target:.2f})")
    crit(9, "cep reaches finetune's final p95 within finetune's steps (majority)",
         wins >= 2, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 10: budget and ablation contracts


def test_criterion_10_budget_and_ablation(desk, tmp_path):
    runs = desk[SEEDS[0]]
    info = runs.tasks["A-3-1.0"].cep.info["sensitivity"]
    pool, k = info["pool_size"], len(info["tables"])
    alpha = 0.5
    expected = sum(int(np.floor(alpha / k * pool)) for _ in range(k))
    budget_ok = info["total_pruned"] == expected and \
        abs(info["total_pruned"] - alpha * pool) <= k

    # toggles-off cep is bit-identical to finetune
    split = runs.tasks["A-1-1.0"].split
    cfg = CepConfig(domain_prune=False, sensitivity_prune=False, finetune_epochs=2)
    r_ft = run_method("finetune", split, runs.original.copy(), cfg, seed=42)
    r_cep = run_method("cep", split, runs.original.copy(), cfg, seed=42)
    from cardest.model import save_checkpoint
    save_checkpoint(r_ft.model, tmp_path / "ft.ckpt")
    save_checkpoint(r_cep.model, tmp_path / "cep.ckpt")
    identical = (tmp_path / "ft.ckpt").read_bytes() == (tmp_path / "cep.ckpt").read_bytes()

    # positive scaling of scores leaves the pruned set unchanged
    masks = []
    for scale in (1.0, 10.0):
        m = runs.original.copy()
        scores = zero_scores(m)
        rng = np.random.default_rng(7)
        scores.values[:] = rng.random(scores.values.size) * scale
        eligible = m.keep.copy()
        prune_step(m, scores, 0.25, eligible)
        masks.append(eligible)
    scale_ok = np.array_equal(masks[0], masks[1])

    crit(10, "prune budget, toggles-off identity, score-scale invariance",
         budget_ok and identical and scale_ok,
         f"pruned {info['total_pruned']} == {expected}, identical={identical}, "
         f"scale-invariant={scale_ok}")


# ---------------------------------------------------------------------------
# criterion 11: end-to-end determinism


def test_criterion_11_end_to_end_determinism(tmp_path):
    out = tmp_path / "run"
    cfg = {
        "output_dir": str(out),
        "seeds": {"data": 5, "model": 6, "workload": 7, "eval": 8},
        "datagen": {"hub_rows": 1200, "dim_rows": [80, 60], "seed": 5},
        "model": {"embedding_dim": 8, "hidden_dim": 32, "residual_blocks": 2,
                  "dropout": 0.1, "numeric_bins": 32, "epochs": 4,
                  "batch_size": 128},
        "task": {"name": "A-1-1.0",
                 "conditions": [{"table": "fact", "column": "amount",
                                 "lo": 300.0, "hi": 800.0}]},
        "cep": {"alpha": 0.5, "sampling_iterations": 5, "finetune_epochs": 3},
        "workload": {"n_queries": 30, "num_samples": 64},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    def pipeline():
        for args in (["gen-data"], ["train"], ["delete"],
                     ["unlearn", "--method", "cep"],
                     ["eval", "--method", "cep"], ["report"]):
            assert cli_main(args + ["-c", str(cfg_path)]) == 0
        return ((out / "eval-cep" / "summary.csv").read_bytes(),
                (out / "unlearn-cep" / "model.ckpt").read_bytes(),
                (out / "report" / "summary_all.csv").read_bytes(),
                (out / "report" / "consolidated.md").read_bytes())

    first = pipeline()
    second = pipeline()
    ok = all(a == b for a, b in zip(first, second))
    crit(11, "full pipeline rerun is byte-identical",
         ok, "summary.csv, model.ckpt, report tables, consolidated.md")
