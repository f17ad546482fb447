"""Workload generation, ground truth, Q-error scoring, and the report.

Queries are conjunctions of 1-4 predicates over a random connected scope
containing the hub, with constants sampled from actual data values so most
true cardinalities are positive.  Complement queries invert range
predicates on deletion-condition columns to check that forgetting is
selective rather than mass redistribution.  Ground truth always comes from
the retained database: the goal state is "as if the deleted rows never
existed", for every method including stale.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .domains import clamp_interval
from .errors import ConfigurationError, ValidationError
from .model import (ArDensityModel, _is_int, _is_number, estimate_selectivity,
                    interval_bin_weights)
from .queries import Predicate, Query
from .relational import (CATEGORICAL, JOIN_CAP_DEFAULT, Join, SchemaGraph,
                         TableData, count_join, join_keys)

PERCENTILES = (50, 75, 95, 99)


@dataclass(frozen=True)
class WorkloadConfig:
    n_queries: int = 100
    max_predicates: int = 4
    dim_scope_prob: float = 0.5
    focus_columns: tuple[str, ...] = ()   # qualified names favored by generation
    focus_prob: float = 0.5
    num_samples: int = 512                # progressive-sampling paths per query

    def validate(self):
        for name in ("n_queries", "max_predicates", "num_samples"):
            if not (_is_int(getattr(self, name)) and getattr(self, name) >= 1):
                raise ValidationError(f"{name} must be an integer >= 1")
        for name in ("dim_scope_prob", "focus_prob"):
            if not (_is_number(getattr(self, name)) and 0.0 <= getattr(self, name) <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1]")
        if not (isinstance(self.focus_columns, tuple)
                and all(isinstance(c, str) and all(c.partition(".")[::2])
                        for c in self.focus_columns)):
            raise ValidationError("focus_columns must be a list of table.column names")


# ---------------------------------------------------------------------------
# generation


def _sample_range(rng, values: np.ndarray) -> tuple[float, float]:
    a, b = rng.choice(values, size=2, replace=True)
    lo, hi = (a, b) if a <= b else (b, a)
    if lo == hi:
        hi = lo + 1.0
    return float(lo), float(hi)


def _make_predicate(rng, table: TableData, spec) -> Predicate:
    # constants come from rows, not the dictionary, so frequent values are
    # proportionally likely and conjunctions usually keep a nonzero count
    qual = f"{table.name}.{spec.name}"
    col = table.column(spec.name)
    if spec.kind == CATEGORICAL:
        value = spec.dictionary[int(rng.choice(col))]
        return Predicate(qual, "eq", value=float(value))
    lo, hi = _sample_range(rng, col)
    return Predicate(qual, "range", lo=lo, hi=hi)


def check_focus_columns(db: SchemaGraph, focus_columns: tuple[str, ...]):
    """Raise ConfigurationError unless every focus column names an attribute:
    a column of one of the schema's tables that is not a join key."""
    keys = join_keys(db.joins)
    for qual in focus_columns:
        tname, cname = qual.split(".", 1)
        try:
            db.table(tname).spec(cname)
        except ConfigurationError as exc:  # an unknown table or column
            raise ConfigurationError(f"focus column {qual!r}: {exc}") from exc
        if (tname, cname) in keys:
            raise ConfigurationError(f"focus column {qual!r} is a join key, not an attribute")


def gen_workload(db: SchemaGraph, n_queries: int, seed: int,
                 cfg: WorkloadConfig) -> list[Query]:
    """Deterministic random workload over the schema's attribute columns.

    Each query's scope is a connected subtree of the join tree that holds
    the hub.  Every non-hub table gets one coin flip, in table order, and a
    drawn table joins the scope only when every table on its path to the
    hub was drawn too; a focus column brings its table's path along.  On a
    star every path is the hub alone, so each drawn table joins."""
    check_focus_columns(db, cfg.focus_columns)
    rng = np.random.default_rng(seed)
    keys = join_keys(db.joins)
    by_table = {t.name: [s for s in t.columns if (t.name, s.name) not in keys]
                for t in db.tables}
    dims = [t.name for t in db.tables if t.name != db.hub]
    order = db.table_names()
    paths = db.hub_paths()

    queries = []
    for qid in range(n_queries):
        drawn = {db.hub} | {d for d in dims if rng.random() < cfg.dim_scope_prob}
        scope = {t for t in drawn if paths[t] <= drawn}
        preds: list[Predicate] = []
        used: set[str] = set()
        if cfg.focus_columns and rng.random() < cfg.focus_prob:
            qual = cfg.focus_columns[int(rng.integers(0, len(cfg.focus_columns)))]
            tname, cname = qual.split(".", 1)
            table = db.table(tname)
            scope |= paths[tname] | {tname}
            preds.append(_make_predicate(rng, table, table.spec(cname)))
            used.add(qual)
        candidates = [(t, s) for t in order if t in scope for s in by_table[t]
                      if f"{t}.{s.name}" not in used]
        n_preds = int(rng.integers(1, cfg.max_predicates + 1))
        while len(preds) < n_preds and candidates:
            j = int(rng.integers(0, len(candidates)))
            tname, spec = candidates.pop(j)
            preds.append(_make_predicate(rng, db.table(tname), spec))
        scope_sorted = tuple(t for t in order if t in scope)
        queries.append(Query(qid, scope_sorted, tuple(preds)))
    return queries


def complement_query(q: Query, condition_columns: set[str]) -> Query | None:
    """Invert every range predicate that touches a deletion-condition
    column; queries with nothing to invert yield None (no complement)."""
    out, inverted = [], False
    for p in q.predicates:
        if p.op == "range" and p.column in condition_columns:
            out.append(Predicate(p.column, "outside", lo=p.lo, hi=p.hi))
            inverted = True
        else:
            out.append(p)
    return q.with_predicates(out) if inverted else None


# ---------------------------------------------------------------------------
# ground truth


def true_cardinality(tables: list[TableData], joins: list[Join], q: Query,
                     cap: int = JOIN_CAP_DEFAULT) -> int:
    """Exact count of the scope join's rows that satisfy every predicate,
    filtering in original value space.  Each table's predicates are tested
    on that table's own rows, and ``count_join`` carries the results to the
    scope's root through primary-key lookups, so the join is never built."""
    lookup = {t.name: t for t in tables if t.name in q.scope}
    if len(lookup) != len(q.scope):
        raise ValidationError(f"scope references unknown tables {set(q.scope) - lookup.keys()}")
    masks: dict[str, np.ndarray] = {}
    for p in q.predicates:
        tname, cname = p.column.split(".", 1)
        spec, raw = lookup[tname].spec(cname), lookup[tname].column(cname)
        originals = spec.dictionary[raw.astype(np.int64)] if spec.kind == CATEGORICAL \
            else raw
        masks[tname] = masks.get(tname, True) & p.matches(originals)
    return count_join(list(lookup.values()), joins, masks, cap=cap)


# ---------------------------------------------------------------------------
# scoring


def q_error(c_hat: float, c: float) -> tuple[float | None, str | None]:
    """Symmetric multiplicative error, or an exclusion reason.

    model-zero: the model predicts zero for a nonempty result (excluded so a
    hard zero does not blow up the percentiles); true-zero: the true count
    is zero but the model predicts mass (Q-error is undefined at c = 0).
    Both exact zeros agree -> perfect score 1.
    """
    if c_hat < 0 or c < 0:
        raise ValidationError("cardinalities must be nonnegative")
    if c_hat == 0 and c == 0:
        return 1.0, None
    if c_hat == 0:
        return None, "model-zero"
    if c == 0:
        return None, "true-zero"
    return float(max(c_hat / c, c / c_hat)), None


def nearest_rank_percentile(values, pct: float) -> float:
    """Nearest-rank percentile (no interpolation) of an unsorted sequence."""
    vals = sorted(values)
    if not vals:
        raise ValidationError("percentile of an empty set")
    k = max(1, math.ceil(pct / 100.0 * len(vals)))
    return float(vals[k - 1])


@dataclass(eq=False)
class QueryResult:
    qid: int
    qtype: str          # "OQ" | "CQ"
    true_card: float
    est_card: float
    est_sem: float      # Monte-Carlo standard error of est_card
    paths: int          # progressive-sampling paths behind est_card
    qerr: float | None
    excluded_reason: str | None


@dataclass(eq=False)
class QErrorReport:
    rows: list[QueryResult]
    percentiles: dict[str, dict[int, float]]   # per qtype and "ALL"
    excluded: dict[str, int]
    degenerate: bool

    def included(self) -> list[float]:
        return [r.qerr for r in self.rows if r.qerr is not None]


def summarize(rows: list[QueryResult]) -> QErrorReport:
    excluded: dict[str, int] = {}
    for r in rows:
        if r.excluded_reason:
            excluded[r.excluded_reason] = excluded.get(r.excluded_reason, 0) + 1
    percentiles: dict[str, dict[int, float]] = {}
    groups = {"ALL": [r.qerr for r in rows if r.qerr is not None]}
    for qtype in sorted({r.qtype for r in rows}):
        groups[qtype] = [r.qerr for r in rows if r.qtype == qtype and r.qerr is not None]
    degenerate = len(groups["ALL"]) == 0
    for name, vals in groups.items():
        if vals:
            percentiles[name] = {p: nearest_rank_percentile(vals, p) for p in PERCENTILES}
    return QErrorReport(rows=rows, percentiles=percentiles, excluded=excluded,
                        degenerate=degenerate)


def model_constraints(model: ArDensityModel, q: Query) -> dict[str, np.ndarray]:
    """Translate predicates into per-column satisfying-weight vectors over
    the model's current domains.

    Categorical predicates test the original values still representable, so
    pruned values get weight zero with no special casing.  Each closed
    piece of a numeric predicate is cut to the column range; on a column
    that carries a remap it is then moved inward to the nearest retained
    boundary and mapped into the compacted space (``clamp_interval``), and
    a piece with no retained point adds nothing.  An infinite outer end of
    an ``outside`` piece stays unbounded rather than taking its image.  The
    pieces are spread over bins by proportional overlap.  Multiple
    predicates on one column multiply.
    """
    out: dict[str, np.ndarray] = {}
    for p in q.predicates:
        col = model.columns[model.column_index(p.column)]
        if col.kind == CATEGORICAL:
            w = p.matches(col.values).astype(np.float64)
        else:
            w = np.zeros(col.bins)
            for lo, hi in p.intervals():
                if col.remap is not None:
                    mapped = clamp_interval(col.remap, max(lo, col.lo), min(hi, col.hi))
                    if mapped is None:
                        continue
                    lo = lo if lo == -np.inf else mapped[0]
                    hi = hi if hi == np.inf else mapped[1]
                w += interval_bin_weights(lo, hi, col.lo, col.hi, col.bins)
            w = np.clip(w, 0.0, 1.0)
        out[p.column] = out[p.column] * w if p.column in out else w
    return out


def evaluate(model: ArDensityModel, labeled_queries: list[tuple[str, Query]],
             retained_tables: list[TableData], joins: list[Join],
             total_rows: int, seed: int, num_samples: int = 512,
             cap: int = JOIN_CAP_DEFAULT, threads: int = 1) -> QErrorReport:
    """Estimate every query, score against retained-database ground truth,
    and summarize percentiles.

    ``total_rows`` is the scaling constant matching the distribution the
    model represents: the original full-join cardinality for stale models,
    the retained one for retrain/finetune/cep.  Per-query RNG streams are
    derived from (seed, qtype, qid), so results are identical however the
    evaluation is ordered and on any number of ``threads``.  Each estimate
    carries its progressive-sampling standard error, scaled by
    ``total_rows`` like the estimate itself, and the number of paths behind
    both.
    """
    def one(item):
        k, (qtype, q) = item
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed,
                                   spawn_key=(0 if qtype == "OQ" else 1, q.qid)))
        constraints = model_constraints(model, q)
        sel, sem, paths = estimate_selectivity(model, constraints, num_samples=num_samples,
                                               rng=rng, with_error=True)
        est = sel * total_rows
        true = true_cardinality(retained_tables, joins, q, cap=cap)
        err, reason = q_error(est, float(true))
        return k, QueryResult(q.qid, qtype, float(true), est, sem * total_rows, paths,
                              err, reason)

    items = list(enumerate(labeled_queries))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, items))
    else:
        results = [one(it) for it in items]
    results.sort(key=lambda kv: kv[0])
    return summarize([r for _, r in results])


def convergence_trace(traces: dict[str, list[float]], points: int = 101
                      ) -> dict[str, np.ndarray]:
    """Resample per-method traces onto a shared 0-100% progress axis."""
    if not traces:
        raise ValidationError("need at least one trace")
    grid = np.linspace(0.0, 1.0, points)
    out = {}
    for name, tr in traces.items():
        tr = np.asarray(tr, dtype=np.float64)
        if tr.size == 0:
            raise ValidationError(f"trace {name!r} is empty")
        xp = np.linspace(0.0, 1.0, tr.size) if tr.size > 1 else np.array([0.0])
        out[name] = np.interp(grid, xp, tr)
    return out
