"""Deletion unlearning for the density model.

Two pruning stages followed by fine-tuning on the retained join:

* domain pruning drops model support for values that no longer occur in the
  retained tables — categorical codes lose their embedding rows and output
  logits outright, numeric columns get a compaction remap so deleted
  subranges vanish from the binned input space (queries reach that space
  through ``workload.model_constraints``);
* distribution-sensitivity pruning scores dense weights by the squared
  gradient of a column-shift-weighted loss over per-table "deleted join"
  relations (the join with one table swapped for its deleted rows) and
  zeroes the highest-scoring weights, spreading the total budget evenly
  over the affected tables.  Only trainable dense weights can be pruned,
  so scores cover the dense weights only and are zero where ``keep`` is
  False.

Pruning is a targeted reset: the zeroed weights stay trainable and may
regrow from retained data during the fine-tune that follows.  Baselines
(stale / retrain / fine-tune) run through the same entry point so their
timings and traces are comparable.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .domains import build_numeric_remap
from .errors import ConfigurationError, ValidationError
from .model import (ArDensityModel, ModelConfig, _is_int, _is_number,
                    batch_weight_grads, encode_relation, init_model, train)
from .relational import (CATEGORICAL, JOIN_CAP_DEFAULT, DatasetSplit,
                         JoinRelation, empirical_pmf, semi_join_deletion)

METHODS = ("stale", "retrain", "finetune", "cep")
# sampling iterations scored per forward pass: stacks of 4 ran no faster
# than stacks of 2 and took more memory
SCORE_STACK = 2


@dataclass(frozen=True)
class CepConfig:
    alpha: float = 0.5
    sampling_iterations: int = 50
    batch_size: int = 128
    domain_prune: bool = True
    sensitivity_prune: bool = True
    finetune_epochs: int = 12
    gap_threshold: float | None = None   # fraction of the column range; None -> 1/bins

    def validate(self):
        """Types and ranges of every field, as ``ModelConfig.validate``
        checks its own."""
        if not all(_is_int(v) for v in (self.sampling_iterations, self.batch_size,
                                        self.finetune_epochs)):
            raise ValidationError("sampling_iterations, batch_size and finetune_epochs "
                                  "must be integers")
        if not all(isinstance(v, bool) for v in (self.domain_prune, self.sensitivity_prune)):
            raise ValidationError("domain_prune and sensitivity_prune must be true or false")
        if not (_is_number(self.alpha) and 0.0 <= self.alpha < 1.0):
            raise ValidationError("alpha must lie in [0, 1)")
        if self.sampling_iterations < 1:
            raise ValidationError("sampling_iterations must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.finetune_epochs < 0:
            raise ValidationError("finetune_epochs must be >= 0")
        if self.gap_threshold is not None and not (
                _is_number(self.gap_threshold) and 0.0 < self.gap_threshold <= 1.0):
            raise ValidationError("gap_threshold must be null or lie in (0, 1]")


# ---------------------------------------------------------------------------
# attribute sensitivity


def attribute_sensitivity(p_full: np.ndarray, p_retained: np.ndarray) -> float:
    """Relative distributional shift of one column: sum over values still in
    the retained domain of |P(v) - P_r(v)| / P_r(v).

    Values with zero retained mass are ignored here; removing them is domain
    pruning's job.  Retained mass where the full pmf has none indicates the
    inputs are not a full/retained pair of the same column.
    """
    p_full = np.asarray(p_full, dtype=np.float64)
    p_retained = np.asarray(p_retained, dtype=np.float64)
    if p_full.shape != p_retained.shape:
        raise ValidationError("pmfs have mismatched domains")
    support = p_retained > 0.0
    if (support & (p_full == 0.0)).any():
        raise ValidationError("retained pmf has support the full pmf lacks")
    return float((np.abs(p_full - p_retained)[support] / p_retained[support]).sum())


def column_shift_weights(model: ArDensityModel, full_rel: JoinRelation,
                         retained_rel: JoinRelation) -> np.ndarray:
    """Per-model-column shift weights from full-join vs retained-join pmfs.

    Both pmfs are taken in the original value space (same bin grid), so the
    weights do not depend on any remap already attached to the model.
    """
    spec_by_name = {s.name: s for s in full_rel.columns}
    bins = model.cfg.numeric_bins
    out = np.zeros(model.ncols)
    for i, col in enumerate(model.columns):
        spec = spec_by_name[col.name]
        pf = empirical_pmf(full_rel.column(col.name), spec, bins=bins)
        pr = empirical_pmf(retained_rel.column(col.name), spec, bins=bins)
        out[i] = attribute_sensitivity(pf, pr)
    return out


# ---------------------------------------------------------------------------
# sensitivity scores


@dataclass(eq=False)
class SensitivityScores:
    values: np.ndarray    # over the dense-weight prefix of theta, like keep, in its dtype
    tuples_used: int = 0
    tuples_skipped: int = 0


def zero_scores(model: ArDensityModel) -> SensitivityScores:
    return SensitivityScores(values=np.zeros(model.keep.shape, dtype=model.theta.dtype))


def accumulate_scores(model: ArDensityModel, rel: JoinRelation,
                      shift: np.ndarray, n_iterations: int, batch_size: int,
                      rng: np.random.Generator) -> SensitivityScores:
    """Squared batch-mean gradients of the shift-weighted loss, summed over
    sampling iterations of one deleted-join relation.  Each conditional term
    is weighed by its own column's ``shift``.

    Scores cover the dense weights only, the only ones ``prune_step`` can
    prune, and are exactly 0 where ``keep`` is False.  Each iteration draws
    its batch in turn; ``SCORE_STACK`` batches share one forward pass, and
    every batch's squared gradient is added in iteration order, so the
    scores equal those of one ``loss_and_grad`` call per iteration.

    Tuples whose categorical cells are no longer representable (their codes
    were domain-pruned) are skipped; numeric cells in deleted gaps are
    clamped to the nearest retained boundary.  An empty or fully skipped
    relation yields zero scores with ``tuples_used == 0``, contributing no
    pruning.
    """
    scores = zero_scores(model)
    codes, valid = encode_relation(model, rel, gap_policy="clamp")
    scores.tuples_skipped = int((~valid).sum())
    codes = codes[valid]
    if codes.shape[0] == 0:
        return scores
    n = codes.shape[0]
    take = min(batch_size, n)
    acc = model.unflatten(scores.values)
    work: dict = {}

    def add_square(key, g):
        acc[key] += np.square(g, out=g)

    for first in range(0, n_iterations, SCORE_STACK):
        stack = min(SCORE_STACK, n_iterations - first)
        idx = np.concatenate([rng.choice(n, size=take, replace=False) for _ in range(stack)])
        batch_weight_grads(model, codes[idx], shift, take, add_square, work)
    # multiplying by the bool keep zeroes the masked entries and leaves the rest
    scores.values *= model.keep
    scores.tuples_used = n
    return scores


# ---------------------------------------------------------------------------
# pruning


def prune_step(model: ArDensityModel, scores: SensitivityScores, alpha_k: float,
               eligible: np.ndarray, pool_size: int | None = None) -> dict:
    """Zero the floor(alpha_k * pool_size) dense weights with the highest
    scores among those the bool mask ``eligible`` allows (ties broken by
    lower flat index over the canonical weight-key order, which is the
    index into ``theta``), and clear them from ``eligible``.  ``pool_size``
    defaults to the model's whole pool, ``eligible_weight_count()``.  The
    zeroed weights stay trainable: ``model.keep`` is left as it is.

    The chosen weights are those a stable sort of the negated scores puts
    first, found without sorting: a partition of the negated eligible
    scores gives the ``take``-th highest score, ranked as that sort ranks
    them, every eligible score above it is chosen, and of the eligible
    scores equal to it the ones at the lowest indices fill the rest."""
    if not 0.0 <= alpha_k < 1.0:
        raise ValidationError("alpha_k must lie in [0, 1)")
    if pool_size is None:
        pool_size = model.eligible_weight_count()
    target = int(np.floor(alpha_k * pool_size))
    if target == 0:
        return {"pruned": 0, "saturated": False}

    values = scores.values
    n_eligible = int(np.count_nonzero(eligible))
    saturated = target > n_eligible
    take = min(target, n_eligible)
    chosen = eligible.copy()
    if take < n_eligible:
        ranked = values[eligible]
        np.negative(ranked, out=ranked)
        ranked.partition(take - 1)
        threshold = -ranked[take - 1]
        del ranked  # freed before the masks are built
        np.greater(values, threshold, out=chosen)
        chosen &= eligible
        ties = np.flatnonzero((values == threshold) & eligible)
        chosen[ties[:take - np.count_nonzero(chosen)]] = True
    eligible[chosen] = False
    model.theta[:eligible.size][chosen] = 0.0
    return {"pruned": int(take), "saturated": bool(saturated)}


def distribution_sensitivity_pruning(model: ArDensityModel, split: DatasetSplit,
                                     retained_rel: JoinRelation, cfg: CepConfig,
                                     rng: np.random.Generator,
                                     cap: int = JOIN_CAP_DEFAULT) -> dict:
    """Iterative pruning over the per-table deleted joins (in place).

    Computes column shifts from the full join vs ``retained_rel`` (the
    split's retained join) once, then for each table with deletions
    accumulates scores over the deleted join and prunes a per-table share
    alpha/K of the weight pool, so the total pruned fraction is alpha up to
    integer rounding.  A table picks among the connected weights no earlier
    table pruned; the pruned weights stay zero but trainable.
    """
    cfg.validate()
    tables_k = split.tables_with_deletions()
    if not tables_k:
        return {"tables": [], "total_pruned": 0, "pool_size": model.eligible_weight_count(),
                "shift": np.zeros(model.ncols)}
    shift = column_shift_weights(model, split.original_join(cap), retained_rel)

    pool_size = model.eligible_weight_count()
    k_count = len(tables_k)
    alpha_k = cfg.alpha / k_count
    name_to_index = {t.name: i for i, t in enumerate(split.retained)}

    info = {"tables": [], "pool_size": pool_size, "total_pruned": 0, "shift": shift}
    eligible = model.keep.copy()
    for tname in tables_k:
        rel_k = semi_join_deletion(split, name_to_index[tname], cap=cap)
        scores = accumulate_scores(model, rel_k, shift, cfg.sampling_iterations,
                                   cfg.batch_size, rng)
        entry = {"table": tname, "join_rows": rel_k.cardinality,
                 "tuples_used": scores.tuples_used,
                 "tuples_skipped": scores.tuples_skipped,
                 "pruned": 0, "saturated": False, "skipped": False}
        if scores.tuples_used == 0:
            # nothing representable to score: this table contributes no pruning
            entry["skipped"] = True
        else:
            res = prune_step(model, scores, alpha_k, eligible, pool_size)
            entry.update(pruned=res["pruned"], saturated=res["saturated"])
            info["total_pruned"] += res["pruned"]
        info["tables"].append(entry)
        del rel_k, scores  # freed before the next table's join is built and scored
    return info


# ---------------------------------------------------------------------------
# domain pruning


def domain_prune_categorical(model: ArDensityModel, column: str,
                             retained_codes: np.ndarray) -> dict[int, int]:
    """Drop embedding rows and output logits for codes no longer retained
    (in place); returns the old-model-code -> new-model-code map.

    The pruned values become unrepresentable: encoding rejects them and
    predicate translation gives them zero weight, so no model operation can
    assign them probability mass."""
    i = model.column_index(column)
    col = model.columns[i]
    if col.kind != CATEGORICAL:
        raise ValidationError(f"{column!r} is not categorical")
    retained_codes = np.sort(np.unique(np.asarray(retained_codes, dtype=np.int64)))
    if retained_codes.size == 0:
        raise ValidationError(f"cannot prune the whole domain of {column!r}")
    current = set(int(c) for c in col.codes)
    if not set(int(c) for c in retained_codes) <= current:
        raise ValidationError(f"retained codes for {column!r} exceed the current domain")
    if retained_codes.size == len(col.codes):
        return {j: j for j in range(len(col.codes))}

    retained = np.isin(col.codes, retained_codes)
    keep_pos, drop_pos = np.nonzero(retained)[0], np.nonzero(~retained)[0]
    code_map = {int(old): new for new, old in enumerate(keep_pos)}

    # re-pack theta without the dropped embedding rows and logits
    sel = np.ones(model.theta.size, dtype=bool)
    views = model.unflatten(sel)
    lo = int(model.logit_offsets()[i])
    views["w_out"][:, lo + drop_pos] = False
    views["b_out"][lo + drop_pos] = False
    views[f"emb:{i}"][drop_pos] = False
    model.theta = model.theta[sel]
    col.codes = col.codes[keep_pos]
    col.values = col.values[keep_pos]
    model.bind()
    return code_map


def apply_domain_pruning(model: ArDensityModel, split: DatasetSplit,
                         gap_threshold: float | None = None) -> dict:
    """Shrink the model's domains to what the retained tables still contain
    (in place).

    Categorical columns lose vanished codes structurally.  Numeric columns
    whose retained values leave a gap of at least ``gap_threshold`` (default
    one bin width) of the range get a compaction remap attached; training
    data and queries pass through it before binning."""
    thr = gap_threshold if gap_threshold is not None else 1.0 / model.cfg.numeric_bins
    report = {"categorical": {}, "remaps": {}}
    for col in list(model.columns):
        tname, cname = col.name.split(".", 1)
        table = split.retained_table(tname)
        values = table.column(cname)
        if values.size == 0:
            raise ValidationError(f"table {tname!r} retained no rows; nothing to model")
        if col.kind == CATEGORICAL:
            retained_codes = np.unique(values.astype(np.int64))
            if retained_codes.size < len(col.codes):
                report["categorical"][col.name] = domain_prune_categorical(
                    model, col.name, retained_codes)
        else:
            original_distinct = np.unique(
                split.original_table(tname).column(cname).astype(np.float64))
            retained_distinct = np.unique(values.astype(np.float64))
            if retained_distinct.size < original_distinct.size:
                if col.remap is not None:
                    raise ValidationError(f"{col.name!r} already carries a remap")
                remap = build_numeric_remap(col.lo, col.hi, retained_distinct, thr)
                if not remap.is_identity:
                    col.remap = remap
                    report["remaps"][col.name] = remap
    return report


# ---------------------------------------------------------------------------
# fine-tuning and the method dispatcher


def fine_tune(model: ArDensityModel, data: np.ndarray, seed,
              epochs: int, step_hook=None) -> list[float]:
    """Continue training on retained-join rows (in place): fresh optimizer
    moments; weights where ``keep`` is False stay exactly zero."""
    return train(model, data, seed, epochs=epochs, step_hook=step_hook)


@dataclass(eq=False)
class MethodRun:
    method: str
    model: ArDensityModel
    timings: dict[str, float] = field(default_factory=dict)
    loss_trace: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def run_method(method: str, split: DatasetSplit, original: ArDensityModel | None,
               cep_cfg: CepConfig, seed: int, model_cfg: ModelConfig | None = None,
               cap: int = JOIN_CAP_DEFAULT, step_hook=None) -> MethodRun:
    """Produce the unlearned (or baseline) model for one deletion split.

    stale      returns the original model untouched;
    retrain    trains a fresh model (domains rebuilt from retained tables);
    finetune   continues training the original on the retained join;
    cep        domain-prunes and/or sensitivity-prunes, then fine-tunes.

    ``original`` is taken over, not copied: finetune and cep prune and
    train that very object and return it as ``MethodRun.model``, so only
    one copy of the parameters is alive while they run.  A caller that
    needs the original model afterwards passes ``original.copy()``.

    The fine-tune RNG stream depends only on ``seed``, so cep with both
    pruning stages disabled is bit-identical to finetune.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if method != "retrain" and original is None:
        raise ConfigurationError(f"method {method!r} needs the original checkpoint")
    timings = {"prune_seconds": 0.0, "finetune_seconds": 0.0, "train_seconds": 0.0,
               "domain_prune_seconds": 0.0, "sensitivity_prune_seconds": 0.0}

    if method == "stale":
        return MethodRun(method, original, timings)

    retained_rel = split.retained_join(cap)

    if method == "retrain":
        if model_cfg is None:
            raise ConfigurationError("retrain needs a model config")
        # domains rebuilt from the retained tables: vanished categorical
        # values get no code, mirroring a from-scratch dictionary build
        restrict = {}
        for s in retained_rel.columns:
            if s.kind == CATEGORICAL:
                tname, cname = s.name.split(".", 1)
                vals = split.retained_table(tname).column(cname)
                restrict[s.name] = np.unique(vals.astype(np.int64))
        t0 = time.perf_counter()
        model = init_model(retained_rel.columns, model_cfg, seed=seed,
                           restrict_codes=restrict)
        codes, valid = encode_relation(model, retained_rel)
        del retained_rel
        codes = codes[valid]
        trace = train(model, codes, seed, epochs=model_cfg.epochs, step_hook=step_hook)
        timings["train_seconds"] = time.perf_counter() - t0
        return MethodRun(method, model, timings, trace)

    model = original
    info: dict = {}
    if method == "cep":
        t0 = time.perf_counter()
        if cep_cfg.domain_prune:
            info["domain"] = apply_domain_pruning(model, split, cep_cfg.gap_threshold)
        timings["domain_prune_seconds"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        if cep_cfg.sensitivity_prune:
            prune_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
            info["sensitivity"] = distribution_sensitivity_pruning(
                model, split, retained_rel, cep_cfg, prune_rng, cap=cap)
        timings["sensitivity_prune_seconds"] = time.perf_counter() - t1
        timings["prune_seconds"] = timings["domain_prune_seconds"] + \
            timings["sensitivity_prune_seconds"]

    t2 = time.perf_counter()
    codes, valid = encode_relation(model, retained_rel)
    del retained_rel
    codes = codes[valid]
    trace = fine_tune(model, codes, seed, epochs=cep_cfg.finetune_epochs,
                      step_hook=step_hook)
    timings["finetune_seconds"] = time.perf_counter() - t2
    return MethodRun(method, model, timings, trace, info)
