import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardest.errors import ConfigurationError, ValidationError
from cardest.model import (batch_nll_terms, estimate_selectivity, forward,
                           load_checkpoint, save_checkpoint, train)
from cardest.queries import Predicate, Query
from cardest.relational import (CATEGORICAL, Condition, DatasetSplit, DeletionTask,
                                apply_deletion, materialize_join, semi_join_deletion)
from cardest.unlearn import (CepConfig, accumulate_scores,
                             apply_domain_pruning, attribute_sensitivity,
                             column_shift_weights, distribution_sensitivity_pruning,
                             domain_prune_categorical, fine_tune, prune_step,
                             run_method, zero_scores)
from cardest.workload import model_constraints
from conftest import (full_gradient, over_dtypes, reference_loss_and_grad, star_splits,
                      tiny_model)


class TestAttributeSensitivity:
    def test_identical_pmfs_zero(self):
        p = np.array([0.3, 0.7])
        assert attribute_sensitivity(p, p) == 0.0

    def test_two_value_shift(self):
        assert attribute_sensitivity(np.array([0.75, 0.25]),
                                     np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_deleted_value_excluded(self):
        p = np.array([0.5, 0.25, 0.25])
        pr = np.array([2 / 3, 1 / 3, 0.0])
        assert attribute_sensitivity(p, pr) == pytest.approx(0.5)

    def test_mismatched_domains(self):
        with pytest.raises(ValidationError):
            attribute_sensitivity(np.array([1.0]), np.array([0.5, 0.5]))
        # retained support beyond the full pmf cannot come from a deletion
        with pytest.raises(ValidationError):
            attribute_sensitivity(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


def row_terms(m, row):
    X = np.asarray(row)[None, :]
    return batch_nll_terms(m, X, forward(m, X)[0])[0][0]


def weighted_loss(m, row, shift):
    return full_gradient(m, np.asarray(row)[None, :], shift)[0]


class TestWeightedLosses:
    def test_per_conditional_arithmetic(self):
        m = tiny_model(seed=0, doms=(4, 4), bins=4)
        row = np.array([1, 2, 3])
        s = np.array([0.5, 1.0, 2.0])
        expected = float((row_terms(m, row) * s).sum())
        assert weighted_loss(m, row, s) == pytest.approx(expected)

    def test_unit_weights_are_plain_nll(self):
        m = tiny_model(seed=0, doms=(4, 4), bins=4)
        row = np.array([1, 2, 3])
        assert weighted_loss(m, row, np.ones(3)) == pytest.approx(float(row_terms(m, row).sum()))

    def test_zero_weights_zero_loss(self):
        m = tiny_model(seed=0, doms=(4, 4), bins=4)
        assert weighted_loss(m, np.array([0, 0, 0]), np.zeros(3)) == 0.0


class TestAccumulateScores:
    def make_setup(self, star_db, dtype=np.float32):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 0.8)
        split = apply_deletion(star_db, task, seed=1)
        model = tiny_star_model(star_db, dtype=dtype)
        rel = semi_join_deletion(split, 0)
        return model, rel

    def test_matches_manual_squared_gradients(self, star_db):
        for dtype in (np.float64, np.float32):
            model, rel = self.make_setup(star_db, dtype)
            shift = np.ones(model.ncols)
            scores = accumulate_scores(model, rel, shift, n_iterations=3,
                                       batch_size=4, rng=np.random.default_rng(7))
            # replay the identical batch schedule by reusing the seed
            from cardest.model import encode_relation
            codes, valid = encode_relation(model, rel, gap_policy="clamp")
            codes = codes[valid]
            rng = np.random.default_rng(7)
            manual = np.zeros_like(model.theta)
            for _ in range(3):
                idx = rng.choice(codes.shape[0], size=4, replace=False)
                g = full_gradient(model, codes[idx], shift)[1]
                manual += g * g
            # scores cover the dense weights, the only ones prune_step reads
            assert scores.values.dtype == dtype
            np.testing.assert_array_equal(scores.values, manual[:model.keep.size])

    @pytest.mark.parametrize("n_iterations,batch_size,dtype",
                             over_dtypes([(5, 8), (4, 8), (3, 10_000)],
                                         ["odd-iterations", "even-iterations", "n-below-batch"]))
    def test_matches_reference_replay(self, star_db, n_iterations, batch_size, dtype):
        # random weights (a fresh output layer is all zero) and 30% pruned,
        # so masked positions would get non-zero squares if left unmasked
        model, rel = self.make_setup(star_db, dtype)
        rng = np.random.default_rng(11)
        model.theta[:] = rng.normal(0.0, 0.5, model.theta.size)
        model.keep *= rng.random(model.keep.size) >= 0.3
        model.theta[:model.keep.size] *= model.keep
        shift = np.array([0.5, 0.0, 2.0, 1.25, 0.75, 3.0])[:model.ncols]
        scores = accumulate_scores(model, rel, shift, n_iterations, batch_size,
                                   np.random.default_rng(7))
        from cardest.model import encode_relation
        codes, valid = encode_relation(model, rel, gap_policy="clamp")
        codes = codes[valid]
        n = codes.shape[0]
        rng = np.random.default_rng(7)
        manual = np.zeros_like(model.theta)
        for _ in range(n_iterations):
            idx = rng.choice(n, size=min(batch_size, n), replace=False)
            g = reference_loss_and_grad(model, codes[idx], shift)[1]
            manual += np.square(g)
        assert scores.tuples_used == n
        np.testing.assert_array_equal(scores.values, manual[:model.keep.size])
        assert (scores.values[model.keep == 0.0] == 0.0).all()
        assert (scores.values[model.keep == 1.0] > 0.0).any()

    def test_zero_shift_zero_scores(self, star_db):
        model, rel = self.make_setup(star_db)
        scores = accumulate_scores(model, rel, np.zeros(model.ncols), 2, 4,
                                   np.random.default_rng(0))
        assert (scores.values == 0).all()

    def test_batch_order_invariance(self, star_db):
        # float64, the dtype the 1e-10 tolerance is set for
        model, rel = self.make_setup(star_db, np.float64)
        from cardest.model import encode_relation
        codes, _ = encode_relation(model, rel, gap_policy="clamp")
        batches = [codes[:4], codes[2:6], codes[4:8]]
        shift = np.ones(model.ncols)

        def total(schedule):
            acc = zero_scores(model)
            for b in schedule:
                g = full_gradient(model, b, shift)[1][:model.keep.size]
                acc.values += g * g
            return acc.values

        np.testing.assert_allclose(total(batches), total(batches[::-1]), rtol=1e-10)

    def test_empty_relation_flagged(self, star_db):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=100),), 1.0)
        split = apply_deletion(star_db, task, seed=0)
        model = tiny_star_model(star_db)
        rel = semi_join_deletion(split, 1)  # dim1 untouched -> empty
        scores = accumulate_scores(model, rel, np.ones(model.ncols), 2, 4,
                                   np.random.default_rng(0))
        assert scores.tuples_used == 0
        assert (scores.values == 0).all()

    def test_scores_nonnegative(self, star_db):
        model, rel = self.make_setup(star_db)
        scores = accumulate_scores(model, rel, np.ones(model.ncols), 2, 4,
                                   np.random.default_rng(3))
        assert (scores.values >= 0).all()


def tiny_star_model(db, seed=0, prunable=True, dtype=np.float32):
    from cardest.model import ModelConfig, init_model
    rel = materialize_join(db.tables, db.joins)
    cfg = ModelConfig(embedding_dim=2, hidden_dim=8, residual_blocks=1,
                      dropout=0.0, numeric_bins=8)
    return init_model(rel.columns, cfg, seed=seed, dtype=dtype)


class TestComputeDtype:
    """``theta``'s dtype is the compute dtype: on a float32 model no buffer
    of training, scoring or sampling is float64, so no product upcasts."""

    def test_float32_model_keeps_every_buffer_float32(self, star_db, monkeypatch):
        import cardest.model as model_mod
        import cardest.unlearn as unlearn_mod
        from cardest.model import ModelConfig, encode_relation, init_model
        full = materialize_join(star_db.tables, star_db.joins)
        model = init_model(full.columns, ModelConfig(embedding_dim=2, hidden_dim=8,
                                                     residual_blocks=2, dropout=0.2,
                                                     numeric_bins=8), seed=0)
        assert model.theta.dtype == np.float32
        # the work dicts and Adam states the library hands around, as they
        # pass through the functions that take them
        works, adams = [], []
        step, grads = model_mod.loss_and_grad, unlearn_mod.batch_weight_grads

        def spy_step(m, X, update, *args, work=None, **kw):
            works.append(work)
            adams.append(update.__self__)
            return step(m, X, update, *args, work=work, **kw)

        def spy_grads(m, X, weights, rows, sink, work):
            works.append(work)
            return grads(m, X, weights, rows, sink, work)

        monkeypatch.setattr(model_mod, "loss_and_grad", spy_step)
        monkeypatch.setattr(unlearn_mod, "batch_weight_grads", spy_grads)
        codes, _ = encode_relation(model, full)
        train(model, codes[:8], seed=1, epochs=1, batch_size=4)   # two steps
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 1.0)
        rel = semi_join_deletion(apply_deletion(star_db, task, seed=1), 0)
        scores = accumulate_scores(model, rel, np.linspace(0.5, 2.0, model.ncols), 3, 4,
                                   np.random.default_rng(2))
        assert len(adams) == 2 and len(works) == 4
        arrays = [a for w in works for a in w.values()]
        arrays += [a for adam in adams for a in (adam.m, adam.v, adam.work)]
        arrays.append(scores.values)

        # the sampler keeps its state in locals: record every array model.py
        # allocates while it runs, and every uniform draw it takes
        class Allocs:
            def __init__(self):
                self.arrays = []

            def __getattr__(self, name):
                attr = getattr(np, name)
                if name not in ("empty", "ones", "zeros", "full"):
                    return attr

                def alloc(*args, **kw):
                    self.arrays.append(attr(*args, **kw))
                    return self.arrays[-1]
                return alloc

        class Draws:
            def __init__(self, seed):
                self.rng, self.arrays = np.random.default_rng(seed), []

            def random(self, *args, **kw):
                self.arrays.append(self.rng.random(*args, **kw))
                return self.arrays[-1]

        allocs, draws = Allocs(), Draws(3)
        monkeypatch.setattr(model_mod, "np", allocs)
        last = model.columns[-1]
        est = estimate_selectivity(model, {last.name: np.linspace(0.0, 1.0, last.domain_size)},
                                   16, draws)
        monkeypatch.undo()
        assert 0.0 < est < 1.0 and draws.arrays
        arrays += [a for a in allocs.arrays + draws.arrays if a.dtype.kind == "f"]
        assert len(arrays) > 30
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


class TestPruneStep:
    def test_top_score_pruned(self, star_db):
        model = tiny_star_model(star_db)
        scores = zero_scores(model)
        pool = model.eligible_weight_count()
        eligible = model.keep.copy()
        # the last eligible position: ties alone would never pick it
        pos = np.flatnonzero(eligible)[-1]
        scores.values[pos] = 9.9
        res = prune_step(model, scores, 1.0 / pool, eligible)
        assert res["pruned"] == 1
        assert not eligible[pos] and model.theta[pos] == 0.0
        assert eligible.sum() == pool - 1

    def test_narrows_only_the_mask_it_is_passed(self, star_db):
        # the pruned weights are zeroed but stay trainable: the model's keep
        # is the connectivity before and after, and the same array
        model = tiny_star_model(star_db)
        model.theta[:] = np.random.default_rng(2).uniform(0.1, 0.5, model.theta.size)
        model.theta[:model.keep.size] *= model.keep
        keep = model.keep
        scores = zero_scores(model)
        scores.values[:] = np.random.default_rng(3).random(scores.values.size)
        eligible = model.keep.copy()
        res = prune_step(model, scores, 0.3, eligible)
        assert res["pruned"] > 0
        assert model.keep is keep
        np.testing.assert_array_equal(model.keep, model.connectivity())
        pruned = model.keep & ~eligible
        assert pruned.sum() == res["pruned"]
        assert (model.theta[:keep.size][pruned] == 0.0).all()
        assert (model.theta[:keep.size][eligible] != 0.0).all()

    def test_alpha_zero_no_change(self, star_db):
        model = tiny_star_model(star_db)
        before = model.theta.tobytes()
        eligible = model.keep.copy()
        res = prune_step(model, zero_scores(model), 0.0, eligible)
        assert res["pruned"] == 0 and model.theta.tobytes() == before
        np.testing.assert_array_equal(eligible, model.keep)

    def test_positive_scaling_invariance(self, star_db):
        masks = []
        for scale in (1.0, 10.0):
            model = tiny_star_model(star_db)
            scores = zero_scores(model)
            rng = np.random.default_rng(0)
            scores.values[:] = rng.random(scores.values.size) * scale
            eligible = model.keep.copy()
            prune_step(model, scores, 0.3, eligible)
            masks.append(eligible)
        np.testing.assert_array_equal(masks[0], masks[1])

    def test_tie_breaks_to_lower_flat_index(self, star_db):
        model = tiny_star_model(star_db)
        scores = zero_scores(model)  # all ties
        eligible = model.keep.copy()
        connected = np.flatnonzero(eligible)
        res = prune_step(model, scores, 2.5 / model.eligible_weight_count(), eligible)
        assert res["pruned"] == 2
        assert not eligible[connected[:2]].any()
        assert eligible[connected[2:]].all()

    def test_ties_choose_the_stable_argsort_positions(self, star_db):
        # scores drawn from four values, so every threshold falls inside a
        # long run of ties; a third of the weights are pruned already
        model = tiny_star_model(star_db)
        rng = np.random.default_rng(4)
        unpruned = model.keep & (rng.random(model.keep.size) >= 0.3)
        model.theta[:model.keep.size] *= unpruned
        scores = zero_scores(model)
        scores.values[:] = rng.integers(0, 4, scores.values.size) * model.keep
        eligible = np.flatnonzero(unpruned)
        pool = model.eligible_weight_count()
        for take in (1, 7, eligible.size // 3, eligible.size // 2, eligible.size - 1):
            m = model.copy()
            mask = unpruned.copy()
            res = prune_step(m, scores, (take + 0.5) / pool, mask)
            expected = eligible[np.argsort(-scores.values[eligible], kind="stable")[:take]]
            assert res["pruned"] == take
            np.testing.assert_array_equal(np.flatnonzero(unpruned & ~mask), np.sort(expected))
            assert (m.theta[expected] == 0.0).all()

    def test_saturation(self, star_db):
        model = tiny_star_model(star_db)
        pool = model.eligible_weight_count()
        eligible = model.keep.copy()
        prune_step(model, zero_scores(model), 0.9, eligible, pool_size=pool)
        res = prune_step(model, zero_scores(model), 0.9, eligible, pool_size=pool)
        assert res["saturated"]
        assert eligible.sum() == 0


class TestDistributionSensitivityPruning:
    def test_budget_split_across_tables(self, star_db):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),
                                  Condition("dim1", "grp", value=50)), 0.6)
        split = apply_deletion(star_db, task, seed=2)
        model = tiny_star_model(star_db)
        # every connected weight non-zero (w_out starts at 0), so the pruned
        # positions are the connected zeros
        n = model.keep.size
        model.theta[:n] = np.random.default_rng(1).uniform(0.1, 0.5, n) * model.keep
        cfg = CepConfig(alpha=0.5, sampling_iterations=3, batch_size=4)
        info = distribution_sensitivity_pruning(model, split, split.retained_join(), cfg,
                                                np.random.default_rng(0))
        pool = info["pool_size"]
        expected = 2 * int(np.floor(0.25 * pool))
        assert info["total_pruned"] == expected
        connected = model.theta[:model.keep.size][model.connectivity()]
        assert (connected == 0.0).sum() == expected

    def test_single_table_equals_plain_prune_step(self, star_db):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 0.7)
        split = apply_deletion(star_db, task, seed=3)
        cfg = CepConfig(alpha=0.4, sampling_iterations=2, batch_size=4)

        m1 = tiny_star_model(star_db)
        distribution_sensitivity_pruning(m1, split, split.retained_join(), cfg,
                                         np.random.default_rng(5))

        m2 = tiny_star_model(star_db)
        full = split.original_join()
        retained = split.retained_join()
        shift = column_shift_weights(m2, full, retained)
        rel = semi_join_deletion(split, 0)
        scores = accumulate_scores(m2, rel, shift, 2, 4, np.random.default_rng(5))
        prune_step(m2, scores, 0.4, m2.keep.copy())
        np.testing.assert_array_equal(m1.theta, m2.theta)

    def test_no_deletions_no_change(self, star_db):
        split = DatasetSplit(star_db, [np.zeros(0, dtype=np.int64) for _ in star_db.tables])
        model = tiny_star_model(star_db)
        before = model.theta.tobytes()
        info = distribution_sensitivity_pruning(model, split, split.retained_join(),
                                                CepConfig(alpha=0.5),
                                                np.random.default_rng(0))
        assert model.theta.tobytes() == before
        assert info["total_pruned"] == 0

    def test_shift_weights_zero_iff_identical(self, star_db):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 0.9)
        split = apply_deletion(star_db, task, seed=4)
        model = tiny_star_model(star_db)
        shift = column_shift_weights(model, split.original_join(),
                                     split.retained_join())
        assert (shift >= 0).all()
        assert shift[model.column_index("fact.amount")] > 0


class TestDomainPruning:
    def test_categorical_head_shrinks_and_normalizes(self, star_db):
        model = tiny_star_model(star_db)
        i = model.column_index("fact.color")
        width_before = model.columns[i].domain_size
        code_map = domain_prune_categorical(model, "fact.color", np.array([0, 2]))
        assert model.columns[i].domain_size == width_before - 1
        assert code_map == {0: 0, 2: 1}
        X = np.zeros((5, model.ncols), dtype=np.int64)
        logits, _ = forward(model, X)
        offs = model.logit_offsets()
        block = logits[:, offs[i]:offs[i + 1]]
        p = np.exp(block - block.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_prune_nothing_is_identity(self, star_db):
        model = tiny_star_model(star_db)
        before = model.theta.tobytes()
        domain_prune_categorical(model, "fact.color", np.array([0, 1, 2]))
        assert model.theta.tobytes() == before

    def test_empty_retained_domain_rejected(self, star_db):
        model = tiny_star_model(star_db)
        with pytest.raises(ValidationError):
            domain_prune_categorical(model, "fact.color", np.array([], dtype=np.int64))

    def test_deleted_value_estimates_zero(self, star_db):
        model = tiny_star_model(star_db)
        domain_prune_categorical(model, "fact.color", np.array([0, 1]))
        # original value 9 belonged to the pruned code 2
        q = Query(0, ("fact",), (Predicate("fact.color", "eq", value=9),))
        constraints = model_constraints(model, q)
        est = estimate_selectivity(model, constraints, 32, np.random.default_rng(0))
        assert est == 0.0

    def test_apply_domain_pruning_attaches_remap(self, star_db):
        # wipe out a numeric range entirely: ratio 1 on a range condition
        task = DeletionTask("A", (Condition("fact", "amount", lo=30, hi=70),), 1.0)
        split = apply_deletion(star_db, task, seed=5)
        model = tiny_star_model(star_db)
        report = apply_domain_pruning(model, split, gap_threshold=0.05)
        i = model.column_index("fact.amount")
        assert model.columns[i].remap is not None
        assert "fact.amount" in report["remaps"]


class TestDeletedDomainsEstimateZero:
    """The exact zero of domain pruning comes from the constraint vector, so
    it holds whatever the model's weights are."""

    @given(db_split=star_splits(), seed=st.integers(0, 2**32 - 1),
           num_samples=st.integers(1, 64), cut=st.tuples(st.floats(0.05, 0.95),
                                                          st.floats(0.05, 0.95)))
    @settings(max_examples=60, deadline=None)
    def test_gap_ranges_and_vanished_values(self, db_split, seed, num_samples, cut):
        db, split = db_split
        assume(all(t.row_count for t in split.retained))
        model = tiny_star_model(db)
        apply_domain_pruning(model, split)
        preds = []
        for col in model.columns:
            tname, cname = col.name.split(".", 1)
            if col.kind == CATEGORICAL:
                spec = split.original_table(tname).spec(cname)
                before, after = (np.unique(t.column(cname).astype(np.int64)) for t in
                                 (split.original_table(tname), split.retained_table(tname)))
                preds += [Predicate(col.name, "eq", value=float(spec.dictionary[c]))
                          for c in np.setdiff1d(before, after)]
            elif col.remap is not None:
                subs = col.remap.subranges
                for (_, b), (a, _) in zip(subs, subs[1:]):
                    lo, hi = (b + f * (a - b) for f in sorted(cut))
                    if b < lo <= hi < a:
                        preds.append(Predicate(col.name, "range", lo=lo, hi=hi))
        assume(preds)
        for p in preds:
            q = Query(0, (db.hub,), (p,))
            est = estimate_selectivity(model, model_constraints(model, q), num_samples,
                                       np.random.default_rng(seed))
            assert est == 0.0, (p.column, p.op, p.value, p.lo, p.hi)


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes of the tracemalloc peak of ``fn(*args, **kwargs)`` above what
    was allocated when it was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFineTuneAndRunMethod:
    def make_split(self, star_db, ratio=0.5):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), ratio)
        return apply_deletion(star_db, task, seed=6)

    def trained_original(self, star_db):
        from cardest.model import encode_relation
        model = tiny_star_model(star_db)
        rel = materialize_join(star_db.tables, star_db.joins)
        codes, valid = encode_relation(model, rel)
        fine_tune(model, codes[valid], seed=1, epochs=5)
        return model

    def test_zero_epochs_unchanged(self, star_db):
        model = self.trained_original(star_db)
        before = model.theta.tobytes()
        split = self.make_split(star_db)
        rel = split.retained_join()
        from cardest.model import encode_relation
        codes, valid = encode_relation(model, rel)
        fine_tune(model, codes[valid], seed=2, epochs=0)
        assert model.theta.tobytes() == before

    def test_mask_frozen_through_fine_tune(self, star_db):
        model = self.trained_original(star_db)
        prune_step(model, zero_scores(model), 0.3, model.keep.copy())
        split = self.make_split(star_db)
        from cardest.model import encode_relation
        codes, valid = encode_relation(model, split.retained_join())
        fine_tune(model, codes[valid], seed=3, epochs=4)
        assert (model.theta[:model.keep.size][model.keep == 0.0] == 0.0).all()

    def test_fine_tune_improves_retained_nll(self, star_db):
        model = self.trained_original(star_db)
        split = self.make_split(star_db)
        from cardest.model import encode_relation
        codes, valid = encode_relation(model, split.retained_join())
        before, _ = full_gradient(model, codes[valid])
        fine_tune(model, codes[valid], seed=4, epochs=10)
        after, _ = full_gradient(model, codes[valid])
        assert after <= before

    def test_stale_returns_original(self, star_db):
        model = self.trained_original(star_db)
        split = self.make_split(star_db)
        before = model.theta.tobytes()
        run = run_method("stale", split, model, CepConfig(), seed=0)
        assert run.model is model and model.theta.tobytes() == before
        assert run.timings["prune_seconds"] == 0.0

    @pytest.mark.parametrize("method", ["finetune", "cep"])
    def test_run_method_trains_the_model_it_is_given(self, star_db, method):
        model = self.trained_original(star_db)
        before = model.theta.tobytes()
        cfg = CepConfig(alpha=0.2, sampling_iterations=2, batch_size=8, finetune_epochs=1)
        run = run_method(method, self.make_split(star_db, ratio=1.0), model, cfg, seed=5)
        assert run.model is model and model.theta.tobytes() != before

    def test_cep_peak_memory_in_theta_units(self, star_db, tmp_path):
        # a desk-sized model on the tiny star schema, so theta-sized arrays
        # dominate what tracemalloc sees; no domain pruning, since re-packing
        # theta allocates a new one whether or not the input was copied.  The
        # model is loaded from a checkpoint, as ``cardest unlearn`` loads it,
        # with keep as one byte per entry
        from cardest.model import ModelConfig, init_model
        save_checkpoint(init_model(materialize_join(star_db.tables, star_db.joins).columns,
                                   ModelConfig(dropout=0.0), seed=0), tmp_path / "m.ckpt")
        model = load_checkpoint(tmp_path / "m.ckpt")
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),
                                  Condition("dim2", "val", lo=0, hi=50)), 1.0)
        split = apply_deletion(star_db, task, seed=6)
        nbytes = model.theta.nbytes
        # squared gradients of four sampling iterations: measured 1.27 with one
        # gradient array the size of w_out, 2.1-2.2 with one over every dense
        # layer (float64 models); 1.29 on this float32 model, 2.34 with the
        # scores in float64 rather than theta's dtype
        rel = semi_join_deletion(split, 0)
        peak = traced_peak(accumulate_scores, model, rel, np.ones(model.ncols), 4, 8,
                           np.random.default_rng(0))
        assert peak / nbytes < 1.5
        # two tables scored and pruned, two fine-tune steps: measured 2.76
        # with Adam updating each layer inside the backward pass, a one-byte
        # keep and prune_step's partition; 3.47 with a theta-sized gradient
        # and a float64 keep, 4.47 with a fresh gradient per step (float64
        # models); 2.90 on this float32 model
        cfg = CepConfig(alpha=0.3, sampling_iterations=2, batch_size=8, finetune_epochs=2,
                        domain_prune=False)
        peak = traced_peak(run_method, "cep", split, model, cfg, seed=2)
        assert peak / nbytes < 3.0

    def test_cep_toggles_off_equals_finetune(self, star_db):
        model = self.trained_original(star_db)
        split = self.make_split(star_db)
        cfg = CepConfig(domain_prune=False, sensitivity_prune=False,
                        finetune_epochs=3)
        r1 = run_method("finetune", split, model.copy(), cfg, seed=9)
        r2 = run_method("cep", split, model.copy(), cfg, seed=9)
        assert r1.model.theta.tobytes() == r2.model.theta.tobytes()
        assert r1.loss_trace == r2.loss_trace

    def test_cep_timings_reported_separately(self, star_db):
        model = self.trained_original(star_db)
        split = self.make_split(star_db, ratio=1.0)
        cfg = CepConfig(alpha=0.3, sampling_iterations=2, batch_size=8,
                        finetune_epochs=2)
        run = run_method("cep", split, model, cfg, seed=1)
        assert run.timings["prune_seconds"] > 0
        assert run.timings["finetune_seconds"] > 0

    def test_retrain_drops_deleted_categorical_codes(self, star_db):
        task = DeletionTask("A", (Condition("fact", "color", value=9),), 1.0)
        split = apply_deletion(star_db, task, seed=0)
        from cardest.model import ModelConfig
        cfg = ModelConfig(embedding_dim=2, hidden_dim=8, residual_blocks=1,
                          dropout=0.0, numeric_bins=8, epochs=2)
        run = run_method("retrain", split, None, CepConfig(), seed=3, model_cfg=cfg)
        col = run.model.columns[run.model.column_index("fact.color")]
        assert 9 not in set(col.values.tolist())

    def test_missing_checkpoint_rejected(self, star_db):
        split = self.make_split(star_db)
        with pytest.raises(ConfigurationError):
            run_method("finetune", split, None, CepConfig(), seed=0)

    def test_run_method_deterministic(self, star_db):
        model = self.trained_original(star_db)
        split = self.make_split(star_db, ratio=1.0)
        cfg = CepConfig(alpha=0.2, sampling_iterations=2, batch_size=8,
                        finetune_epochs=2)
        r1 = run_method("cep", split, model.copy(), cfg, seed=11)
        r2 = run_method("cep", split, model.copy(), cfg, seed=11)
        assert r1.model.theta.tobytes() == r2.model.theta.tobytes()
        assert r1.loss_trace == r2.loss_trace


class TestScoreDeterminismAndRegrowth:
    def test_scores_ignore_dropout_config(self, star_db):
        # score accumulation runs with dropout off, so a dropout-enabled
        # config yields the same scores as a dropout-free one
        from cardest.model import ModelConfig, init_model
        rel = materialize_join(star_db.tables, star_db.joins)
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 0.8)
        split = apply_deletion(star_db, task, seed=1)
        rel_k = semi_join_deletion(split, 0)
        results = []
        for dropout in (0.0, 0.5):
            cfg = ModelConfig(embedding_dim=2, hidden_dim=8, residual_blocks=1,
                              dropout=dropout, numeric_bins=8)
            m = init_model(rel.columns, cfg, seed=3)
            sc = accumulate_scores(m, rel_k, np.ones(m.ncols), 3, 4,
                                   np.random.default_rng(5))
            results.append(sc)
        np.testing.assert_array_equal(results[0].values, results[1].values)

    def test_default_regrowth_releases_masks(self, star_db):
        model = tiny_star_model(star_db)
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 1.0)
        split = apply_deletion(star_db, task, seed=6)
        cfg = CepConfig(alpha=0.3, sampling_iterations=2, batch_size=8,
                        finetune_epochs=3, domain_prune=False)
        run = run_method("cep", split, model, cfg, seed=2)
        assert run.info["sensitivity"]["total_pruned"] > 0
        np.testing.assert_array_equal(run.model.keep, run.model.connectivity())


def test_sensitivity_scores_additive_merge(star_db):
    # scores add up over iterations: one-iteration shards drawn from the same
    # generator sum to the scores of one multi-iteration run
    model = tiny_star_model(star_db)
    task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 0.8)
    split = apply_deletion(star_db, task, seed=1)
    rel = semi_join_deletion(split, 0)
    whole = accumulate_scores(model, rel, np.ones(model.ncols), 5, 4,
                              np.random.default_rng(0))
    rng = np.random.default_rng(0)
    shards = [accumulate_scores(model, rel, np.ones(model.ncols), 1, 4, rng)
              for _ in range(5)]
    assert all(s.tuples_used == whole.tuples_used > 0 for s in shards)
    np.testing.assert_array_equal(sum(s.values for s in shards), whole.values)


class TestKeepMaskInvariant:
    """Masked weights hold exactly 0 through any sequence of training,
    pruning, domain pruning and checkpoint round trips."""

    @staticmethod
    def check(model, directory):
        keep = model.keep
        assert (model.theta[:keep.size][keep == 0.0] == 0.0).all()
        np.testing.assert_array_equal(keep, model.connectivity())
        a, b = directory / "a.ckpt", directory / "b.ckpt"
        save_checkpoint(model, a)
        loaded = load_checkpoint(a)
        save_checkpoint(loaded, b)
        assert a.read_bytes() == b.read_bytes()
        return loaded

    @settings(max_examples=30, deadline=None)
    @given(steps=st.lists(st.sampled_from(["train", "prune", "domain", "reload"]),
                          min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_random_step_sequences(self, steps, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(seed=seed, doms=(4, 3), hidden_dim=6, blocks=2, dropout=0.2)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            self.check(model, directory)
            for step in steps:
                if step == "train":
                    data = np.stack([rng.integers(0, c.domain_size, 24)
                                     for c in model.columns], axis=1)
                    train(model, data, seed=seed, epochs=1, batch_size=8)
                elif step == "prune":
                    scores = zero_scores(model)
                    scores.values[:] = rng.random(scores.values.size)
                    prune_step(model, scores, float(rng.uniform(0.0, 0.5)), model.keep.copy())
                elif step == "domain":
                    col = model.columns[int(rng.integers(0, 2))]
                    if col.domain_size > 1:
                        n = int(rng.integers(1, col.domain_size))
                        domain_prune_categorical(model, col.name,
                                                 rng.choice(col.codes, n, replace=False))
                loaded = self.check(model, directory)
                if step == "reload":
                    model = loaded
