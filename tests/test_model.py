import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardest.errors import FormatError, TrainingError, ValidationError
from cardest import model as cmodel
from cardest.model import (ADAM_CHUNK, SAMPLE_ROUND, AdamState, ModelConfig, _degrees,
                           _draw, _log_softmax, _parameter_shapes, _sample_paths, batch_nll_terms,
                           estimate_selectivity, forward, init_model,
                           interval_bin_weights, load_checkpoint, loss_and_grad,
                           save_checkpoint, train)
from cardest.relational import CATEGORICAL, ColumnSpec
from cardest.unlearn import domain_prune_categorical
from conftest import (ReferenceAdam, enumerate_probabilities, fd_gradient,
                      full_gradient, max_relative_error, over_dtypes,
                      reference_estimate_selectivity, reference_loss_and_grad,
                      rewrite_checkpoint, tiny_model)


def cat_spec(name, dom):
    return ColumnSpec(name, CATEGORICAL, dictionary=np.arange(dom, dtype=np.int64))


class TestInit:
    def test_same_seed_same_checksum(self):
        assert tiny_model(seed=5).theta.tobytes() == tiny_model(seed=5).theta.tobytes()
        assert tiny_model(seed=5).theta.tobytes() != tiny_model(seed=6).theta.tobytes()

    def test_binary_column_head_width(self):
        cfg = ModelConfig(embedding_dim=2, hidden_dim=4, residual_blocks=1)
        m = init_model([cat_spec("t.b", 2)], cfg, seed=0)
        assert m.params["w_out"].shape[1] == 2
        assert m.columns[0].domain_size == 2

    def test_prune_mask_starts_all_ones(self):
        # nothing is pruned yet: the keep-mask is the connectivity mask
        m = tiny_model()
        np.testing.assert_array_equal(m.keep, m.connectivity())
        assert (m.theta[:m.keep.size][m.keep == 0.0] == 0.0).all()

    def test_empty_domain_rejected(self):
        with pytest.raises(ValidationError):
            init_model([cat_spec("t.a", 3)], ModelConfig(), seed=0,
                       restrict_codes={"t.a": np.array([], dtype=np.int64)})


class TestAutoregressiveMasking:
    def test_all_pairs_independence(self):
        m = tiny_model(seed=2, doms=(3, 3), bins=3)
        rng = np.random.default_rng(0)
        data = np.stack([rng.integers(0, 3, 50), rng.integers(0, 3, 50),
                         rng.integers(0, 3, 50)], axis=1)
        train(m, data, seed=1, epochs=5)
        offs = m.logit_offsets()
        X = np.array([[1, 2, 0]])
        base, _ = forward(m, X)
        for j in range(m.ncols):
            for i in range(m.ncols):
                if j >= i:
                    X2 = X.copy()
                    X2[0, j] = (X[0, j] + 1) % m.columns[j].domain_size
                    out, _ = forward(m, X2)
                    np.testing.assert_array_equal(
                        base[:, offs[i]:offs[i + 1]], out[:, offs[i]:offs[i + 1]],
                        err_msg=f"logits of col {i} react to col {j}")

    def test_conditionals_normalize(self):
        m = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        X = np.stack([rng.integers(0, c.domain_size, 1000) for c in m.columns], axis=1)
        logits, _ = forward(m, X)
        offs = m.logit_offsets()
        for i in range(m.ncols):
            block = logits[:, offs[i]:offs[i + 1]]
            p = np.exp(block - block.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestLayout:
    """Hidden units are stored in MADE-degree order and input slot p holds
    column p; the sampler relies on both."""

    @pytest.mark.parametrize("ncols,hidden", [(1, 4), (2, 3), (4, 8), (4, 2), (6, 128)])
    def test_hidden_degrees_non_decreasing(self, ncols, hidden):
        in_deg, hid_deg = _degrees(ncols, 3, hidden)
        assert (np.diff(hid_deg) >= 0).all()
        assert (np.diff(in_deg) >= 0).all() and in_deg[0] == 1
        spread = np.arange(hidden) % (ncols - 1) + 1 if ncols > 1 else np.zeros(hidden)
        np.testing.assert_array_equal(hid_deg, np.sort(spread))

    @pytest.mark.parametrize("doms,order,hidden", [
        ((3, 4, 5), (1, 3, 0, 2), 8),      # 8 units over degrees 1..3: not divisible
        ((3, 4), (2, 0, 1), 7),
        ((5,), None, 6),
    ])
    def test_eligible_weight_count_matches_modulo_assignment(self, doms, order, hidden):
        if len(doms) == 1:   # no numeric column: a single-column model
            m = init_model([cat_spec("t.a", doms[0])],
                           ModelConfig(embedding_dim=2, hidden_dim=hidden,
                                       residual_blocks=2), seed=0)
        else:
            m = tiny_model(seed=0, doms=doms, order=order, hidden_dim=hidden, blocks=2)
        # the unsorted assignment
        deg = np.arange(1, m.ncols + 1)
        hid = (np.arange(hidden) % (m.ncols - 1) + 1 if m.ncols > 1
               else np.zeros(hidden, dtype=np.int64))
        in_deg = np.repeat(deg, m.cfg.embedding_dim)
        out_deg = np.repeat(deg, [c.domain_size for c in m.columns])
        expected = ((hid[None, :] >= in_deg[:, None]).sum()
                    + 2 * m.cfg.residual_blocks * (hid[None, :] >= hid[:, None]).sum()
                    + (out_deg[None, :] > hid[:, None]).sum())
        assert m.eligible_weight_count() == expected

    @pytest.mark.parametrize("case", ["four_columns", "narrow_hidden", "single_column"])
    def test_estimate_leaves_model_unchanged(self, case):
        m = reference_case_model(case)
        before = m.theta.tobytes()
        rng = np.random.default_rng(3)
        for c in m.columns:   # constrain each column in turn, so every prefix runs
            estimate_selectivity(m, {c.name: rng.random(c.domain_size)}, 32, rng,
                                 with_error=True)
        assert m.theta.tobytes() == before


def nll_terms(m, X):
    return batch_nll_terms(m, X, forward(m, X)[0])[0]


class TestNll:
    def test_fresh_model_is_uniform(self):
        # output layer starts at zero, so every conditional starts uniform
        m = tiny_model(seed=0, doms=(4, 4), bins=4, dtype=np.float64)
        X = np.array([[1, 2, 3], [0, 3, 1]])
        np.testing.assert_allclose(nll_terms(m, X), np.log(4.0), atol=1e-12)
        assert full_gradient(m, X)[0] == pytest.approx(3 * np.log(4.0), abs=1e-12)

    def test_deterministic_column_term_zero(self):
        cfg = ModelConfig(embedding_dim=2, hidden_dim=4, residual_blocks=1)
        m = init_model([cat_spec("t.one", 1), cat_spec("t.b", 3)], cfg, seed=0)
        X = np.array([[0, 1]])
        assert nll_terms(m, X)[0, 0] == pytest.approx(0.0, abs=1e-12)
        # all weight on the one-value column: the loss and its gradient vanish
        loss, grad = full_gradient(m, X, np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grad).max() == pytest.approx(0.0, abs=1e-12)

    def test_total_probability_after_training(self):
        m = tiny_model(seed=1, doms=(3, 4), bins=4)
        rng = np.random.default_rng(2)
        data = np.stack([rng.integers(0, 3, 200), rng.integers(0, 4, 200),
                         rng.integers(0, 4, 200)], axis=1)
        train(m, data, seed=3, epochs=10)
        _, probs = enumerate_probabilities(m)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)


class TestGradients:
    def batch(self, m, n=16, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([rng.integers(0, c.domain_size, n) for c in m.columns], axis=1)

    def test_unit_weights_match_plain_nll(self):
        m = tiny_model(seed=4)
        X = self.batch(m)
        np.testing.assert_array_equal(full_gradient(m, X)[1],
                                      full_gradient(m, X, np.ones(m.ncols))[1])

    def test_zero_weights_zero_gradient(self):
        m = tiny_model(seed=4)
        X = self.batch(m)
        assert (full_gradient(m, X, np.zeros(m.ncols))[1] == 0).all()

    def test_negative_weight_rejected(self):
        m = tiny_model(seed=4)
        with pytest.raises(ValidationError):
            full_gradient(m, self.batch(m), np.array([1.0, -1.0, 1.0]))

    def test_finite_difference_oracle(self):
        m = tiny_model(seed=5, doms=(3,), bins=3, embedding_dim=2, hidden_dim=4,
                       dtype=np.float64)
        assert m.parameter_count() <= 500
        X = self.batch(m, n=8)
        analytic = full_gradient(m, X)[1]
        assert max_relative_error(analytic, fd_gradient(m, X)) < 1e-4
        assert (analytic[:m.keep.size][m.keep == 0.0] == 0.0).all()

    def test_finite_difference_with_weights_and_mask(self):
        m = tiny_model(seed=6, doms=(3,), bins=3, embedding_dim=2, hidden_dim=4,
                       dtype=np.float64)
        # prune a few weights by hand
        m.keep[::3] = 0.0
        m.theta[:m.keep.size] *= m.keep
        X = self.batch(m, n=8, seed=1)
        w = np.array([0.5, 2.0])
        analytic = full_gradient(m, X, w)[1]
        assert max_relative_error(analytic, fd_gradient(m, X, w)) < 1e-4
        assert (analytic[:m.keep.size][m.keep == 0.0] == 0.0).all()


class TestTrain:
    def test_single_column_marginal(self):
        cfg = ModelConfig(embedding_dim=2, hidden_dim=4, residual_blocks=1,
                          dropout=0.0, batch_size=64, lr=1e-2)
        m = init_model([cat_spec("t.a", 2)], cfg, seed=0)
        data = np.array([[0]] * 300 + [[1]] * 100)
        train(m, data, seed=1, epochs=60)
        logits, _ = forward(m, np.array([[0]]))
        p = np.exp(logits[0] - logits[0].max())
        p /= p.sum()
        np.testing.assert_allclose(p, [0.75, 0.25], atol=0.02)

    def test_zero_epochs_no_change(self):
        m = tiny_model(seed=7)
        before = m.theta.tobytes()
        train(m, np.zeros((4, m.ncols), dtype=np.int64), seed=0, epochs=0)
        assert m.theta.tobytes() == before

    def test_seed_determinism(self):
        runs = []
        for _ in range(2):
            m = tiny_model(seed=8, dropout=0.1)
            rng = np.random.default_rng(0)
            data = np.stack([rng.integers(0, c.domain_size, 100) for c in m.columns],
                            axis=1)
            train(m, data, seed=3, epochs=4)
            runs.append(m.theta.tobytes())
        assert runs[0] == runs[1]

    def test_loss_trace_length(self):
        m = tiny_model(seed=9)
        trace = train(m, np.zeros((10, m.ncols), dtype=np.int64), seed=0,
                      epochs=3, batch_size=4)
        assert len(trace) == 3 * 3  # ceil(10/4) batches per epoch

    def test_divergence_raises(self):
        m = tiny_model(seed=10)
        m.params["b_out"][:] = np.inf
        before = m.theta.tobytes()
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError) as exc:
            train(m, np.zeros((4, m.ncols), dtype=np.int64), seed=0, epochs=1)
        assert exc.value.step == 0
        assert m.theta.tobytes() == before

    def test_divergence_leaves_theta_as_the_last_finite_step_left_it(self):
        # the loss is checked before the backward pass, which updates theta
        # layer by layer: the failing step changes nothing
        m = tiny_model(seed=10)
        seen = []

        def diverge_after_two(step, model):
            if step == 2:
                model.params["b_out"][:] = np.inf
                seen.append(model.theta.tobytes())

        with np.errstate(invalid="ignore"), pytest.raises(TrainingError) as exc:
            train(m, np.zeros((16, m.ncols), dtype=np.int64), seed=0, epochs=1,
                  batch_size=4, step_hook=diverge_after_two)
        assert exc.value.step == 2
        assert m.theta.tobytes() == seen[0]

    def test_mask_persists_through_training(self):
        m = tiny_model(seed=11)
        m.keep[::2] = 0.0
        m.theta[:m.keep.size] *= m.keep
        rng = np.random.default_rng(0)
        data = np.stack([rng.integers(0, c.domain_size, 64) for c in m.columns], axis=1)
        train(m, data, seed=1, epochs=5)
        assert (m.theta[:m.keep.size][m.keep == 0.0] == 0.0).all()

    def test_masked_positions_keep_their_bits_without_a_re_zero(self):
        # init leaves -0.0 where a negative draw met the mask; the gradient
        # there is ±0, so Adam's moments stay +0 and its update subtracts +0,
        # which keeps every masked position's sign bit as well as its value
        m = tiny_model(seed=12, doms=(4, 3), hidden_dim=10, blocks=2, dropout=0.2)
        masked = np.flatnonzero(~m.keep)
        before = m.theta[masked].tobytes()
        assert np.signbit(m.theta[masked]).any() and (m.theta[masked] == 0.0).all()
        rng = np.random.default_rng(0)
        data = np.stack([rng.integers(0, c.domain_size, 64) for c in m.columns], axis=1)
        adam, work = AdamState(m), {}
        for step in range(8):
            adam.t += 1
            loss_and_grad(m, data[step * 8:(step + 1) * 8], adam.step, training=True,
                          rng=rng, work=work)
        assert m.theta[masked].tobytes() == before
        assert not adam.m[masked].any() and not adam.v[masked].any()
        assert adam.m[np.flatnonzero(m.keep)].any()


STEP_CASES = ["dropout", "weighted", "repeated_codes", "batch_of_one", "single_column",
              "permuted", "domain_pruned", "pruned_mask", "multi_chunk", "rows_128",
              "rows_256"]


def step_case(case, dtype):
    """(model, batch sampler, column weights, dropout on) for one case of the
    in-place training step against the plain-expression reference, on a
    ``dtype`` model.  Every parameter is random, so no conditional starts
    uniform."""
    weights, training = None, False
    if case == "single_column":
        cfg = ModelConfig(embedding_dim=3, hidden_dim=6, residual_blocks=2, dropout=0.2)
        m = init_model([cat_spec("t.a", 5)], cfg, seed=31, dtype=dtype)
        training = True
    elif case == "permuted":   # the numeric column second, not last
        m = tiny_model(seed=32, doms=(3, 4, 5), order=(2, 3, 0, 1), hidden_dim=12, blocks=2,
                       dtype=dtype)
    elif case == "multi_chunk":
        # Adam walks theta in four chunks; keep ends inside the second, so
        # the chunks after it hold no dense weight
        m = tiny_model(seed=36, doms=(6000, 30), bins=32, embedding_dim=8, hidden_dim=8,
                       blocks=2, dtype=dtype)
        assert ADAM_CHUNK < m.keep.size < m.theta.size - ADAM_CHUNK
        assert m.keep.size % ADAM_CHUNK
    else:
        training = case in ("dropout", "rows_128", "rows_256")
        m = tiny_model(seed=33, doms=(4, 3), hidden_dim=10, blocks=2,
                       dropout=0.3 if training else 0.0, dtype=dtype)
    rng = np.random.default_rng(STEP_CASES.index(case))
    m.theta[:] = rng.normal(0.0, 0.5, m.theta.size)
    m.theta[:m.keep.size] *= m.keep
    if case in ("pruned_mask", "multi_chunk"):
        m.keep *= rng.random(m.keep.size) >= 0.3
        m.theta[:m.keep.size] *= m.keep
    if case == "domain_pruned":
        domain_prune_categorical(m, "t.c0", np.array([0, 2, 3]))
    if case == "weighted":
        weights = np.array([0.0, 2.5, 0.25])
    n = {"batch_of_one": 1, "repeated_codes": 24, "rows_128": 128, "rows_256": 256
         }.get(case, 16)

    def batch(step):
        r = np.random.default_rng(100 + step)
        if case == "repeated_codes":  # few distinct rows, each many times
            rows = np.stack([r.integers(0, c.domain_size, 3) for c in m.columns], axis=1)
            return rows[r.integers(0, 3, n)]
        return np.stack([r.integers(0, c.domain_size, n) for c in m.columns], axis=1)

    return m, batch, weights, training


class TestInPlaceStep:
    @pytest.mark.parametrize("case,dtype", over_dtypes(STEP_CASES))
    def test_matches_reference_for_20_steps(self, case, dtype):
        # each piece of the gradient goes to Adam as loss_and_grad hands it
        # over, and is copied on the way; the reference takes the whole
        # gradient first, then one Adam step
        m, batch, weights, training = step_case(case, dtype)
        ref = m.copy()
        ref.keep[:] = m.keep  # a copy's keep is the connectivity
        adam, ref_adam = AdamState(m), ReferenceAdam(ref)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        # one workspace for every step, as train keeps it, whose arrays start
        # as NaN: a gradient block or activation a step fails to write would
        # survive the keep-multiply and break the bitwise comparison
        work: dict = {}
        loss_and_grad(m, batch(0), lambda lo, g: None, weights, work=work)
        for a in work.values():
            a.fill(np.nan)
        for step in range(20):
            X = batch(step)
            grad = np.full_like(m.theta, np.nan)

            def update(lo, g):
                grad[lo:lo + g.size] = g
                adam.step(lo, g)

            adam.t += 1
            loss = loss_and_grad(m, X, update, weights, training=training, rng=rng,
                                 work=work)
            ref_loss, ref_grad = reference_loss_and_grad(ref, X, weights,
                                                         training=training, rng=ref_rng)
            ref_adam.step(ref, ref_grad)
            assert loss == ref_loss
            np.testing.assert_array_equal(grad, ref_grad)
            np.testing.assert_array_equal(m.theta, ref.theta)
        assert m.theta.tobytes() == ref.theta.tobytes()

    @pytest.mark.parametrize("case,dtype", over_dtypes(STEP_CASES))
    def test_train_matches_loss_and_grad_and_adam_for_20_steps(self, case, dtype):
        # train hands Adam each layer's gradient during the backward pass;
        # the reference takes loss_and_grad's full gradient, then one Adam
        # step.  train takes no column weights, so "weighted" runs unweighted
        m, batch, _, _ = step_case(case, dtype)
        ref = m.copy()
        ref.keep[:] = m.keep
        data = np.concatenate([batch(step) for step in range(20)])
        n = data.shape[0] // 20
        trace = train(m, data, seed=5, epochs=1, batch_size=n)

        rng = np.random.default_rng(5)
        adam = AdamState(ref)
        perm = rng.permutation(data.shape[0])
        ref_trace = []
        for start in range(0, data.shape[0], n):
            loss, grad = full_gradient(ref, data[perm[start:start + n]], training=True,
                                       rng=rng)
            adam.t += 1
            adam.step(0, grad)
            ref_trace.append(loss)
        assert len(trace) == 20 and trace == ref_trace
        assert m.theta.tobytes() == ref.theta.tobytes()

    def test_train_updates_through_adam_state_step(self, monkeypatch):
        # one AdamState.step per dense layer and one for the bias and
        # embedding tail, in each train step; the benchmark's tracer counts
        # Adam through this method
        m = tiny_model(seed=37, doms=(4, 3), hidden_dim=10, blocks=2, dropout=0.2)
        ref = m.copy()
        rng = np.random.default_rng(1)
        data = np.stack([rng.integers(0, c.domain_size, 40) for c in m.columns], axis=1)
        ref_trace = train(ref, data, seed=2, epochs=2, batch_size=16)
        calls = []
        step = AdamState.step

        def counted(self, lo, grad):
            calls.append(lo)
            step(self, lo, grad)

        monkeypatch.setattr(AdamState, "step", counted)
        trace = train(m, data, seed=2, epochs=2, batch_size=16)
        assert trace == ref_trace and len(trace) == 6
        assert len(calls) == len(trace) * (2 * m.cfg.residual_blocks + 3)
        assert m.theta.tobytes() == ref.theta.tobytes()

    def test_train_step_allocates_no_theta_sized_array(self):
        m = tiny_model(seed=34, doms=(40, 30), bins=32, embedding_dim=8, hidden_dim=256,
                       blocks=2, dropout=0.1)
        rng = np.random.default_rng(0)
        data = np.stack([rng.integers(0, c.domain_size, 64) for c in m.columns], axis=1)
        peaks = []

        def measure_second_step(step, model):
            if step == 1:
                tracemalloc.start()
            else:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        try:
            train(m, data, seed=0, epochs=1, batch_size=32, step_hook=measure_second_step)
        finally:
            tracemalloc.stop()
        assert peaks[0] < m.theta.nbytes // 4

    def test_adam_step_allocates_no_theta_sized_array(self):
        m = tiny_model(seed=34, doms=(40, 30), bins=32, embedding_dim=8, hidden_dim=64,
                       blocks=2)
        X = np.stack([np.arange(32) % c.domain_size for c in m.columns], axis=1)
        grad = full_gradient(m, X)[1]
        adam = AdamState(m)
        adam.t = 1
        adam.step(0, grad)  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adam.t += 1
            adam.step(0, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < m.theta.nbytes // 4


REFERENCE_CASES = ["permuted", "four_columns", "narrow_hidden", "domain_pruned",
                   "single_column"]


def reference_case_model(case, dtype=np.float32):
    """A tiny ``dtype`` model whose every parameter is random (a fresh output
    layer is all zero, which makes every conditional uniform) and 30% of
    whose dense weights are pruned."""
    if case == "single_column":
        cfg = ModelConfig(embedding_dim=2, hidden_dim=6, residual_blocks=2, dropout=0.0)
        m = init_model([cat_spec("t.a", 5)], cfg, seed=24, dtype=dtype)
    elif case == "four_columns":
        m = tiny_model(seed=22, doms=(3, 4, 5), order=(1, 3, 0, 2), hidden_dim=12,
                       blocks=2, dtype=dtype)
    elif case == "narrow_hidden":  # degree 3 has no hidden unit
        m = tiny_model(seed=25, doms=(3, 4, 5), order=(3, 2, 1, 0), hidden_dim=2,
                       dtype=dtype)
    else:   # the numeric column first
        m = tiny_model(seed=21 if case == "permuted" else 23, doms=(4, 3),
                       order=(2, 0, 1), blocks=2, dtype=dtype)
    rng = np.random.default_rng(REFERENCE_CASES.index(case))
    m.theta[:] = rng.normal(0.0, 0.7, m.theta.size)
    m.keep *= rng.random(m.keep.size) >= 0.3
    m.theta[:m.keep.size] *= m.keep
    if case == "domain_pruned":
        domain_prune_categorical(m, "t.c0", np.array([0, 2, 3]))
    return m


class TestEstimate:
    def test_no_constraints_is_exactly_one(self):
        m = tiny_model(seed=12)
        assert estimate_selectivity(m, {}, 16, np.random.default_rng(0)) == 1.0

    def test_first_column_mass_is_exact(self):
        cfg = ModelConfig(embedding_dim=2, hidden_dim=4, residual_blocks=1,
                          dropout=0.0)
        m = init_model([cat_spec("t.a", 3)], cfg, seed=0)
        data = np.array([[0]] * 50 + [[1]] * 30 + [[2]] * 20)
        train(m, data, seed=1, epochs=40)
        logits, _ = forward(m, np.array([[0]]))
        p = np.exp(logits[0] - logits[0].max())
        p /= p.sum()
        w = np.array([0.0, 1.0, 0.0])
        est = estimate_selectivity(m, {"t.a": w}, 8, np.random.default_rng(0))
        assert est == pytest.approx(p[1], abs=1e-12)

    def test_matches_enumeration_within_mc_error(self):
        m = tiny_model(seed=13, doms=(3, 4), bins=4)
        rng = np.random.default_rng(5)
        data = np.stack([rng.integers(0, 3, 400), rng.integers(0, 4, 400),
                         rng.integers(0, 4, 400)], axis=1)
        train(m, data, seed=6, epochs=8)
        combos, probs = enumerate_probabilities(m)
        w0 = np.array([1.0, 0.0, 1.0])
        w2 = np.array([0.0, 1.0, 1.0, 0.0])
        exact = probs[(w0[combos[:, 0]] > 0) & (w2[combos[:, 2]] > 0)].sum()
        n = 4096
        est = estimate_selectivity(m, {"t.c0": w0, "t.num": w2}, n,
                                   np.random.default_rng(7))
        # Monte-Carlo standard error of the path-weight mean
        se = max(np.sqrt(exact * (1 - exact) / n), 1e-4)
        assert abs(est - exact) <= 3 * se

    def test_num_samples_below_one_rejected(self):
        m = tiny_model(seed=12)
        with pytest.raises(ValidationError, match="num_samples"):
            estimate_selectivity(m, {"t.c0": np.ones(3)}, 0, np.random.default_rng(0))

    def test_unknown_column_rejected(self):
        m = tiny_model(seed=14)
        with pytest.raises(ValidationError):
            estimate_selectivity(m, {"t.zzz": np.array([1.0])}, 8,
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("case,dtype", over_dtypes(REFERENCE_CASES))
    def test_matches_full_forward_reference(self, case, dtype):
        m = reference_case_model(case, dtype)
        rng = np.random.default_rng(31)
        for q in range(12):
            cons = {}
            for c in m.columns:
                if m.ncols > 1 and rng.random() < 0.4:
                    continue
                wv = np.where(rng.random(c.domain_size) < 0.3, 0.0,
                              np.minimum(rng.random(c.domain_size) * 2, 1.0))
                cons[c.name] = np.zeros(c.domain_size) if q == 0 else wv
            for seed in (0, 1):
                est, sem, _ = estimate_selectivity(m, cons, 64, np.random.default_rng(seed),
                                                   with_error=True)
                ref, ref_sem = reference_estimate_selectivity(
                    m, cons, 64, np.random.default_rng(seed), with_error=True)
                assert (est == 0.0) == (ref == 0.0)
                assert abs(est - ref) <= 1e-12 * abs(ref)
                assert abs(sem - ref_sem) <= 1e-12 * abs(ref_sem)

    @pytest.mark.parametrize("case,dtype", over_dtypes(REFERENCE_CASES))
    def test_two_rounds_are_bitwise_one_round(self, monkeypatch, case, dtype):
        # With a target no round meets, the 128 + rest paths give the bits of
        # one round of all of them, and leave rng where drawing one
        # rng.random(n) per sampled column (the reference) leaves it
        m = reference_case_model(case, dtype)
        monkeypatch.setattr(cmodel, "SEM_TARGET", -1.0)
        rng = np.random.default_rng(32)
        for n in (512, 301):
            cons = {c.name: rng.random(c.domain_size) for c in m.columns
                    if c is m.columns[-1] or rng.random() < 0.5}
            got = []
            for round_size in (SAMPLE_ROUND, n):
                monkeypatch.setattr(cmodel, "SAMPLE_ROUND", round_size)
                stream = np.random.default_rng(n)
                got.append(estimate_selectivity(m, cons, n, stream, with_error=True))
                got.append(stream.bit_generator.state)
            ref_stream = np.random.default_rng(n)
            reference_estimate_selectivity(m, cons, n, ref_stream)
            assert got[0] == got[2] and got[0][2] == n
            assert got[1] == got[3] == ref_stream.bit_generator.state

    @staticmethod
    def loose_query(dtype):
        """A four-column model and constraints near 1 on every column, whose
        path weights spread a little; and the weights of all 512 paths of
        one round drawn from ``default_rng(9)``, as the sampler draws them."""
        m = reference_case_model("four_columns", dtype)
        rng = np.random.default_rng(40)
        cons = {c.name: 0.8 + 0.2 * rng.random(c.domain_size) for c in m.columns}
        by_col = {m.column_index(name): wv.astype(dtype) for name, wv in cons.items()}
        weight = np.empty(512, dtype=dtype)
        uniforms = np.random.default_rng(9).random((m.ncols - 1, 512), dtype=dtype)
        _sample_paths(m, by_col, uniforms, weight)
        return m, cons, weight

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stops_on_the_first_rounds_standard_error(self, monkeypatch, dtype):
        m, cons, w = self.loose_query(dtype)

        def summary(weight):
            return (float(weight.mean()), float(weight.std(ddof=1) / np.sqrt(weight.size)),
                    weight.size)
        first = w[:SAMPLE_ROUND]
        rel_first = summary(first)[1] / summary(first)[0]
        rel_all = summary(w)[1] / summary(w)[0]
        assert 0.0 < rel_all < rel_first < cmodel.SEM_TARGET
        # the default target stops with the first round's mean and SE
        assert estimate_selectivity(m, cons, 512, np.random.default_rng(9),
                                    with_error=True) == summary(first)
        assert estimate_selectivity(m, cons, 512, np.random.default_rng(9)) == \
            summary(first)[0]
        # a target only the full budget meets is judged on the first round
        monkeypatch.setattr(cmodel, "SEM_TARGET", float(np.sqrt(rel_first * rel_all)))
        assert estimate_selectivity(m, cons, 512, np.random.default_rng(9),
                                    with_error=True) == summary(w)

    def test_rng_ends_in_the_same_state_stopped_or_not(self, monkeypatch):
        m, cons, _ = self.loose_query(np.float32)
        paths, states = [], []
        for target in (0.5, -1.0):      # every round meets it; none does
            monkeypatch.setattr(cmodel, "SEM_TARGET", target)
            rng = np.random.default_rng(9)
            paths.append(estimate_selectivity(m, cons, 512, rng, with_error=True)[2])
            states.append(rng.bit_generator.state)
        assert paths == [SAMPLE_ROUND, 512]
        assert states[0] == states[1]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_all_zero_first_round_runs_every_path(self, dtype):
        # the one code the constraint allows has a probability that underflows
        # to 0 on every path: the first round weighs 0, which meets any
        # relative target, yet the call runs the full budget and returns 0
        m = reference_case_model("four_columns", dtype)
        last = m.columns[-1]
        lo = m.logit_offsets()[-2]
        m.params["b_out"][lo] = -1e4
        only_code_0 = np.zeros(last.domain_size)
        only_code_0[0] = 1.0
        cons = {m.columns[0].name: np.ones(m.columns[0].domain_size), last.name: only_code_0}
        assert estimate_selectivity(m, cons, 512, np.random.default_rng(3),
                                    with_error=True) == (0.0, 0.0, 512)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_all_zero_constraint_samples_no_path(self, monkeypatch, dtype):
        # every path would be weighed by probs @ 0; rng still advances past
        # the uniforms a full-budget call draws
        m = reference_case_model("four_columns", dtype)
        last = m.columns[-1]
        first = {m.columns[0].name: np.ones(m.columns[0].domain_size)}
        rng = np.random.default_rng(3)
        assert estimate_selectivity(m, {**first, last.name: np.zeros(last.domain_size)},
                                    512, rng, with_error=True) == (0.0, 0.0, 0)
        monkeypatch.setattr(cmodel, "SEM_TARGET", -1.0)
        full = np.random.default_rng(3)
        assert estimate_selectivity(m, {**first, last.name: np.ones(last.domain_size)},
                                    512, full, with_error=True)[2] == 512
        assert rng.bit_generator.state == full.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25, 1.5])
    def test_constraint_outside_the_unit_interval_rejected(self, bad):
        # a negative or NaN weight would give a negative or NaN estimate
        m = tiny_model(seed=14)
        wv = np.ones(m.columns[0].domain_size)
        wv[1] = bad
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            estimate_selectivity(m, {m.columns[0].name: wv}, 8, np.random.default_rng(0))

    def test_draw_never_picks_a_zero_weight_code(self):
        for dtype in (np.float64, np.float32):
            self.check_top_draw_in_range(dtype)

    def check_top_draw_in_range(self, dtype):
        # The first column's last code is excluded by the constraint.  Only
        # that code feeds the hidden unit, which pushes the second column's
        # conditional for the constrained value to ~0 if it was drawn.
        K = 12
        cfg = ModelConfig(embedding_dim=1, hidden_dim=1, residual_blocks=1, dropout=0.0)
        m = init_model([cat_spec("t.a", K), cat_spec("t.b", 2)], cfg, seed=0, dtype=dtype)
        for k in m.params:
            m.params[k][...] = 0.0
        m.embeddings[0][...] = 0.0
        m.embeddings[0][K - 1] = 1.0
        m.params["w_in"][0, 0] = 1.0
        m.params["w_out"][0, K:] = [50.0, -50.0]
        wv = np.ones(K, dtype=dtype)
        wv[-1] = 0.0
        # the largest value Generator.random returns in this dtype
        top = np.nextafter(dtype(1.0), dtype(0.0))
        for seed in range(1000):
            b = np.random.default_rng(seed).normal(0.0, 2.0, K).astype(dtype)
            probs = np.exp(_log_softmax(b[None, :])) * wv
            # a pairwise total above the cumsum's lets the top draw run off the cdf
            if np.cumsum(probs, axis=1)[0, -1] < top * probs.sum():
                break
        else:
            pytest.fail("no logits found whose pairwise total exceeds the cumsum")
        m.params["b_out"][:K] = b

        class TopRng:
            def random(self, n, dtype=np.float64):
                return np.full(n, top, dtype=dtype)

        est = estimate_selectivity(m, {"t.a": wv, "t.b": np.array([0.0, 1.0])}, 4,
                                   TopRng())
        assert est == pytest.approx(0.5 * probs.sum(), rel=np.finfo(dtype).eps)


class TestSamplerReductions:
    """Two row reductions of the sampler read the same values as the plain
    forms, with cheaper numpy calls."""

    @staticmethod
    def max_form(block):
        m = block.max(axis=1, keepdims=True)
        s = block - m
        return s - np.log(np.exp(s).sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_log_softmax_is_bitwise_the_max_form(self, dtype):
        rng = np.random.default_rng(7)
        spread = rng.normal(0.0, 3.0, (512, 64))
        tied = np.round(rng.normal(0.0, 1.0, (64, 9)))   # many equal maxima
        zeros = -np.abs(rng.normal(0.0, 1.0, (64, 7)))
        # every row's maximum is a zero, signed in every order
        zeros[:, :2] = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)] * 16
        zeros = rng.permuted(zeros, axis=1)
        for block in (spread, tied, zeros, spread[:1]):
            block = block.astype(dtype)
            assert _log_softmax(block).tobytes() == self.max_form(block).tobytes()

    def test_draw_is_the_clipped_count_below_u(self):
        rng = np.random.default_rng(8)
        probs = rng.random((400, 6)) * (rng.random((400, 6)) < 0.6)
        cdf = np.cumsum(probs, axis=1)
        total = cdf[:, -1]
        for u in (rng.random(400) * total,            # inside the row
                  np.zeros(400),                      # u = 0
                  total * (1.0 + rng.random(400)),    # the whole row below u
                  cdf[np.arange(400), rng.integers(0, 6, 400)]):   # u on an entry
            want = np.minimum((cdf < u[:, None]).sum(axis=1), cdf.shape[1] - 1)
            np.testing.assert_array_equal(_draw(cdf, u), want)
            # one row that every path shares
            np.testing.assert_array_equal(
                _draw(cdf[:1], u), np.minimum((cdf[:1] < u[:, None]).sum(axis=1), 5))


class TestIntervalWeights:
    def test_full_and_fractional_bins(self):
        w = interval_bin_weights(0.0, 50.0, 0.0, 100.0, 4)
        np.testing.assert_allclose(w, [1.0, 1.0, 0.0, 0.0])
        w = interval_bin_weights(12.5, 37.5, 0.0, 100.0, 4)
        np.testing.assert_allclose(w, [0.5, 0.5, 0.0, 0.0])

    def test_degenerate_interval_zero(self):
        assert interval_bin_weights(30.0, 30.0, 0.0, 100.0, 4).sum() == 0.0

    def test_outside_range_clipped(self):
        w = interval_bin_weights(-10.0, 1000.0, 0.0, 100.0, 4)
        np.testing.assert_allclose(w, np.ones(4))


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        m = tiny_model(seed=16)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_keeps_dtype_and_bytes(self, tmp_path, dtype):
        m = reference_case_model("four_columns", dtype)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        loaded = load_checkpoint(p1)
        assert loaded.theta.dtype == dtype
        assert loaded.theta.tobytes() == m.theta.tobytes()
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # the payload is theta in its own width, little-endian
        meta_len, = struct.unpack("<I", p1.read_bytes()[8:12])
        payload = p1.read_bytes()[12 + meta_len:-8]
        assert payload == m.theta.astype(np.dtype(dtype).newbyteorder("<")).tobytes()

    @pytest.mark.parametrize("dtype", ["float16", "int64", "<f8", "bogus", None])
    def test_unknown_dtype_is_format_error(self, tmp_path, dtype):
        # float64 under any other spelling is refused too: the metadata
        # names a dtype one way only
        p = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(seed=27, dtype=np.float64), p)
        rewrite_checkpoint(p, lambda meta, theta: ({**meta, "dtype": dtype}, theta))
        with pytest.raises(FormatError, match="malformed checkpoint metadata"):
            load_checkpoint(p)

    @pytest.mark.parametrize("dtype,other", [(np.float32, np.float64),
                                             (np.float64, np.float32)])
    def test_payload_of_the_other_width_is_format_error(self, tmp_path, dtype, other):
        p = tmp_path / "m.ckpt"
        for edit in (lambda meta, theta: (meta, theta.astype(other)),
                     lambda meta, theta: ({**meta, "dtype": np.dtype(other).name}, theta)):
            save_checkpoint(tiny_model(seed=27, dtype=dtype), p)
            rewrite_checkpoint(p, edit)
            with pytest.raises(FormatError, match="array bytes"):
                load_checkpoint(p)

    def test_corrupt_magic(self, tmp_path):
        m = tiny_model(seed=17)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_corrupt_payload_checksum(self, tmp_path):
        m = tiny_model(seed=18)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_byte_flip_is_format_error(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("flip") / "m.ckpt"
        save_checkpoint(tiny_model(seed=18), p)
        raw = bytearray(p.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="byte")
        raw[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_pruned_domain_survives_roundtrip(self, tmp_path):
        m = tiny_model(seed=19, doms=(4, 3), bins=4)
        domain_prune_categorical(m, "t.c0", np.array([0, 2, 3]))
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        loaded = load_checkpoint(p)
        assert loaded.columns[0].domain_size == 3
        assert loaded.params["w_out"].shape == m.params["w_out"].shape
        assert loaded.theta.tobytes() == m.theta.tobytes()

    # Each case below is digest-valid, so only the content check can fire.
    # The payload is theta in the dtype the metadata names.

    def test_array_layout_must_match_metadata(self, tmp_path):
        m = tiny_model(seed=26)
        p = tmp_path / "m.ckpt"
        for edit in (lambda meta, theta: (meta, np.append(theta, 0.0)),
                     lambda meta, theta: (meta, theta[:-1])):
            save_checkpoint(m, p)
            rewrite_checkpoint(p, lambda meta, theta: (meta, theta))
            assert load_checkpoint(p).theta.tobytes() == m.theta.tobytes()
            rewrite_checkpoint(p, edit)
            with pytest.raises(FormatError, match="array bytes"):
                load_checkpoint(p)

    def test_masked_weight_must_be_zero(self, tmp_path):
        m = tiny_model(seed=28)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        # theta offsets of the unconnected w_out positions
        offsets = m.unflatten(np.arange(m.theta.size))["w_out"]
        unconnected = int(offsets[m.unflatten(m.connectivity())["w_out"] == 0][0])

        def masked_weight(meta, theta):
            theta[unconnected] = 0.25
            return meta, theta

        rewrite_checkpoint(p, masked_weight)
        with pytest.raises(FormatError, match="masked position"):
            load_checkpoint(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["connected_weight", "embedding"])
    def test_non_finite_theta_rejected(self, tmp_path, where, value):
        # a NaN at a connected weight makes every estimate on the model NaN
        m = tiny_model(seed=28)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        idx = int(np.flatnonzero(m.keep)[0]) if where == "connected_weight" else -1

        def poison(meta, theta):
            theta[idx] = value
            return meta, theta

        rewrite_checkpoint(p, poison)
        with pytest.raises(FormatError, match="NaN or infinity"):
            load_checkpoint(p)

    @pytest.mark.parametrize("case", [
        "no_config", "column_without_kind", "column_without_bins",
        "column_without_codes", "unknown_config_field", "mistyped_config_field",
        "undecodable_json", "no_columns", "duplicate_column_names", "repeated_code",
        "numeric_lo_above_hi", "numeric_lo_nan", "numeric_hi_infinite",
        "remap_range_not_the_columns"])
    def test_malformed_metadata_is_format_error(self, tmp_path, case):
        m = tiny_model(seed=29)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)

        def edit(meta, theta):
            if case == "no_config":
                del meta["config"]
            elif case == "column_without_kind":
                del meta["columns"][0]["kind"]
            elif case == "column_without_bins":   # t.num, the numeric column
                del meta["columns"][-1]["bins"]
            elif case == "column_without_codes":
                del meta["columns"][0]["codes"]
            elif case == "unknown_config_field":
                meta["config"]["width"] = 3
            elif case == "mistyped_config_field":
                meta["config"]["hidden_dim"] = "8"
            elif case == "no_columns":   # with a payload of the right size
                meta["columns"] = []
                shapes = _parameter_shapes(m.cfg, [])
                theta = np.zeros(sum(np.prod(s) for s in shapes.values()), dtype=theta.dtype)
            elif case == "duplicate_column_names":
                meta["columns"][1]["name"] = meta["columns"][0]["name"]
            elif case == "repeated_code":
                meta["columns"][0]["codes"][1] = meta["columns"][0]["codes"][0]
            elif case == "numeric_lo_above_hi":
                meta["columns"][-1]["lo"] = 2.0
            elif case == "numeric_lo_nan":
                meta["columns"][-1]["lo"] = float("nan")
            elif case == "numeric_hi_infinite":
                meta["columns"][-1]["hi"] = float("inf")
            elif case == "remap_range_not_the_columns":   # t.num spans [0, 1]
                meta["columns"][-1]["remap"] = {"lo": 0.0, "hi": 3.0,
                                                "subranges": [[0.0, 1.0], [2.0, 3.0]]}
            else:
                return b"\xff{not json", theta
            return meta, theta

        rewrite_checkpoint(p, edit)
        with pytest.raises(FormatError, match="malformed checkpoint metadata"):
            load_checkpoint(p)


def test_checkpoint_version_mismatch(tmp_path):
    # version 1 stored hidden units and input rows in another order, version
    # 2 per-key arrays and prune masks, version 3 keep as float64, version 4
    # keep as one byte per entry, version 5 theta as float64 with no dtype
    # in the metadata and version 6 a column order: only the version tells
    # a file's layout, so every other version is rejected
    m = tiny_model(seed=20)
    p = tmp_path / "m.ckpt"
    for version in (1, 2, 3, 4, 5, 6, 99):
        save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        # recompute the checksum so only the version is wrong
        body = bytes(raw[:-8])
        p.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(FormatError, match=f"version {version}"):
            load_checkpoint(p)
