import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cardest.domains import NumericRemap, remap_array
from cardest.errors import ConfigurationError, ValidationError
from cardest.model import interval_bin_weights
from cardest.queries import Predicate, Query, save_workload, serialize_query
from cardest.relational import CATEGORICAL, NUMERICAL, Join, SchemaGraph, materialize_join
from cardest.workload import (QueryResult, WorkloadConfig, complement_query,
                              convergence_trace, evaluate, gen_workload,
                              model_constraints, nearest_rank_percentile,
                              q_error, summarize, true_cardinality)
from conftest import make_table
from test_unlearn import tiny_star_model


def recount(db, q) -> int:
    """Row-by-row count of ``q`` over the full join, in original value
    space: the oracle ``true_cardinality`` is checked against."""
    rel = materialize_join(db.tables, db.joins)
    spec_by_name = {s.name: s for s in rel.columns}
    count = 0
    for r in range(rel.cardinality):
        ok = True
        for p in q.predicates:
            spec = spec_by_name[p.column]
            v = rel.column(p.column)[r]
            original = spec.dictionary[int(v)] if spec.kind == "categorical" else v
            if not p.matches(np.array([original]))[0]:
                ok = False
                break
        count += ok
    return count


class TestGenWorkload:
    def test_empty(self, star_db):
        assert gen_workload(star_db, 0, 0, WorkloadConfig()) == []

    def test_deterministic(self, star_db):
        cfg = WorkloadConfig(n_queries=20)
        w1 = gen_workload(star_db, 20, seed=5, cfg=cfg)
        w2 = gen_workload(star_db, 20, seed=5, cfg=cfg)
        assert [serialize_query(q) for q in w1] == [serialize_query(q) for q in w2]

    def test_mostly_nonzero_truth(self):
        from cardest.datagen import DataGenConfig, gen_star_schema
        db = gen_star_schema(DataGenConfig(hub_rows=2000, dim_rows=(100, 100), seed=0))
        queries = gen_workload(db, 50, seed=1, cfg=WorkloadConfig())
        nonzero = sum(true_cardinality(db.tables, db.joins, q) > 0 for q in queries)
        assert nonzero >= 40

    def test_scope_contains_hub_and_predicate_tables(self, star_db):
        for q in gen_workload(star_db, 30, seed=2, cfg=WorkloadConfig()):
            assert "fact" in q.scope
            assert 1 <= len(q.predicates) <= 4
            for p in q.predicates:
                assert p.column.split(".", 1)[0] in q.scope

    def test_focus_columns_show_up(self, star_db):
        cfg = WorkloadConfig(focus_columns=("fact.amount",), focus_prob=1.0)
        queries = gen_workload(star_db, 20, seed=3, cfg=cfg)
        hits = sum(any(p.column == "fact.amount" for p in q.predicates)
                   for q in queries)
        assert hits == 20

    @pytest.mark.parametrize("focus,match", [
        ("nope.amount", "unknown table"), ("fact.nope", "unknown column"),
        ("fact.d1", "join key"), ("dim1.id", "join key")])
    def test_focus_column_must_be_an_attribute(self, star_db, focus, match):
        # checked before any query is drawn, however rarely focus is used
        cfg = WorkloadConfig(focus_columns=("fact.amount", focus), focus_prob=0.0)
        with pytest.raises(ConfigurationError, match=f"focus column '{focus}'.*{match}"):
            gen_workload(star_db, 5, seed=3, cfg=cfg)

    def test_depth_two_tree_scopes_are_connected(self):
        # fact -> dim1 -> sub1: sub1 joins a scope only through dim1, so a
        # scope of fact and sub1 alone would be no join subtree
        rng = np.random.default_rng(9)
        fact = make_table("fact", [
            ("d1", CATEGORICAL, (rng.integers(0, 6, 40), np.arange(6))),
            ("amount", NUMERICAL, (rng.integers(0, 100, 40).astype(float), 0.0, 100.0))])
        dim1 = make_table("dim1", [
            ("id", CATEGORICAL, (np.arange(6), np.arange(6))),
            ("s1", CATEGORICAL, (np.array([0, 1, 2, 0, 1, 2]), np.arange(3))),
            ("grp", CATEGORICAL, (rng.integers(0, 2, 6), [50, 60]))])
        sub1 = make_table("sub1", [
            ("id", CATEGORICAL, (np.arange(3), np.arange(3))),
            ("sval", NUMERICAL, (np.array([10.0, 40.0, 80.0]), 0.0, 100.0))])
        db = SchemaGraph([fact, dim1, sub1], [Join("fact", "d1", "dim1", "id"),
                                              Join("dim1", "s1", "sub1", "id")], hub="fact")
        db.validate()
        cfg = WorkloadConfig(focus_columns=("sub1.sval",), focus_prob=0.3)
        queries = gen_workload(db, 40, seed=6, cfg=cfg)
        assert any("sub1" in q.scope for q in queries)
        assert all("dim1" in q.scope for q in queries if "sub1" in q.scope)
        rel = materialize_join(db.tables, db.joins)
        report = evaluate(tiny_star_model(db), [("OQ", q) for q in queries], db.tables,
                          db.joins, rel.cardinality, seed=0, num_samples=16)
        assert len(report.rows) == 40


class TestQuerySerialization:
    def test_roundtrip(self, tmp_path):
        queries = [
            Query(0, ("fact", "dim1"), (Predicate("fact.amount", "range", lo=1, hi=9),)),
            Query(1, ("fact",), (Predicate("fact.color", "eq", value=8.0),
                                 Predicate("fact.amount", "outside", lo=2.0, hi=5.0))),
        ]
        save_workload(queries, tmp_path / "w.txt")
        assert (tmp_path / "w.txt").read_text().splitlines() == \
            [serialize_query(q) for q in queries]
        assert serialize_query(queries[0]) == "q0 | scope=fact,dim1 | fact.amount in[] 1.0 9.0"
        assert serialize_query(queries[1]) == \
            "q1 | scope=fact | fact.color eq 8.0 ; fact.amount outside 2.0 5.0"


class TestComplementQuery:
    def test_inverts_range_on_condition_column(self):
        q = Query(3, ("fact",), (Predicate("fact.amount", "range", lo=20.0, hi=30.0),))
        cq = complement_query(q, {"fact.amount"})
        assert cq is not None
        p = cq.predicates[0]
        assert p.op == "outside" and (p.lo, p.hi) == (20.0, 30.0)

    def test_none_when_nothing_invertible(self):
        q = Query(4, ("fact",), (Predicate("fact.color", "eq", value=8.0),))
        assert complement_query(q, {"fact.amount"}) is None
        q = Query(5, ("fact",), (Predicate("fact.amount", "range", lo=1.0, hi=2.0),))
        assert complement_query(q, {"dim1.grp"}) is None

    def test_additivity_against_oracle(self, star_db):
        cfg = WorkloadConfig(focus_columns=("fact.amount",), focus_prob=1.0,
                             max_predicates=1)
        queries = gen_workload(star_db, 25, seed=7, cfg=cfg)
        for q in queries:
            if len(q.predicates) != 1 or q.predicates[0].op != "range":
                continue
            cq = complement_query(q, {"fact.amount"})
            base = Query(q.qid, q.scope, ())
            c_all = true_cardinality(star_db.tables, star_db.joins, base)
            c_oq = true_cardinality(star_db.tables, star_db.joins, q)
            c_cq = true_cardinality(star_db.tables, star_db.joins, cq)
            assert c_oq + c_cq == c_all

    # star_db is only read, so one instance can serve every example
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_oq_and_cq_counts_add_up(self, star_db, seed):
        cfg = WorkloadConfig(focus_columns=("fact.amount", "dim2.val"), focus_prob=1.0)
        for q in gen_workload(star_db, 8, seed, cfg):
            ranges = [p for p in q.predicates if p.op == "range"]
            assert ranges  # the focus predicate
            for p in ranges:
                if sum(o.column == p.column for o in q.predicates) != 1:
                    continue
                cq = complement_query(q, {p.column})
                rest = q.with_predicates([o for o in q.predicates if o is not p])
                counts = [true_cardinality(star_db.tables, star_db.joins, x)
                          for x in (q, cq, rest)]
                assert counts[0] + counts[1] == counts[2]
                assert counts == [recount(star_db, x) for x in (q, cq, rest)]


class TestTrueCardinality:
    def test_no_predicates_is_join_size(self, star_db):
        q = Query(0, ("fact", "dim1", "dim2"), ())
        rel = materialize_join(star_db.tables, star_db.joins)
        assert true_cardinality(star_db.tables, star_db.joins, q) == rel.cardinality

    def test_impossible_predicate_zero(self, star_db):
        q = Query(0, ("fact",), (Predicate("fact.amount", "range", lo=-5.0, hi=-1.0),))
        assert true_cardinality(star_db.tables, star_db.joins, q) == 0

    def test_matches_row_by_row_recount(self, star_db):
        for q in gen_workload(star_db, 20, seed=9, cfg=WorkloadConfig()):
            assert true_cardinality(star_db.tables, star_db.joins, q) == recount(star_db, q)


class TestQError:
    def test_basic_values(self):
        assert q_error(10.0, 5.0) == (2.0, None)
        assert q_error(5.0, 10.0) == (2.0, None)
        assert q_error(7.0, 7.0) == (1.0, None)

    def test_exclusions(self):
        assert q_error(0.0, 7.0) == (None, "model-zero")
        assert q_error(7.0, 0.0) == (None, "true-zero")
        assert q_error(0.0, 0.0) == (1.0, None)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            q_error(-1.0, 2.0)

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_lower_bound(self, a, b):
        qa, _ = q_error(a, b)
        qb, _ = q_error(b, a)
        assert qa == qb
        assert qa >= 1.0


class TestPercentiles:
    def test_single_value_all_percentiles(self):
        rows = [QueryResult(0, "OQ", 1.0, 3.0, 0.0, 64, 3.0, None)]
        report = summarize(rows)
        assert all(v == 3.0 for v in report.percentiles["OQ"].values())

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(0)
        vals = list(1.0 + rng.random(37) * 9)
        for pct in (50, 75, 95, 99):
            mine = nearest_rank_percentile(vals, pct)
            ordered = sorted(vals)
            rank = max(1, math.ceil(pct * len(vals) / 100.0))
            assert mine == ordered[rank - 1]

    def test_nondecreasing_in_rank(self):
        rng = np.random.default_rng(1)
        vals = list(1.0 + rng.random(100) * 50)
        pcts = [nearest_rank_percentile(vals, p) for p in (50, 75, 95, 99)]
        assert pcts == sorted(pcts)

    def test_exclusions_counted(self):
        rows = [QueryResult(0, "OQ", 1.0, 2.0, 0.0, 64, 2.0, None),
                QueryResult(1, "OQ", 5.0, 0.0, 0.0, 64, None, "model-zero"),
                QueryResult(2, "CQ", 0.0, 2.0, 0.0, 64, None, "true-zero")]
        report = summarize(rows)
        assert report.excluded == {"model-zero": 1, "true-zero": 1}
        assert not report.degenerate

    def test_degenerate_report(self):
        rows = [QueryResult(0, "OQ", 5.0, 0.0, 0.0, 64, None, "model-zero")]
        assert summarize(rows).degenerate


class TestEvaluate:
    def test_report_shape_and_determinism(self, star_db):
        model = tiny_star_model(star_db)
        queries = gen_workload(star_db, 10, seed=4, cfg=WorkloadConfig())
        labeled = [("OQ", q) for q in queries]
        rel = materialize_join(star_db.tables, star_db.joins)
        r1 = evaluate(model, labeled, star_db.tables, star_db.joins,
                      rel.cardinality, seed=8, num_samples=64)
        r2 = evaluate(model, labeled, star_db.tables, star_db.joins,
                      rel.cardinality, seed=8, num_samples=64)
        assert [r.est_card for r in r1.rows] == [r.est_card for r in r2.rows]
        assert len(r1.rows) == 10

    def test_sem_scales_like_the_estimate(self, star_db):
        # the estimate is what a call without with_error gives, bit for bit.
        # Random weights, so the path weights differ and the error is not 0
        # (a fresh model's conditionals are all uniform)
        from cardest.model import estimate_selectivity
        model = tiny_star_model(star_db)
        model.theta[:] = np.random.default_rng(3).normal(0.0, 0.5, model.theta.size)
        model.theta[:model.keep.size] *= model.keep
        q = gen_workload(star_db, 1, seed=4, cfg=WorkloadConfig())[0]
        total = materialize_join(star_db.tables, star_db.joins).cardinality
        row = evaluate(model, [("OQ", q)], star_db.tables, star_db.joins, total,
                       seed=8, num_samples=64).rows[0]
        cons = model_constraints(model, q)

        def stream():
            return np.random.default_rng(np.random.SeedSequence(entropy=8,
                                                                spawn_key=(0, q.qid)))
        sel = estimate_selectivity(model, cons, 64, stream())
        _, sem, paths = estimate_selectivity(model, cons, 64, stream(), with_error=True)
        assert row.est_card == sel * total
        assert row.est_sem == sem * total > 0.0
        assert row.paths == paths == 64

    def test_threaded_matches_serial(self, star_db):
        model = tiny_star_model(star_db)
        queries = gen_workload(star_db, 8, seed=4, cfg=WorkloadConfig())
        labeled = [("OQ", q) for q in queries] + \
            [("CQ", q) for q in queries[:3]]
        rel = materialize_join(star_db.tables, star_db.joins)
        serial = evaluate(model, labeled, star_db.tables, star_db.joins,
                          rel.cardinality, seed=1, num_samples=32, threads=1)
        threaded = evaluate(model, labeled, star_db.tables, star_db.joins,
                            rel.cardinality, seed=1, num_samples=32, threads=4)
        assert [r.est_card for r in serial.rows] == [r.est_card for r in threaded.rows]


class TestModelConstraints:
    def test_conjunction_on_same_column_multiplies(self, star_db):
        model = tiny_star_model(star_db)
        q = Query(0, ("fact",), (Predicate("fact.amount", "range", lo=0.0, hi=50.0),
                                 Predicate("fact.amount", "range", lo=25.0, hi=100.0)))
        w = model_constraints(model, q)["fact.amount"]
        lone = model_constraints(
            model, Query(0, ("fact",),
                         (Predicate("fact.amount", "range", lo=25.0, hi=50.0),)))
        np.testing.assert_allclose(w, lone["fact.amount"])

    def test_categorical_weights_are_indicator(self, star_db):
        model = tiny_star_model(star_db)
        q = Query(0, ("fact",), (Predicate("fact.color", "eq", value=8.0),))
        w = model_constraints(model, q)["fact.color"]
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])


class TestRemappedConstraints:
    """A remap with the gap (40, 60) on ``fact.amount`` (range [0, 100], 8
    bins): numeric pieces are cut to the retained subranges and mapped."""
    REMAP = NumericRemap(0.0, 100.0, ((0.0, 40.0), (60.0, 100.0)))

    def weights(self, db, *preds, remap=REMAP):
        model = tiny_star_model(db)
        model.columns[model.column_index("fact.amount")].remap = remap
        return model_constraints(model, Query(0, ("fact", "dim2"), preds))

    def test_range_inside_gap_gives_zero_weights(self, star_db):
        w = self.weights(star_db, Predicate("fact.amount", "range", lo=50.0, hi=55.0))
        np.testing.assert_array_equal(w["fact.amount"], np.zeros(8))

    def test_straddling_range_remapped(self, star_db):
        w = self.weights(star_db, Predicate("fact.amount", "range", lo=30.0, hi=70.0))
        np.testing.assert_array_equal(w["fact.amount"],
                                      interval_bin_weights(37.5, 62.5, 0.0, 100.0, 8))

    def test_outside_predicate_clamped(self, star_db):
        # 20 and 80 map to 25 and 75; the outer ends stay at the column ends
        w = self.weights(star_db, Predicate("fact.amount", "outside", lo=20.0, hi=80.0))
        np.testing.assert_array_equal(
            w["fact.amount"], interval_bin_weights(0.0, 25.0, 0.0, 100.0, 8) +
            interval_bin_weights(75.0, 100.0, 0.0, 100.0, 8))

    def test_outside_with_one_side_deleted_ends_at_column_end(self, star_db):
        # nothing retained below 2; the image of 100 here is 99.99999999999999
        remap = NumericRemap(0.0, 100.0, ((5.0, 30.0), (77.7, 100.0)))
        w = self.weights(star_db, Predicate("fact.amount", "outside", lo=2.0, hi=90.0),
                         remap=remap)
        lo = float(remap_array(remap, [90.0])[0])
        np.testing.assert_array_equal(w["fact.amount"],
                                      interval_bin_weights(lo, 100.0, 0.0, 100.0, 8))

    def test_column_without_remap_unchanged(self, star_db):
        w = self.weights(star_db, Predicate("fact.color", "eq", value=8.0),
                         Predicate("dim2.val", "range", lo=1.0, hi=2.0))
        np.testing.assert_array_equal(w["fact.color"], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(w["dim2.val"],
                                      interval_bin_weights(1.0, 2.0, 0.0, 100.0, 8))


class TestConvergenceTrace:
    def test_identical_traces_identical_curves(self):
        out = convergence_trace({"a": [3.0, 2.0, 1.0], "b": [3.0, 2.0, 1.0]})
        np.testing.assert_array_equal(out["a"], out["b"])

    def test_length_one_constant(self):
        out = convergence_trace({"a": [4.2]})
        assert (out["a"] == 4.2).all()

    def test_linear_trace_interpolation_error(self):
        trace = list(np.linspace(10.0, 0.0, 200))
        step_delta = abs(trace[1] - trace[0])
        out = convergence_trace({"a": trace})["a"]
        expected = np.linspace(10.0, 0.0, 101)
        assert np.abs(out - expected).max() < step_delta


class TestEnvAndErrors:
    def test_true_cardinality_cap(self, star_db):
        q = Query(0, ("fact", "dim1"), ())
        from cardest.errors import SizeError
        with pytest.raises(SizeError):
            true_cardinality(star_db.tables, star_db.joins, q, cap=2)

    def test_unknown_scope_table(self, star_db):
        q = Query(0, ("fact", "nope"), ())
        with pytest.raises(ValidationError):
            true_cardinality(star_db.tables, star_db.joins, q)
