import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardest.errors import (ConfigurationError, EmptyRelationError, SizeError,
                            ValidationError)
from cardest.relational import (CATEGORICAL, NUMERICAL, ColumnSpec, Condition,
                                DeletionTask, Join, SchemaGraph, apply_deletion,
                                _read_csv, count_join, empirical_pmf, join_keys,
                                load_dataset, materialize_join, save_dataset,
                                semi_join_deletion)
from conftest import (chain_splits, connected_scopes, make_table, nested_loop_join,
                      reference_read_csv, reference_save_csv, star_splits,
                      undirected_hub_paths)


def single_table_db(years):
    t = make_table("t", [("year", NUMERICAL, (years, 1990.0, 2020.0))])
    return SchemaGraph([t], [], hub="t")


class TestApplyDeletion:
    def test_full_matching_subset(self):
        years = [1999, 2000, 2005, 1990, 1991, 1992, 1993, 2015, 2016, 2017]
        db = single_table_db(years)
        task = DeletionTask("A", (Condition("t", "year", lo=1999, hi=2010),), 1.0)
        split = apply_deletion(db, task, seed=0)
        assert split.deleted[0].row_count == 3
        assert split.retained[0].row_count == 7

    def test_random_rounding(self):
        db = single_table_db(list(range(1990, 2000)))
        task = DeletionTask("R", (Condition("t"),), 0.3)
        split = apply_deletion(db, task, seed=1)
        assert split.deleted[0].row_count == 3

    def test_minimum_one_row(self):
        db = single_table_db(list(range(1990, 2000)))
        task = DeletionTask("R", (Condition("t"),), 0.01)
        split = apply_deletion(db, task, seed=1)
        assert split.deleted[0].row_count == 1

    def test_half_ratio_deterministic(self):
        years = [1999, 2000, 2005, 2007, 1990, 1991]
        db = single_table_db(years)
        task = DeletionTask("A", (Condition("t", "year", lo=1999, hi=2010),), 0.5)
        s1 = apply_deletion(db, task, seed=9)
        s2 = apply_deletion(db, task, seed=9)
        assert s1.deleted[0].row_count == 2
        np.testing.assert_array_equal(s1.deleted[0].column("year"),
                                      s2.deleted[0].column("year"))

    def test_split_completeness(self, star_db):
        task = DeletionTask("A", (Condition("fact", "amount", lo=10, hi=70),), 0.5)
        for seed in range(5):
            split = apply_deletion(star_db, task, seed=seed)
            for i, table in enumerate(star_db.tables):
                kept, gone = split.retained[i], split.deleted[i]
                for j, col in enumerate(table.data):
                    np.testing.assert_array_equal(
                        np.sort(np.concatenate([kept.data[j], gone.data[j]])), np.sort(col))
            amount = split.deleted[0].column("amount")
            assert amount.size and ((amount >= 10) & (amount <= 70)).all()

    @given(star_splits())
    @settings(max_examples=50, deadline=None)
    def test_split_is_database_plus_deleted_rows(self, db_split):
        db, split = db_split
        assert split.original is db.tables
        assert len(split.deleted_rows) == len(db.tables)
        for i, (table, rows) in enumerate(zip(db.tables, split.deleted_rows)):
            assert rows.dtype == np.int64 and (np.diff(rows) > 0).all()
            assert rows.size == 0 or 0 <= rows[0] <= rows[-1] < table.row_count
            rest = np.setdiff1d(np.arange(table.row_count), rows)
            for got, idx in ((split.retained[i], rest), (split.deleted[i], rows)):
                assert got.name == table.name and got.columns is table.columns
                for a, b in zip(got.data, table.take(idx).data):
                    np.testing.assert_array_equal(a, b)
        assert split.tables_with_deletions() == [t.name for t in split.deleted if t.row_count]

    def test_unknown_table_and_column(self, star_db):
        task = DeletionTask("A", (Condition("nope", "amount", lo=0, hi=1),), 0.5)
        with pytest.raises(ConfigurationError):
            apply_deletion(star_db, task, seed=0)
        task = DeletionTask("A", (Condition("fact", "nope", lo=0, hi=1),), 0.5)
        with pytest.raises(ConfigurationError):
            apply_deletion(star_db, task, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValidationError):
            DeletionTask("A", (Condition("t", "year", lo=0, hi=1),), 0.0)
        with pytest.raises(ValidationError):
            DeletionTask("A", (Condition("t", "year", lo=0, hi=1),), 1.5)


class TestMaterializeJoin:
    def two_table(self, fks):
        parent = make_table("p", [("id", CATEGORICAL, ([1, 2], [0, 1, 2])),
                                  ("tag", CATEGORICAL, ([0, 1], [10, 11]))])
        child = make_table("c", [("fk", CATEGORICAL, (fks, [0, 1, 2])),
                                 ("x", NUMERICAL, (list(range(len(fks))), 0.0, 10.0))])
        return [child, parent], [Join("c", "fk", "p", "id")]

    def test_hand_join(self):
        tables, joins = self.two_table([1, 1, 2])
        rel = materialize_join(tables, joins)
        assert rel.cardinality == 3

    def test_empty_child(self):
        tables, joins = self.two_table([])
        rel = materialize_join(tables, joins)
        assert rel.cardinality == 0

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        dim_a = make_table("a", [("id", CATEGORICAL, (np.arange(20), np.arange(20))),
                                 ("g", CATEGORICAL, (rng.integers(0, 2, 20), [0, 1]))])
        dim_b = make_table("b", [("id", CATEGORICAL, (np.arange(30), np.arange(30))),
                                 ("h", CATEGORICAL, (rng.integers(0, 3, 30), [0, 1, 2]))])
        hub = make_table("hub", [
            ("fa", CATEGORICAL, (rng.integers(0, 20, 10), np.arange(20))),
            ("fb", CATEGORICAL, (rng.integers(0, 30, 10), np.arange(30))),
        ])
        joins = [Join("hub", "fa", "a", "id"), Join("hub", "fb", "b", "id")]
        rel = materialize_join([hub, dim_a, dim_b], joins)
        oracle = nested_loop_join([hub, dim_a, dim_b], joins)
        assert rel.cardinality == len(oracle)

    def test_table_order_invariance(self, star_db):
        rel1 = materialize_join(star_db.tables, star_db.joins)
        shuffled = [star_db.tables[2], star_db.tables[0], star_db.tables[1]]
        rel2 = materialize_join(shuffled, star_db.joins)
        names = [s.name for s in rel1.columns]
        rows1 = sorted(map(tuple, np.stack([rel1.column(n) for n in names], axis=1).tolist()))
        rows2 = sorted(map(tuple, np.stack([rel2.column(n) for n in names], axis=1).tolist()))
        assert rows1 == rows2

    def test_cap(self, star_db):
        with pytest.raises(SizeError):
            materialize_join(star_db.tables, star_db.joins, cap=5)

    def test_column_layout_hub_first(self, star_db):
        rel = materialize_join(star_db.tables, star_db.joins)
        names = [s.name for s in rel.columns]
        assert names[0].startswith("fact.")
        # join keys, on both sides of each join, are not attributes
        assert not {"dim1.id", "dim2.id", "fact.d1", "fact.d2"} & set(names)


class TestSemiJoinDeletion:
    def make_split(self, *conditions):
        dim = make_table("dim", [("id", CATEGORICAL, ([1, 2], [0, 1, 2])),
                                 ("tag", CATEGORICAL, ([0, 1], [10, 11]))])
        fact = make_table("fact", [("fk", CATEGORICAL, ([1, 1, 2], [0, 1, 2])),
                                   ("p", CATEGORICAL, ([0, 1, 2], [5, 6, 7]))])
        db = SchemaGraph([fact, dim], [Join("fact", "fk", "dim", "id")], hub="fact")
        # delete dim row id=1 (code with original value 1 -> tag 10)
        conditions = (Condition("dim", "id", value=1),) + conditions
        task = DeletionTask("A", conditions, 1.0)
        return apply_deletion(db, task, seed=0)

    def test_hand_semi_join(self):
        split = self.make_split()
        rel = semi_join_deletion(split, 1)  # dim is table index 1
        assert rel.cardinality == 2
        np.testing.assert_array_equal(np.sort(rel.column("fact.p")), [0, 1])

    def test_other_tables_stay_original(self):
        # fact also loses its row with p=5 (code 0), which references dim id=1
        split = self.make_split(Condition("fact", "p", value=5))
        assert split.retained[0].row_count == 2
        # the semi-join pairs deleted dim rows with the original fact table,
        # so the deleted fact row still counts
        rel = semi_join_deletion(split, 1)
        assert rel.cardinality == 2
        np.testing.assert_array_equal(np.sort(rel.column("fact.p")), [0, 1])

    def test_empty_deleted_subset(self, star_db):
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=100),), 1.0)
        split = apply_deletion(star_db, task, seed=0)
        rel = semi_join_deletion(split, 1)  # dim1 has no deletions
        assert rel.cardinality == 0

    def test_three_table_oracle(self, star_db):
        task = DeletionTask("A", (Condition("dim1", "grp", value=50),), 1.0)
        split = apply_deletion(star_db, task, seed=0)
        k = 1  # dim1
        tables = [split.original_table("fact"), split.deleted[1],
                  split.original_table("dim2")]
        oracle = nested_loop_join(tables, split.joins)
        rel = semi_join_deletion(split, k)
        assert rel.cardinality == len(oracle)

    def test_single_table_consistency(self, star_db):
        # with one affected table, the deleted join and the all-retained
        # join partition the full join exactly
        task = DeletionTask("A", (Condition("fact", "amount", lo=0, hi=60),), 0.7)
        split = apply_deletion(star_db, task, seed=3)
        full = split.original_join().cardinality
        retained_only = materialize_join(
            [split.retained[0], split.original_table("dim1"),
             split.original_table("dim2")], split.joins).cardinality
        assert semi_join_deletion(split, 0).cardinality == full - retained_only


def star_join_rows(tables, joins):
    """Brute-force star join, the hub listed first and every join from the
    hub to one dimension: for each hub row, a nested loop over each
    dimension's rows keeps those whose key equals the hub row's foreign key.
    Returns the output column names (every column except the keys on both
    sides of each join) and the sorted output rows."""
    hub, dims = tables[0], {t.name: t for t in tables[1:]}
    fks = {j.fk for j in joins}
    hub_cols = [(spec, col) for spec, col in zip(hub.columns, hub.data)
                if spec.name not in fks]
    names = [f"{hub.name}.{spec.name}" for spec, _ in hub_cols]
    for j in joins:
        names += [f"{j.parent}.{spec.name}" for spec in dims[j.parent].columns
                  if spec.name != j.pk]
    rows = []
    for h in range(hub.row_count):
        combos = [[]]
        for j in joins:
            dim, fk = dims[j.parent], hub.column(j.fk)[h]
            keys, others = dim.column(j.pk), [
                col for spec, col in zip(dim.columns, dim.data) if spec.name != j.pk]
            matches = [[float(col[d]) for col in others]
                       for d in range(dim.row_count) if keys[d] == fk]
            combos = [c + m for c in combos for m in matches]
        rows += [tuple([float(col[h]) for _, col in hub_cols] + c) for c in combos]
    return names, sorted(rows)


def relation_rows(rel, names):
    assert sorted(s.name for s in rel.columns) == sorted(names)
    return sorted(zip(*[rel.column(n).astype(np.float64).tolist() for n in names]))


class TestJoinPathProperties:
    """The split's joins against brute force over the generated (pre-split)
    tables, compared as sorted row multisets."""

    @given(star_splits())
    @settings(max_examples=25, deadline=None)
    def test_semi_join_matches_nested_loop(self, db_split):
        db, split = db_split
        for k in range(len(db.tables)):
            tables = list(db.tables)
            tables[k] = split.deleted[k]
            names, expected = star_join_rows(tables, db.joins)
            assert relation_rows(semi_join_deletion(split, k), names) == expected

    @given(star_splits())
    @settings(max_examples=25, deadline=None)
    def test_original_join_matches_nested_loop(self, db_split):
        db, split = db_split
        names, expected = star_join_rows(db.tables, db.joins)
        assert relation_rows(split.original_join(), names) == expected

    @given(st.one_of(star_splits(), chain_splits()))
    @settings(max_examples=60, deadline=None)
    def test_count_join_is_the_join_size(self, db_split):
        # deleted and retained tables hold orphans at every depth of a chain
        db, split = db_split
        for tables in (split.original, split.retained, split.deleted):
            for scope in connected_scopes(tables, db.joins):
                assert count_join(scope, db.joins, {}) == \
                    materialize_join(scope, db.joins).cardinality

    @given(st.one_of(star_splits(), chain_splits()))
    @settings(max_examples=30, deadline=None)
    def test_hub_paths_match_an_undirected_search(self, db_split):
        db, _ = db_split
        assert db.hub_paths() == undirected_hub_paths(db)


# floats whose repr takes every form: signed zero, integral, exponent
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 1e16, 1e-5]),
                   st.integers(-10**6, 10**6).map(float), st.floats(allow_nan=False))


@st.composite
def csv_tables(draw):
    """A table of 0-50 rows of categorical codes and floats."""
    n = draw(st.integers(0, 50))
    cols = []
    for c in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            size = draw(st.integers(1, 300))
            codes = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
            cols.append((f"c{c}", CATEGORICAL, (codes, np.arange(size))))
        else:
            vals = draw(st.lists(FLOATS, min_size=n, max_size=n))
            cols.append((f"c{c}", NUMERICAL, (vals, 0.0, 0.0)))
    return make_table("t", cols)


class TestCsvPersistence:
    """Table files against the cell-at-a-time csv loops in conftest."""

    @given(csv_tables())
    @settings(max_examples=60, deadline=None)
    def test_matches_csv_module_reference(self, t):
        header = [spec.name for spec in t.columns]
        with tempfile.TemporaryDirectory() as d:
            save_dataset(SchemaGraph([t], [], hub="t"), Path(d) / "new")
            reference_save_csv(Path(d) / "ref.csv", t)
            path = Path(d) / "new" / "t.csv"
            assert path.read_bytes() == (Path(d) / "ref.csv").read_bytes()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _read_csv(path, header)
            want = reference_read_csv(path, header)
        for name in header:
            assert got[name].dtype == want[name].dtype
            assert np.array_equal(got[name], want[name])
            assert got[name].tobytes() == want[name].tobytes()  # -0.0 keeps its sign

    def test_header_only_table_loads_empty(self, tmp_path):
        t = make_table("t", [("a", CATEGORICAL, ([], [5])), ("b", NUMERICAL, ([], 0.0, 1.0))])
        save_dataset(SchemaGraph([t], [], hub="t"), tmp_path)
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "input contained no data"
            loaded = load_dataset(tmp_path).tables[0]
        assert loaded.row_count == 0
        assert [col.dtype for col in loaded.data] == [np.int64, np.float64]

    @pytest.mark.parametrize("code", [-1, 2])
    def test_save_rejects_code_outside_domain(self, tmp_path, code):
        t = make_table("t", [("a", CATEGORICAL, ([0, code], [5, 6]))])
        with pytest.raises(ValidationError, match=r"t.a: code outside 0..1"):
            save_dataset(SchemaGraph([t], [], hub="t"), tmp_path)


class TestEmpiricalPmf:
    def test_categorical_frequencies(self):
        spec = ColumnSpec("c", CATEGORICAL, dictionary=np.array([1, 2, 3]))
        pmf = empirical_pmf(np.array([0, 0, 1, 2]), spec)
        np.testing.assert_allclose(pmf, [0.5, 0.25, 0.25])
        assert abs(pmf.sum() - 1.0) < 1e-12

    def test_single_value(self):
        spec = ColumnSpec("c", CATEGORICAL, dictionary=np.array([4]))
        np.testing.assert_allclose(empirical_pmf(np.array([0, 0]), spec), [1.0])

    def test_numeric_bins_uniform(self):
        rng = np.random.default_rng(0)
        spec = ColumnSpec("n", NUMERICAL, lo=0.0, hi=1.0)
        pmf = empirical_pmf(rng.random(20_000), spec, bins=2)
        np.testing.assert_allclose(pmf, [0.5, 0.5], atol=0.02)

    def test_empty_rejected(self):
        spec = ColumnSpec("c", CATEGORICAL, dictionary=np.array([1]))
        with pytest.raises(EmptyRelationError):
            empirical_pmf(np.array([], dtype=np.int64), spec)


def test_join_columns_are_the_attributes(star_db):
    # every join relation holds the same non-key columns in table order,
    # also a scope that leaves a join out
    rel = materialize_join(star_db.tables, star_db.joins)
    assert [s.name for s in rel.columns] == ["fact.color", "fact.amount", "dim1.grp",
                                             "dim2.val"]
    hub_only = materialize_join(star_db.tables[:1], star_db.joins)
    assert [s.name for s in hub_only.columns] == ["fact.color", "fact.amount"]
    assert join_keys(star_db.joins) == {("fact", "d1"), ("dim1", "id"), ("fact", "d2"),
                                        ("dim2", "id")}


def test_join_graph_must_reach_every_table(star_db):
    # two edges for three tables, but both between the dimensions
    joins = [Join("dim1", "id", "dim2", "id"), Join("dim2", "id", "dim1", "id")]
    with pytest.raises(ValidationError, match="not connected"):
        SchemaGraph(star_db.tables, joins, hub="fact").validate()
    assert star_db.hub_paths() == {"fact": set(), "dim1": {"fact"}, "dim2": {"fact"}}
