"""Typed in-memory relations: tables, deletion splits, joins.

Tables are stored columnar.  Categorical cells hold dense dictionary codes
(0..n-1) with a per-column code -> original-value map; numerical cells hold
raw values inside declared bounds.  A join graph is a tree rooted at a hub
(fact) table: every table is reached from the hub by following foreign keys
(child to parent), no table references the hub, join keys are categorical
codes, and every foreign-key code has exactly one primary-key row.  So the
inner join equals the full outer join and never exceeds the hub's row count.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, EmptyRelationError, SizeError,
                     ValidationError)

CATEGORICAL = "categorical"
NUMERICAL = "numerical"

JOIN_CAP_DEFAULT = 5_000_000


@dataclass(frozen=True, eq=False)
class ColumnSpec:
    name: str
    kind: str
    dictionary: np.ndarray | None = None  # categorical: code -> original value
    lo: float = 0.0                       # numerical bounds
    hi: float = 0.0

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise ValidationError(f"unknown column kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.dictionary is None or len(self.dictionary) == 0:
                raise ValidationError(f"categorical column {self.name!r} needs a dictionary")
        else:
            if self.hi < self.lo:
                raise ValidationError(f"column {self.name!r}: hi < lo")

    @property
    def domain_size(self) -> int:
        if self.kind == CATEGORICAL:
            return len(self.dictionary)
        raise ValidationError(f"{self.name!r} has a continuous domain")


@dataclass(eq=False)
class TableData:
    name: str
    columns: list[ColumnSpec]
    data: list[np.ndarray]

    def __post_init__(self):
        if len(self.columns) != len(self.data):
            raise ValidationError(f"table {self.name!r}: column/data length mismatch")
        n = self.row_count
        for spec, col in zip(self.columns, self.data):
            if len(col) != n:
                raise ValidationError(f"table {self.name!r}: ragged column {spec.name!r}")

    @property
    def row_count(self) -> int:
        return 0 if not self.data else len(self.data[0])

    def column(self, name: str) -> np.ndarray:
        return self.data[self._index(name)]

    def spec(self, name: str) -> ColumnSpec:
        return self.columns[self._index(name)]

    def _index(self, name: str) -> int:
        for i, spec in enumerate(self.columns):
            if spec.name == name:
                return i
        raise ConfigurationError(f"unknown column {name!r} in table {self.name!r}")

    def take(self, idx: np.ndarray) -> "TableData":
        return TableData(self.name, self.columns, [col[idx] for col in self.data])

    def validate_cells(self):
        for spec, col in zip(self.columns, self.data):
            if spec.kind == CATEGORICAL:
                if col.size and (col.min() < 0 or col.max() >= spec.domain_size):
                    raise ValidationError(
                        f"{self.name}.{spec.name}: code outside 0..{spec.domain_size - 1}")
            else:
                if not ((col >= spec.lo) & (col <= spec.hi)).all():  # nan fails too
                    raise ValidationError(
                        f"{self.name}.{spec.name}: value outside [{spec.lo}, {spec.hi}]")


@dataclass(frozen=True, eq=False)
class Join:
    child: str      # referencing table (nearer the hub)
    fk: str
    parent: str     # referenced table
    pk: str


@dataclass(eq=False)
class SchemaGraph:
    tables: list[TableData]
    joins: list[Join]
    hub: str

    def table(self, name: str) -> TableData:
        return _named(self.tables, name)

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def hub_paths(self) -> dict[str, set[str]]:
        """Per table reached from the hub by following foreign keys, the
        tables on its path to the hub: the hub and every table between, but
        not the table itself."""
        paths = {self.hub: set()}
        for j in _walk(self.joins, self.hub):
            paths[j.parent] = paths[j.child] | {j.child}
        return paths

    def validate(self):
        """Raise unless every join this schema allows can be built."""
        names = self.table_names()
        if len(set(names)) != len(names):
            raise ValidationError("duplicate table names")
        if self.hub not in names:
            raise ConfigurationError(f"hub table {self.hub!r} missing")
        if len(self.joins) != len(names) - 1:
            raise ValidationError("join graph is not a tree (edge count)")
        if any(j.parent == self.hub for j in self.joins):
            raise ValidationError("hub must not be referenced as a parent")
        walk = _walk(self.joins, self.hub)
        unreached = sorted(set(names) - {self.hub, *(j.parent for j in walk)})
        if unreached:
            raise ValidationError(f"join graph is not connected: {unreached} not reached "
                                  f"from hub {self.hub!r} by following foreign keys")
        for t in self.tables:  # first, so that every key code indexes its domain
            t.validate_cells()
        for j in walk:
            child, parent = self.table(j.child), self.table(j.parent)
            for table, key in ((child, j.fk), (parent, j.pk)):
                if table.spec(key).kind != CATEGORICAL:
                    raise ValidationError(f"join key {table.name}.{key} is not categorical")
            lut = _pk_lookup(parent, j.pk)
            if np.count_nonzero(lut >= 0) != parent.row_count:
                raise ValidationError(f"{j.parent}.{j.pk} is not unique")
            fk = child.column(j.fk)
            if fk.size and (fk.max() >= lut.size or lut[fk].min() < 0):
                raise ValidationError(
                    f"incomplete FK coverage: {j.child}.{j.fk} -> {j.parent}.{j.pk}")


# ---------------------------------------------------------------------------
# deletion tasks


@dataclass(frozen=True, eq=False)
class Condition:
    """Per-table deletion condition.

    Attribute tasks give a column plus either an equality value or an
    inclusive [lo, hi] range over original values; random tasks give the
    table only.
    """
    table: str
    column: str | None = None
    value: float | None = None
    lo: float | None = None
    hi: float | None = None


@dataclass(frozen=True, eq=False)
class DeletionTask:
    dtype: str                      # "A" | "R"
    conditions: tuple[Condition, ...]
    ratio: float

    def __post_init__(self):
        if self.dtype not in ("A", "R"):
            raise ValidationError(f"unknown deletion type {self.dtype!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValidationError(f"ratio {self.ratio} outside (0, 1]")
        if not self.conditions:
            raise ValidationError("deletion task needs at least one condition")
        for c in self.conditions:
            if self.dtype == "A":
                if c.column is None:
                    raise ValidationError(f"A-task condition on {c.table!r} needs a column")
                if c.value is None and (c.lo is None or c.hi is None):
                    raise ValidationError(
                        f"A-task condition on {c.table}.{c.column} needs a value or range")
            for key in ("value", "lo", "hi"):
                v = getattr(c, key)
                if v is not None and (isinstance(v, bool) or not isinstance(v, Real)
                                      or math.isnan(v)):
                    raise ValidationError(f"condition on {c.table}: {key} must be a number, "
                                          f"not {v!r}")
            if c.lo is not None and c.hi is not None and c.lo > c.hi:
                raise ValidationError(f"condition on {c.table}: lo {c.lo} exceeds hi {c.hi}")

    @property
    def scope(self) -> int:
        return len(self.conditions)

    @property
    def name(self) -> str:
        return f"{self.dtype}-{self.scope}-{self.ratio:g}"

    def condition_columns(self) -> list[tuple[str, str]]:
        return [(c.table, c.column) for c in self.conditions if c.column is not None]


@dataclass(eq=False)
class DatasetSplit:
    """A database and, per table in table order, the sorted indices of the
    rows a deletion task deletes.  The original tables are the database's;
    the retained and deleted ones are derived from the indices once."""
    db: SchemaGraph
    deleted_rows: list[np.ndarray]

    @property
    def original(self) -> list[TableData]:
        return self.db.tables

    @property
    def joins(self) -> list[Join]:
        return self.db.joins

    @cached_property
    def retained(self) -> list[TableData]:
        return [t.take(np.delete(np.arange(t.row_count), rows))
                for t, rows in zip(self.db.tables, self.deleted_rows)]

    @cached_property
    def deleted(self) -> list[TableData]:
        return [t.take(rows) for t, rows in zip(self.db.tables, self.deleted_rows)]

    def retained_table(self, name: str) -> TableData:
        return _named(self.retained, name)

    def original_table(self, name: str) -> TableData:
        return self.db.table(name)

    def tables_with_deletions(self) -> list[str]:
        return [t.name for t, rows in zip(self.db.tables, self.deleted_rows) if rows.size]

    def retained_join(self, cap: int = JOIN_CAP_DEFAULT) -> "JoinRelation":
        return materialize_join(self.retained, self.joins, cap=cap)

    def original_join(self, cap: int = JOIN_CAP_DEFAULT) -> "JoinRelation":
        return materialize_join(self.original, self.joins, cap=cap)


def _named(tables: list[TableData], name: str) -> TableData:
    for t in tables:
        if t.name == name:
            return t
    raise ConfigurationError(f"unknown table {name!r}")


def condition_mask(table: TableData, cond: Condition) -> np.ndarray:
    """Boolean mask of rows matching an attribute condition (original values)."""
    if cond.column is None:
        return np.ones(table.row_count, dtype=bool)
    spec = table.spec(cond.column)
    col = table.column(cond.column)
    if spec.kind == CATEGORICAL:
        originals = spec.dictionary[col]
    else:
        originals = col
    if cond.value is not None:
        return originals == cond.value
    return (originals >= cond.lo) & (originals <= cond.hi)


def apply_deletion(db: SchemaGraph, task: DeletionTask, seed: int) -> DatasetSplit:
    """The rows of every table that a deletion task deletes.

    The deleted count per affected table is round(ratio * |matching rows|),
    at least 1 when the ratio is positive and anything matches.  Row choice
    within the matching set is drawn from a generator seeded with ``seed``,
    so reruns are identical.
    """
    by_table = {}
    for cond in task.conditions:
        if cond.table not in db.table_names():
            raise ConfigurationError(f"unknown table {cond.table!r} in deletion task")
        if cond.column is not None:
            db.table(cond.table)._index(cond.column)  # raises on unknown column
        by_table.setdefault(cond.table, []).append(cond)

    rng = np.random.default_rng(seed)
    deleted_rows = []
    for table in db.tables:
        mask = np.zeros(table.row_count, dtype=bool)
        for cond in by_table.get(table.name, []):
            mask |= condition_mask(table, cond)
        match = np.flatnonzero(mask)
        n_del = min(max(1, round(task.ratio * match.size)), match.size)
        deleted_rows.append(match if n_del == match.size else
                            np.sort(rng.choice(match, size=n_del, replace=False)))
    return DatasetSplit(db, deleted_rows)


# ---------------------------------------------------------------------------
# joins


@dataclass(eq=False)
class JoinRelation:
    """Materialized join over a connected subtree of tables containing the root.

    ``data`` holds one array per output column.  The columns are exactly the
    model attributes: the root table's columns followed by the other
    tables' in their given order, without any join key (``join_keys``).
    """
    columns: list[ColumnSpec]       # qualified "table.column" names
    data: list[np.ndarray]
    cardinality: int

    def column(self, qualified: str) -> np.ndarray:
        for spec, col in zip(self.columns, self.data):
            if spec.name == qualified:
                return col
        raise ConfigurationError(f"unknown join column {qualified!r}")


def _walk(joins: list[Join], root: str) -> list[Join]:
    """The joins reached from ``root`` by following foreign keys (child to
    parent), root-outward: each join's child is ``root`` or the parent of an
    earlier join.  A table is reached once, so a cycle ends the walk."""
    walk, reached = [], [root]
    for name in reached:  # grows as the walk reaches parents
        for j in joins:
            if j.child == name and j.parent not in reached:
                walk.append(j)
                reached.append(j.parent)
    return walk


def _scope(tables: list[TableData], joins: list[Join], cap: int
           ) -> tuple[list[Join], str, dict[str, TableData]]:
    """The walk over a connected subtree of ``tables`` from its root, the
    root, and the tables by name.  Raises SizeError when the root's row
    count exceeds ``cap`` (the ``join_cap`` config key)."""
    lookup = {t.name: t for t in tables}
    joins = [j for j in joins if j.child in lookup and j.parent in lookup]
    if len(joins) != len(lookup) - 1:
        raise ValidationError("tables do not form a connected join subtree")
    roots = [name for name in lookup if all(j.parent != name for j in joins)]
    if len(roots) != 1:
        raise ValidationError(f"join scope must have exactly one root, got {roots}")
    root = roots[0]
    walk = _walk(joins, root)
    if len(walk) != len(joins):
        raise ValidationError("join edges do not reach all scope tables from the root")
    if lookup[root].row_count > cap:
        raise SizeError(f"estimated join size {lookup[root].row_count} exceeds cap {cap}; "
                        "raise the join_cap config key")
    return walk, root, lookup


def _pk_lookup(parent: TableData, pk: str) -> np.ndarray:
    """Dense pk-code -> row index map (-1 where the code has no row)."""
    codes = parent.column(pk)
    size = parent.spec(pk).domain_size
    lut = np.full(size, -1, dtype=np.int64)
    lut[codes] = np.arange(len(codes), dtype=np.int64)
    return lut


def join_keys(joins: list[Join]) -> set[tuple[str, str]]:
    """The (table, column) pair of every join key, on both sides of each
    join.  Keys only connect tables: no join relation, and so no model or
    workload, has them as attributes."""
    return {key for j in joins for key in ((j.child, j.fk), (j.parent, j.pk))}


def materialize_join(tables: list[TableData], joins: list[Join],
                     cap: int = JOIN_CAP_DEFAULT) -> JoinRelation:
    """Exact inner join of a connected subtree (root table listed first).

    The row indices of the root's rows are carried down the walk: each join
    looks its child rows' keys up in the parent, and a key with no parent
    row drops that joined row from every table.  So the same routine joins
    retained or deleted table versions.  The key columns of every join
    passed are dropped, also where the scope leaves that join out.  Raises
    SizeError when the root's row count exceeds ``cap`` (the ``join_cap``
    config key).
    """
    keys = join_keys(joins)
    walk, root, lookup = _scope(tables, joins, cap)
    row_idx = {root: np.arange(lookup[root].row_count, dtype=np.int64)}
    for j in walk:
        fk = lookup[j.child].column(j.fk)[row_idx[j.child]]
        pidx = _pk_lookup(lookup[j.parent], j.pk)[fk]
        hit = pidx >= 0
        if not hit.all():
            for name in row_idx:
                row_idx[name] = row_idx[name][hit]
            pidx = pidx[hit]
        row_idx[j.parent] = pidx

    cols, data = [], []
    for t in [lookup[root]] + [t for t in tables if t.name != root]:
        for spec, col in zip(t.columns, t.data):
            if (t.name, spec.name) not in keys:
                cols.append(replace(spec, name=f"{t.name}.{spec.name}"))
                data.append(col[row_idx[t.name]])
    return JoinRelation(columns=cols, data=data, cardinality=len(row_idx[root]))


def count_join(tables: list[TableData], joins: list[Join], masks: dict[str, np.ndarray],
               cap: int = JOIN_CAP_DEFAULT) -> int:
    """Rows of ``materialize_join(tables, joins)`` whose row of each table
    named in ``masks`` is True there, counted without building the join.

    Every key is unique in its table, so a root row joins at most one row of
    each other table.  A table's rows pass when their own mask holds and the
    row each of its foreign keys references exists and passes.  Folding the
    walk in reverse settles every parent before its child, so each join
    carries its parent's final pass mask one table nearer the root through
    the primary-key lookup; the count is the root rows that pass.  Raises
    SizeError as ``materialize_join`` does.
    """
    walk, root, lookup = _scope(tables, joins, cap)
    ok = {name: masks.get(name, np.ones(t.row_count, dtype=bool))
          for name, t in lookup.items()}
    for j in reversed(walk):
        pidx = _pk_lookup(lookup[j.parent], j.pk)[lookup[j.child].column(j.fk)]
        # a key with no parent row (-1) reads the appended False
        ok[j.child] = ok[j.child] & np.append(ok[j.parent], False)[pidx]
    return int(np.count_nonzero(ok[root]))


def semi_join_deletion(split: DatasetSplit, table_index: int,
                       cap: int = JOIN_CAP_DEFAULT) -> JoinRelation:
    """Join with one table replaced by its deleted subset, the others full.

    ``table_index`` indexes the split's table list (0-based).  An empty
    deleted subset yields a valid empty relation (cardinality 0)."""
    if not 0 <= table_index < len(split.deleted_rows):
        raise ValidationError(f"table index {table_index} out of range")
    tables = list(split.original)
    tables[table_index] = split.deleted[table_index]
    return materialize_join(tables, split.joins, cap=cap)


def empirical_pmf(values: np.ndarray, spec: ColumnSpec, bins: int = 64) -> np.ndarray:
    """Empirical pmf of a column: per-code frequencies for categorical
    columns, equal-width-bin frequencies over [lo, hi] for numerical ones."""
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyRelationError(f"empirical pmf of {spec.name!r} needs rows")
    if spec.kind == CATEGORICAL:
        counts = np.bincount(values.astype(np.int64), minlength=spec.domain_size)
    else:
        idx = numeric_bin_index(values.astype(np.float64), spec.lo, spec.hi, bins)
        counts = np.bincount(idx, minlength=bins)
    return counts / counts.sum()


def numeric_bin_index(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Equal-width bin index over [lo, hi]; the top edge folds into the last bin."""
    if hi <= lo:
        return np.zeros(len(values), dtype=np.int64)
    idx = np.floor((values - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


# ---------------------------------------------------------------------------
# persistence: CSV tables + dictionaries + line-oriented schema file, all UTF-8


def save_dataset(db: SchemaGraph, directory: str | Path):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for t in db.tables:
        lines.append(f"table {t.name}")
        for spec in t.columns:
            if spec.kind == CATEGORICAL:
                lines.append(f"column {spec.name} categorical")
            else:
                lines.append(f"column {spec.name} numerical {spec.lo!r} {spec.hi!r}")
        with open(directory / f"{t.name}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow([spec.name for spec in t.columns])
            if t.row_count:
                cells = [_cell_text(t.name, spec, col) for spec, col in zip(t.columns, t.data)]
                fh.write("\r\n".join(map(",".join, zip(*cells))))
                fh.write("\r\n")  # csv.writer's row terminator
        for spec in t.columns:
            if spec.kind == CATEGORICAL:
                with open(directory / f"{t.name}__{spec.name}.dict", "w", encoding="utf-8") as fh:
                    for code, val in enumerate(spec.dictionary):
                        fh.write(f"{code},{int(val)}\n")
    for j in db.joins:
        lines.append(f"join {j.child}.{j.fk} {j.parent}.{j.pk}")
    lines.append(f"hub {db.hub}")
    (directory / "schema.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell_text(table: str, spec: ColumnSpec, col: np.ndarray) -> list[str]:
    """A column's CSV cells: ``str`` of each code, ``repr`` of each float.
    Codes are looked up in a table of the domain's code strings, so a code
    outside it is rejected rather than wrapped."""
    if spec.kind != CATEGORICAL:
        return list(map(repr, col.tolist()))
    size = spec.domain_size
    if col.min() < 0 or col.max() >= size:
        raise ValidationError(f"{table}.{spec.name}: code outside 0..{size - 1}")
    return np.array([str(c) for c in range(size)], dtype=object)[col].tolist()


def load_dataset(directory: str | Path, validate: bool = True) -> SchemaGraph:
    directory = Path(directory)
    schema_path = directory / "schema.txt"
    if not schema_path.exists():
        raise ConfigurationError(f"no schema file at {schema_path}")
    tables: list[TableData] = []
    joins: list[tuple[str, Join]] = []   # (schema line, join)
    hub = None
    current: list[tuple[str, list]] = []  # (table, [column defs])

    def flush():
        if not current:
            return
        tname, coldefs = current.pop()
        raw = _read_csv(directory / f"{tname}.csv", [c[0] for c in coldefs])
        columns, data = [], []
        for cname, kind, lo, hi in coldefs:
            col_raw = raw[cname]
            if kind == CATEGORICAL:
                dictionary = _read_dict(directory / f"{tname}__{cname}.dict")
                with np.errstate(invalid="ignore"):
                    codes = col_raw.astype(np.int64)
                if (codes != col_raw).any():
                    raise ConfigurationError(f"{directory / tname}.csv: column {cname!r} "
                                             "holds a code that is not an integer")
                columns.append(ColumnSpec(cname, CATEGORICAL, dictionary=dictionary))
                data.append(codes)
            else:
                columns.append(ColumnSpec(cname, NUMERICAL, lo=lo, hi=hi))
                data.append(col_raw)
        tables.append(TableData(tname, columns, data))

    for lineno, line in enumerate(_read_text(schema_path).splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        where = f"{schema_path}:{lineno}"
        if parts[0] in ("table", "join", "hub"):
            flush()
        try:
            if parts[0] == "table":
                current.append((parts[1], []))
            elif parts[0] == "column":
                if not current:
                    raise ConfigurationError(f"{where}: column before table")
                if parts[2] == CATEGORICAL:
                    current[-1][1].append((parts[1], CATEGORICAL, 0.0, 0.0))
                elif parts[2] == NUMERICAL:
                    current[-1][1].append((parts[1], NUMERICAL, float(parts[3]),
                                           float(parts[4])))
                else:
                    raise ConfigurationError(f"{where}: bad kind {parts[2]!r}")
            elif parts[0] == "join":
                c_t, c_c = parts[1].split(".")
                p_t, p_c = parts[2].split(".")
                joins.append((where, Join(c_t, c_c, p_t, p_c)))
            elif parts[0] == "hub":
                hub = parts[1]
            else:
                raise ConfigurationError(f"{where}: unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ConfigurationError(f"{where}: malformed line {line.strip()!r}") from exc
    flush()
    if hub is None:
        raise ConfigurationError(f"{schema_path} declares no hub")
    names = {t.name for t in tables}
    for where, j in joins:
        unknown = sorted({j.child, j.parent} - names)
        if unknown:
            raise ConfigurationError(f"{where}: join names unknown table {unknown[0]!r}")
    db = SchemaGraph(tables, [j for _, j in joins], hub)
    if validate:
        db.validate()
    return db


def _read_csv(path: Path, expected_header: list[str]) -> dict[str, np.ndarray]:
    """One contiguous float64 column per header name.  The body is parsed in
    one pass by numpy's text reader; only a file it refuses is re-read row
    by row, to name the line at fault."""
    if not path.exists():
        raise ConfigurationError(f"missing table file {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            header_only = not fh.read(1)
        if header != expected_header:
            raise ConfigurationError(f"{path}: header {header} != schema {expected_header}")
        if header_only:
            return {name: np.empty(0) for name in header}
        try:
            if _has_blank_line(path):  # loadtxt would skip it
                raise ValueError("blank line")
            body = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2,
                              comments=None, quotechar='"', encoding="utf-8")
            if body.shape[1] != len(header):  # every row has the same wrong cell count
                raise ValueError(f"{body.shape[1]} cells per row")
        except ValueError as exc:
            raise _cell_error(path, header, exc) from exc
    except UnicodeDecodeError as exc:  # from any of the reads, _cell_error's too
        raise _not_utf8(path, exc) from exc
    return {name: np.ascontiguousarray(body[:, i]) for i, name in enumerate(header)}


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> ConfigurationError:
    return ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})")


def _has_blank_line(path: Path) -> bool:
    r"""Whether the file holds an empty line: a line end right after another.
    Line ends are "\n", "\r" and "\r\n", as loadtxt reads them, so every
    adjacent pair of "\n" and "\r" bytes but "\r\n" is one."""
    prev = np.zeros(1, dtype=np.uint8)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            b = np.concatenate([prev, np.frombuffer(chunk, dtype=np.uint8)])
            lf, cr = b == ord("\n"), b == ord("\r")
            if (lf[:-1] & (lf[1:] | cr[1:])).any() or (cr[:-1] & cr[1:]).any():
                return True
            prev = b[-1:]
    return False


def _cell_error(path: Path, header: list[str], exc: ValueError) -> ConfigurationError:
    """The error for a table body that loadtxt refused or that holds a blank
    line, naming the first bad line of a csv re-read."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for i, name in enumerate(header):
        lineno = _bad_cell_line(rows, i)
        if lineno is not None:
            return ConfigurationError(f"{path}:{lineno}: column {name!r} "
                                      "needs a number in every row")
    for lineno, row in enumerate(rows, start=2):
        if len(row) > len(header):
            return ConfigurationError(f"{path}:{lineno}: row has {len(row)} cells, "
                                      f"the header has {len(header)}")
    return ConfigurationError(f"{path}: unreadable table body ({exc})")


def _bad_cell_line(rows: list[list[str]], i: int) -> int | None:
    """File line (the header is line 1) of the first row whose i-th cell is
    missing or not a number."""
    for lineno, row in enumerate(rows, start=2):
        if i >= len(row) or not _is_number(row[i]):
            return lineno
    return None


def _is_number(cell: str) -> bool:
    """Whether loadtxt reads the cell as a float: what ``float`` reads, less
    underscores between digits and non-ASCII digits."""
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell and cell.strip().isascii()


def _read_dict(path: Path) -> np.ndarray:
    if not path.exists():
        raise ConfigurationError(f"missing dictionary file {path}")
    pairs = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            code, val = line.split(",", 1)
            pairs.append((int(code), int(val)))
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: expected integer 'code,value', "
                                     f"got {line!r}") from exc
    pairs.sort()
    if [c for c, _ in pairs] != list(range(len(pairs))):
        raise ConfigurationError(f"{path}: codes are not dense 0..n-1")
    return np.array([v for _, v in pairs], dtype=np.int64)
