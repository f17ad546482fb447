"""Conjunctive queries over join scopes: predicate types and the
line-oriented workload file format, which is written for inspection and
never read back.

Predicates live in original value space over closed intervals.  ``eq``
matches one categorical value; ``range`` matches the closed interval
[lo, hi]; ``outside`` matches the strict complement of a closed interval
(value < lo or value > hi), which is what complement-query construction
produces.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

OPS = ("eq", "range", "outside")


@dataclass(frozen=True, eq=False)
class Predicate:
    column: str                 # qualified "table.column"
    op: str
    value: float | None = None  # eq
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ValidationError(f"unknown predicate op {self.op!r}")
        if self.op == "eq" and self.value is None:
            raise ValidationError("eq predicate needs a value")
        if self.op in ("range", "outside"):
            if self.lo is None or self.hi is None:
                raise ValidationError(f"{self.op} predicate needs lo and hi")
            if self.hi < self.lo:
                raise ValidationError(f"predicate range [{self.lo}, {self.hi}] inverted")

    def matches(self, originals: np.ndarray) -> np.ndarray:
        """Boolean mask over original values."""
        if self.op == "eq":
            return originals == self.value
        if self.op == "outside":
            return (originals < self.lo) | (originals > self.hi)
        return (originals >= self.lo) & (originals <= self.hi)

    def intervals(self) -> list[tuple[float, float]]:
        """(lo, hi) pieces whose union this predicate matches; ``outside``
        contributes two pieces with an infinite outer end."""
        if self.op == "eq":
            return [(float(self.value), float(self.value))]
        if self.op == "range":
            return [(self.lo, self.hi)]
        return [(-np.inf, self.lo), (self.hi, np.inf)]


@dataclass(frozen=True, eq=False)
class Query:
    qid: int
    scope: tuple[str, ...]          # table names, hub included
    predicates: tuple[Predicate, ...]

    def with_predicates(self, preds) -> "Query":
        return replace(self, predicates=tuple(preds))


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize_query(q: Query) -> str:
    parts = [f"q{q.qid}", "scope=" + ",".join(q.scope)]
    toks = []
    for p in q.predicates:
        if p.op == "eq":
            toks.append(f"{p.column} eq {_fmt(p.value)}")
        elif p.op == "range":
            toks.append(f"{p.column} in[] {_fmt(p.lo)} {_fmt(p.hi)}")
        else:
            toks.append(f"{p.column} outside {_fmt(p.lo)} {_fmt(p.hi)}")
    parts.append(" ; ".join(toks))
    return " | ".join(parts)


def save_workload(queries: list[Query], path):
    with open(path, "w") as fh:
        for q in queries:
            fh.write(serialize_query(q) + "\n")
