"""Deterministic synthetic star-schema generator.

Two canned profiles: ``skewed`` draws categorical values and foreign keys
from a zipfian distribution and concentrates numeric values near the low
end of their range, ``uniform`` draws everything uniformly.  The skewed
profile guarantees at least one hub categorical column with a value
occurring fewer than 10 times, so rare-value deletions have something to
bite on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import _is_int, _is_number
from .relational import (CATEGORICAL, NUMERICAL, ColumnSpec, Join,
                         SchemaGraph, TableData)

RARE_VALUE_MAX_COUNT = 9


@dataclass(frozen=True)
class DataGenConfig:
    hub_rows: int = 10_000
    dim_rows: tuple[int, ...] = (500, 500)
    profile: str = "skewed"                    # "skewed" | "uniform"
    zipf_s: float = 1.3
    hub_cat_cards: tuple[int, ...] = (24, 12)  # one hub categorical per entry
    dim_cat_cards: tuple[int, ...] = (20, 16)  # one categorical per dimension
    numeric_range: tuple[float, float] = (0.0, 1000.0)
    seed: int = 0

    def validate(self):
        """Types and ranges of every field, as ``ModelConfig.validate``
        checks its own."""
        sizes = (self.dim_rows, self.hub_cat_cards, self.dim_cat_cards)
        if not (all(isinstance(v, tuple) for v in sizes)
                and all(_is_int(n) for n in (self.hub_rows, self.seed) + sum(sizes, ()))):
            raise ValidationError("hub_rows, dim_rows, hub_cat_cards, dim_cat_cards and "
                                  "seed must be integers")
        if min((self.hub_rows,) + sum(sizes, ())) < 1:
            raise ValidationError("hub_rows, dim_rows, hub_cat_cards and dim_cat_cards "
                                  "must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.profile not in ("skewed", "uniform"):
            raise ValidationError(f"unknown profile {self.profile!r}")
        if not (_is_number(self.zipf_s) and 0.0 < self.zipf_s < math.inf):
            raise ValidationError("zipf_s must be a finite number > 0")
        if len(self.dim_cat_cards) != len(self.dim_rows):
            raise ValidationError("need one dim categorical cardinality per dimension")
        bounds = self.numeric_range
        if not (isinstance(bounds, tuple) and len(bounds) == 2
                and all(_is_number(v) and math.isfinite(v) for v in bounds)
                and bounds[0] < bounds[1]):
            raise ValidationError("numeric_range must be two finite numbers lo < hi")


def _zipf_probs(card: int, s: float) -> np.ndarray:
    w = (np.arange(1, card + 1, dtype=np.float64)) ** (-s)
    return w / w.sum()


def _draw_categorical(rng, rows, card, skewed, s):
    if skewed:
        return rng.choice(card, size=rows, p=_zipf_probs(card, s)).astype(np.int64)
    return rng.integers(0, card, size=rows).astype(np.int64)


def _draw_numeric(rng, rows, lo, hi, skewed):
    u = rng.random(rows)
    if skewed:
        u = u ** 3.0  # piles values toward lo
    # integer-valued grid keeps CSV output compact and byte-stable
    return np.floor(lo + u * (hi - lo)).astype(np.float64)


def _force_rare_value(codes: np.ndarray, card: int) -> np.ndarray:
    """Cap the least frequent value at RARE_VALUE_MAX_COUNT occurrences by
    relabeling its surplus rows to the most frequent value."""
    counts = np.bincount(codes, minlength=card)
    rare = int(counts.argmin())
    if counts[rare] <= RARE_VALUE_MAX_COUNT:
        return codes
    top = int(counts.argmax())
    surplus = np.nonzero(codes == rare)[0][RARE_VALUE_MAX_COUNT:]
    codes = codes.copy()
    codes[surplus] = top
    return codes


def _dictionary(card: int, base: int) -> np.ndarray:
    # non-identity code -> original-value map so encoding is exercised
    return base + 3 * np.arange(card, dtype=np.int64)


def gen_star_schema(cfg: DataGenConfig) -> SchemaGraph:
    """Generate a star schema: one hub ("fact") plus one dimension per entry
    of ``dim_rows``, each dimension keyed by a dense id the hub references.

    Deterministic per seed; regenerating with the same config is
    byte-identical after save_dataset."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    skewed = cfg.profile == "skewed"
    lo, hi = cfg.numeric_range

    tables: list[TableData] = []
    joins: list[Join] = []

    hub_columns: list[ColumnSpec] = []
    hub_data: list[np.ndarray] = []
    for d, n_dim in enumerate(cfg.dim_rows, start=1):
        fk = _draw_categorical(rng, cfg.hub_rows, n_dim, skewed, cfg.zipf_s)
        hub_columns.append(ColumnSpec(f"dim{d}_id", CATEGORICAL,
                                      dictionary=np.arange(n_dim, dtype=np.int64)))
        hub_data.append(fk)
        joins.append(Join("fact", f"dim{d}_id", f"dim{d}", "id"))

    cat_names = ["status", "channel", "flavor", "grade"]
    for i, card in enumerate(cfg.hub_cat_cards):
        codes = _draw_categorical(rng, cfg.hub_rows, card, skewed, cfg.zipf_s)
        if skewed and i == 0:
            codes = _force_rare_value(codes, card)
        name = cat_names[i] if i < len(cat_names) else f"hcat{i}"
        hub_columns.append(ColumnSpec(name, CATEGORICAL,
                                      dictionary=_dictionary(card, 100 * (i + 1))))
        hub_data.append(codes)

    amount = _draw_numeric(rng, cfg.hub_rows, lo, hi, skewed)
    hub_columns.append(ColumnSpec("amount", NUMERICAL, lo=lo, hi=hi))
    hub_data.append(amount)
    tables.append(TableData("fact", hub_columns, hub_data))

    for d, (n_dim, card) in enumerate(zip(cfg.dim_rows, cfg.dim_cat_cards), start=1):
        codes = _draw_categorical(rng, n_dim, card, skewed, cfg.zipf_s)
        vals = _draw_numeric(rng, n_dim, lo, hi, skewed)
        columns = [
            ColumnSpec("id", CATEGORICAL, dictionary=np.arange(n_dim, dtype=np.int64)),
            ColumnSpec(f"grp{d}", CATEGORICAL, dictionary=_dictionary(card, 1000 * d)),
            ColumnSpec(f"val{d}", NUMERICAL, lo=lo, hi=hi),
        ]
        data = [np.arange(n_dim, dtype=np.int64), codes, vals]
        tables.append(TableData(f"dim{d}", columns, data))

    db = SchemaGraph(tables, joins, hub="fact")
    db.validate()
    return db
