"""Value-domain bookkeeping for deletions: the compaction map that removes
gaps from a numeric column's range.

A numeric column whose retained values no longer cover the original range
[lo, hi] keeps only a set of disjoint subranges.  ``NumericRemap`` rescales
those subranges onto a gap-free copy of [lo, hi] so the downstream
equal-width binning never wastes resolution on deleted regions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GapError, ValidationError


@dataclass(frozen=True, eq=False)
class NumericRemap:
    """Piecewise-linear map from retained subranges of [lo, hi] onto a
    compact, gap-free image of the same total width.

    ``subranges`` is a sorted tuple of disjoint closed intervals (a_j, b_j).
    Interval j is shifted so that it starts at the cumulative length of the
    preceding intervals, then the whole packed axis is rescaled to width
    (hi - lo) and anchored at lo.  Adjacent subrange boundaries map to the
    same output value; the map is nondecreasing but not strictly increasing.
    """

    lo: float
    hi: float
    subranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValidationError(f"empty numeric range [{self.lo}, {self.hi}]")
        if not self.subranges:
            raise ValidationError("remap needs at least one retained subrange")
        prev_end = None
        for a, b in self.subranges:
            if b < a:
                raise ValidationError(f"inverted subrange [{a}, {b}]")
            if a < self.lo or b > self.hi:
                raise ValidationError(f"subrange [{a}, {b}] outside [{self.lo}, {self.hi}]")
            if prev_end is not None and a < prev_end:
                raise ValidationError("subranges overlap or are unsorted")
            prev_end = b
        if self.retained_length <= 0.0:
            raise ValidationError("retained subranges have zero total length")
        if np.isinf(self.scale):
            raise ValidationError("retained subranges are too short to rescale")

    # the arrays below are built once per remap, read-only, and read by
    # every remap_array and clamp_interval call; the sums stay sequential

    @cached_property
    def retained_length(self) -> float:
        return float(sum(b - a for a, b in self.subranges))

    @cached_property
    def starts(self) -> np.ndarray:
        return _frozen([a for a, _ in self.subranges])

    @cached_property
    def ends(self) -> np.ndarray:
        return _frozen([b for _, b in self.subranges])

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each subrange starts on the packed axis."""
        offs = [0.0]
        for a, b in self.subranges[:-1]:
            offs.append(offs[-1] + (b - a))
        return _frozen(offs)

    @cached_property
    def scale(self) -> float:
        return (self.hi - self.lo) / self.retained_length

    @property
    def is_identity(self) -> bool:
        return self.subranges == ((self.lo, self.hi),)


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


def clamp_interval(remap: NumericRemap, lo: float, hi: float) -> tuple[float, float] | None:
    """Move interval endpoints inward to the nearest retained boundary and
    remap them.  Returns the remapped interval, or None when [lo, hi]
    contains no retained point (it sat entirely inside a gap or outside the
    column range)."""
    starts, ends = remap.starts, remap.ends
    i = np.searchsorted(ends, lo)                      # first subrange ending at or after lo
    j = np.searchsorted(starts, hi, side="right") - 1  # last subrange starting at or before hi
    if hi < lo or i == len(ends) or j < 0:
        return None
    new_lo, new_hi = max(lo, starts[i]), min(hi, ends[j])
    if new_lo > new_hi:
        return None
    out = remap_array(remap, [new_lo, new_hi])
    return float(out[0]), float(out[1])


def build_numeric_remap(lo: float, hi: float, retained_values: np.ndarray,
                        gap_threshold: float) -> NumericRemap:
    """Derive retained subranges from the values still present in a column.

    Consecutive distinct values further apart than ``gap_threshold * (hi -
    lo)`` delimit a gap; each run of closer values becomes one subrange
    spanning its min and max.  Slack below the threshold at either end of
    [lo, hi] is absorbed into the boundary subrange, so a column with no
    detected gap yields the identity map.  A run consisting of a single
    isolated value is widened by half a threshold on each side (clipped to
    [lo, hi]) so the compacted space never degenerates.
    """
    vals = np.unique(np.asarray(retained_values, dtype=np.float64))
    if vals.size == 0:
        raise ValidationError("cannot build a remap from an empty retained set")
    if hi <= lo:
        raise ValidationError(f"empty numeric range [{lo}, {hi}]")
    thr = gap_threshold * (hi - lo)
    if thr <= 0:
        raise ValidationError("gap threshold must be positive")

    runs: list[list[float]] = [[float(vals[0]), float(vals[0])]]
    for v in vals[1:]:
        v = float(v)
        if v - runs[-1][1] >= thr:
            runs.append([v, v])
        else:
            runs[-1][1] = v
    if runs[0][0] - lo < thr:
        runs[0][0] = lo
    if hi - runs[-1][1] < thr:
        runs[-1][1] = hi

    half = thr / 2.0
    subranges = []
    for a, b in runs:
        if b - a == 0.0:
            # isolated value: gaps on both sides are >= thr wide, so a
            # half-threshold pad cannot overlap the neighbouring run
            a, b = max(lo, a - half), min(hi, b + half)
        subranges.append((a, b))
    return NumericRemap(lo=float(lo), hi=float(hi), subranges=tuple(subranges))


def remap_array(remap: NumericRemap, xs: np.ndarray, on_gap: str = "error") -> np.ndarray:
    """Vectorized remap of raw values.

    ``on_gap="error"`` raises GapError if any value sits in a deleted gap;
    ``"clamp"`` moves gap values to the nearest retained boundary first.
    """
    xs = np.asarray(xs, dtype=np.float64)
    starts, ends, offs = remap.starts, remap.ends, remap.offsets
    j = np.searchsorted(starts, xs, side="right") - 1
    jc = np.clip(j, 0, len(starts) - 1)
    inside = (j >= 0) & (xs <= ends[jc])
    if not inside.all():
        if on_gap == "error":
            bad = xs[~inside][0]
            raise GapError(f"value {bad} lies in a deleted gap")
        # clamp to whichever retained boundary is closer
        below = np.where(j >= 0, ends[jc], starts[0])
        jn = np.clip(j + 1, 0, len(starts) - 1)
        above = starts[jn]
        clamped = np.where(np.abs(xs - below) <= np.abs(above - xs), below, above)
        xs = np.where(inside, xs, clamped)
        j = np.searchsorted(starts, xs, side="right") - 1
        jc = np.clip(j, 0, len(starts) - 1)
    return (xs - starts[jc] + offs[jc]) * remap.scale + remap.lo
