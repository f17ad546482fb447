"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: joins are
counted with pure-Python nested loops, gradients with central finite
differences, and model probabilities by exhaustive enumeration, so tests
compare two genuinely different computations.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from cardest.datagen import DataGenConfig, gen_star_schema
from cardest.errors import ConfigurationError
from cardest.model import (ArDensityModel, ModelConfig, _log_softmax,
                           batch_nll_terms, forward, init_model, loss_and_grad)
from cardest.relational import (CATEGORICAL, NUMERICAL, ColumnSpec, Condition,
                                DeletionTask, Join, SchemaGraph, TableData,
                                apply_deletion, join_keys)


# ---------------------------------------------------------------------------
# tiny hand-built schemas


def make_table(name, cols):
    """cols: list of (name, kind, payload) where payload is a value array for
    numerical or (codes, dictionary) for categorical."""
    specs, data = [], []
    for cname, kind, payload in cols:
        if kind == CATEGORICAL:
            codes, dictionary = payload
            specs.append(ColumnSpec(cname, CATEGORICAL,
                                    dictionary=np.asarray(dictionary, dtype=np.int64)))
            data.append(np.asarray(codes, dtype=np.int64))
        else:
            vals, lo, hi = payload
            vals = np.asarray(vals, dtype=np.float64)
            specs.append(ColumnSpec(cname, NUMERICAL, lo=lo, hi=hi))
            data.append(vals)
    return TableData(name, specs, data)


@pytest.fixture
def star_db():
    """3-table star: fact(10) -> dim1(4), dim2(3), with attribute columns."""
    rng = np.random.default_rng(42)
    n = 10
    fact = make_table("fact", [
        ("d1", CATEGORICAL, (rng.integers(0, 4, n), np.arange(4))),
        ("d2", CATEGORICAL, (rng.integers(0, 3, n), np.arange(3))),
        ("color", CATEGORICAL, (rng.integers(0, 3, n), [7, 8, 9])),
        ("amount", NUMERICAL, (rng.integers(0, 100, n).astype(float), 0.0, 100.0)),
    ])
    dim1 = make_table("dim1", [
        ("id", CATEGORICAL, (np.arange(4), np.arange(4))),
        ("grp", CATEGORICAL, (rng.integers(0, 2, 4), [50, 60])),
    ])
    dim2 = make_table("dim2", [
        ("id", CATEGORICAL, (np.arange(3), np.arange(3))),
        ("val", NUMERICAL, (rng.integers(0, 100, 3).astype(float), 0.0, 100.0)),
    ])
    db = SchemaGraph([fact, dim1, dim2],
                     [Join("fact", "d1", "dim1", "id"), Join("fact", "d2", "dim2", "id")],
                     hub="fact")
    db.validate()
    return db


@st.composite
def star_splits(draw):
    """A tiny generated star schema and a random A or R deletion split."""
    n_dims = draw(st.integers(1, 2))
    db = gen_star_schema(DataGenConfig(
        hub_rows=draw(st.integers(1, 200)),
        dim_rows=tuple(draw(st.integers(1, 30)) for _ in range(n_dims)),
        dim_cat_cards=(4,) * n_dims, profile=draw(st.sampled_from(["skewed", "uniform"])),
        seed=draw(st.integers(0, 2**16))))
    tables = draw(st.lists(st.sampled_from(db.tables), min_size=1, unique_by=lambda t: t.name))
    dtype = draw(st.sampled_from("AR"))
    conditions = []
    for t in tables:
        if dtype == "R":
            conditions.append(Condition(t.name))
            continue
        spec = draw(st.sampled_from([c for c in t.columns
                                     if (t.name, c.name) not in join_keys(db.joins)]))
        if spec.kind == CATEGORICAL:
            value = draw(st.sampled_from(spec.dictionary.tolist()))
            conditions.append(Condition(t.name, spec.name, value=value))
        else:
            lo, hi = sorted(draw(st.floats(spec.lo, spec.hi)) for _ in range(2))
            conditions.append(Condition(t.name, spec.name, lo=lo, hi=hi))
    task = DeletionTask(dtype, tuple(conditions), draw(st.floats(0.01, 1.0)))
    return db, apply_deletion(db, task, seed=draw(st.integers(0, 2**16)))


# ---------------------------------------------------------------------------
# nested-loop join oracle


def nested_loop_join(tables, joins):
    """All join tuples as dicts {table: row_index}, by brute force over the
    full cross product of row indices."""
    names = [t.name for t in tables]
    lookup = {t.name: t for t in tables}
    results = []
    for combo in itertools.product(*[range(t.row_count) for t in tables]):
        rows = dict(zip(names, combo))
        ok = True
        for j in joins:
            if j.child not in rows or j.parent not in rows:
                continue
            fk = lookup[j.child].column(j.fk)[rows[j.child]]
            pk = lookup[j.parent].column(j.pk)[rows[j.parent]]
            if fk != pk:
                ok = False
                break
        if ok:
            results.append(rows)
    return results


# ---------------------------------------------------------------------------
# model oracles


def tiny_model(seed=0, doms=(3, 4), bins=4, embedding_dim=2, hidden_dim=8,
               blocks=1, order=None, dropout=0.0, dtype=np.float32):
    """Small model over len(doms) categorical columns ``t.c<i>`` plus one
    numeric ``t.num``, in ``dtype`` (``init_model``'s default unless given).
    ``order`` lists the columns in model order, as indices into that list
    (so the numeric column is index ``len(doms)``); by default it comes
    last."""
    specs = []
    for i, d in enumerate(doms):
        specs.append(ColumnSpec(f"t.c{i}", CATEGORICAL,
                                dictionary=np.arange(d, dtype=np.int64)))
    specs.append(ColumnSpec("t.num", NUMERICAL, lo=0.0, hi=1.0))
    if order is not None:
        specs = [specs[i] for i in order]
    cfg = ModelConfig(embedding_dim=embedding_dim, hidden_dim=hidden_dim,
                      residual_blocks=blocks, dropout=dropout, numeric_bins=bins)
    return init_model(specs, cfg, seed=seed, dtype=dtype)


def over_dtypes(cases, ids=None):
    """``pytest.param``s that run each case on both model dtypes: on float64
    under the case's own id, then on float32 under that id plus
    ``-float32``.  A tuple case spreads over several arguments; the dtype is
    the last argument."""
    ids = list(cases) if ids is None else ids
    return [pytest.param(*(c if isinstance(c, tuple) else (c,)), dt, id=i + suffix)
            for dt, suffix in ((np.float64, ""), (np.float32, "-float32"))
            for c, i in zip(cases, ids)]


def with_dtype(model: ArDensityModel, dtype) -> ArDensityModel:
    """A copy of ``model`` whose ``theta`` is cast to ``dtype``."""
    return ArDensityModel(cfg=model.cfg, columns=model.columns,
                          theta=model.theta.astype(dtype))


def fd_gradient(model: ArDensityModel, X: np.ndarray, weights=None, h=1e-5):
    """Central-difference gradient of the weighted mean NLL over a batch, in
    ``theta`` layout; ``h`` suits a float64 model.  Only trainable positions
    are perturbed (dense weights whose keep-mask is 1, every bias and
    embedding); the masked ones hold exactly 0 by invariant and read 0
    here."""

    def loss_at():
        return loss_and_grad(model, X, lambda lo, g: None, weights)

    theta = model.theta
    trainable = np.ones(theta.size, dtype=bool)
    trainable[:model.keep.size] = model.keep == 1.0
    grad = np.zeros_like(theta)
    for idx in np.flatnonzero(trainable):
        old = theta[idx]
        theta[idx] = old + h
        up = loss_at()
        theta[idx] = old - h
        down = loss_at()
        theta[idx] = old
        grad[idx] = (up - down) / (2 * h)
    return grad


def full_gradient(model: ArDensityModel, X: np.ndarray, column_weights=None, **kw):
    """``loss_and_grad``'s loss and its gradient as one ``theta``-sized
    vector, collected from the pieces it hands to ``update``.  A position no
    piece covers stays NaN."""
    grad = np.full_like(model.theta, np.nan)

    def collect(lo, g):
        grad[lo:lo + g.size] = g

    return loss_and_grad(model, X, collect, column_weights, **kw), grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor=1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def enumerate_probabilities(model: ArDensityModel):
    """(tuples, probabilities) by exhaustive enumeration over the domain
    product; the probabilities should sum to 1 for a valid density."""
    sizes = [c.domain_size for c in model.columns]
    combos = np.array(list(itertools.product(*[range(s) for s in sizes])),
                      dtype=np.int64)
    logits, _ = forward(model, combos)
    terms = batch_nll_terms(model, combos, logits)[0]
    return combos, np.exp(-terms.sum(axis=1))


def reference_estimate_selectivity(model: ArDensityModel, constraints, num_samples,
                                   rng, with_error=False):
    """Progressive sampling with one full ``forward`` pass per position.

    The direct form of ``estimate_selectivity``, which evaluates the network
    degree-incrementally instead; both draw from ``rng`` in the same order
    and compute in ``theta``'s dtype.
    This draw scales ``u`` by ``probs.sum``, which can exceed the cumsum's
    last entry by an ulp; that changes a path only when ``u`` lands within
    that ulp of the end of the cdf.
    """
    if not constraints:
        return (1.0, 0.0) if with_error else 1.0
    dt = model.theta.dtype
    by_col = {model.column_index(name): np.asarray(wv, dtype=dt)
              for name, wv in constraints.items()}
    last = max(by_col)

    n = num_samples
    X = np.zeros((n, model.ncols), dtype=np.int64)
    weight = np.ones(n, dtype=dt)
    offs = model.logit_offsets()
    for i in range(last + 1):
        logits, _ = forward(model, X)
        block = logits[:, offs[i]:offs[i + 1]]
        probs = np.exp(_log_softmax(block))
        if i in by_col:
            wv = by_col[i]
            mass = probs @ wv
            weight *= mass
            probs = probs * wv
        if i < last:
            totals = probs.sum(axis=1)
            alive = totals > 0.0
            cdf = np.cumsum(probs, axis=1)
            u = rng.random(n, dtype=dt) * np.where(alive, totals, 1.0)
            nxt = np.minimum((cdf < u[:, None]).sum(axis=1), probs.shape[1] - 1)
            X[:, i] = np.where(alive, nxt, 0)
            weight = np.where(alive, weight, 0.0)
    if with_error:
        sem = float(weight.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return float(weight.mean()), sem
    return float(weight.mean())


def reference_forward(model: ArDensityModel, X: np.ndarray, training=False, rng=None):
    """``forward`` as plain expressions, one fresh array per operation, in
    ``theta``'s dtype."""
    B = X.shape[0]
    emb = model.cfg.embedding_dim
    P = model.params
    dt = model.theta.dtype
    A0 = np.empty((B, emb * model.ncols), dtype=dt)
    for i in range(model.ncols):
        A0[:, i * emb:(i + 1) * emb] = model.embeddings[i][X[:, i]]

    keep = 1.0 - model.cfg.dropout
    use_dropout = training and model.cfg.dropout > 0.0
    cache = {"X": X, "A0": A0, "blocks": []}

    h = A0 @ P["w_in"] + P["b_in"]
    cache["h0"] = h
    for r in range(model.cfg.residual_blocks):
        a = np.maximum(h, 0.0)
        z = a @ P[f"w1_{r}"] + P[f"b1_{r}"]
        c = np.maximum(z, 0.0)
        if use_dropout:
            dmask = (rng.random(c.shape, dtype=dt) < keep).astype(dt) / keep
            d = c * dmask
        else:
            dmask = None
            d = c
        u = d @ P[f"w2_{r}"] + P[f"b2_{r}"]
        h_next = h + u
        cache["blocks"].append({"h": h, "a": a, "z": z, "d": d, "dmask": dmask})
        h = h_next
    cache["h_last"] = h
    hf = np.maximum(h, 0.0)
    cache["hf"] = hf
    logits = hf @ P["w_out"] + P["b_out"]
    return logits, cache


def reference_loss_and_grad(model: ArDensityModel, X: np.ndarray, column_weights=None,
                            training=False, rng=None):
    """``loss_and_grad`` as plain expressions: a log-softmax per column for
    the loss and again for the probabilities, a zeroed gradient filled by
    assignment, and ``np.add.at`` for the embedding rows, summed in float64
    and then rounded to ``theta``'s dtype.  The library's in-place step must
    match it byte for byte."""
    dt = model.theta.dtype
    w = np.ones(model.ncols, dtype=dt) if column_weights is None else \
        np.asarray(column_weights, dtype=dt)
    B = X.shape[0]
    logits, cache = reference_forward(model, X, training=training, rng=rng)
    offs = model.logit_offsets()
    terms = np.empty((B, model.ncols), dtype=dt)
    for i in range(model.ncols):
        ls = _log_softmax(logits[:, offs[i]:offs[i + 1]])
        terms[:, i] = -ls[np.arange(B), X[:, i]]
    loss = float((terms * w).sum(axis=1).mean())

    dlogits = np.empty_like(logits)
    for i in range(model.ncols):
        block = logits[:, offs[i]:offs[i + 1]]
        p = np.exp(_log_softmax(block))
        p[np.arange(B), X[:, i]] -= 1.0
        dlogits[:, offs[i]:offs[i + 1]] = p * (w[i] / B)

    P = model.params
    grad = np.zeros_like(model.theta)
    G = model.unflatten(grad)
    G["w_out"][...] = cache["hf"].T @ dlogits
    G["b_out"][...] = dlogits.sum(axis=0)
    dhf = dlogits @ P["w_out"].T
    dh = dhf * (cache["h_last"] > 0.0)

    for r in reversed(range(model.cfg.residual_blocks)):
        blk = cache["blocks"][r]
        du = dh
        G[f"w2_{r}"][...] = blk["d"].T @ du
        G[f"b2_{r}"][...] = du.sum(axis=0)
        dd = du @ P[f"w2_{r}"].T
        dc = dd * blk["dmask"] if blk["dmask"] is not None else dd
        dz = dc * (blk["z"] > 0.0)
        G[f"w1_{r}"][...] = blk["a"].T @ dz
        G[f"b1_{r}"][...] = dz.sum(axis=0)
        da = dz @ P[f"w1_{r}"].T
        dh = dh + da * (blk["h"] > 0.0)

    G["w_in"][...] = cache["A0"].T @ dh
    G["b_in"][...] = dh.sum(axis=0)
    dA0 = dh @ P["w_in"].T
    emb = model.cfg.embedding_dim
    for i in range(model.ncols):
        rows = np.zeros(G[f"emb:{i}"].shape)
        np.add.at(rows, X[:, i], dA0[:, i * emb:(i + 1) * emb])
        G[f"emb:{i}"][...] = rows
    grad[:model.keep.size] *= model.keep
    return loss, grad


class ReferenceAdam:
    """``AdamState`` as plain expressions, with fresh temporaries each step.
    Like it, it leaves masked positions to the zero gradient."""

    def __init__(self, model: ArDensityModel):
        self.t = 0
        self.m = np.zeros_like(model.theta)
        self.v = np.zeros_like(model.theta)

    def step(self, model: ArDensityModel, grad: np.ndarray):
        cfg = model.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        self.m *= cfg.beta1
        self.m += (1.0 - cfg.beta1) * grad
        self.v *= cfg.beta2
        self.v += (1.0 - cfg.beta2) * grad * grad
        model.theta -= cfg.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + cfg.eps)


# ---------------------------------------------------------------------------
# checkpoint surgery


def rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint through ``edit(meta, theta)``, which may change
    the metadata dict and ``theta`` (read in the dtype the metadata names),
    then give it a fresh digest.  ``theta`` is written little-endian in the
    dtype ``edit`` returns it in.  ``edit`` may return the metadata as raw
    bytes instead."""
    raw = path.read_bytes()
    meta_len, = struct.unpack("<I", raw[8:12])
    meta = json.loads(raw[12:12 + meta_len])
    dt = np.dtype(meta["dtype"])
    theta = np.frombuffer(raw[12 + meta_len:-8], dtype=dt.newbyteorder("<")).astype(dt)
    meta, theta = edit(meta, theta)
    meta_bytes = meta if isinstance(meta, bytes) else \
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes + \
        theta.astype(theta.dtype.newbyteorder("<")).tobytes()
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])


# ---------------------------------------------------------------------------
# table CSVs, one cell at a time


def reference_save_csv(path, t: TableData):
    """``save_dataset``'s table file as a row-at-a-time ``csv.writer`` loop."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([spec.name for spec in t.columns])
        matrix = []
        for spec, col in zip(t.columns, t.data):
            if spec.kind == CATEGORICAL:
                matrix.append([str(int(v)) for v in col])
            else:
                matrix.append([repr(float(v)) for v in col])
        for row in zip(*matrix) if matrix else []:
            w.writerow(row)


def reference_read_csv(path, expected_header: list[str]) -> dict[str, np.ndarray]:
    """``relational._read_csv`` as a ``csv.reader`` loop with one Python
    string and one ``float`` parse per cell; its error path is left out."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != expected_header:
            raise ConfigurationError(f"{path}: header {header} != schema {expected_header}")
        rows = list(reader)
    out = {}
    for i, name in enumerate(header):
        out[name] = np.array([r[i] for r in rows], dtype=np.float64)
    return out
