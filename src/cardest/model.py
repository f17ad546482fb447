"""Autoregressive density estimator over join-relation columns.

The network is a masked residual MLP: per-column embeddings feed a masked
input layer, a stack of masked residual blocks (two masked linear layers
each), and a masked output layer producing one logit block per column.
Connectivity masks enforce that the logits for column p depend only on
columns < p, so the product of per-column softmax conditionals is a
normalized joint distribution.  A model is its config, its columns and its
weights: the ordering is the order of ``columns``, and everything else is
derived from those.

The layout follows the masks.  Input slot p (``w_in`` row block p) and
logit block p belong to column p, and the hidden units are stored in
non-decreasing MADE degree; a unit of degree d sees only columns < d.
Permuting hidden units leaves the model class unchanged, so this costs
nothing, and it makes the sub-network that feeds column p a leading slice
of every matrix: the units of degree <= p and the input slots < p.

Inference is progressive sampling (``estimate_selectivity``), evaluated
degree-incrementally rather than by one ``forward`` per column.  Once
column p - 1 is sampled, the units of degree <= p - 1 never change again,
so step p computes only the units of degree exactly p, through the input
layer and each residual block, and then that column's logits.
These are exactly the connections the masks leave unmasked, so one query
costs about one forward pass in total and gives ``forward``'s numbers up to
the order of floating-point sums.  The sampler reads ``theta`` in place,
through the per-column slices ``bind`` builds (``plan``), and keeps its
per-path state in one workspace per round.
``num_samples`` caps the paths: the first ``SAMPLE_ROUND`` run, and the call
stops there once their mean is > 0 and their standard error is at most
``SEM_TARGET`` of it; otherwise the rest run too.  The uniforms are drawn
for all paths up front, path j reading column j, so a full-budget query
returns what one round of ``num_samples`` paths gives, a stopped query the
mean of that round's first paths, and the reported standard error is over
the paths actually used.  A query with an all-zero constraint vector is
exactly 0 and samples no path.

Training fuses the gradient and the update, as LOMO (Lv et al., 2023)
does, since a gradient is dead once Adam has read it: ``train`` passes
``loss_and_grad`` ``AdamState.step``, and the backward pass hands it each
dense layer's gradient as soon as the delta has passed that layer's
weights, then the bias and embedding tail.  So a step holds ``theta``,
``m``, ``v``, the one-byte ``keep`` and gradient buffers of one layer's
size, and a non-finite loss, checked before the backward pass, leaves
``theta`` as it was.  ``train`` keeps one workspace dict for its whole
run, so every step reuses the same arrays instead of mapping fresh pages.
Sensitivity scoring runs ``batch_weight_grads``, which needs the dense
weight gradients only, for several batches stacked into one forward pass
whose arrays live in a workspace the caller keeps in the same way.  Both
carry the gradient down the network through the same backward pass, which
hands each dense layer's activations and output gradient to the caller.
``forward`` caches only what that pass reads: the gathered inputs, and
per residual block the block input after its ReLU (``a``) and the inner
layer's output after ReLU and dropout (``d``); the residual stream is one
array updated in place, and ends as the final ReLU's output.  The backward
pass takes every ReLU and dropout mask from those outputs, which is exact
(see ``_backward``).  Every part of the gradient is written on every call,
in place: ``out=`` matrix products and sums, and one ``np.bincount`` for
the embedding rows, whose input slots ``forward`` gathers with one index
into the embedding tail.  Each column's log-softmax is computed once per
step and serves both the loss and the probabilities.  Adam updates ``m``,
``v`` and ``theta`` chunk by chunk through two chunk-sized work vectors it
allocates once.  Each of these does the same floating-point operations in
the same order as the plain expressions, so trained weights and loss
traces are byte-identical to what those give.

The compute dtype is ``theta``'s: ``init_model`` takes it as an argument
(float32 unless told otherwise, float64 also works), and every activation,
gradient, Adam moment, sampler workspace and sensitivity score is allocated
in it, so no operation upcasts a product to float64.  The one wider step is
the embedding-row sum, which ``np.bincount`` accumulates in float64 before
it is rounded into the gradient once.  Everything is driven by explicit
numpy Generators; training, scoring, and inference are deterministic given
seeds.  All parameters live in one vector ``theta``: the dense weights in
``weight_keys()`` order, then their biases, then one embedding table per
column; ``params`` and ``embeddings`` are views into it.  One bool
keep-mask ``keep`` (True = trainable) covers the dense-weight prefix;
``bind`` sets it to the MADE connectivity, and nothing narrows it.  Every
position where ``keep`` is False holds exactly 0 and gets a zero gradient,
so Adam subtracts exactly 0 there and the network reads the weights as
they are, with no mask product on the way.  Checkpoints are outside input
to that invariant and are checked for it when loaded.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .domains import NumericRemap, remap_array
from .errors import (EmptyRelationError, FormatError, TrainingError,
                     ValidationError)
from .relational import (CATEGORICAL, NUMERICAL, ColumnSpec, JoinRelation,
                         numeric_bin_index)

CHECKPOINT_MAGIC = b"CEPM"
CHECKPOINT_VERSION = 7
# the dtypes a model computes in, by numpy name
DTYPES = ("float32", "float64")
# elements per Adam chunk: the six chunk-sized arrays an update streams take
# 1.5 MB in float64 and 0.75 MB in float32, inside a 2 MB L2
ADAM_CHUNK = 32_768
# progressive sampling runs this many paths first, and stops there when their
# standard error is at most SEM_TARGET of their mean
SAMPLE_ROUND = 128
SEM_TARGET = 0.01


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 16
    hidden_dim: int = 128
    residual_blocks: int = 4
    dropout: float = 0.1
    numeric_bins: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    epochs: int = 15

    def validate(self):
        """Types and ranges of every field."""
        counts = (self.embedding_dim, self.hidden_dim, self.residual_blocks,
                  self.numeric_bins, self.batch_size, self.epochs)
        if not all(_is_int(v) for v in counts):
            raise ValidationError("model dimensions, numeric_bins, batch_size and epochs "
                                  "must be integers")
        if not all(_is_number(v)
                   for v in (self.dropout, self.lr, self.beta1, self.beta2, self.eps)):
            raise ValidationError("dropout, lr, beta1, beta2 and eps must be numbers")
        if min(self.embedding_dim, self.hidden_dim, self.residual_blocks) < 1:
            raise ValidationError("model dimensions must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        if self.numeric_bins < 1:
            raise ValidationError("numeric_bins must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not 0.0 < self.lr < math.inf:
            raise ValidationError("lr must be a finite number > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ValidationError("eps must be a finite number > 0")


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


@dataclass(eq=False)
class ModelColumn:
    """Current-domain metadata for one model column.

    Categorical columns keep the list of table codes still representable
    (model code = position in that list) plus the aligned original values.
    Numerical columns are dictionary-encoded into ``bins`` equal-width bins
    of [lo, hi]; when a remap is attached, raw values are compacted into
    the gap-free space before binning.
    """
    name: str
    kind: str
    codes: np.ndarray | None = None
    values: np.ndarray | None = None
    dict_size: int = 0
    lo: float = 0.0
    hi: float = 0.0
    bins: int = 0
    remap: NumericRemap | None = None

    @property
    def domain_size(self) -> int:
        return len(self.codes) if self.kind == CATEGORICAL else self.bins

    def code_lut(self) -> np.ndarray:
        lut = np.full(self.dict_size, -1, dtype=np.int64)
        lut[self.codes] = np.arange(len(self.codes), dtype=np.int64)
        return lut


class SamplerStep(NamedTuple):
    """Column p's slice of the network, as ``_sample_paths`` reads it: units
    ``lo:k`` have degree exactly p, and units ``:k`` feed column p's logits.
    Every array is a view into ``theta``; the dense weights are transposed,
    so each product writes the new units' rows."""
    lo: int
    k: int
    w_in: np.ndarray                     # w_in[:emb * p, lo:k].T
    b_in: np.ndarray                     # b_in[lo:k, None]
    blocks: list[tuple[np.ndarray, ...]]  # per residual block: w1.T, b1, w2.T, b2
    w_out: np.ndarray                    # w_out[:k, column p's logits]
    b_out: np.ndarray


@dataclass(eq=False)
class ArDensityModel:
    cfg: ModelConfig
    columns: list[ModelColumn]
    theta: np.ndarray          # every parameter, in _parameter_shapes() order
    keep: np.ndarray = field(init=False)    # bool, dense-weight prefix: trainable
    params: dict[str, np.ndarray] = field(init=False)   # weight and bias views
    embeddings: list[np.ndarray] = field(init=False)    # per column: (domain, emb) view
    plan: list[SamplerStep] = field(init=False)         # per column: the sampler's views

    def __post_init__(self):
        self.bind()

    def bind(self):
        """Point ``params``, ``embeddings`` and ``plan`` into ``theta`` and set
        ``keep`` to the connectivity; call again whenever ``theta`` is
        replaced."""
        views = self.unflatten(self.theta)
        self.embeddings = [views.pop(f"emb:{i}") for i in range(self.ncols)]
        self.params = views
        self.keep = self.connectivity()
        P, emb = self.params, self.cfg.embedding_dim
        _, hid_deg = _degrees(self.ncols, emb, self.cfg.hidden_dim)
        k = np.searchsorted(hid_deg, np.arange(self.ncols), side="right").tolist()
        offs = self.logit_offsets()
        self.plan = []
        for p, kp in enumerate(k):
            new = slice(k[p - 1] if p else 0, kp)
            cols = slice(offs[p], offs[p + 1])
            self.plan.append(SamplerStep(
                new.start, kp, P["w_in"][:emb * p, new].T, P["b_in"][new, None],
                [(P[f"w1_{r}"][:kp, new].T, P[f"b1_{r}"][new, None],
                  P[f"w2_{r}"][:kp, new].T, P[f"b2_{r}"][new, None])
                 for r in range(self.cfg.residual_blocks)],
                P["w_out"][:kp, cols], P["b_out"][cols]))

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def weight_keys(self) -> list[str]:
        keys = ["w_in"]
        for r in range(self.cfg.residual_blocks):
            keys += [f"w1_{r}", f"w2_{r}"]
        keys.append("w_out")
        return keys

    def unflatten(self, vec: np.ndarray, start: int = 0) -> dict[str, np.ndarray]:
        """Views of a vector in ``theta`` layout from element ``start`` on,
        keyed by parameter name.  A vector as long as ``keep`` yields the
        dense weights only; one that starts at ``keep.size`` and runs to the
        end of ``theta``, the biases and embeddings."""
        views, off = {}, -start
        for key, shape in _parameter_shapes(self.cfg, self.columns).items():
            if off == vec.size:
                break
            n = math.prod(shape)
            if off >= 0:
                views[key] = vec[off:off + n].reshape(shape)
            off += n
        return views

    def connectivity(self) -> np.ndarray:
        """MADE connectivity over the dense-weight prefix of ``theta`` (True =
        connected), rebuilt from the domain sizes."""
        in_deg, hid_deg = _degrees(self.ncols, self.cfg.embedding_dim,
                                   self.cfg.hidden_dim)
        out_deg = np.repeat(np.arange(1, self.ncols + 1),
                            [c.domain_size for c in self.columns])
        hid = (hid_deg[None, :] >= hid_deg[:, None]).ravel()
        return np.concatenate([(hid_deg[None, :] >= in_deg[:, None]).ravel()]
                              + [hid] * (2 * self.cfg.residual_blocks)
                              + [(out_deg[None, :] > hid_deg[:, None]).ravel()])

    def logit_offsets(self) -> np.ndarray:
        sizes = [c.domain_size for c in self.columns]
        return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise ValidationError(f"model has no column {name!r}")

    def copy(self) -> "ArDensityModel":
        return ArDensityModel(cfg=self.cfg, columns=copy.deepcopy(self.columns),
                              theta=self.theta.copy())

    def parameter_count(self) -> int:
        return self.theta.size

    def eligible_weight_count(self) -> int:
        """Dense weights ``keep`` (the connectivity) allows; this is the
        pool the prune budget is computed over."""
        return int(np.count_nonzero(self.keep))


def model_columns_from_specs(specs: list[ColumnSpec], bins: int,
                             restrict_codes: dict[str, np.ndarray] | None = None
                             ) -> list[ModelColumn]:
    cols = []
    for spec in specs:
        if spec.kind == CATEGORICAL:
            codes = np.arange(spec.domain_size, dtype=np.int64)
            if restrict_codes and spec.name in restrict_codes:
                codes = np.sort(np.asarray(restrict_codes[spec.name], dtype=np.int64))
                if codes.size == 0:
                    raise ValidationError(f"column {spec.name!r} would have an empty domain")
            cols.append(ModelColumn(spec.name, CATEGORICAL, codes=codes,
                                    values=spec.dictionary[codes].copy(),
                                    dict_size=spec.domain_size))
        else:
            cols.append(ModelColumn(spec.name, NUMERICAL, lo=spec.lo, hi=spec.hi,
                                    bins=bins))
    return cols


def _degrees(ncols: int, emb: int, hidden: int):
    """MADE degrees of the input rows and the hidden units.  Input slot p
    holds column p and has degree p + 1.  The hidden degrees
    1 .. ncols - 1 are spread as evenly as ``arange(hidden) % (ncols - 1)``
    spreads them, in non-decreasing order; with one column every unit has
    degree 0 and feeds column 0."""
    in_deg = np.repeat(np.arange(1, ncols + 1), emb)
    if ncols >= 2:
        hid_deg = np.sort(np.arange(hidden) % (ncols - 1)) + 1
    else:
        hid_deg = np.zeros(hidden, dtype=np.int64)
    return in_deg, hid_deg


def _parameter_shapes(cfg: ModelConfig, columns: list[ModelColumn]
                      ) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape in ``theta`` order: the dense weights in
    ``weight_keys()`` order, their biases in the same order, then one
    embedding table per column."""
    emb, hidden = cfg.embedding_dim, cfg.hidden_dim
    shapes = {"w_in": (emb * len(columns), hidden)}
    for r in range(cfg.residual_blocks):
        shapes[f"w1_{r}"] = (hidden, hidden)
        shapes[f"w2_{r}"] = (hidden, hidden)
    shapes["w_out"] = (hidden, sum(c.domain_size for c in columns))
    shapes.update({"b" + k[1:]: (s[1],) for k, s in shapes.items()})
    shapes.update({f"emb:{i}": (c.domain_size, emb) for i, c in enumerate(columns)})
    return shapes


def init_model(specs: list[ColumnSpec], cfg: ModelConfig, seed: int,
               restrict_codes: dict[str, np.ndarray] | None = None,
               dtype=np.float32) -> ArDensityModel:
    """Fresh model over the given (qualified) column specs, computing in
    ``dtype``, float32 or float64 (``DTYPES``).

    Hidden layers get Glorot-uniform weights under the connectivity mask;
    the output layer starts at zero so every conditional begins uniform.
    The initial values are drawn in float64 and rounded to ``dtype``.
    ``restrict_codes`` limits a categorical column's domain to the given
    table codes (used when training from scratch on retained data).
    """
    columns = model_columns_from_specs(specs, cfg.numeric_bins, restrict_codes)
    if not columns:
        raise ValidationError("model needs at least one column")
    cfg.validate()
    size = sum(math.prod(s) for s in _parameter_shapes(cfg, columns).values())
    model = ArDensityModel(cfg=cfg, columns=columns, theta=np.zeros(size, dtype=dtype))
    rng = np.random.default_rng(seed)
    for k in model.weight_keys()[:-1]:
        w = model.params[k]
        s = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-s, s, size=w.shape)
    for e in model.embeddings:
        e[...] = rng.normal(0.0, 1.0 / np.sqrt(cfg.embedding_dim), size=e.shape)
    model.theta[:model.keep.size] *= model.keep
    return model


# ---------------------------------------------------------------------------
# forward / backward


def _buffer(work: dict, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The array ``work`` keeps under ``name``, allocated anew only when
    ``name`` is missing or holds another shape or dtype."""
    if name not in work or work[name].shape != shape or work[name].dtype != dtype:
        work[name] = np.empty(shape, dtype=dtype)
    return work[name]


def forward(model: ArDensityModel, X: np.ndarray, training: bool = False,
            rng: np.random.Generator | None = None, work: dict | None = None):
    """Logits for a batch of encoded rows; returns (logits, cache).

    ``X`` is (batch, ncols) int codes in current domains.  Dropout is only
    applied when ``training`` is set, drawing masks from ``rng``.  The
    activations, dropout masks and logits are written into arrays of
    ``theta``'s dtype that the ``work`` dict keeps (a fresh dict when none
    is given), so calls on batches of one size reuse the same memory; the
    returned arrays are then overwritten by the next such call.  Every
    block draws its dropout mask into the same array.

    The cache holds what ``_backward`` reads and nothing else: the gathered
    embedding rows (``A0``, with their ``rows``), each residual block's
    ``a`` = relu(h) and ``d`` = relu(z) * dmask, the dropout mask's non-zero
    value 1 / (1 - dropout), both rounded to ``theta``'s dtype
    (``dropout_scale``, None without dropout), and
    ``hf``, the final relu(h).  The residual stream ``h`` is
    one array: ``h += u`` gives the bits ``u + h`` would, and a block's
    ``h`` and ``z`` are not needed once ``a`` and ``d`` exist.
    """
    if work is None:
        work = {}
    B = X.shape[0]
    hid = (B, model.cfg.hidden_dim)
    emb = model.cfg.embedding_dim
    P = model.params
    dt = model.theta.dtype
    # the embedding tables sit back to back at the end of theta, like the
    # logit blocks, so column p's table starts at row offs[p], and input slot
    # p reads its row X[:, p]
    offs = model.logit_offsets()
    table = model.theta[model.theta.size - offs[-1] * emb:].reshape(-1, emb)
    rows = X + offs[:-1]
    A0 = table[rows].reshape(B, -1)

    keep = dt.type(1.0 - model.cfg.dropout)
    scale = 1 / keep if training and model.cfg.dropout > 0.0 else None
    cache = {"rows": rows, "A0": A0, "blocks": [], "dropout_scale": scale}

    h = np.matmul(A0, P["w_in"], out=_buffer(work, "h", hid, dt))
    h += P["b_in"]
    u = _buffer(work, "u", hid, dt)
    for r in range(model.cfg.residual_blocks):
        a = np.maximum(h, 0.0, out=_buffer(work, f"a{r}", hid, dt))
        d = np.matmul(a, P[f"w1_{r}"], out=_buffer(work, f"d{r}", hid, dt))
        d += P[f"b1_{r}"]
        np.maximum(d, 0.0, out=d)
        if scale is not None:
            dmask = rng.random(dtype=dt, out=_buffer(work, "dmask", hid, dt))
            np.multiply(dmask < keep, scale, out=dmask)
            d *= dmask
        np.matmul(d, P[f"w2_{r}"], out=u)
        u += P[f"b2_{r}"]
        h += u
        cache["blocks"].append({"a": a, "d": d})
    hf = np.maximum(h, 0.0, out=h)
    cache["hf"] = hf
    logits = np.matmul(hf, P["w_out"], out=_buffer(work, "logits", (B, offs[-1]), dt))
    logits += P["b_out"]
    return logits, cache


def _log_softmax(block: np.ndarray) -> np.ndarray:
    # each row's maximum read at its argmax, a faster reduction than max; the
    # value is the same whichever index holds it, and the sign of a zero
    # maximum changes no exp
    m = np.take_along_axis(block, block.argmax(axis=1)[:, None], axis=1)
    s = block - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def batch_nll_terms(model: ArDensityModel, X: np.ndarray, logits: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(batch, ncols) negative log conditionals of the true codes, and the
    (batch, total) log-probabilities they are read from.

    Every column's log-softmax is taken over its own logit block in one
    pass over ``logits``, with ``_log_softmax``'s operations: the block
    maxima come from one ``np.maximum.reduceat`` and are broadcast back by
    ``np.repeat``, and each block's exp-sum is that block's own
    ``.sum(axis=1)`` (``np.add.reduceat`` would add in another order).
    """
    offs = model.logit_offsets()
    sizes = np.diff(offs)
    ls = logits - np.repeat(np.maximum.reduceat(logits, offs[:-1], axis=1), sizes, axis=1)
    e = np.exp(ls)
    lse = np.empty((X.shape[0], model.ncols), dtype=logits.dtype)
    for i in range(model.ncols):
        e[:, offs[i]:offs[i + 1]].sum(axis=1, out=lse[:, i])
    ls -= np.repeat(np.log(lse, out=lse), sizes, axis=1)
    return -np.take_along_axis(ls, offs[:-1] + X, axis=1), ls


def _column_weights(model: ArDensityModel, column_weights) -> np.ndarray:
    """The per-column loss weights in ``theta``'s dtype, all 1 by default."""
    if column_weights is None:
        return np.ones(model.ncols, dtype=model.theta.dtype)
    w = np.asarray(column_weights, dtype=model.theta.dtype)
    if w.shape != (model.ncols,):
        raise ValidationError("column_weights length must equal the column count")
    if (w < 0).any():
        raise ValidationError("column_weights must be nonnegative")
    return w


def _output_delta(model: ArDensityModel, X: np.ndarray, ls: np.ndarray,
                  scale: np.ndarray) -> np.ndarray:
    """The loss gradient at the logits, written over the log-probabilities
    ``ls``: softmax minus the one-hot of the true code, times each column's
    ``scale`` (its weight over the batch size)."""
    offs = model.logit_offsets()
    np.exp(ls, out=ls)
    ls[np.arange(X.shape[0])[:, None], offs[:-1] + X] -= 1.0
    ls *= np.repeat(scale, np.diff(offs))
    return ls


def _backward(model: ArDensityModel, cache: dict, dlogits: np.ndarray, sink,
              work: dict) -> np.ndarray:
    """Carry the logit gradient down the network and return ``dh``, the
    gradient at the input layer's output.  For each dense layer above the
    input layer, output layer first, ``sink(key, A, D)`` receives the
    layer's input activations ``A`` and the gradient ``D`` at its output:
    the weight gradient is ``A.T @ D`` and the bias gradient is ``D``'s
    column sum.  The call comes once ``D`` has been carried through the
    layer's weights, so the sink may change them; ``D`` changes after it
    returns.  ``work`` holds the gradient arrays as in ``forward``.

    Each ReLU mask is read off that ReLU's cached output: relu(x) > 0
    exactly where x > 0, so ``hf > 0`` and ``a > 0`` are the masks of the
    pre-activations.  ``d > 0`` holds exactly where both the ReLU and the
    dropout mask pass, and the mask is ``dropout_scale`` there, so
    ``(dz * [d > 0]) * dropout_scale`` gives the bits of
    ``(dz * dmask) * [z > 0]``, signed zeros, infinities and NaNs included;
    only a ``dz * dropout_scale`` that overflows where the ReLU blocks would
    give 0 here and NaN there."""
    P = model.params
    scale = cache["dropout_scale"]
    hf = cache["hf"]
    dh = np.matmul(dlogits, P["w_out"].T, out=_buffer(work, "dh", hf.shape, hf.dtype))
    sink("w_out", hf, dlogits)
    dh *= hf > 0.0
    for r in reversed(range(model.cfg.residual_blocks)):
        blk = cache["blocks"][r]
        dz = np.matmul(dh, P[f"w2_{r}"].T, out=_buffer(work, "dz", hf.shape, hf.dtype))
        sink(f"w2_{r}", blk["d"], dh)
        dz *= blk["d"] > 0.0
        if scale is not None:
            dz *= scale
        da = np.matmul(dz, P[f"w1_{r}"].T, out=_buffer(work, "da", hf.shape, hf.dtype))
        sink(f"w1_{r}", blk["a"], dz)
        da *= blk["a"] > 0.0
        dh += da
    return dh


def loss_and_grad(model: ArDensityModel, X: np.ndarray, update,
                  column_weights: np.ndarray | None = None,
                  training: bool = False, rng: np.random.Generator | None = None,
                  work: dict | None = None) -> float:
    """Weighted NLL, averaged over the batch, whose exact gradient goes to
    ``update(lo, g)`` in pieces; returns the loss.

    The loss is mean_batch sum_i w_i * (-log p(col_i | earlier columns)).
    ``g`` is the gradient of ``theta[lo:lo + g.size]``, zero wherever
    ``keep`` is False, in an array the next piece overwrites.  Each dense
    layer comes once the backward pass has carried the delta through its
    weights, so ``update`` may change them, output layer first; then the
    tail of biases and embeddings.  A non-finite loss returns before the
    backward pass, with nothing handed over.

    Every array lives in ``work``: a caller that passes the same ``work``
    to every call, as ``train`` does, gets the same arrays back.  Without
    ``work`` each call gets a fresh dict.

    Every part of the gradient is written on every call, in place: each
    weight block by ``np.matmul(..., out=)``, each bias by
    ``np.sum(..., out=)``, and the embedding rows by one ``np.bincount``
    over the flat cell index of every (row, input slot, component).  The
    log-softmax of each column is computed once and serves both the loss
    and ``exp(ls)``, and the ReLU and dropout backward steps multiply in
    place.  Each of these does the same floating-point operations in the
    same order as the plain expressions (``bincount``, like ``np.add.at``
    on a float64 array, adds a cell's rows in row order starting from 0.0,
    in float64 whatever ``theta``'s dtype; the sums are then rounded to
    it), so the loss and the gradient are byte-identical to them.
    """
    if work is None:
        work = {}
    w = _column_weights(model, column_weights)
    B = X.shape[0]
    logits, cache = forward(model, X, training=training, rng=rng, work=work)
    terms, ls = batch_nll_terms(model, X, logits)
    loss = float((terms * w).sum(axis=1).mean())
    if not math.isfinite(loss):
        return loss
    dlogits = _output_delta(model, X, ls, w / B)

    keep = model.keep
    keys = model.weight_keys()
    sizes = [model.params[k].size for k in keys]
    starts = dict(zip(keys, np.cumsum([0] + sizes[:-1]).tolist()))
    layer = _buffer(work, "layer_grad", (max(sizes),), model.theta.dtype)
    tail = _buffer(work, "tail_grad", (model.theta.size - keep.size,), model.theta.dtype)
    T = model.unflatten(tail, start=keep.size)

    def write(key, act, delta):
        lo = starts[key]
        g = layer[:act.shape[1] * delta.shape[1]]
        np.matmul(act.T, delta, out=g.reshape(act.shape[1], delta.shape[1]))
        g *= keep[lo:lo + g.size]
        np.sum(delta, axis=0, out=T["b" + key[1:]])
        update(lo, g)

    dh = _backward(model, cache, dlogits, write, work)
    dA0 = dh @ model.params["w_in"].T
    write("w_in", cache["A0"], dh)
    # cell (row, slot p, component j) is element j of the slot's embedding
    # row, counted from the start of the embedding tables
    emb = model.cfg.embedding_dim
    cells = (cache["rows"] * emb)[:, :, None] + np.arange(emb)
    tables = sum(e.size for e in model.embeddings)
    tail[tail.size - tables:] = np.bincount(cells.ravel(), weights=dA0.ravel(),
                                            minlength=tables)
    update(keep.size, tail)
    return loss


def batch_weight_grads(model: ArDensityModel, X: np.ndarray, column_weights: np.ndarray,
                       batch_rows: int, sink, work: dict):
    """Dense weight gradients of the weighted NLL for each of the batches of
    ``batch_rows`` rows stacked in ``X``, without dropout.

    One forward pass and one backward delta chain serve the whole stack;
    only the weight products ``A_b.T @ D_b`` are taken per batch, and each
    batch's loss is averaged over its own ``batch_rows``.  For every dense
    layer, output layer first, and every batch in stack order,
    ``sink(key, g)`` receives the gradient of weight ``key``, equal to the
    block ``loss_and_grad`` gives that batch alone before the keep-mask, in
    an array the next call overwrites.  Biases and embeddings get no
    gradient.  Every array the pass needs lives in ``work``, which the
    caller keeps across calls: a stack's activations outgrow the heap space
    the allocator keeps, so fresh arrays would cost a page fault per page
    on every call.
    """
    w = _column_weights(model, column_weights)
    logits, cache = forward(model, X, work=work)
    dlogits = _output_delta(model, X, batch_nll_terms(model, X, logits)[1], w / batch_rows)
    # one gradient array the size of the largest dense layer serves every
    # layer in turn
    buf = _buffer(work, "layer_grad", (max(model.params[k].size for k in model.weight_keys()),),
                  model.theta.dtype)

    def per_batch(key, act, delta):
        g = buf[:act.shape[1] * delta.shape[1]].reshape(act.shape[1], delta.shape[1])
        for lo in range(0, X.shape[0], batch_rows):
            sink(key, np.matmul(act[lo:lo + batch_rows].T, delta[lo:lo + batch_rows], out=g))

    dh = _backward(model, cache, dlogits, per_batch, work)
    per_batch("w_in", cache["A0"], dh)


# ---------------------------------------------------------------------------
# training


class AdamState:
    """Adam (Kingma & Ba, 2015) on ``theta``, updated in place.

    Besides the moments ``m`` and ``v`` it keeps two chunk-sized work
    vectors, all in ``theta``'s dtype, so an update allocates nothing the
    size of ``theta``.
    ``step(lo, grad)`` applies step ``t`` to ``theta[lo:lo + grad.size]``
    of the model it was built for, so a step arrives in pieces, as
    ``loss_and_grad`` hands them over; the caller advances ``t`` once per
    step.  A piece is walked in chunks of ``ADAM_CHUNK`` elements, so the
    six arrays it streams (``theta``, the gradient, both moments and both
    work vectors) stay in L2 while a chunk passes through the whole update.
    On each chunk it applies ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g`` and
    ``theta -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)`` through ``out=`` ufuncs
    with the same operands in the same order.  Every element sees the
    operations of the plain expressions in their order, however the step is
    cut into pieces, so ``theta`` is byte-identical to what they give.

    Adam does not read ``keep``.  A masked position holds ±0 and
    ``loss_and_grad`` hands it a ±0 gradient, so its moments stay +0 and
    the update subtracts exactly +0, which leaves its bits as they were.
    """

    def __init__(self, model: ArDensityModel):
        self.model = model
        self.t = 0
        self.m = np.zeros_like(model.theta)
        self.v = np.zeros_like(model.theta)
        self.work = np.empty((2, min(ADAM_CHUNK, model.theta.size)),
                             dtype=model.theta.dtype)

    def step(self, lo: int, grad: np.ndarray):
        cfg = self.model.cfg
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        theta = self.model.theta
        end = lo + grad.size
        for a in range(lo, end, ADAM_CHUNK):
            b = min(a + ADAM_CHUNK, end)
            num, den = self.work[:, :b - a]
            m, v, g, th = self.m[a:b], self.v[a:b], grad[a - lo:b - lo], theta[a:b]
            m *= cfg.beta1
            m += np.multiply(g, 1.0 - cfg.beta1, out=num)
            v *= cfg.beta2
            np.multiply(g, 1.0 - cfg.beta2, out=den)
            v += np.multiply(den, g, out=den)
            np.divide(m, bc1, out=num)
            num *= cfg.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += cfg.eps
            num /= den
            th -= num


def train(model: ArDensityModel, data: np.ndarray, seed: int,
          epochs: int | None = None, batch_size: int | None = None,
          step_hook=None) -> list[float]:
    """Adam training on encoded rows, in place; returns the per-step loss trace.

    Shuffles rows each epoch and walks them in batches (so one epoch sees
    every row exactly once).  Dropout is active; all randomness comes from
    a generator seeded with ``seed``.  Raises TrainingError with the step
    index if the loss turns non-finite, before that step changes ``theta``.

    ``loss_and_grad`` hands ``AdamState.step`` each step's gradient one
    layer at a time, so no gradient the size of ``theta`` exists, and one
    workspace serves every step.  A batch of another size (the last, short
    batch of an epoch) reallocates the batch-sized arrays.
    """
    if data.shape[0] == 0:
        raise EmptyRelationError("cannot train on an empty relation")
    epochs = model.cfg.epochs if epochs is None else epochs
    batch_size = model.cfg.batch_size if batch_size is None else batch_size
    rng = np.random.default_rng(seed)
    adam = AdamState(model)
    work: dict = {}
    trace: list[float] = []
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(data.shape[0])
        for start in range(0, len(perm), batch_size):
            batch = data[perm[start:start + batch_size]]
            adam.t += 1
            loss = loss_and_grad(model, batch, adam.step, training=True, rng=rng, work=work)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at step {step}", step=step)
            trace.append(loss)
            step += 1
            if step_hook is not None:
                step_hook(step, model)
    return trace


# ---------------------------------------------------------------------------
# encoding raw join tuples into current-domain codes


def encode_relation(model: ArDensityModel, rel: JoinRelation,
                    gap_policy: str = "error") -> tuple[np.ndarray, np.ndarray]:
    """Encode a join relation into model codes.

    Returns (codes, valid): rows with a categorical value outside the
    model's current domain are marked invalid (there is nothing to map them
    to).  Numeric values inside deleted gaps raise GapError under
    ``gap_policy="error"`` or are clamped to the nearest retained boundary
    under ``"clamp"``.
    """
    n = rel.cardinality
    codes = np.zeros((n, model.ncols), dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    for i, col in enumerate(model.columns):
        raw = rel.column(col.name)
        if col.kind == CATEGORICAL:
            mapped = col.code_lut()[raw.astype(np.int64)]
            valid &= mapped >= 0
            codes[:, i] = np.where(mapped >= 0, mapped, 0)
        else:
            vals = raw.astype(np.float64)
            if col.remap is not None:
                vals = remap_array(col.remap, vals, on_gap=gap_policy)
            codes[:, i] = numeric_bin_index(vals, col.lo, col.hi, col.bins)
    return codes, valid


# ---------------------------------------------------------------------------
# inference


def estimate_selectivity(model: ArDensityModel, constraints: dict[str, np.ndarray],
                         num_samples: int = 512,
                         rng: np.random.Generator | None = None,
                         with_error: bool = False):
    """Progressive-sampling estimate of the probability mass satisfying all
    per-column constraints.

    ``constraints`` maps column names to weight vectors over the column's
    current domain (entries in [0, 1], else ``ValidationError``; fractional
    entries express partial bin overlap).  Paths walk the columns in order:
    at a constrained column the running weight is multiplied by the
    conditional mass of the satisfying set and the next value is drawn from
    the restricted conditional; unconstrained columns are sampled freely.
    Columns after the last constrained one cannot change the estimate and
    are skipped.

    ``num_samples`` is a cap.  All of a query's uniforms are drawn up front,
    one row per sampled column and path j reading column j, which are the
    values and the order of one ``rng.random(num_samples)`` per column; so
    ``rng`` ends in the same state however many paths run.  The first
    ``SAMPLE_ROUND`` paths run, and the call stops there if their mean is
    > 0 and their standard error is at most ``SEM_TARGET`` of it.
    Otherwise the remaining paths run into the same weight vector and the
    estimate is the mean over all of them.  A first round whose weights are
    all zero runs the full budget: a later path may still weigh more than
    0, and a stop would report exactly 0.  A path's weight depends only on
    its own uniforms, so a full-budget estimate is the one a single round of
    ``num_samples`` paths gives, and a stopped one is the mean of that
    run's first ``SAMPLE_ROUND`` paths.  A constraint vector with no
    positive entry, such as a predicate on values Domain Pruning removed,
    makes every path weigh exactly 0: the call then returns 0 once the
    uniforms are drawn, and samples no path.

    With ``with_error`` the call returns ``(estimate, sem, paths)``: the
    Monte-Carlo standard error of the path-weight mean over the paths
    actually used, and their number; an all-zero constraint gives
    ``(0.0, 0.0, 0)``.
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    for name in constraints:
        model.column_index(name)  # raises on unknown column
    if not constraints:
        return (1.0, 0.0, 0) if with_error else 1.0
    if rng is None:
        rng = np.random.default_rng(0)

    dt = model.theta.dtype
    by_col = {}
    for name, wv in constraints.items():
        i = model.column_index(name)
        wv = np.asarray(wv, dtype=dt)
        if wv.shape != (model.columns[i].domain_size,):
            raise ValidationError(f"constraint on {name!r} has wrong length")
        if not ((wv >= 0.0) & (wv <= 1.0)).all():   # NaN fails both
            raise ValidationError(f"constraint on {name!r} must lie in [0, 1]")
        by_col[i] = wv

    n = num_samples
    uniforms = rng.random((max(by_col), n), dtype=dt)
    if not all(wv.any() for wv in by_col.values()):
        # every path's weight would be multiplied by probs @ 0
        return (0.0, 0.0, 0) if with_error else 0.0
    weight = np.empty(n, dtype=dt)
    used = min(n, SAMPLE_ROUND)
    _sample_paths(model, by_col, uniforms[:, :used], weight[:used])
    if used < n:
        first = weight[:used]
        est = first.mean()
        if not (est > 0.0 and first.std(ddof=1) / np.sqrt(used) <= SEM_TARGET * est):
            _sample_paths(model, by_col, uniforms[:, used:], weight[used:])
            used = n
    weight = weight[:used]
    if with_error:
        sem = float(weight.std(ddof=1) / np.sqrt(used)) if used > 1 else 0.0
        return float(weight.mean()), sem, used
    return float(weight.mean())


def _sample_paths(model: ArDensityModel, by_col: dict[int, np.ndarray],
                  uniforms: np.ndarray, weight: np.ndarray):
    """Walk the paths of ``weight`` through the columns up to the last key of
    ``by_col`` and write their final weights into it; path j draws column p
    with ``uniforms[p, j]``.

    The network is evaluated degree-incrementally rather than by a full
    ``forward`` per column.  Hidden units are stored in MADE-degree order,
    so the logits of column p read only the first ``k[p]`` units (degree
    <= p), and those units read only the input slots of columns < p.  A
    unit of degree d reads only columns < d, all sampled before step d, so
    it is computed once, at step d, and never changes afterwards.
    Step p therefore computes the input layer and every residual block for
    the new units ``k[p-1]:k[p]`` alone, reading the cached activations of
    units ``:k[p]`` one layer down, then the column's own ``w_out`` block.
    Every connectivity-mask entry inside these slices is 1, so the sampler
    does exactly the unmasked multiply-adds of one forward pass per query,
    and the result equals ``forward``'s up to the order of floating-point
    sums.  A step that adds no unit computes the column's logits alone.
    With a single column every unit has degree 0 and step 0 computes them
    all; with more, no unit feeds column 0, so its logits are the bias for
    every path, and an unconstrained column 0 is computed on one row that
    every path draws from.  A path's column in each matrix product reads
    only that path's state, so where BLAS sums one column in the same order
    whatever the number of columns (OpenBLAS 0.3.31 on x86-64 does; the
    tests check it), a path gets the same bits in a round of any size.

    The weights are read in place through ``model.plan``, which ``bind``
    builds: per column, transposed views of ``params[key][:k[p], new]``
    that BLAS takes without a copy, and the column's ``w_out`` block.  The
    per-path state is stored transposed, units x paths, so each step's new
    units are contiguous rows that matrix products write into directly.
    The state, the constraint vectors, the path weights and the uniform
    draws take ``theta``'s dtype.  The activations sit in one workspace
    sized to the units of degree <= the last constrained column, and a
    step's new ``h`` and ``u`` in a second one sized to the most units a
    step adds: two allocations per round, which the allocator hands back
    from the heap on the next call instead of mapping fresh pages, each of
    which would cost a page fault when first written.
    """
    last = max(by_col)
    n = weight.size
    emb, R = model.cfg.embedding_dim, model.cfg.residual_blocks
    plan = model.plan[:last + 1]
    K, most = plan[-1].k, max(s.k - s.lo for s in plan)
    # per-path state, units x paths: relu(h) entering each residual block
    # (acts[R] feeds w_out) and relu(z) inside each block; the new units'
    # h and u; the sampled columns' embeddings in column order
    work = np.empty((2 * R + 1, K, n), dtype=weight.dtype)
    acts, mids = work[:R + 1], work[R + 1:]
    hs, us = np.empty((2, most, n), dtype=weight.dtype)
    A0 = np.empty((emb * last, n), dtype=weight.dtype)
    weight[:] = 1.0
    for p, step in enumerate(plan):
        kp, new = step.k, slice(step.lo, step.k)
        if kp > step.lo:
            h = np.matmul(step.w_in, A0[:emb * p], out=hs[:kp - step.lo])
            h += step.b_in
            for r, (w1, b1, w2, b2) in enumerate(step.blocks):
                np.maximum(h, 0.0, out=acts[r, new])
                z = np.matmul(w1, acts[r, :kp], out=mids[r, new])
                z += b1
                np.maximum(z, 0.0, out=z)
                u = np.matmul(w2, mids[r, :kp], out=us[:kp - step.lo])
                u += b2
                h += u
            np.maximum(h, 0.0, out=acts[R, new])
        wv = by_col.get(p)
        # no unit feeds column 0, so its logits are the bias on every path:
        # unconstrained, it is computed on one row that every path draws from
        rows = n if kp or wv is not None else 1
        block = acts[R, :kp, :rows].T @ step.w_out + step.b_out
        probs = np.exp(_log_softmax(block))
        if wv is not None:
            weight *= probs @ wv
            probs = probs * wv
        if p < last:
            cdf = np.cumsum(probs, axis=1)
            # the cumsum's own total: a separately summed total can exceed
            # it by an ulp and let the draw land past the last allowed code.
            # Unconstrained, it is > 0: the likeliest code's probability is
            # exp(-log(s)), where s is at most the domain size
            totals = cdf[:, -1]
            if wv is None:
                nxt = _draw(cdf, uniforms[p] * totals)
            else:
                alive = totals > 0.0
                nxt = np.where(alive, _draw(cdf, uniforms[p] * np.where(alive, totals, 1.0)), 0)
                weight[~alive] = 0.0
            A0[emb * p:emb * (p + 1)] = model.embeddings[p][nxt].T


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per path, the first code whose rising ``cdf`` is not below ``u``, or
    the last code when the whole row lies below it: the value of
    ``min((cdf < u).sum(1), d - 1)``, found with ``argmin`` instead of a row
    sum.  ``cdf`` holds one row per path, or one row that every path
    shares."""
    below = cdf < u[:, None]
    return np.where(below[:, -1], cdf.shape[1] - 1, below.argmin(axis=1))


def interval_bin_weights(lo: float, hi: float, col_lo: float, col_hi: float,
                         bins: int) -> np.ndarray:
    """Per-bin overlap fraction of [lo, hi] with each equal-width bin of
    [col_lo, col_hi].  Fully covered bins get 1, boundary bins the covered
    fraction of their width."""
    w = np.zeros(bins)
    if hi < lo or col_hi <= col_lo:
        return w
    scale = bins / (col_hi - col_lo)
    blo = (max(lo, col_lo) - col_lo) * scale
    bhi = (min(hi, col_hi) - col_lo) * scale
    edges = np.arange(bins + 1, dtype=np.float64)
    overlap = np.minimum(bhi, edges[1:]) - np.maximum(blo, edges[:-1])
    return np.clip(overlap, 0.0, 1.0)


# ---------------------------------------------------------------------------
# checkpoints


def _column_meta(col: ModelColumn) -> dict:
    meta = {"name": col.name, "kind": col.kind}
    if col.kind == CATEGORICAL:
        meta["codes"] = [int(v) for v in col.codes]
        meta["values"] = [int(v) for v in col.values]
        meta["dict_size"] = col.dict_size
    else:
        meta["lo"], meta["hi"], meta["bins"] = col.lo, col.hi, col.bins
        if col.remap is not None:
            meta["remap"] = {"lo": col.remap.lo, "hi": col.remap.hi,
                             "subranges": [[a, b] for a, b in col.remap.subranges]}
        else:
            meta["remap"] = None
    return meta


def _column_from_meta(meta: dict) -> ModelColumn:
    """Inverse of ``_column_meta``; raises KeyError, TypeError or ValueError
    on a missing or mistyped field, categorical codes that are not strictly
    increasing, or numerical bounds that are not finite with lo <= hi."""
    if meta["kind"] == CATEGORICAL:
        codes, values = np.array(meta["codes"]), np.array(meta["values"])
        dict_size = operator.index(meta["dict_size"])
        if not (codes.ndim == 1 and codes.size and codes.dtype.kind == "i"
                and values.shape == codes.shape and values.dtype.kind == "i"
                and 0 <= codes.min() and codes.max() < dict_size
                and (np.diff(codes) > 0).all()):
            raise ValueError(f"column {meta['name']!r}: bad codes or values")
        return ModelColumn(meta["name"], CATEGORICAL, codes=codes.astype(np.int64),
                           values=values.astype(np.int64), dict_size=dict_size)
    if meta["kind"] != NUMERICAL:
        raise ValueError(f"column {meta['name']!r}: unknown kind {meta['kind']!r}")
    if operator.index(meta["bins"]) < 1:
        raise ValueError(f"column {meta['name']!r}: bins must be >= 1")
    lo, hi = float(meta["lo"]), float(meta["hi"])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"column {meta['name']!r}: bounds must be finite, lo <= hi")
    remap = None
    if meta.get("remap"):
        remap = NumericRemap(meta["remap"]["lo"], meta["remap"]["hi"],
                             tuple((a, b) for a, b in meta["remap"]["subranges"]))
        if (remap.lo, remap.hi) != (lo, hi):
            raise ValueError(f"column {meta['name']!r}: remap range differs from the column's")
    return ModelColumn(meta["name"], NUMERICAL, lo=lo, hi=hi, bins=meta["bins"],
                       remap=remap)


def save_checkpoint(model: ArDensityModel, path: str | Path):
    """Binary checkpoint: magic, version, JSON metadata (which names
    ``theta``'s dtype), then ``theta`` little-endian in that dtype and its
    in-memory order, and a trailing 8-byte SHA-256 prefix over everything
    before it.  ``keep`` is the connectivity the metadata gives, so it is
    not stored."""
    dt = model.theta.dtype
    meta = {"config": asdict(model.cfg), "dtype": dt.name,
            "columns": [_column_meta(c) for c in model.columns]}
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)),
             meta_bytes, np.ascontiguousarray(model.theta, dtype=dt.newbyteorder("<"))]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:  # hashed and written in place, never joined
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest()[:8])


def load_checkpoint(path: str | Path) -> ArDensityModel:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    body, digest = memoryview(raw)[:-8], raw[-8:]
    if hashlib.sha256(body).digest()[:8] != digest:
        raise FormatError(f"{path}: checksum mismatch")
    version, = struct.unpack("<I", body[4:8])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version} "
                          f"(this build reads version {CHECKPOINT_VERSION})")
    meta_len, = struct.unpack("<I", body[8:12])
    try:
        meta = json.loads(str(body[12:12 + meta_len], "utf-8"))
        cfg = ModelConfig(**meta["config"])
        cfg.validate()
        columns = [_column_from_meta(m) for m in meta["columns"]]
        if not columns:
            raise ValueError("no columns")
        if len({c.name for c in columns}) != len(columns):
            raise ValueError("duplicate column names")
        if meta["dtype"] not in DTYPES:
            raise ValueError(f"dtype {meta['dtype']!r} is not one of {DTYPES}")
        dt = np.dtype(meta["dtype"])
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise FormatError(f"{path}: malformed checkpoint metadata: {exc!r}") from exc
    n_theta = sum(math.prod(s) for s in _parameter_shapes(cfg, columns).values())
    off = 12 + meta_len
    if off + dt.itemsize * n_theta != len(body):
        raise FormatError(f"{path}: array bytes do not match the metadata")
    theta = np.frombuffer(body, dtype=dt.newbyteorder("<"), offset=off).astype(dt)
    if not np.isfinite(theta).all():
        raise FormatError(f"{path}: theta holds NaN or infinity")
    model = ArDensityModel(cfg=cfg, columns=columns, theta=theta)
    if (model.theta[:model.keep.size][~model.keep] != 0.0).any():
        raise FormatError(f"{path}: non-zero weight at a masked position")
    return model
