"""Minimal dense transformer-encoder classifier in numpy.

Parameterized exactly by :class:`~distillsearch.archspace.ArchConfig`:
the scalar weight count always equals ``estimators.param_count``, an
instrumented B=1 :func:`forward` tallies exactly ``estimators.forward_flops``
and a batched pass ``estimators.live_flops`` per sequence.
Used as both teacher and student at desk scale, so it also holds the one
engine both run on: :func:`train_loop` (any loss over the logits),
:func:`predict_logits` (batched inference in input order) and
:func:`match_rate` (argmax agreement with labels or with another model).

Layout (post-norm BERT-family): token + position embeddings, embedding
layer-norm, then per layer a bidirectional self-attention block and a
GELU feed-forward block, each followed by residual add + layer-norm;
classification from the first token through a tanh pooler and a linear
head. Weights are views into one flat buffer, as are gradients. Every
artifact, checkpoint or not, loads through :func:`read_artifact`, which names
the file of any malformed content.

A model computes in its flat buffer's dtype, float64 or float32: every
activation, cache entry, gradient and Adam moment takes it. Constants are
Python floats, which under numpy's NEP 50 promotion never widen an array.
:func:`init`, :func:`load_checkpoint` and :class:`TrainParams` choose the
dtype, float64 by default, so finite-difference gradient checks stay tight.
Checkpoints store fp32, so saving a float32 model loses nothing. Losses stay
float64: :func:`train_loop` widens the logits it hands a loss, and
:func:`backward` narrows the gradient it gets back.

GELU is the exact-erf form, x * Phi(x) (Hendrycks & Gimpel, arXiv 1606.08415).
float64 takes Phi from scipy's erf, since the finite-difference gradient checks
need its accuracy and an approximation is no faster there. float32 takes it
from :func:`_normal_cdf_f32`, Abramowitz & Stegun 7.1.26 in numpy alone: with
t = 1 / (1 + p |x| / sqrt 2), Phi(-|x|) = poly(t) exp(-x^2 / 2) / 2 and
Phi = 1/2 + copysign(1/2 - Phi(-|x|), x). Its largest error against float64
Phi is 1.7e-7, where scipy's float32 erf, which runs its float64 loop at 2 to 4
times the cost, reads 6e-8. Inference GELU runs over blocks of whole
sequences of at most :data:`GELU_BLOCK` elements, which bounds its temporaries
and needs far fewer calls than one sequence at a time.

A batched pass keeps alive only what the next operation or :func:`backward`
reads. Each attention and feed-forward sub-block, forward and backward,
runs in a helper of its own, so its temporaries are freed when it returns:
an inference pass holds at most one (batch, seq, ffn) array and a few
(batch, seq, hidden) ones. Bias and residual adds, layer norm, softmax and
GELU's gradient work in place, each step the same operation on the same
operands as the plain expression, so no bit moves.

Every product of an activation with a 2-D weight, forward and backward, goes
through :func:`matmul`, which runs it as one GEMM over all rows of the batch
(B·s, or B in the last layer's live rows). numpy would run one small GEMM per
sequence, and at the teacher's shapes the one large GEMM is faster. A GEMM's
rounding depends on its row count and on the BLAS kernel, so a batched pass's
bits depend on how many rows it holds; a single sequence's pass keeps its own.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .archspace import ArchConfig

LN_EPS = 1e-5
INIT_STD = 0.02
DTYPES = (np.dtype(np.float64), np.dtype(np.float32))  # what a model can compute in


class InvalidInputError(ValueError):
    """Token ids out of vocabulary or sequence longer than the model allows."""


class FlopCounter:
    """Tallies 2*m*n*k per matrix product routed through :func:`matmul`."""

    def __init__(self):
        self.flops = 0

    def add_matmul(self, a_shape, b_shape):
        m, k = a_shape[-2], a_shape[-1]
        n = b_shape[-1]
        batch = 1
        for dim in a_shape[:-2]:
            batch *= dim
        self.flops += 2 * batch * m * k * n


def matmul(a: np.ndarray, b: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """``a @ b``, tallied into ``counter``. A batch's product with a 2-D weight runs
    as one GEMM over all rows of ``a``'s leading axes, where numpy would run one
    small GEMM per sequence; a single sequence's product already is one GEMM."""
    if counter is not None:
        a_shape = a.shape if a.ndim >= 2 else (1, a.shape[0])
        counter.add_matmul(a_shape, b.shape)
    if b.ndim == 2 and a.ndim == 3 and len(a) > 1:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[-1])
    return a @ b


def layer_weight_names(i: int) -> list[str]:
    p = f"layer{i}."
    return [
        p + "q_w", p + "q_b", p + "k_w", p + "k_b",
        p + "v_w", p + "v_b", p + "o_w", p + "o_b",
        p + "attn_ln_g", p + "attn_ln_b",
        p + "ffn_up_w", p + "ffn_up_b", p + "ffn_down_w", p + "ffn_down_b",
        p + "ffn_ln_g", p + "ffn_ln_b",
    ]


def weight_names(config: ArchConfig) -> list[str]:
    names = ["tok_emb", "pos_emb", "emb_ln_g", "emb_ln_b"]
    for i in range(config.layers):
        names.extend(layer_weight_names(i))
    names.extend(["pooler_w", "pooler_b", "cls_w", "cls_b"])
    return names


def _weight_shape(name: str, config: ArchConfig) -> tuple[int, ...]:
    h, d = config.hidden, config.ffn
    base = name.split(".")[-1]
    shapes = {
        "tok_emb": (config.vocab, h),
        "pos_emb": (config.max_seq_len, h),
        "emb_ln_g": (h,), "emb_ln_b": (h,),
        "q_w": (h, h), "q_b": (h,), "k_w": (h, h), "k_b": (h,),
        "v_w": (h, h), "v_b": (h,), "o_w": (h, h), "o_b": (h,),
        "attn_ln_g": (h,), "attn_ln_b": (h,),
        "ffn_up_w": (h, d), "ffn_up_b": (d,),
        "ffn_down_w": (d, h), "ffn_down_b": (h,),
        "ffn_ln_g": (h,), "ffn_ln_b": (h,),
        "pooler_w": (h, h), "pooler_b": (h,),
        "cls_w": (h, config.num_classes), "cls_b": (config.num_classes,),
    }
    return shapes[base]


@functools.lru_cache(maxsize=32)
def _layout(config: ArchConfig) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """(name, shape, start, stop) of each tensor in a flat buffer, in weight_names order."""
    layout, stop = [], 0
    for name in weight_names(config):
        shape = _weight_shape(name, config)
        start, stop = stop, stop + int(np.prod(shape))
        layout.append((name, shape, start, stop))
    return tuple(layout)


def _compute_dtype(dtype) -> np.dtype:
    """``dtype`` as a numpy dtype if it is one of :data:`DTYPES`; else ValueError."""
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        resolved = None
    # None is refused, though np.dtype(None) is float64 and a dtype compares equal to it
    if dtype is None or resolved is None or resolved not in DTYPES:
        raise ValueError(f"dtype must be float64 or float32, got {dtype!r}")
    return resolved


def _views(flat: np.ndarray, config: ArchConfig) -> dict[str, np.ndarray]:
    return {name: flat[start:stop].reshape(shape) for name, shape, start, stop in _layout(config)}


@dataclass
class EncoderModel:
    """Weights for ``config`` as named views into one buffer, ``flat``, whose
    dtype the model computes in, plus the teacher-id to model-id map when the
    model was distilled onto a smaller vocabulary. Callers apply the map to
    their ids before :func:`forward`."""

    config: ArchConfig
    flat: np.ndarray
    vocab_map: dict[int, int] | None = None
    weights: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = _views(self.flat, self.config)


def init(config: ArchConfig, rng: np.random.Generator | int,
         dtype=np.float64) -> EncoderModel:
    """Seed-deterministic init: N(0, 0.02) matrices, unit LN scales, zero biases, in
    a ``dtype`` buffer (the same fp64 draws, rounded once for float32)."""
    if config.hidden % config.heads != 0:
        raise ValueError("hidden must be divisible by heads")
    dtype = _compute_dtype(dtype)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    model = EncoderModel(config, np.empty(_layout(config)[-1][-1], dtype=dtype))
    for name, w in model.weights.items():
        base = name.split(".")[-1]
        if base.endswith("_g"):
            w.fill(1.0)
        elif base.endswith("_b"):
            w.fill(0.0)
        else:
            w[...] = rng.normal(0.0, INIT_STD, size=w.shape)
    return model


# ---------------------------------------------------------------------------
# forward / backward


def _layer_norm_fwd(x, g, b):
    """Layer norm over the last axis: ``(g * xhat + b, (xhat, inv, g))``. ``x`` is
    overwritten and becomes ``xhat``; each step is the textbook expression's own
    operation, done in place, so every bit is the same."""
    mu = x.mean(-1, keepdims=True)
    xc = np.subtract(x, mu, out=x)
    var = (xc * xc).mean(-1, keepdims=True)
    var += LN_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat = np.multiply(xc, inv, out=xc)
    y = g * xhat
    y += b
    return y, (xhat, inv, g)


def _layer_norm_bwd(dy, cache):
    """(dx, dg, db) of :func:`_layer_norm_fwd` given ``dy``, which is overwritten
    and becomes ``dx``: inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    with dxhat = dy * g, step for step."""
    xhat, inv, g = cache
    axes = tuple(range(dy.ndim - 1))
    t = dy * xhat
    dg = t.sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = np.multiply(dy, g, out=dy)
    np.multiply(dxhat, xhat, out=t)
    np.multiply(xhat, t.mean(-1, keepdims=True), out=t)
    dxhat -= dxhat.mean(-1, keepdims=True)
    dxhat -= t
    dxhat *= inv
    return dxhat, dg, db


GELU_BLOCK = 32768  # elements: Phi's temporaries stay this small however large the batch


def _gelu(x, out=None):
    """x * Phi(x) into ``out``, which may be ``x``, over blocks of whole sequences
    of at most GELU_BLOCK elements (one sequence when it is larger): (batch, seq,
    ffn) temporaries would set the peak memory of batched inference. Every step is
    elementwise, so the blocks give the bits one sequence at a time would."""
    out = np.empty_like(x) if out is None else out
    step = max(1, GELU_BLOCK // math.prod(x.shape[1:]))
    for start in range(0, len(x), step):
        block = slice(start, start + step)
        np.multiply(x[block], _normal_cdf(x[block]), out=out[block])
    return out


def _normal_cdf(x):
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2, so GELU(x) = x * Phi(x). A training
    pass caches Phi, and backward gets GELU and its gradient without a
    second erf. float32 takes :func:`_normal_cdf_f32`; float64 keeps scipy's
    erf, whose accuracy the finite-difference gradient checks need."""
    if x.dtype == np.float32:
        return _normal_cdf_f32(x)
    from scipy.special import erf  # here, not at the top: search and estimate never run a forward
    phi = x / math.sqrt(2.0)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


# Abramowitz & Stegun 7.1.26: erfc(z) = (a1 t + ... + a5 t^5) exp(-z^2) + e,
# |e| <= 1.5e-7, with t = 1 / (1 + p z) for z >= 0
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# the same polynomial in w = 1 - t, halved, so that Phi(-|x|) = poly(w) exp(-x^2 / 2):
# w is small where x is, so float32 rounding near x = 0 costs 1.7e-7, not Horner in t's 3.0e-7
_PHI_W = tuple(0.5 * (-1) ** k * sum(a * math.comb(i, k) for i, a in enumerate(_AS_A, 1))
               for k in range(len(_AS_A) + 1))
_PHI_CLAMP = 16.0  # Phi(-16) is 0 in float32; beyond it x^2 could overflow and inf / inf is nan


def _normal_cdf_f32(x):
    """Phi of a float32 array by A&S 7.1.26 in numpy alone:
    Phi = 1/2 + copysign(1/2 - Phi(-|x|), x). scipy's float32 erf runs its float64
    loop, at 2 to 4 times this kernel's time (more the wider x spreads). The
    largest error against float64 Phi is 1.7e-7 (scipy's float32 erf: 6e-8). It
    holds one temporary the size of ``x`` beside the result and masks nothing, so
    nan stays nan."""
    w = np.abs(x)
    np.minimum(w, _PHI_CLAMP, out=w)
    q = w + math.sqrt(2.0) / _AS_P
    w /= q  # 1 - t = p z / (1 + p z)
    np.multiply(w, _PHI_W[-1], out=q)
    for c in _PHI_W[-2:0:-1]:
        q += c
        q *= w
    q += _PHI_W[0]
    np.clip(x, -_PHI_CLAMP, _PHI_CLAMP, out=w)
    w *= w
    w *= -0.5
    np.exp(w, out=w)
    w *= q  # Phi(-|x|)
    np.subtract(0.5, w, out=w)
    np.copysign(w, x, out=w)
    w += 0.5
    return w


def _gelu_grad(x, phi):
    """d GELU / dx = phi + x * exp(-x^2 / 2) / sqrt(2 pi) from x and its cached
    ``phi`` = :func:`_normal_cdf` (x), in one new array."""
    t = np.multiply(-0.5, x)
    t *= x
    np.exp(t, out=t)
    t *= x
    t /= math.sqrt(2.0 * math.pi)
    t += phi
    return t


def softmax(x, out=None):
    """Softmax over the last axis, into ``out`` (which may be ``x``) or a new array."""
    z = np.subtract(x, x.max(-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(-1, keepdims=True)
    return z


def log_softmax(x):
    z = x - x.max(-1, keepdims=True)
    return z - np.log(np.exp(z).sum(-1, keepdims=True))


def token_ids(value) -> list[int]:
    """``value`` if it is a non-empty list of ints, as stored ids must be; else ValueError."""
    if not (isinstance(value, list) and value and all(type(i) is int for i in value)):
        raise ValueError(f"token ids must be a non-empty list of integers, got {value!r:.40}")
    return value


def check_inputs(config: ArchConfig, ids: np.ndarray):
    """Raise :class:`InvalidInputError` unless ``ids`` is a (batch, seq) array
    the model accepts."""
    if ids.ndim != 2 or ids.shape[1] < 1:
        raise InvalidInputError(f"expected (batch, seq) ids, got shape {ids.shape}")
    if ids.shape[1] > config.max_seq_len:
        raise InvalidInputError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len {config.max_seq_len}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab:
        bad = ids[(ids < 0) | (ids >= config.vocab)][0]
        raise InvalidInputError(f"token id {int(bad)} outside vocab of size {config.vocab}")


def forward_batch(model: EncoderModel, ids: np.ndarray,
                  counter: FlopCounter | None = None,
                  want_cache: bool = False):
    """Forward a (batch, seq) id array; returns (logits, cache-or-None).

    The last layer computes queries, attention output and feed-forward block
    for position 0 alone, the only row the head reads: a ``counter`` tallies
    ``estimators.live_flops`` per sequence. ``want_cache`` (a training step)
    keeps what :func:`backward` reads.
    """
    return _forward_batch(model, ids, counter, want_cache, every_position=False)


def _forward_batch(model, ids, counter, want_cache, every_position):
    cfg = model.config
    w = model.weights
    ids = np.asarray(ids, dtype=np.int64)
    check_inputs(cfg, ids)
    s = ids.shape[1]
    cache = dict(ids=ids, layers=[]) if want_cache else None
    x = _add_norm(w["tok_emb"][ids], w["pos_emb"][:s], w, "emb_ln", cache, "emb_ln")
    for i in range(cfg.layers):
        p = f"layer{i}."
        keep = None if cache is None else {}
        r = s if every_position or i < cfg.layers - 1 else 1
        x = _add_norm(_attention(x, r, w, p, cfg.heads, counter, keep), x[:, :r],
                      w, p + "attn_ln", keep, "ln1")
        x = _add_norm(_ffn(x, w, p, counter, keep), x, w, p + "ffn_ln", keep, "ln2")
        if cache is not None:
            cache["layers"].append(keep)

    first = x[:, 0, :]
    pooled = np.tanh(_linear(first, w, "pooler", counter))
    logits = _linear(pooled, w, "cls", counter)
    if cache is not None:
        cache.update(first=first, pooled=pooled, enc_out=x)
    return logits, cache


def _linear(x, w, name, counter):
    """``x @ w[name_w] + w[name_b]``, the bias added in place."""
    y = matmul(x, w[name + "_w"], counter)
    y += w[name + "_b"]
    return y


def _add_norm(a, res, w, ln, keep, key):
    """Layer norm ``ln`` of ``a + res``, summed into ``a``; a training pass keeps
    the norm's cache in ``keep[key]``."""
    a += res
    y, ln_cache = _layer_norm_fwd(a, w[ln + "_g"], w[ln + "_b"])
    if keep is not None:
        keep[key] = ln_cache
    return y


def _attention(x, r, w, p, heads, counter, keep):
    """Self-attention output, before the residual, of the first ``r`` positions
    of ``x`` over all of them."""
    B, s, h = x.shape
    dh = h // heads
    xq = x[:, :r]
    q = _linear(xq, w, p + "q", counter)
    k = _linear(x, w, p + "k", counter)
    v = _linear(x, w, p + "v", counter)
    qh = q.reshape(B, r, heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(B, s, heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(B, s, heads, dh).transpose(0, 2, 1, 3)
    scores = matmul(qh, kh.transpose(0, 1, 3, 2), counter)
    scores *= 1.0 / math.sqrt(dh)
    probs = softmax(scores, out=scores)
    ctx = matmul(probs, vh, counter).transpose(0, 2, 1, 3).reshape(B, r, h)
    if keep is not None:
        keep.update(x=x, xq=xq, qh=qh, kh=kh, vh=vh, probs=probs, ctx=ctx)
    return _linear(ctx, w, p + "o", counter)


def _ffn(x1, w, p, counter, keep):
    """Feed-forward output of ``x1``, before the residual."""
    u = _linear(x1, w, p + "ffn_up", counter)
    if keep is None:
        g = _gelu(u, out=u)
    else:  # backward reads u and Phi(u); GELU(u) lives only for the product
        phi = _normal_cdf(u)
        keep.update(x1=x1, u=u, phi=phi)
        g = u * phi
    return _linear(g, w, p + "ffn_down", counter)


def forward(model: EncoderModel, token_ids, counter: FlopCounter | None = None) -> np.ndarray:
    """Logits for one sequence, every layer at every position: ``forward_flops``' work."""
    ids = np.asarray(token_ids, dtype=np.int64).reshape(1, -1)
    logits, _ = _forward_batch(model, ids, counter, False, every_position=True)
    return logits[0]


PREDICT_BATCH = 64


def _batches_by_length(indices, lengths, batch_size):
    """Group indices into batches of equal sequence length, shortest length
    first, keeping the given order within each length."""
    by_len: dict[int, list[int]] = {}
    for idx in indices:
        by_len.setdefault(lengths[idx], []).append(idx)
    for length in sorted(by_len):
        bucket = by_len[length]
        for start in range(0, len(bucket), batch_size):
            yield bucket[start:start + batch_size]


def predict_logits(model: EncoderModel, seqs) -> np.ndarray:
    """(len(seqs), num_classes) float64 logits in input order, the model's own
    values widened; sequences of equal length run together, PREDICT_BATCH at a time."""
    logits = np.empty((len(seqs), model.config.num_classes))
    for batch in _batches_by_length(range(len(seqs)), [len(ids) for ids in seqs], PREDICT_BATCH):
        logits[batch], _ = forward_batch(model, np.array([seqs[i] for i in batch]))
    return logits


def match_rate(logits: np.ndarray, references) -> float:
    """Fraction of rows of ``logits`` whose argmax matches the reference.

    ``references`` is a sequence of integer labels or of teacher logit
    vectors (argmax is taken per vector), one per row.
    """
    labels = [int(np.argmax(ref)) if np.ndim(ref) > 0 else int(ref) for ref in references]
    if not labels:
        raise ValueError("empty evaluation set")
    preds = logits.argmax(-1)
    return sum(int(p) == label for p, label in zip(preds, labels, strict=True)) / len(labels)


def backward(model: EncoderModel, cache: dict, dlogits: np.ndarray,
             out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Gradients for every weight given d(loss)/d(logits), as named views into
    ``out``, a flat buffer laid out like ``model.flat`` (overwritten), or a new one.
    ``dlogits`` is taken in the model's dtype."""
    cfg = model.config
    w = model.weights
    ids = cache["ids"]
    dlogits = np.asarray(dlogits, dtype=model.flat.dtype)
    out = np.empty_like(model.flat) if out is None else out
    out.fill(0.0)
    grads = _views(out, cfg)

    pooled = cache["pooled"]
    dpooled = _linear_backward(pooled, dlogits, w, "cls", grads)
    dpre_pool = dpooled * (1.0 - pooled * pooled)
    dfirst = _linear_backward(cache["first"], dpre_pool, w, "pooler", grads)

    dx = np.zeros_like(cache["enc_out"])
    dx[:, 0, :] = dfirst
    for i in reversed(range(cfg.layers)):
        p, lc = f"layer{i}.", cache["layers"][i]
        dx = _ffn_backward(dx, lc, w, p, grads)
        dx = _attention_backward(dx, lc, w, p, cfg.heads, grads)

    demb = _add_norm_backward(dx, cache["emb_ln"], grads, "emb_ln")
    np.add.at(grads["tok_emb"], ids, demb)
    grads["pos_emb"][:ids.shape[1]] += demb.sum(0)
    return grads


def _add_norm_backward(dy, ln_cache, grads, ln):
    """Gradient into both summands of :func:`_add_norm` from ``dy`` (overwritten)
    at its output; adds the norm's scale and shift gradients to ``grads``."""
    dx, dg, db = _layer_norm_bwd(dy, ln_cache)
    grads[ln + "_g"] += dg
    grads[ln + "_b"] += db
    return dx


def _ffn_backward(dy, lc, w, p, grads):
    """Gradient into the feed-forward sub-block from ``dy`` (overwritten) at the
    output of its layer norm; adds the sub-block's weight gradients to ``grads``."""
    dres = _add_norm_backward(dy, lc["ln2"], grads, p + "ffn_ln")
    u, phi = lc["u"], lc["phi"]
    h, d = dres.shape[-1], u.shape[-1]
    # GELU(u) = u * Phi(u) again, freed before du is allocated
    grads[p + "ffn_down_w"] += (u * phi).reshape(-1, d).T @ dres.reshape(-1, h)
    grads[p + "ffn_down_b"] += dres.sum((0, 1))
    du = matmul(dres, w[p + "ffn_down_w"].T)
    du *= _gelu_grad(u, phi)
    dx = _linear_backward(lc["x1"], du, w, p + "ffn_up", grads)
    dx += dres
    return dx


def _attention_backward(dy, lc, w, p, heads, grads):
    """Gradient into the attention sub-block from ``dy`` (overwritten) at the
    output of its layer norm; adds the sub-block's weight gradients to ``grads``."""
    dres = _add_norm_backward(dy, lc["ln1"], grads, p + "attn_ln")
    x, xq, probs = lc["x"], lc["xq"], lc["probs"]
    B, s, h = x.shape
    r, dh = xq.shape[1], h // heads  # r is 1 in the last layer (see forward_batch)
    dctx = _linear_backward(lc["ctx"], dres, w, p + "o", grads)
    dctx_h = dctx.reshape(B, r, heads, dh).transpose(0, 2, 1, 3)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx_h
    # dscores = probs * (dprobs - rowsum(dprobs * probs)) * scale, in the buffer of dprobs
    dscores = dctx_h @ lc["vh"].transpose(0, 1, 3, 2)
    dscores -= (dscores * probs).sum(-1, keepdims=True)
    dscores *= probs
    dscores *= 1.0 / math.sqrt(dh)
    dq = (dscores @ lc["kh"]).transpose(0, 2, 1, 3).reshape(B, r, h)
    dk = (dscores.transpose(0, 1, 3, 2) @ lc["qh"]).transpose(0, 2, 1, 3).reshape(B, s, h)
    dv = dvh.transpose(0, 2, 1, 3).reshape(B, s, h)
    dx = _linear_backward(xq, dq, w, p + "q", grads)
    dx += dres
    if r < s:
        dx = np.concatenate([dx, np.zeros((B, s - r, h), dtype=dx.dtype)], axis=1)
    dx += _linear_backward(x, dk, w, p + "k", grads)
    dx += _linear_backward(x, dv, w, p + "v", grads)
    return dx


def _linear_backward(x, dy, w, name, grads):
    """Gradient into ``x`` of :func:`_linear` given ``dy`` at its output; adds the
    weight and bias gradients to ``grads``."""
    grads[name + "_w"] += x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    grads[name + "_b"] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    return matmul(dy, w[name + "_w"].T)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 32768  # elements: this much of each of the update's six buffers stays in cache


@dataclass
class TrainState:
    """Adam's moments, flat buffers laid out like ``model.flat``, and the update's scratch."""

    model: EncoderModel
    step: int = 0

    def __post_init__(self):
        self.adam_m = np.zeros_like(self.model.flat)
        self.adam_v = np.zeros_like(self.model.flat)
        self.scratch = np.empty((2, min(ADAM_CHUNK, self.model.flat.size)),
                                dtype=self.model.flat.dtype)


def clip_global_norm(grad: np.ndarray, config: ArchConfig, max_norm: float) -> float:
    """Scale the flat gradient so its L2 norm is at most max_norm. Squares are summed
    tensor by tensor: once clipping fires, that order is part of the trajectory."""
    total = math.sqrt(sum(float((g * g).sum()) for g in _views(grad, config).values()))
    if total > max_norm:
        grad *= max_norm / total
    return total


def sgd_adam_step(state: TrainState, grad: np.ndarray, lr: float) -> TrainState:
    """In-place Adam update from the flat gradient ``grad``, ADAM_CHUNK elements
    at a time; returns the same state with step advanced by 1."""
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for start in range(0, grad.size, ADAM_CHUNK):
        part = slice(start, start + ADAM_CHUNK)
        g, m, v = grad[part], state.adam_m[part], state.adam_v[part]
        update, denom = state.scratch[:, :g.size]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=update)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=denom), 1.0 - ADAM_BETA2, out=denom)
        # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps), operation for operation, bit for bit
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += ADAM_EPS
        np.multiply(np.divide(m, bc1, out=update), lr, out=update)
        state.model.flat[part] -= np.divide(update, denom, out=update)
    state.step = t
    return state


# ---------------------------------------------------------------------------
# training loop, shared by the teacher (hard labels) and the student (soft targets)


@dataclass(frozen=True)
class TrainParams:
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 64
    rng_seed: int = 0
    max_grad_norm: float | None = 1.0  # Adam alone is unstable on the teacher at 1e-3
    dtype: np.dtype | type = np.float64  # the model's compute dtype, float64 or float32

    def __post_init__(self):
        _compute_dtype(self.dtype)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def train_loop(model: EncoderModel, rng: np.random.Generator, seqs,
               loss_and_grad, params: TrainParams) -> list[float]:
    """Mini-batch Adam on ``model`` in place; returns each epoch's mean loss.

    Every epoch shuffles ``seqs`` with ``rng`` and batches equal lengths
    together. ``loss_and_grad(batch, logits)`` gets the batch's indices into
    ``seqs`` and its logits, and returns the per-example loss and its
    gradient with respect to the logits. The logits it gets are float64
    whatever the model computes in, so a loss never underflows in float32.
    Raises ValueError when there are epochs to run but no sequences, or when
    the model's dtype is not ``params.dtype``.
    """
    if params.epochs and len(seqs) == 0:
        raise ValueError("train_loop got no sequences to train on")
    if model.flat.dtype != _compute_dtype(params.dtype):
        raise ValueError(f"a {model.flat.dtype} model cannot train with dtype {params.dtype!r}")
    state = TrainState(model)
    grad = np.empty_like(model.flat)  # reused by every step
    lengths = [len(ids) for ids in seqs]
    epoch_losses = []
    for _ in range(params.epochs):
        total = 0.0
        for batch in _batches_by_length(rng.permutation(len(seqs)).tolist(), lengths,
                                        params.batch_size):
            logits, cache = forward_batch(model, np.array([seqs[i] for i in batch]),
                                          want_cache=True)
            per_example, dlogits = loss_and_grad(batch, logits.astype(np.float64, copy=False))
            loss = per_example.sum()
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged: loss={loss / len(batch)} at step {state.step}")
            total += loss
            backward(model, cache, dlogits / len(batch), out=grad)
            del logits, cache  # the next step's forward builds a cache of its own
            if params.max_grad_norm is not None:
                clip_global_norm(grad, model.config, params.max_grad_norm)
            sgd_adam_step(state, grad, params.learning_rate)
        epoch_losses.append(total / len(seqs))
    return epoch_losses


# ---------------------------------------------------------------------------
# checkpoint container: JSON header line + the flat buffer as fp32 LE;
# the header holds the vocab map as sorted [from, to] pairs when there is one

_MAGIC = b"ENCKPT1\n"


def save_checkpoint(model: EncoderModel, path) -> None:
    header = {
        "config": model.config.to_dict(),
        "tensors": [{"name": n, "shape": list(shape)} for n, shape, *_ in _layout(model.config)],
    }
    if model.vocab_map is not None:
        header["vocab_map"] = sorted([int(k), int(v)] for k, v in model.vocab_map.items())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(model.flat.astype("<f4"))


def read_artifact(path, parse):
    """``parse(bytes of path)``, the one way every artifact loads: malformed content
    (a number too large for a float among it), or a directory in the file's place,
    raises ValueError naming the path; a missing file stays FileNotFoundError."""
    try:
        return parse(Path(path).read_bytes())
    except (ValueError, KeyError, TypeError, OverflowError, IsADirectoryError) as exc:
        raise ValueError(f"{path}: {exc!r}") from exc


def load_checkpoint(path, dtype=np.float64) -> EncoderModel:
    """Read a checkpoint written by :func:`save_checkpoint` into a ``dtype`` model;
    raise ValueError unless its header lists exactly the tensors its config
    implies, the payload holds exactly their bytes and every weight is finite."""
    dtype = _compute_dtype(dtype)

    def parse(raw: bytes) -> EncoderModel:
        end = raw.find(b"\n", len(_MAGIC))
        if not raw.startswith(_MAGIC) or end < 0:
            raise ValueError("not a model checkpoint")
        header = json.loads(raw[len(_MAGIC):end])
        config = ArchConfig.from_dict(header["config"])
        tensors = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
        vocab_map = header.get("vocab_map")
        if vocab_map is not None:
            vocab_map = dict(vocab_map)
            if not all(type(i) is int for i in (*vocab_map, *vocab_map.values())):
                raise ValueError("vocab map entries must be pairs of integers")
        layout = _layout(config)
        if tensors != [(name, shape) for name, shape, *_ in layout]:
            raise ValueError("header tensors do not match its config")
        size = layout[-1][-1]
        if len(raw) - end - 1 != 4 * size:
            raise ValueError(f"payload is {len(raw) - end - 1} bytes, "
                             f"its tensors need {4 * size}")
        payload = np.frombuffer(raw, dtype="<f4", offset=end + 1)
        finite = np.isfinite(payload)
        if not finite.all():
            at = int(np.argmin(finite))
            name = next(name for name, _, start, stop in layout if start <= at < stop)
            raise ValueError(f"weight {name} holds a non-finite value, {payload[at]}")
        return EncoderModel(config, payload.astype(dtype), vocab_map)
    return read_artifact(path, parse)
