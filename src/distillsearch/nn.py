"""Minimal dense transformer-encoder classifier in numpy.

Parameterized exactly by :class:`~distillsearch.archspace.ArchConfig`:
the scalar weight count always equals ``estimators.param_count`` and an
instrumented forward pass tallies exactly ``estimators.forward_flops``.
Used as both teacher and student at desk scale, so it also holds the one
engine both run on: :func:`train_loop` (any loss over the logits) and
:func:`predict_logits` (batched inference in input order).

Layout (post-norm BERT-family): token + position embeddings, embedding
layer-norm, then per layer a bidirectional self-attention block and a
GELU feed-forward block, each followed by residual add + layer-norm;
classification from the first token through a tanh pooler and a linear
head. All math is fp64 so finite-difference gradient checks are tight;
checkpoints store fp32. Every artifact, checkpoint or not, loads through
:func:`read_artifact`, which names the file of any malformed content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .archspace import ArchConfig

LN_EPS = 1e-5
INIT_STD = 0.02


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
    if counter is not None:
        a_shape = a.shape if a.ndim >= 2 else (1, a.shape[0])
        counter.add_matmul(a_shape, b.shape)
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


@dataclass
class EncoderModel:
    """Weights for ``config``, plus the teacher-id to model-id map when the
    model was distilled onto a smaller vocabulary. Callers apply the map
    to their ids before :func:`forward`; the model never applies it."""

    config: ArchConfig
    weights: dict[str, np.ndarray]
    vocab_map: dict[int, int] | None = None

    def num_params(self) -> int:
        return sum(w.size for w in self.weights.values())


def init(config: ArchConfig, rng: np.random.Generator | int) -> EncoderModel:
    """Seed-deterministic init: N(0, 0.02) matrices, unit LN scales, zero biases."""
    if config.hidden % config.heads != 0:
        raise ValueError("hidden must be divisible by heads")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    weights = {}
    for name in weight_names(config):
        shape = _weight_shape(name, config)
        base = name.split(".")[-1]
        if base.endswith("_g"):
            weights[name] = np.ones(shape)
        elif base.endswith("_b"):
            weights[name] = np.zeros(shape)
        else:
            weights[name] = rng.normal(0.0, INIT_STD, size=shape)
    return EncoderModel(config, weights)


# ---------------------------------------------------------------------------
# forward / backward


def _layer_norm_fwd(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def _gelu(x, out=None):
    # into out, which may be x, one sequence at a time: (batch, seq, ffn)
    # temporaries would set the peak memory of batched inference
    from scipy.special import erf  # here, not at the top: search and estimate never run a forward
    out = np.empty_like(x) if out is None else out
    for xs, o in zip(x, out):
        t = xs / np.sqrt(2.0)
        erf(t, out=t)
        t += 1.0
        np.multiply(t, xs, out=o)
        o *= 0.5
    return out


def _gelu_grad(x):
    from scipy.special import erf
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def softmax(x):
    z = x - x.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


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

    Without ``want_cache`` every layer runs at every position: the work
    ``estimators.forward_flops`` counts. With it (a training step) the last
    layer computes queries, attention output and feed-forward block for
    position 0 alone, the only row the head and so the loss read; the logits
    are the same. A ``counter`` tallies the products that actually run.
    """
    cfg = model.config
    w = model.weights
    ids = np.asarray(ids, dtype=np.int64)
    check_inputs(cfg, ids)
    B, s = ids.shape
    A, dh = cfg.heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)

    emb = w["tok_emb"][ids] + w["pos_emb"][:s]
    x, emb_ln_cache = _layer_norm_fwd(emb, w["emb_ln_g"], w["emb_ln_b"])

    layer_caches = []
    for i in range(cfg.layers):
        p = f"layer{i}."
        xq = x[:, :1] if want_cache and i == cfg.layers - 1 else x
        r = xq.shape[1]
        q = matmul(xq, w[p + "q_w"], counter) + w[p + "q_b"]
        k = matmul(x, w[p + "k_w"], counter) + w[p + "k_b"]
        v = matmul(x, w[p + "v_w"], counter) + w[p + "v_b"]
        qh = q.reshape(B, r, A, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(B, s, A, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(B, s, A, dh).transpose(0, 2, 1, 3)
        scores = matmul(qh, kh.transpose(0, 1, 3, 2), counter) * scale
        probs = softmax(scores)
        ctx_h = matmul(probs, vh, counter)
        ctx = ctx_h.transpose(0, 2, 1, 3).reshape(B, r, cfg.hidden)
        attn_out = matmul(ctx, w[p + "o_w"], counter) + w[p + "o_b"]
        x1, ln1_cache = _layer_norm_fwd(xq + attn_out, w[p + "attn_ln_g"], w[p + "attn_ln_b"])
        u = matmul(x1, w[p + "ffn_up_w"], counter)
        u += w[p + "ffn_up_b"]
        a = _gelu(u, out=None if want_cache else u)  # only backward reads u
        f = matmul(a, w[p + "ffn_down_w"], counter) + w[p + "ffn_down_b"]
        x2, ln2_cache = _layer_norm_fwd(x1 + f, w[p + "ffn_ln_g"], w[p + "ffn_ln_b"])
        if want_cache:
            layer_caches.append(
                dict(x=x, xq=xq, qh=qh, kh=kh, vh=vh, probs=probs, ctx=ctx,
                     ln1=ln1_cache, x1=x1, u=u, a=a, ln2=ln2_cache)
            )
        x = x2

    first = x[:, 0, :]
    pre_pool = matmul(first, w["pooler_w"], counter) + w["pooler_b"]
    pooled = np.tanh(pre_pool)
    logits = matmul(pooled, w["cls_w"], counter) + w["cls_b"]

    cache = None
    if want_cache:
        cache = dict(ids=ids, emb_ln=emb_ln_cache, layers=layer_caches,
                     first=first, pooled=pooled, enc_out=x)
    return logits, cache


def forward(model: EncoderModel, token_ids, counter: FlopCounter | None = None) -> np.ndarray:
    """Logits for a single token-id sequence."""
    ids = np.asarray(token_ids, dtype=np.int64).reshape(1, -1)
    logits, _ = forward_batch(model, ids, counter=counter)
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
    """(len(seqs), num_classes) logits in input order; sequences of equal
    length run together, PREDICT_BATCH at a time."""
    logits = np.empty((len(seqs), model.config.num_classes))
    for batch in _batches_by_length(range(len(seqs)), [len(ids) for ids in seqs], PREDICT_BATCH):
        logits[batch], _ = forward_batch(model, np.array([seqs[i] for i in batch]))
    return logits


def backward(model: EncoderModel, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every weight given d(loss)/d(logits)."""
    cfg = model.config
    w = model.weights
    ids = cache["ids"]
    B, s = ids.shape
    A, dh = cfg.heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    grads = {name: np.zeros_like(arr) for name, arr in w.items()}

    pooled = cache["pooled"]
    grads["cls_w"] += cache["pooled"].T @ dlogits
    grads["cls_b"] += dlogits.sum(0)
    dpooled = dlogits @ w["cls_w"].T
    dpre_pool = dpooled * (1.0 - pooled * pooled)
    grads["pooler_w"] += cache["first"].T @ dpre_pool
    grads["pooler_b"] += dpre_pool.sum(0)
    dfirst = dpre_pool @ w["pooler_w"].T

    dx = np.zeros_like(cache["enc_out"])
    dx[:, 0, :] = dfirst

    for i in reversed(range(cfg.layers)):
        p = f"layer{i}."
        lc = cache["layers"][i]
        dres2, dg, db = _layer_norm_bwd(dx, lc["ln2"])
        grads[p + "ffn_ln_g"] += dg
        grads[p + "ffn_ln_b"] += db
        df = dres2
        grads[p + "ffn_down_w"] += lc["a"].reshape(-1, cfg.ffn).T @ df.reshape(-1, cfg.hidden)
        grads[p + "ffn_down_b"] += df.sum((0, 1))
        da = df @ w[p + "ffn_down_w"].T
        du = da * _gelu_grad(lc["u"])
        grads[p + "ffn_up_w"] += lc["x1"].reshape(-1, cfg.hidden).T @ du.reshape(-1, cfg.ffn)
        grads[p + "ffn_up_b"] += du.sum((0, 1))
        dx1 = dres2 + du @ w[p + "ffn_up_w"].T

        dres1, dg, db = _layer_norm_bwd(dx1, lc["ln1"])
        grads[p + "attn_ln_g"] += dg
        grads[p + "attn_ln_b"] += db
        dattn_out = dres1
        grads[p + "o_w"] += lc["ctx"].reshape(-1, cfg.hidden).T @ dattn_out.reshape(-1, cfg.hidden)
        grads[p + "o_b"] += dattn_out.sum((0, 1))
        dctx = dattn_out @ w[p + "o_w"].T
        r = lc["xq"].shape[1]  # 1 in the last layer (see forward_batch)
        dctx_h = dctx.reshape(B, r, A, dh).transpose(0, 2, 1, 3)
        dprobs = dctx_h @ lc["vh"].transpose(0, 1, 3, 2)
        dvh = lc["probs"].transpose(0, 1, 3, 2) @ dctx_h
        probs = lc["probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
        dscores *= scale
        dqh = dscores @ lc["kh"]
        dkh = dscores.transpose(0, 1, 3, 2) @ lc["qh"]
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, r, cfg.hidden)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, s, cfg.hidden)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, s, cfg.hidden)
        flat = lc["x"].reshape(-1, cfg.hidden)
        grads[p + "q_w"] += lc["xq"].reshape(-1, cfg.hidden).T @ dq.reshape(-1, cfg.hidden)
        grads[p + "q_b"] += dq.sum((0, 1))
        grads[p + "k_w"] += flat.T @ dk.reshape(-1, cfg.hidden)
        grads[p + "k_b"] += dk.sum((0, 1))
        grads[p + "v_w"] += flat.T @ dv.reshape(-1, cfg.hidden)
        grads[p + "v_b"] += dv.sum((0, 1))
        dx = dres1 + dq @ w[p + "q_w"].T
        if r < s:
            dx = np.concatenate([dx, np.zeros((B, s - r, cfg.hidden))], axis=1)
        dx = dx + dk @ w[p + "k_w"].T + dv @ w[p + "v_w"].T

    demb, dg, db = _layer_norm_bwd(dx, cache["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    np.add.at(grads["tok_emb"], ids, demb)
    grads["pos_emb"][:s] += demb.sum(0)
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class TrainState:
    model: EncoderModel
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        if not self.adam_m:
            self.adam_m = {k: np.zeros_like(v) for k, v in self.model.weights.items()}
            self.adam_v = {k: np.zeros_like(v) for k, v in self.model.weights.items()}


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def sgd_adam_step(state: TrainState, grads: dict[str, np.ndarray], lr: float) -> TrainState:
    """In-place Adam update; returns the same state with step advanced by 1."""
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        state.model.weights[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
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

    def __post_init__(self):
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
    gradient with respect to the logits.
    """
    state = TrainState(model)
    lengths = [len(ids) for ids in seqs]
    epoch_losses = []
    for _ in range(params.epochs):
        total = 0.0
        for batch in _batches_by_length(rng.permutation(len(seqs)).tolist(), lengths,
                                        params.batch_size):
            logits, cache = forward_batch(model, np.array([seqs[i] for i in batch]),
                                          want_cache=True)
            per_example, dlogits = loss_and_grad(batch, logits)
            loss = per_example.sum()
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged: loss={loss / len(batch)} at step {state.step}")
            total += loss
            grads = backward(model, cache, dlogits / len(batch))
            if params.max_grad_norm is not None:
                clip_global_norm(grads, params.max_grad_norm)
            sgd_adam_step(state, grads, params.learning_rate)
        epoch_losses.append(total / len(seqs))
    return epoch_losses


# ---------------------------------------------------------------------------
# checkpoint container: JSON header line + concatenated fp32 LE payloads;
# the header holds the vocab map as sorted [from, to] pairs when there is one

_MAGIC = b"ENCKPT1\n"


def save_checkpoint(model: EncoderModel, path) -> None:
    names = weight_names(model.config)
    header = {
        "config": model.config.to_dict(),
        "tensors": [{"name": n, "shape": list(model.weights[n].shape)} for n in names],
    }
    if model.vocab_map is not None:
        header["vocab_map"] = sorted([int(k), int(v)] for k, v in model.vocab_map.items())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header).encode() + b"\n")
        for n in names:
            fh.write(model.weights[n].astype("<f4").tobytes(order="C"))


def read_artifact(path, parse):
    """``parse(bytes of path)``, the one way every artifact loads: malformed content,
    or a directory in the file's place, raises ValueError naming the path; a
    missing file stays FileNotFoundError."""
    try:
        return parse(Path(path).read_bytes())
    except (ValueError, KeyError, TypeError, IsADirectoryError) as exc:
        raise ValueError(f"{path}: {exc!r}") from exc


def load_checkpoint(path) -> EncoderModel:
    """Read a checkpoint written by :func:`save_checkpoint`; raise ValueError
    unless its header lists exactly the tensors its config implies and the
    payload holds exactly their bytes."""
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
        expected = [(name, _weight_shape(name, config)) for name in weight_names(config)]
        if tensors != expected:
            raise ValueError("header tensors do not match its config")
        sizes = [int(np.prod(shape)) for _, shape in expected]
        if len(raw) - end - 1 != 4 * sum(sizes):
            raise ValueError(f"payload is {len(raw) - end - 1} bytes, "
                             f"its tensors need {4 * sum(sizes)}")
        flat = np.frombuffer(raw, dtype="<f4", offset=end + 1).astype(np.float64)
        chunks = np.split(flat, np.cumsum(sizes)[:-1])
        weights = {name: chunk.reshape(shape) for (name, shape), chunk in zip(expected, chunks)}
        return EncoderModel(config, weights, vocab_map)
    return read_artifact(path, parse)
