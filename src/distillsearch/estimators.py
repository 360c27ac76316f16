"""Closed-form parameter-count, byte-size, and forward-FLOPs estimates.

Both estimates feed the search fitness: size measures how close a
candidate lands to the target budget, forward GFLOPs proxy its capacity.
The counting conventions here are shared with the ``nn`` module so that
weight enumeration and instrumented matrix multiplies agree exactly:

* parameters: token + position embeddings, embedding layer-norm, per
  layer the Q/K/V/O projections with bias, the two FFN projections with
  bias, two layer-norms, then a tanh pooler and a linear classifier;
  no token-type embeddings.
* FLOPs: one multiply-accumulate counts as 2 FLOPs; only matrix
  products are counted (projections, attention scores and context,
  FFN, pooler, classifier) — embedding lookups, softmax, layer-norm,
  activations, and bias adds are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .archspace import ArchConfig

VALID_BYTES_PER_PARAM = (1, 2, 4, 8)


@dataclass(frozen=True)
class SizeEstimate:
    param_count: int
    bytes: int
    megabytes: float


@dataclass(frozen=True)
class FlopsEstimate:
    flops: int
    gflops: float
    seq_len: int


def param_count(config: ArchConfig) -> int:
    """Exact scalar-weight count of the encoder classifier."""
    h, d = config.hidden, config.ffn
    embeddings = config.vocab * h + config.max_seq_len * h + 2 * h
    per_layer = (
        4 * (h * h + h)          # Q, K, V, O projections with bias
        + (h * d + d)            # FFN up
        + (d * h + h)            # FFN down
        + 2 * (2 * h)            # two layer-norms
    )
    head = (h * h + h) + (h * config.num_classes + config.num_classes)
    return embeddings + config.layers * per_layer + head


def model_size(config: ArchConfig, bytes_per_param: int = 4) -> SizeEstimate:
    """Serialized model size at a given storage width."""
    if bytes_per_param not in VALID_BYTES_PER_PARAM:
        raise ValueError(f"bytes_per_param must be one of {VALID_BYTES_PER_PARAM}")
    n = param_count(config)
    total = n * bytes_per_param
    return SizeEstimate(param_count=n, bytes=total, megabytes=total / 2**20)


def forward_flops(config: ArchConfig, seq_len: int) -> FlopsEstimate:
    """FLOPs for one forward pass at the given sequence length."""
    if not 1 <= seq_len <= config.max_seq_len:
        raise ValueError(
            f"seq_len must be in [1, {config.max_seq_len}], got {seq_len}"
        )
    h, d, s = config.hidden, config.ffn, seq_len
    per_layer = (
        2 * s * (4 * h * h)      # QKVO projections
        + 2 * s * s * h          # attention scores
        + 2 * s * s * h          # attention context
        + 2 * s * (h * d + d * h)  # FFN up + down
    )
    head = 2 * h * h + 2 * h * config.num_classes
    total = config.layers * per_layer + head
    return FlopsEstimate(flops=total, gflops=total / 1e9, seq_len=s)


def live_flops(config: ArchConfig, seq_len: int) -> FlopsEstimate:
    """FLOPs of one sequence in a batched pass (``nn.forward_batch``), whose last layer
    runs its query, attention-output and FFN products for position 0 alone."""
    h, d, s = config.hidden, config.ffn, seq_len
    total = forward_flops(config, s).flops - (s - 1) * (4 * h * h + 4 * s * h + 4 * h * d)
    return FlopsEstimate(flops=total, gflops=total / 1e9, seq_len=s)
