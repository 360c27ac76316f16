"""Exact optimum of the GA fitness, for the search workload's regret.

The grids of ``layers``, ``hidden``, ``ffn`` and ``vocab`` are passed as
numpy-broadcast arrays through the library's own
``estimators.forward_flops`` and ``estimators.model_size``, in a duck-typed
config, so no estimator formula is copied here. ``heads`` enters neither
estimator, so it is left out of the grid: ``heads=1`` divides every hidden
width and is always legal.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


@dataclass(frozen=True)
class Optimum:
    fitness: float
    layers: int
    hidden: int
    ffn: int
    vocab: int


def exact_optimum(estimators, space, target_mb: float, seq_len: int,
                  max_seq_len: int, num_classes: int = 2) -> Optimum:
    """Best ``gflops - |size_mb - target_mb|`` over the whole grid.

    One layer count at a time, so that memory stays at a few MB.
    """
    hidden = np.array(space.grid_values("hidden"))[:, None, None]
    ffn = np.array(space.grid_values("ffn"))[None, :, None]
    vocab = np.array(space.grid_values("vocab"))[None, None, :]
    best = None
    for layers in space.grid_values("layers"):
        config = SimpleNamespace(layers=layers, hidden=hidden, heads=1, ffn=ffn,
                                 vocab=vocab, max_seq_len=max_seq_len,
                                 num_classes=num_classes)
        gflops = estimators.forward_flops(config, seq_len).gflops
        size_mb = estimators.model_size(config).megabytes
        fit = gflops - np.abs(size_mb - target_mb)
        i, j, k = np.unravel_index(int(np.argmax(fit)), fit.shape)
        if best is None or fit[i, j, k] > best.fitness:
            best = Optimum(float(fit[i, j, k]), int(layers), int(hidden[i, 0, 0]),
                           int(ffn[0, j, 0]), int(vocab[0, 0, k]))
    return best
