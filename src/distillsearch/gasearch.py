"""Genetic search for a student architecture under a size budget.

A chromosome is the five searched hyperparameters in fixed gene order
(layers, hidden, heads, ffn, vocab). Fitness rewards forward-pass
GFLOPs (a capacity proxy) and penalizes the absolute gap between the
estimated model size and the target, both taken at face value:

    fitness = gflops(seq_len) - |size_mb - target_mb|

Each iteration produces ``child_size`` children: with probability
``crossover_rate`` a single-cut crossover of two distinct parents,
otherwise a tail mutation of one parent; parents are drawn uniformly.
The merged pool is cut back to ``population_size`` by fitness
(elitist), so the best fitness never decreases.

Two steps of the loop depart from Compressor's GA and follow the
structure of the fitness instead:

* vocab repair: ``vocab`` does not enter the FLOPs and enters the size
  linearly, so given the other four genes the best vocab is the grid
  value whose size lands nearest the target (:func:`_nearest_vocab`).
  Every initial chromosome and every child is repaired before scoring.
* distinct survivors: the merged pool is ranked over distinct
  chromosomes; duplicates fill the population only when there are
  fewer distinct chromosomes than slots, so it cannot collapse onto
  copies of one individual.

The loop reads each chromosome's repaired vocab, fitness and size gap
from one table of the (layers, hidden, ffn) grid, scored up front as
broadcast arrays; this is exact, as ``heads`` enters neither estimator
and the repair sets ``vocab``. The table's maximum is the exact optimum,
reported with the pick's regret. ``n_evaluations`` counts each initial
chromosome and each child. Each generation records the survivors' best
fitness (``history``), their median fitness and how many are distinct,
read from the ranked survivors without scoring anything again.

A :class:`Chromosome` is a named tuple: the operators slice it, and
hashing, equality and ranking run in C. Its genes are drawn from the
space's own grids, ``SearchSpace.grids``, where every hidden width splits
over every heads value, so any mix of grid genes is a legal config. The
loop's draws, in order, are the trajectory: :class:`_Draws` returns what
``np.random.default_rng(rng_seed)`` would, from PCG64's raw stream, and a
rewrite that keeps every draw keeps every pick, history and population
bit for bit.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import estimators
from .archspace import SEARCHED_FIELDS, ArchConfig, SearchSpace, validate

GENE_ORDER = SEARCHED_FIELDS  # cut-off positions are 1-based over this order


class Chromosome(NamedTuple):
    layers: int
    hidden: int
    heads: int
    ffn: int
    vocab: int

    def to_config(self, max_seq_len: int = 512, num_classes: int = 2) -> ArchConfig:
        return ArchConfig(*self, max_seq_len=max_seq_len, num_classes=num_classes)


@dataclass(frozen=True)
class GaParams:
    population_size: int = 50
    crossover_rate: float = 0.6
    max_iter: int = 100
    child_size: int = 50
    target_size_mb: float = 3.0
    fitness_seq_len: int = 400
    rng_seed: int = 0
    max_seq_len: int = 512
    num_classes: int = 2

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.max_iter < 1 or self.child_size < 1:
            raise ValueError("max_iter and child_size must be >= 1")
        if not 0 < self.target_size_mb < np.inf:
            raise ValueError(f"target_size_mb must be positive and finite, "
                             f"got {self.target_size_mb!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class GaResult:
    best: Chromosome
    best_fitness: float
    history: list[float]
    elapsed_seconds: float
    n_evaluations: int
    params: GaParams
    optimum_fitness: float  # the best fitness anywhere in the space
    population: list[Chromosome]
    median_history: list[float]  # per generation, the survivors' median fitness
    distinct_history: list[int]  # per generation, how many survivors are distinct

    def to_dict(self) -> dict:
        cfg = self.best.to_config(self.params.max_seq_len, self.params.num_classes)
        flops = estimators.forward_flops(cfg, self.params.fitness_seq_len)
        return {
            "best": cfg.to_dict(),
            "best_fitness": self.best_fitness,
            "optimum_fitness": self.optimum_fitness,
            "regret": self.optimum_fitness - self.best_fitness,
            "size_mb": estimators.model_size(cfg).megabytes,
            "gflops": flops.gflops,
            "live_gflops": estimators.live_flops(cfg, flops.seq_len).gflops,
            "history": self.history,
            "median_history": self.median_history,
            "distinct_history": self.distinct_history,
            "elapsed_seconds": self.elapsed_seconds,
            "n_evaluations": self.n_evaluations,
            "seed": self.params.rng_seed,
        }


def _fitness_gap(config, params: GaParams):
    """The fitness ``gflops - gap`` and the size gap ``|size_mb - target_mb|``
    that breaks its ties; ``config``'s genes may be broadcast arrays."""
    gap = abs(estimators.model_size(config).megabytes - params.target_size_mb)
    return estimators.forward_flops(config, params.fitness_seq_len).gflops - gap, gap


def fitness(s: Chromosome, params: GaParams) -> float:
    return _fitness_gap(s.to_config(params.max_seq_len, params.num_classes), params)[0]


def random_chromosome(space: SearchSpace, rng: np.random.Generator) -> Chromosome:
    """Each gene uniform over its grid. Here and in the operators below, ``rng``
    is anything with ``Generator``'s ``random()`` and ``integers()``."""
    return Chromosome._make(values[rng.integers(len(values))] for values in space.grids)


def crossover(c1: Chromosome, c2: Chromosome, rng: np.random.Generator) -> Chromosome:
    """Keep c1's genes up to a random cut, take c2's after it."""
    h = int(rng.integers(1, len(GENE_ORDER)))  # 1..4; h=5 would copy c1
    return Chromosome._make(c1[:h] + c2[h:])


def mutation(c1: Chromosome, space: SearchSpace, rng: np.random.Generator) -> Chromosome:
    """Keep genes up to a random cut, resample the tail uniformly."""
    h = int(rng.integers(1, len(GENE_ORDER)))
    grids = space.grids
    genes = list(c1)
    for i in range(h, len(GENE_ORDER)):
        genes[i] = grids[i][rng.integers(len(grids[i]))]
    return Chromosome._make(genes)


class _Draws:
    """``np.random.default_rng(seed)``'s ``random()`` and ``integers(low, high)``,
    draw for draw, from the raw 64-bit outputs of its ``PCG64``, read a block at
    a time and taken one by one as Python ints; a numpy scalar call costs several
    times as much. A ``memoryview`` makes each int as it is taken: a list of the
    whole block left the process about 1.5 MB larger after a few searches.
    ``random()`` takes the top 53 bits of one output. ``integers`` is Lemire's
    multiply-and-reject over 32-bit halves, low half first, keeping the high
    half for the next ``integers`` call as PCG64's ``next_uint32`` does; a
    range of one value draws nothing. Ranges span 1 to 2**32 values."""

    BLOCK = 1024

    def __init__(self, bitgen: np.random.PCG64):
        blocks = iter(lambda: memoryview(bitgen.random_raw(self.BLOCK)), None)  # endless
        self._next64, self._high = chain.from_iterable(blocks).__next__, None

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int | None = None) -> int:
        if high is None:
            low, high = 0, low
        n = high - low
        if n == 1:
            return low
        while True:
            if self._high is None:
                x = self._next64()
                u, self._high = x & 0xFFFFFFFF, x >> 32
            else:
                u, self._high = self._high, None
            m = u * n
            if m & 0xFFFFFFFF >= (2**32 - n) % n:  # else the draw is biased: reject
                return low + (m >> 32)


def _nearest_vocab(config, space: SearchSpace, params: GaParams) -> np.ndarray:
    """The grid vocab whose model size lands nearest the target, for the other
    genes of ``config`` (ints or broadcast arrays). The size is linear in vocab,
    so the sizes at the first two grid values give its slope and the nearest
    grid index follows in closed form, clipped to the grid. Ties go to the
    smaller vocab."""
    grid, target = space.vocab, params.target_size_mb
    lo, above = (estimators.model_size(SimpleNamespace(**{**vars(config), "vocab": v})).megabytes
                 for v in (grid.start, grid.start + grid.step))
    slope = above - lo
    k = np.clip(np.rint((target - lo) / slope), 0, len(grid) - 1)
    # sizes are exact multiples of 2**-18 MB, so lo + j * slope is the exact
    # size at index j; comparing the neighbours settles a rounded half step
    j = np.maximum(k - 1, 0)
    for step in (k, np.minimum(k + 1, len(grid) - 1)):
        j = np.where(abs(lo + step * slope - target) < abs(lo + j * slope - target), step, j)
    return (grid.start + j * grid.step).astype(np.int64)


def _survivors(merged: list, params: GaParams) -> tuple[list, int]:
    """The ``population_size`` best distinct ``(-fitness, gap, chromosome)``
    items of ``merged``, which sort by fitness, then size gap, then gene order,
    and how many of them are distinct; copies of the best fill the population
    only when too few are distinct."""
    ranked, n = sorted(merged), params.population_size
    distinct = list(dict.fromkeys(ranked))
    return (distinct + ranked)[:n], min(len(distinct), n)


def search(space: SearchSpace, params: GaParams) -> GaResult:
    """Run the full evolutionary loop; deterministic given the seed. Raises
    ValueError when even the smallest architecture in ``space`` is larger
    than the target: every size grows with every gene, so no pick could fit."""
    smallest = Chromosome._make(map(min, space.grids))
    floor_mb = estimators.model_size(
        smallest.to_config(params.max_seq_len, params.num_classes)).megabytes
    if floor_mb > params.target_size_mb:
        raise ValueError(f"no architecture fits {params.target_size_mb:g} MB: the smallest, "
                         f"{tuple(smallest)} at max_seq_len {params.max_seq_len}, "
                         f"takes {floor_mb:.3f} MB")
    rng = _Draws(np.random.PCG64(params.rng_seed))
    start = time.perf_counter()
    # score every (layers, hidden, ffn) once, on broadcast gene grids; heads
    # enters neither estimator, and 1 splits any width
    grids = space.layers, space.hidden, space.ffn
    layers, hidden, ffn = np.ix_(*map(np.array, grids))
    table = SimpleNamespace(layers=layers, hidden=hidden, heads=1, ffn=ffn, vocab=None,
                            max_seq_len=params.max_seq_len, num_classes=params.num_classes)
    vocab = table.vocab = _nearest_vocab(table, space, params)
    fit, gap = _fitness_gap(table, params)

    # a chromosome's table index is its (layers, hidden, ffn) in grid steps
    lower, step = np.array([(grid.start, grid.step) for grid in grids]).T
    vocab, rank, gap = vocab.ravel(), -fit.ravel(), gap.ravel()

    def evaluate(chromosomes: list[Chromosome]) -> list[tuple[float, float, Chromosome]]:
        # columns in GENE_ORDER: layers, hidden, heads, ffn, vocab
        genes = np.fromiter(chain.from_iterable(chromosomes), np.int64).reshape(-1, 5)
        at = np.ravel_multi_index(((genes[:, [0, 1, 3]] - lower) // step).T, fit.shape)
        genes[:, 4] = vocab[at]
        return list(zip(rank[at].tolist(), gap[at].tolist(),
                        map(Chromosome._make, genes.tolist())))

    def child() -> Chromosome:
        if rng.random() < params.crossover_rate:
            i = rng.integers(params.population_size)
            j = rng.integers(params.population_size - 1)
            return crossover(scored[i][2], scored[j + (j >= i)][2], rng)  # distinct parents
        return mutation(scored[rng.integers(params.population_size)][2], space, rng)

    initial = [random_chromosome(space, rng) for _ in range(params.population_size)]
    scored, _ = _survivors(evaluate(initial), params)
    history, median_history, distinct_history = [], [], []
    for _ in range(params.max_iter):
        children = evaluate([child() for _ in range(params.child_size)])
        scored, n_distinct = _survivors(scored + children, params)
        history.append(-scored[0][0])
        median_history.append(statistics.median(-item[0] for item in scored))
        distinct_history.append(n_distinct)

    best = scored[0][2]
    assert validate(best.to_config(params.max_seq_len, params.num_classes), space).ok
    return GaResult(best=best, best_fitness=history[-1], history=history,
                    elapsed_seconds=time.perf_counter() - start, params=params,
                    n_evaluations=params.population_size + params.max_iter * params.child_size,
                    optimum_fitness=float(fit.max()), population=[c for _, _, c in scored],
                    median_history=median_history, distinct_history=distinct_history)
