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
  value whose size lands nearest the target (:func:`repair_vocab`).
  Every initial chromosome and every child is repaired before scoring.
* distinct survivors: the merged pool is ranked over distinct
  chromosomes; duplicates fill the population only when there are
  fewer distinct chromosomes than slots, so it cannot collapse onto
  copies of one individual.

Scores are memoized per (layers, hidden, ffn): ``heads`` enters neither
estimator and the repair sets ``vocab``, so every chromosome that shares
those three genes has the same repaired vocab, fitness and size gap, and
one scoring serves them all. Ranking still breaks ties on the full genes,
``heads`` included, so the loop's picks are those of scoring each
chromosome on its own. ``n_evaluations`` still counts one evaluation per
initial chromosome and per child.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .archspace import SEARCHED_FIELDS, ArchConfig, SearchSpace, validate

GENE_ORDER = SEARCHED_FIELDS  # cut-off positions are 1-based over this order


@dataclass(frozen=True)
class Chromosome:
    layers: int
    hidden: int
    heads: int
    ffn: int
    vocab: int

    def genes(self) -> tuple[int, ...]:
        return self.layers, self.hidden, self.heads, self.ffn, self.vocab

    def to_config(self, max_seq_len: int = 512, num_classes: int = 2) -> ArchConfig:
        return ArchConfig(layers=self.layers, hidden=self.hidden, heads=self.heads,
                          ffn=self.ffn, vocab=self.vocab,
                          max_seq_len=max_seq_len, num_classes=num_classes)

    @classmethod
    def from_genes(cls, genes) -> "Chromosome":
        return cls(*map(int, genes))  # the fields are declared in GENE_ORDER


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
        if self.target_size_mb <= 0:
            raise ValueError("target_size_mb must be positive")


@dataclass
class GaResult:
    best: Chromosome
    best_fitness: float
    history: list[float]
    elapsed_seconds: float
    n_evaluations: int = 0
    params: GaParams | None = None
    population: list[Chromosome] = field(default_factory=list)

    def to_dict(self) -> dict:
        cfg = self.best.to_config(self.params.max_seq_len if self.params else 512,
                                  self.params.num_classes if self.params else 2)
        size = estimators.model_size(cfg)
        seq = self.params.fitness_seq_len if self.params else 400
        flops = estimators.forward_flops(cfg, min(seq, cfg.max_seq_len))
        return {
            "best": cfg.to_dict(),
            "best_fitness": self.best_fitness,
            "size_mb": size.megabytes,
            "gflops": flops.gflops,
            "history": self.history,
            "elapsed_seconds": self.elapsed_seconds,
            "n_evaluations": self.n_evaluations,
            "seed": self.params.rng_seed if self.params else None,
        }


def fitness(s: Chromosome, params: GaParams) -> float:
    cfg = s.to_config(params.max_seq_len, params.num_classes)
    gflops = estimators.forward_flops(cfg, params.fitness_seq_len).gflops
    size_mb = estimators.model_size(cfg).megabytes
    return gflops - abs(size_mb - params.target_size_mb)


def random_chromosome(space: SearchSpace, rng: np.random.Generator) -> Chromosome:
    genes = []
    for f in GENE_ORDER:
        values = space.grid_values(f)
        genes.append(values[rng.integers(len(values))])
    return Chromosome.from_genes(genes)


def random_initialization(space: SearchSpace, params: GaParams,
                          rng: np.random.Generator) -> list[Chromosome]:
    return [random_chromosome(space, rng) for _ in range(params.population_size)]


def crossover(c1: Chromosome, c2: Chromosome, rng: np.random.Generator) -> Chromosome:
    """Keep c1's genes up to a random cut, take c2's after it."""
    h = int(rng.integers(1, len(GENE_ORDER)))  # 1..4; h=5 would copy c1
    g1, g2 = c1.genes(), c2.genes()
    return Chromosome.from_genes(g1[:h] + g2[h:])


def mutation(c1: Chromosome, space: SearchSpace, rng: np.random.Generator) -> Chromosome:
    """Keep genes up to a random cut, resample the tail uniformly."""
    h = int(rng.integers(1, len(GENE_ORDER)))
    genes = list(c1.genes())
    for i in range(h, len(GENE_ORDER)):
        values = space.grid_values(GENE_ORDER[i])
        genes[i] = values[rng.integers(len(values))]
    return Chromosome.from_genes(genes)


def _sort_key(item, params: GaParams):
    chrom, fit = item
    size_mb = estimators.model_size(
        chrom.to_config(params.max_seq_len, params.num_classes)).megabytes
    return (-fit, abs(size_mb - params.target_size_mb), chrom.genes())


def selection(merged: list[tuple[Chromosome, float]],
              params: GaParams) -> list[tuple[Chromosome, float]]:
    """Top population_size by fitness; ties by size gap, then gene order."""
    if len(merged) < params.population_size:
        raise ValueError("merged pool smaller than population_size")
    ranked = sorted(merged, key=lambda it: _sort_key(it, params))
    return ranked[: params.population_size]


def repair_vocab(c: Chromosome, space: SearchSpace, params: GaParams) -> Chromosome:
    """``c`` with the grid vocab whose model size lands nearest the target.

    The size is linear in vocab, so the sizes at the first two grid
    values give its slope and the nearest grid index follows in closed
    form, clipped to the grid. Ties go to the smaller vocab.
    """
    grid = space.vocab
    lo, above = (estimators.model_size(ArchConfig(
        c.layers, c.hidden, c.heads, c.ffn, vocab, params.max_seq_len, params.num_classes)
    ).megabytes for vocab in (grid.lower, grid.lower + grid.step))
    slope = above - lo
    k = min(max(round((params.target_size_mb - lo) / slope), 0), grid.size() - 1)
    # sizes are exact multiples of 2**-18 MB, so lo + j * slope is the exact
    # size at index j; comparing the neighbours settles a rounded half step
    j = min(range(max(k - 1, 0), min(k + 2, grid.size())),
            key=lambda j: abs(lo + j * slope - params.target_size_mb))
    return Chromosome(c.layers, c.hidden, c.heads, c.ffn, grid.lower + j * grid.step)


def _survivors(merged: list[tuple[Chromosome, float]], params: GaParams,
               rank) -> list[tuple[Chromosome, float]]:
    """The ``population_size`` best distinct chromosomes of ``merged`` by
    ``rank`` (the :func:`_sort_key` order); copies of the best fill the
    population only when too few are distinct."""
    if len(merged) < params.population_size:
        raise ValueError("merged pool smaller than population_size")
    distinct = sorted(dict.fromkeys(merged), key=rank)
    if len(distinct) >= params.population_size:
        return distinct[: params.population_size]
    copies = sorted(merged, key=rank)
    return distinct + copies[: params.population_size - len(distinct)]


def search(space: SearchSpace, params: GaParams) -> GaResult:
    """Run the full evolutionary loop; deterministic given the seed.

    Raises ValueError when even the smallest architecture in ``space`` is
    larger than the target: every size grows with every gene, so no pick
    could fit.
    """
    smallest = Chromosome(space.layers.lower, space.hidden.lower, min(space.heads),
                          space.ffn.lower, space.vocab.lower)
    floor_mb = estimators.model_size(
        smallest.to_config(params.max_seq_len, params.num_classes)).megabytes
    if floor_mb > params.target_size_mb:
        raise ValueError(f"no architecture fits {params.target_size_mb:g} MB: the smallest, "
                         f"{smallest.genes()} at max_seq_len {params.max_seq_len}, "
                         f"takes {floor_mb:.3f} MB")
    rng = np.random.default_rng(params.rng_seed)
    start = time.perf_counter()
    # (layers, hidden, ffn) -> (repaired vocab, fitness, size gap); heads
    # enters neither estimator, so one scoring serves every heads value
    memo: dict[tuple[int, int, int], tuple[int, float, float]] = {}

    def evaluate(c: Chromosome) -> tuple[Chromosome, float]:
        if c.hidden % c.heads:
            c.to_config(params.max_seq_len, params.num_classes)  # raises, as scoring it would
        key = c.layers, c.hidden, c.ffn
        if key not in memo:
            repaired = repair_vocab(c, space, params)
            item = (repaired, fitness(repaired, params))
            memo[key] = repaired.vocab, item[1], _sort_key(item, params)[1]
        vocab, fit, _ = memo[key]
        if c.vocab != vocab:
            c = Chromosome(c.layers, c.hidden, c.heads, c.ffn, vocab)
        return c, fit

    def rank(item):  # the _sort_key order, with the memoized size gap
        c, fit = item
        return -fit, memo[c.layers, c.hidden, c.ffn][2], c.genes()

    population = random_initialization(space, params, rng)
    scored = _survivors([evaluate(c) for c in population], params, rank)
    n_evals = len(population)
    history: list[float] = []

    for _ in range(params.max_iter):
        children = []
        while len(children) < params.child_size:
            if rng.random() < params.crossover_rate:
                i = int(rng.integers(params.population_size))
                j = int(rng.integers(params.population_size - 1))
                if j >= i:
                    j += 1  # two distinct parents
                child = crossover(scored[i][0], scored[j][0], rng)
            else:
                i = int(rng.integers(params.population_size))
                child = mutation(scored[i][0], space, rng)
            children.append(child)
        n_evals += len(children)
        scored = _survivors(scored + [evaluate(c) for c in children], params, rank)
        history.append(scored[0][1])

    best, best_fit = scored[0]
    assert validate(best.to_config(params.max_seq_len, params.num_classes), space).ok
    elapsed = time.perf_counter() - start
    return GaResult(best=best, best_fitness=best_fit, history=history,
                    elapsed_seconds=elapsed, n_evaluations=n_evals, params=params,
                    population=[c for c, _ in scored])
