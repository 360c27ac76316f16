import dataclasses
import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distillsearch import estimators, gasearch
from distillsearch.archspace import ArchConfig, SearchSpace, default_table1, validate
from distillsearch.gasearch import (
    Chromosome,
    GaParams,
    _nearest_vocab,
    crossover,
    fitness,
    mutation,
    random_chromosome,
    search,
)

SPACE = default_table1()
SMALL_SPACE = SearchSpace(layers=range(1, 3 + 1), hidden=range(16, 64 + 1, 16),
                          heads=(1, 2, 8), ffn=range(32, 128 + 1, 32),
                          vocab=range(1000, 5000 + 1, 1000))


def initial_population(n, rng):
    """The ``n`` chromosomes ``search`` draws first in ``SPACE`` from a fresh ``rng``."""
    return [random_chromosome(SPACE, rng) for _ in range(n)]


def nearest_vocab(c, space, params):
    """The vocab ``search`` gives ``c``, from its other genes."""
    return int(_nearest_vocab(c.to_config(params.max_seq_len, params.num_classes), space, params))


class FixedCut:
    """rng stub whose integers() yields scripted values, in order."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, *a, **k):
        return self.values.pop(0)


class TestChromosome:
    def test_fields_and_genes(self):
        c = Chromosome(3, 512, 4, 1024, 10000)
        assert (c.layers, c.hidden, c.heads, c.ffn, c.vocab) == (3, 512, 4, 1024, 10000)
        assert c == (3, 512, 4, 1024, 10000)
        assert isinstance(c, tuple)

    def test_drawn_genes_are_python_ints(self):
        # the grids are ranges and a tuple, so an np.int64 index still draws an int
        rng = np.random.default_rng(4)
        drawn = [random_chromosome(SPACE, rng) for _ in range(50)]
        drawn += [mutation(c, SPACE, rng) for c in drawn]
        assert all(type(g) is int for c in drawn for g in c)

    def test_hash_and_equality(self):
        a, b = Chromosome(3, 512, 4, 1024, 10000), Chromosome._make([3, 512, 4, 1024, 10000])
        assert a == b and hash(a) == hash(b)
        assert a != Chromosome(3, 512, 8, 1024, 10000)
        assert len({a, b, Chromosome(3, 512, 8, 1024, 10000)}) == 2

    def test_to_config(self):
        cfg = Chromosome(3, 512, 4, 1024, 10000).to_config(max_seq_len=32, num_classes=3)
        assert cfg == ArchConfig(layers=3, hidden=512, heads=4, ffn=1024, vocab=10000,
                                 max_seq_len=32, num_classes=3)
        assert Chromosome(1, 16, 1, 32, 1000).to_config().max_seq_len == 512


class TestFitness:
    def test_size_on_target_gives_pure_gflops(self):
        c = Chromosome(3, 512, 4, 1024, 10000)
        cfg = c.to_config()
        target = estimators.model_size(cfg).megabytes
        params = GaParams(target_size_mb=target, fitness_seq_len=400)
        expected = estimators.forward_flops(cfg, 400).gflops
        assert fitness(c, params) == pytest.approx(expected, abs=1e-12)

    def test_smaller_size_gap_wins_at_equal_gflops(self):
        # same FLOPs (vocab does not enter), sizes straddle the target
        params = GaParams(target_size_mb=3.0)
        near = Chromosome(2, 64, 2, 128, 9000)
        far = Chromosome(2, 64, 2, 128, 1000)
        near_gap = abs(estimators.model_size(near.to_config()).megabytes - 3.0)
        far_gap = abs(estimators.model_size(far.to_config()).megabytes - 3.0)
        assert near_gap < far_gap
        assert fitness(near, params) > fitness(far, params)

    def test_frozen_regression_value(self):
        # direct evaluation of the two estimator formulas, frozen
        params = GaParams(target_size_mb=3.0, fitness_seq_len=400)
        value = fitness(Chromosome(3, 512, 4, 1024, 10000), params)
        assert value == pytest.approx(-36.58874524339453, abs=1e-9)


class TestRandomInitialization:
    def test_deterministic_by_seed(self):
        a = initial_population(20, np.random.default_rng(7))
        b = initial_population(20, np.random.default_rng(7))
        assert a == b

    def test_all_valid(self):
        pop = initial_population(100, np.random.default_rng(0))
        for c in pop:
            assert validate(c.to_config(), SPACE).ok

    def test_heads_sampled_uniformly(self):
        rng = np.random.default_rng(0)
        pop = initial_population(10_000, rng)
        for value in (1, 2, 4, 8):
            freq = sum(c.heads == value for c in pop) / len(pop)
            assert abs(freq - 0.25) <= 0.02


class TestCrossover:
    def test_equal_parents_identity(self):
        c = Chromosome(3, 512, 4, 1024, 10000)
        child = crossover(c, c, np.random.default_rng(0))
        assert child == c

    def test_forced_cut_at_two(self):
        c1 = Chromosome(3, 512, 4, 1024, 10000)
        c2 = Chromosome(6, 256, 8, 2048, 20000)
        child = crossover(c1, c2, FixedCut([2]))
        assert child == Chromosome(3, 512, 8, 2048, 20000)

    def test_gene_membership(self):
        rng = np.random.default_rng(1)
        c1 = Chromosome(3, 512, 4, 1024, 10000)
        c2 = Chromosome(6, 256, 8, 2048, 20000)
        for _ in range(1000):
            child = crossover(c1, c2, rng)
            for g, g1, g2 in zip(child, c1, c2):
                assert g in (g1, g2)


class TestMutation:
    def test_prefix_preserved(self):
        rng = np.random.default_rng(2)
        c = Chromosome(3, 512, 4, 1024, 10000)
        # h is the first scripted draw; the resampled tail uses real draws
        for h in (1, 2, 3, 4):
            scripted = FixedCut([h] + [0] * (5 - h))
            child = mutation(c, SPACE, scripted)
            assert child[:h] == c[:h]

    def test_always_valid(self):
        rng = np.random.default_rng(3)
        c = Chromosome(12, 768, 8, 3072, 50000)
        for _ in range(200):
            assert validate(mutation(c, SPACE, rng).to_config(), SPACE).ok

    def test_cut_at_four_changes_only_vocab(self):
        c = Chromosome(3, 512, 4, 1024, 10000)
        child = mutation(c, SPACE, FixedCut([4, 25]))
        assert child[:4] == c[:4]

    def test_each_space_draws_from_its_own_grids(self):
        # alternate two spaces: every call reads the grids of the space it is given
        c = Chromosome(1, 16, 1, 32, 1000)
        other = dataclasses.replace(SMALL_SPACE, heads=(4,),
                                    vocab=range(7000, 9000 + 1, 1000))
        for _ in range(3):
            assert mutation(c, SMALL_SPACE, FixedCut([2, 2, 3, 4])) == (1, 16, 8, 128, 5000)
            assert mutation(c, other, FixedCut([2, 0, 3, 2])) == (1, 16, 4, 128, 9000)


class TestRepairVocab:
    CHROMOSOMES = [Chromosome(1, 16, 1, 32, 1000), Chromosome(3, 512, 4, 1024, 10000),
                   Chromosome(11, 112, 2, 32, 50000), Chromosome(12, 768, 8, 3072, 1000),
                   Chromosome(1, 16, 1, 2688, 7000), Chromosome(6, 144, 4, 32, 1000)]

    @staticmethod
    def nearest_by_scan(c, params, space=SPACE):
        def gap(vocab):
            cfg = Chromosome(c.layers, c.hidden, c.heads, c.ffn, vocab).to_config(
                params.max_seq_len, params.num_classes)
            return abs(estimators.model_size(cfg).megabytes - params.target_size_mb)
        return min(space.grid_values("vocab"), key=gap)  # first minimum: smaller vocab

    @pytest.mark.parametrize("target", [0.05, 0.408, 3.0, 25.0, 50.0, 500.0])
    def test_matches_brute_force_nearest_size(self, target):
        params = GaParams(target_size_mb=target)
        for c in self.CHROMOSOMES:
            assert nearest_vocab(c, SPACE, params) == self.nearest_by_scan(c, params)

    def test_clips_to_grid_ends(self):
        small, large = Chromosome(1, 16, 1, 32, 9000), Chromosome(12, 768, 8, 3072, 9000)
        assert nearest_vocab(small, SPACE, GaParams(target_size_mb=1e-3)) == 1000
        assert nearest_vocab(small, SPACE, GaParams(target_size_mb=1e3)) == 50000
        assert nearest_vocab(large, SPACE, GaParams(target_size_mb=3.0)) == 1000

    def test_pipeline_context(self):
        params = GaParams(target_size_mb=0.408, fitness_seq_len=24, max_seq_len=32)
        for c in initial_population(200, np.random.default_rng(5)):
            assert nearest_vocab(c, SPACE, params) == self.nearest_by_scan(c, params)

    @pytest.mark.parametrize("space, params", [
        (SPACE, GaParams(target_size_mb=0.408, fitness_seq_len=24, max_seq_len=32)),
        (SPACE, GaParams(target_size_mb=3.0)),
        (SPACE, GaParams(target_size_mb=25.0)),
        (SMALL_SPACE, GaParams(target_size_mb=0.408, fitness_seq_len=24, max_seq_len=32,
                               population_size=10, max_iter=20, child_size=10)),
    ], ids=["0.408MB", "3MB", "25MB", "small-space"])
    def test_search_population_carries_the_nearest_vocab(self, space, params):
        for c in search(space, params).population:
            assert c.vocab == self.nearest_by_scan(c, params, space)


class TestSearch:
    SMALL = GaParams(population_size=10, max_iter=15, child_size=10,
                     target_size_mb=3.0, rng_seed=11)

    def test_deterministic(self):
        a = search(SPACE, self.SMALL)
        b = search(SPACE, self.SMALL)
        assert a.best == b.best
        assert a.best_fitness == b.best_fitness
        assert a.history == b.history

    def test_history_nondecreasing(self):
        res = search(SPACE, self.SMALL)
        assert all(x <= y for x, y in zip(res.history, res.history[1:]))

    def test_evaluation_budget(self):
        res = search(SPACE, self.SMALL)
        p = self.SMALL
        assert res.n_evaluations == p.population_size + p.max_iter * p.child_size

    def test_best_is_valid_and_fitness_consistent(self):
        res = search(SPACE, self.SMALL)
        assert validate(res.best.to_config(), SPACE).ok
        assert res.best_fitness == pytest.approx(fitness(res.best, self.SMALL))
        assert res.best_fitness == res.history[-1]

    def test_default_search_hits_3mb_band(self):
        res = search(SPACE, GaParams(rng_seed=0))
        size = estimators.model_size(res.best.to_config()).megabytes
        assert 2.8 <= size <= 3.2
        assert res.elapsed_seconds < 60

    def test_population_distinct(self):
        res = search(SPACE, self.SMALL)
        assert len(res.population) == self.SMALL.population_size
        assert len(set(res.population)) == len(res.population)
        assert res.population[0] == res.best

    def test_copies_fill_when_too_few_distinct(self):
        # two repaired chromosomes exist in this space: ffn 32 and ffn 64
        space = SearchSpace(layers=range(1, 1 + 1), hidden=range(16, 16 + 1, 16),
                            heads=(1,), ffn=range(32, 64 + 1, 32),
                            vocab=range(1000, 5000 + 1, 1000))
        params = GaParams(population_size=4, max_iter=3, child_size=4, rng_seed=0)
        res = search(space, params)
        assert len(res.population) == 4
        assert {c.ffn for c in res.population} == {32, 64}
        assert res.population[0] == res.best

    def test_generation_statistics(self):
        res = search(SPACE, self.SMALL)
        p = self.SMALL
        assert len(res.median_history) == len(res.distinct_history) == p.max_iter
        for best, median, distinct in zip(res.history, res.median_history,
                                          res.distinct_history):
            assert median <= best
            assert 1 <= distinct <= p.population_size
        assert res.distinct_history[-1] == len(set(res.population))
        assert res.median_history[-1] == float(np.median([fitness(c, p) for c in res.population]))
        doc = res.to_dict()
        assert doc["median_history"] == res.median_history
        assert doc["distinct_history"] == res.distinct_history

    def test_every_survivor_carries_its_own_fitness(self, monkeypatch):
        # the table's score of each survivor, every generation, against
        # fitness() and the size gap taken on the chromosome alone
        survivors, seen = gasearch._survivors, []

        def spy(merged, params):
            kept, n_distinct = survivors(merged, params)
            seen.append(kept)
            return kept, n_distinct

        monkeypatch.setattr(gasearch, "_survivors", spy)
        p = self.SMALL
        res = search(SPACE, p)
        assert len(seen) == p.max_iter + 1
        assert [c for _, _, c in seen[-1]] == res.population
        for kept in seen:
            for rank, gap, c in kept:
                size = estimators.model_size(c.to_config(p.max_seq_len, p.num_classes))
                assert -rank == fitness(c, p)
                assert gap == abs(size.megabytes - p.target_size_mb)

    def test_distinct_count_below_population_in_a_small_space(self):
        # two repaired chromosomes exist here, fewer than the population of 4
        space = SearchSpace(layers=range(1, 1 + 1), hidden=range(16, 16 + 1, 16),
                            heads=(1,), ffn=range(32, 64 + 1, 32),
                            vocab=range(1000, 5000 + 1, 1000))
        res = search(space, GaParams(population_size=4, max_iter=3, child_size=4, rng_seed=0))
        assert all(1 <= d <= 2 for d in res.distinct_history)
        assert res.distinct_history[-1] == 2 < 4

    def test_head_split_checked_for_every_chromosome(self):
        # hidden 12 does not split over 8 heads: the space refuses the pair
        # when it is built, so no chromosome of a search can hold it
        with pytest.raises(ValueError, match="hidden 12 does not split over 8 heads"):
            SearchSpace(layers=range(1, 2 + 1), hidden=range(12, 24 + 1, 12),
                        heads=(1, 8), ffn=range(32, 64 + 1, 32),
                        vocab=range(1000, 5000 + 1, 1000))

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
            GaParams(rng_seed=-1)

    def test_budget_below_the_smallest_architecture_rejected(self):
        smallest = Chromosome(1, 16, 1, 32, 1000).to_config(max_seq_len=32)
        floor_mb = estimators.model_size(smallest).megabytes
        small = dict(population_size=4, max_iter=2, child_size=4, max_seq_len=32,
                     fitness_seq_len=24)
        with pytest.raises(ValueError, match=r"takes 0\.073 MB"):
            search(SPACE, GaParams(target_size_mb=floor_mb * (1 - 1e-9), **small))
        res = search(SPACE, GaParams(target_size_mb=floor_mb, **small))  # the floor fits
        assert validate(res.best.to_config(max_seq_len=32), SPACE).ok


class TestDraws:
    """``search`` reads its draws from ``_Draws``, which must return what the
    ``Generator`` over the same ``PCG64`` returns, call for call."""

    @staticmethod
    def calls(seed):
        """A mixed script of ``(method, args)`` calls that reads past one raw block:
        ranges of one value, small ranges, ranges near 2**32 where Lemire's
        method rejects often, and ranges with a lower bound."""
        script = np.random.default_rng([seed, 99])
        for _ in range(3 * gasearch._Draws.BLOCK):
            kind = script.integers(5)
            if kind == 0:
                yield "random", ()
            elif kind == 1:
                yield "integers", (1,)  # draws nothing: the next call must still match
            elif kind == 2:
                yield "integers", (int(script.integers(2, 60)),)
            elif kind == 3:
                yield "integers", (int(script.integers(2**31, 2**32)),)
            else:
                low = int(script.integers(-5, 5))
                yield "integers", (low, low + int(script.integers(1, 9)))

    @pytest.mark.parametrize("seeds", [range(0, 50), range(50, 100), range(100, 150)])
    def test_matches_the_generator_draw_for_draw(self, seeds):
        for seed in seeds:
            draws = gasearch._Draws(np.random.PCG64(seed))
            rng = np.random.default_rng(seed)
            for method, args in self.calls(seed):
                assert getattr(draws, method)(*args) == getattr(rng, method)(*args), \
                    (seed, method, args)

    def test_rejects_below_the_threshold_only(self):
        # for a range of 3 the threshold is (2**32 - 3) % 3 = 1: a low 32 bits of
        # u * 3 equal to 1 is kept, 0 is drawn again
        raw = [2863311531, (1 << 32) | (2**32 - 1)]  # 2863311531 * 3 = 2 * 2**32 + 1
        stub = SimpleNamespace(random_raw=lambda size: np.array(raw + [0] * (size - 2), np.uint64))
        draws = gasearch._Draws(stub)
        assert [draws.integers(3) for _ in range(3)] == [2, 2, 0]

    @pytest.mark.parametrize("space, params", [
        (SPACE, GaParams(population_size=2, max_iter=30, child_size=8, rng_seed=3)),
        (SPACE, GaParams(crossover_rate=0.0, max_iter=10, rng_seed=4)),
        (SPACE, GaParams(crossover_rate=1.0, max_iter=10, rng_seed=5)),
        (dataclasses.replace(SMALL_SPACE, heads=(2,)),
         GaParams(target_size_mb=0.408, fitness_seq_len=24, max_seq_len=32, rng_seed=6,
                  population_size=10, max_iter=20, child_size=10)),
    ], ids=["population-2", "crossover-0", "crossover-1", "one-heads-value"])
    def test_search_runs_as_with_the_generator(self, monkeypatch, space, params):
        def run():
            res = search(space, params)
            doc = res.to_dict()
            del doc["elapsed_seconds"]
            return doc, res.population

        ours = run()
        monkeypatch.setattr(gasearch, "_Draws", np.random.Generator)
        assert ours == run()

    def test_each_child_goes_through_one_operator(self, monkeypatch):
        calls = []
        for name in ("crossover", "mutation"):
            operator = getattr(gasearch, name)
            monkeypatch.setattr(gasearch, name,
                                lambda *a, op=operator: calls.append(op) or op(*a))
        params = TestSearch.SMALL
        search(SPACE, params)
        assert len(calls) == params.max_iter * params.child_size
        assert {crossover, mutation} == set(calls)


class TestOptimum:
    @pytest.mark.parametrize("target", [0.1, 0.408, 2.0])
    def test_is_the_brute_force_best(self, target):
        params = GaParams(target_size_mb=target, fitness_seq_len=24, max_seq_len=32,
                          population_size=4, max_iter=2, child_size=4)
        grid = [Chromosome(*genes) for genes in itertools.product(
            *(SMALL_SPACE.grid_values(f) for f in ("layers", "hidden", "heads", "ffn",
                                                        "vocab")))
                if genes[1] % genes[2] == 0]
        best = max(fitness(c, params) for c in grid)
        repaired = max(fitness(c._replace(vocab=nearest_vocab(c, SMALL_SPACE, params)), params)
                       for c in grid)
        res = search(SMALL_SPACE, params)
        assert res.optimum_fitness == best == repaired
        doc = res.to_dict()
        assert doc["optimum_fitness"] == best
        assert doc["regret"] == best - res.best_fitness >= 0

    def test_exact_optimum_at_3mb(self):
        # (11, 112, ., 32, 1000); the default seed-0 run stops 0.0485 short of it
        res = search(SPACE, GaParams(target_size_mb=3.0))
        assert res.optimum_fitness == 1.1472510831679688
        assert res.to_dict()["regret"] == 1.1472510831679688 - 1.0987419036757813


def _history(runs):
    """Expand (value, repeats) pairs into a per-iteration history."""
    return [value for value, repeats in runs for _ in range(repeats)]


class TestFrozenTrajectory:
    """The full GA trajectory at two budgets, frozen: any change to the loop,
    the memo or the ranking that moves a single pick shows here."""

    CASES = {
        "3MB": (
            GaParams(rng_seed=0, target_size_mb=3.0),
            (10, 112, 1, 32, 1000),
            1.0987419036757813,
            [(0.37538657426953126, 1), (0.6247845475820313, 1), (0.7253348570820313, 1),
             (1.0350989651992188, 14), (1.0420889980117187, 5), (1.0572714013320312, 9),
             (1.0987419036757813, 69)],
            [(10, 112, 1, 32, 1000), (10, 112, 2, 32, 1000), (10, 112, 4, 32, 1000),
             (10, 112, 8, 32, 1000), (9, 112, 1, 64, 1000), (9, 112, 2, 64, 1000),
             (9, 112, 4, 64, 1000), (9, 112, 8, 64, 1000), (12, 112, 1, 32, 1000),
             (12, 112, 2, 32, 1000), (12, 112, 4, 32, 1000), (12, 112, 8, 32, 1000),
             (10, 112, 1, 64, 1000), (10, 112, 2, 64, 1000), (10, 112, 4, 64, 1000),
             (10, 112, 8, 64, 1000), (9, 112, 1, 96, 1000), (9, 112, 2, 96, 1000),
             (9, 112, 4, 96, 1000), (9, 112, 8, 96, 1000), (7, 112, 8, 160, 1000),
             (8, 112, 1, 96, 1000), (8, 112, 2, 96, 1000), (8, 112, 4, 96, 1000),
             (8, 112, 8, 96, 1000), (8, 112, 8, 128, 1000), (9, 112, 1, 32, 2000),
             (9, 112, 2, 32, 2000), (9, 112, 4, 32, 2000), (9, 112, 8, 32, 2000),
             (12, 48, 1, 512, 1000), (12, 48, 2, 512, 1000), (12, 48, 8, 512, 1000),
             (12, 64, 4, 288, 2000), (10, 64, 4, 352, 2000), (10, 64, 8, 352, 2000),
             (10, 64, 4, 416, 1000), (10, 64, 8, 416, 1000), (8, 112, 1, 64, 2000),
             (8, 112, 2, 64, 2000), (8, 112, 4, 64, 2000), (8, 112, 8, 64, 2000),
             (12, 48, 1, 480, 2000), (12, 48, 4, 480, 2000), (12, 48, 8, 480, 2000),
             (9, 64, 1, 448, 1000), (8, 112, 1, 32, 2000), (8, 112, 2, 32, 2000),
             (8, 112, 4, 32, 2000), (8, 112, 8, 32, 2000)],
        ),
        "pipeline": (
            GaParams(rng_seed=0, target_size_mb=0.408, fitness_seq_len=24, max_seq_len=32),
            (1, 16, 1, 2688, 1000),
            0.003327481582031276,
            [(-0.1889192464570313, 3), (-0.048965085644531274, 1),
             (-0.0006717593320312762, 5), (-0.00022356145703127626, 7),
             (0.0024512974179687237, 15), (0.003327481582031276, 69)],
            [(1, 16, 1, 2688, 1000), (1, 16, 2, 2688, 1000), (1, 16, 4, 2688, 1000),
             (1, 16, 8, 2688, 1000), (1, 16, 1, 2208, 2000), (1, 16, 2, 2208, 2000),
             (1, 16, 4, 2208, 2000), (1, 16, 8, 2208, 2000), (1, 32, 8, 1056, 1000),
             (1, 16, 1, 1728, 3000), (1, 16, 2, 1728, 3000), (1, 16, 4, 1728, 3000),
             (1, 16, 8, 1728, 3000), (1, 16, 1, 2720, 1000), (1, 16, 2, 2720, 1000),
             (1, 16, 4, 2720, 1000), (1, 16, 8, 2720, 1000), (1, 16, 1, 1248, 4000),
             (1, 16, 2, 1248, 4000), (1, 16, 4, 1248, 4000), (1, 16, 8, 1248, 4000),
             (3, 16, 1, 864, 1000), (3, 16, 1, 704, 2000), (3, 16, 4, 544, 3000),
             (3, 16, 1, 384, 4000), (3, 16, 2, 384, 4000), (1, 16, 1, 2240, 2000),
             (1, 16, 2, 2240, 2000), (1, 16, 4, 2240, 2000), (1, 16, 8, 2240, 2000),
             (1, 16, 1, 768, 5000), (1, 16, 2, 768, 5000), (1, 16, 4, 768, 5000),
             (1, 16, 8, 768, 5000), (3, 16, 2, 224, 5000), (3, 16, 2, 64, 6000),
             (2, 16, 2, 832, 3000), (5, 32, 1, 160, 1000), (1, 16, 1, 2656, 1000),
             (1, 16, 2, 2656, 1000), (1, 16, 4, 2656, 1000), (1, 16, 8, 2656, 1000),
             (1, 16, 1, 2176, 2000), (1, 16, 2, 2176, 2000), (1, 16, 4, 2176, 2000),
             (1, 16, 8, 2176, 2000), (1, 16, 1, 1696, 3000), (1, 16, 2, 1696, 3000),
             (1, 16, 4, 1696, 3000), (1, 16, 8, 1696, 3000)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trajectory_is_frozen(self, case):
        params, best, best_fitness, history, population = self.CASES[case]
        res = search(SPACE, params)
        assert res.best == best
        assert res.best_fitness == best_fitness
        assert res.history == _history(history)
        assert res.n_evaluations == 5050
        assert res.population == population


class TestFrozenDigest:
    """``to_dict()``'s KEYS (all but ``elapsed_seconds`` and the generation
    statistics) and the final population genes, hashed over GA seeds 0-3 at
    each benchmark budget: a rewrite of the loop must keep every run
    bit-identical."""

    KEYS = ("best", "best_fitness", "optimum_fitness", "regret", "size_mb", "gflops",
            "history", "n_evaluations", "seed")
    DIGESTS = {
        (3.0, 400, 512): "e29fe2a6c62938c032b9fca4222d5759b4a2e558b2e2ae3abfb280f7363d08bf",
        (25.0, 400, 512): "e6816d138695e1a67c9b37bd3c065175073fcbc5065328411b91505c9e7bc039",
        (50.0, 400, 512): "144717edb3acc83cd466f9f13b580a0202a922b6211f20aec0f65c4378c18139",
        (0.408, 24, 32): "85a16cf33136423e60303442c5076fcd4ccc986d103cec7ccdc26b959f4019dd",
    }

    @pytest.mark.parametrize("budget", sorted(DIGESTS))
    def test_runs_hash_to_the_frozen_digest(self, budget):
        target_mb, seq_len, max_seq_len = budget
        h = hashlib.sha256()
        for seed in range(4):
            res = search(SPACE, GaParams(target_size_mb=target_mb, fitness_seq_len=seq_len,
                                         max_seq_len=max_seq_len, rng_seed=seed))
            doc = res.to_dict()
            h.update(json.dumps({k: doc[k] for k in self.KEYS}, sort_keys=True).encode())
            h.update(json.dumps(res.population).encode())
        assert h.hexdigest() == self.DIGESTS[budget]


GRID_CHROMOSOMES = st.builds(
    Chromosome, *(st.sampled_from(SPACE.grid_values(f)) for f in
                  ("layers", "hidden", "heads", "ffn", "vocab")))
BUDGETS = [GaParams(target_size_mb=3.0),
           GaParams(target_size_mb=0.408, fitness_seq_len=24, max_seq_len=32)]


class TestFitnessStructure:
    """What lets ``search`` score each (layers, hidden, ffn) once: ``heads``
    enters neither estimator, and ``vocab`` moves the size along a line."""

    @staticmethod
    def size(c, params):
        return estimators.model_size(c.to_config(params.max_seq_len, params.num_classes))

    @settings(max_examples=200, deadline=None)
    @given(c=GRID_CHROMOSOMES, heads=st.sampled_from(SPACE.heads),
           params=st.sampled_from(BUDGETS))
    def test_heads_changes_neither_fitness_nor_size(self, c, heads, params):
        other = Chromosome(c.layers, c.hidden, heads, c.ffn, c.vocab)
        assert fitness(other, params) == fitness(c, params)
        assert self.size(other, params) == self.size(c, params)

    @settings(max_examples=200, deadline=None)
    @given(c=GRID_CHROMOSOMES, params=st.sampled_from(BUDGETS))
    def test_one_vocab_step_moves_size_by_a_constant(self, c, params):
        grid = SPACE.vocab
        at = [self.size(Chromosome(c.layers, c.hidden, c.heads, c.ffn, v), params).megabytes
              for v in grid[:2]]
        vocab = min(c.vocab, grid[-2])
        here, above = (self.size(Chromosome(c.layers, c.hidden, c.heads, c.ffn, v),
                                 params).megabytes for v in (vocab, vocab + grid.step))
        assert above - here == at[1] - at[0]
