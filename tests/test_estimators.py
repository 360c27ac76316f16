import numpy as np
import pytest

from distillsearch import nn
from distillsearch.archspace import ArchConfig, pretrained_reference
from distillsearch.estimators import forward_flops, live_flops, model_size, param_count

TINY_CONFIGS = [
    ArchConfig(layers=1, hidden=16, heads=1, ffn=32, vocab=1000, max_seq_len=512),
    ArchConfig(layers=2, hidden=8, heads=2, ffn=12, vocab=50, max_seq_len=16),
    ArchConfig(layers=3, hidden=6, heads=3, ffn=10, vocab=30, max_seq_len=12, num_classes=4),
    ArchConfig(layers=1, hidden=2, heads=1, ffn=4, vocab=8, max_seq_len=4),
]


class TestParamCount:
    def test_reference_anchor(self):
        n = param_count(pretrained_reference())
        assert abs(n - 125e6) / 125e6 < 0.03

    @pytest.mark.parametrize("cfg", TINY_CONFIGS)
    def test_weight_enumeration_oracle(self, cfg):
        model = nn.init(cfg, 0)
        enumerated = sum(w.size for w in model.weights.values())
        assert param_count(cfg) == enumerated

    def test_linear_in_ffn(self):
        base = ArchConfig(layers=3, hidden=64, heads=4, ffn=128, vocab=2000)
        doubled = ArchConfig(layers=3, hidden=64, heads=4, ffn=256, vocab=2000)
        increment = 128
        expected = base.layers * (2 * base.hidden * increment + increment)
        assert param_count(doubled) - param_count(base) == expected

    def test_monotone_in_each_field(self):
        base = dict(layers=2, hidden=32, heads=2, ffn=64, vocab=1000)
        n0 = param_count(ArchConfig(**base))
        for field, bumped in [("layers", 3), ("hidden", 64), ("ffn", 96), ("vocab", 2000)]:
            n1 = param_count(ArchConfig(**{**base, field: bumped}))
            assert n1 > n0


class TestModelSize:
    def test_reference_anchor_476mb(self):
        mb = model_size(pretrained_reference()).megabytes
        assert abs(mb - 476) / 476 < 0.03

    def test_bytes_exact(self):
        cfg = TINY_CONFIGS[0]
        est = model_size(cfg, bytes_per_param=2)
        assert est.bytes == est.param_count * 2
        assert est.megabytes == est.bytes / 2**20

    def test_eight_bytes_doubles_four(self):
        cfg = TINY_CONFIGS[1]
        assert model_size(cfg, 8).megabytes == 2 * model_size(cfg, 4).megabytes

    def test_bad_bytes_per_param(self):
        with pytest.raises(ValueError):
            model_size(TINY_CONFIGS[0], bytes_per_param=3)


class TestForwardFlops:
    @pytest.mark.parametrize("cfg", TINY_CONFIGS)
    def test_instrumented_matmul_oracle(self, cfg):
        model = nn.init(cfg, 0)
        seq_len = min(4, cfg.max_seq_len)
        counter = nn.FlopCounter()
        nn.forward(model, list(range(seq_len)), counter=counter)
        assert counter.flops == forward_flops(cfg, seq_len).flops

    def test_linear_in_layers(self):
        def flops(L):
            return forward_flops(
                ArchConfig(layers=L, hidden=64, heads=4, ffn=128, vocab=1000), 32).flops
        assert flops(2) - flops(1) == flops(3) - flops(2)

    def test_reference_dominates_grid_students(self):
        # the grid maxima share L, H, D with the reference and heads cancel
        # out of the FLOPs formula, so equality is attainable there
        ref = forward_flops(pretrained_reference(), 400).flops
        grid_max = ArchConfig(layers=12, hidden=768, heads=8, ffn=3072, vocab=50000)
        assert ref >= forward_flops(grid_max, 400).flops
        below_max = ArchConfig(layers=12, hidden=752, heads=8, ffn=3072, vocab=50000)
        assert ref > forward_flops(below_max, 400).flops

    def test_vocab_does_not_enter_flops(self):
        a = ArchConfig(layers=2, hidden=32, heads=2, ffn=64, vocab=1000)
        b = ArchConfig(layers=2, hidden=32, heads=2, ffn=64, vocab=50000)
        assert forward_flops(a, 16).flops == forward_flops(b, 16).flops

    def test_monotone_in_dims_and_seq_len(self):
        base = dict(layers=2, hidden=32, heads=2, ffn=64, vocab=1000)
        f0 = forward_flops(ArchConfig(**base), 16).flops
        for field, bumped in [("layers", 3), ("hidden", 64), ("ffn", 96)]:
            assert forward_flops(ArchConfig(**{**base, field: bumped}), 16).flops > f0
        assert forward_flops(ArchConfig(**base), 17).flops > f0

    def test_seq_len_out_of_range(self):
        cfg = ArchConfig(layers=1, hidden=16, heads=1, ffn=32, vocab=100, max_seq_len=8)
        with pytest.raises(ValueError):
            forward_flops(cfg, 9)
        with pytest.raises(ValueError):
            forward_flops(cfg, 0)

    def test_gflops_scaling(self):
        est = forward_flops(TINY_CONFIGS[0], 8)
        assert est.gflops == est.flops / 1e9


class TestLiveFlops:
    @pytest.mark.parametrize("cfg", TINY_CONFIGS)
    def test_batched_passes_count_live_flops(self, cfg, monkeypatch):
        # predict_logits's batches and a training pass run the last layer at position 0
        model = nn.init(cfg, 0)
        lengths = [min(n, cfg.max_seq_len) for n in (1, 3, 3, 4)]
        counter = nn.FlopCounter()
        batch_pass = nn.forward_batch
        monkeypatch.setattr(nn, "forward_batch",
                            lambda model, ids: batch_pass(model, ids, counter=counter))
        nn.predict_logits(model, [[1] * n for n in lengths])
        assert counter.flops == sum(live_flops(cfg, n).flops for n in lengths)

        counter = nn.FlopCounter()
        batch_pass(model, np.ones((3, lengths[-1]), dtype=int), counter=counter, want_cache=True)
        assert counter.flops == 3 * live_flops(cfg, lengths[-1]).flops
        assert live_flops(cfg, 1) == forward_flops(cfg, 1)
