import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distillsearch import cli, estimators, nn
from distillsearch.archspace import ArchConfig

TINY = ArchConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)
# 50,786 weights: more than one 32,768-element chunk of the Adam update
WIDE = ArchConfig(layers=2, hidden=32, heads=2, ffn=64, vocab=1000, max_seq_len=16)


def fd_check(model, loss_fn, grads, n_per_tensor=4, eps=1e-4, seed=0):
    """Central finite differences on a sample of entries per tensor.

    Returns the worst relative error; the denominator carries a small
    absolute floor because the fp64 difference quotient itself has
    ~1e-10 absolute noise, which dominates near-zero gradients.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, w in model.weights.items():
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_per_tensor, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            lp = loss_fn(model)
            flat[idx] = old - eps
            lm = loss_fn(model)
            flat[idx] = old
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6)
            worst = max(worst, rel)
    return worst


class TestInit:
    @pytest.mark.parametrize("cfg", [
        TINY,
        ArchConfig(layers=2, hidden=16, heads=4, ffn=32, vocab=100, max_seq_len=16),
    ])
    def test_scalar_count_matches_estimator(self, cfg):
        model = nn.init(cfg, 0)
        assert model.flat.size == estimators.param_count(cfg)

    def test_seed_determinism(self):
        a = nn.init(TINY, 5)
        b = nn.init(TINY, 5)
        for name in a.weights:
            assert np.array_equal(a.weights[name], b.weights[name])

    def test_layernorm_scales_one_biases_zero(self):
        model = nn.init(TINY, 0)
        for name, w in model.weights.items():
            base = name.split(".")[-1]
            if base.endswith("_g"):
                assert np.all(w == 1.0)
            elif base.endswith("_b"):
                assert np.all(w == 0.0)

    def test_weights_are_views_of_one_buffer(self, tmp_path):
        model = nn.init(TINY, 0)
        nn.save_checkpoint(model, tmp_path / "m.ckpt")
        for m in (model, nn.load_checkpoint(tmp_path / "m.ckpt")):
            assert m.flat.shape == (estimators.param_count(TINY),)
            assert all(np.shares_memory(w, m.flat) for w in m.weights.values())

    def test_misaligned_heads_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(layers=1, hidden=10, heads=4, ffn=8, vocab=10)


class TestLayout:
    # distinct sizes, so a swapped axis or a mixed-up width shows
    TWO_LAYERS = ArchConfig(layers=2, hidden=4, heads=2, ffn=6, vocab=10, max_seq_len=3,
                            num_classes=3)

    def test_two_layer_names_shapes_and_offsets(self):
        assert nn._layout(self.TWO_LAYERS) == (
            ("tok_emb", (10, 4), 0, 40), ("pos_emb", (3, 4), 40, 52),
            ("emb_ln_g", (4,), 52, 56), ("emb_ln_b", (4,), 56, 60),
            ("layer0.q_w", (4, 4), 60, 76), ("layer0.q_b", (4,), 76, 80),
            ("layer0.k_w", (4, 4), 80, 96), ("layer0.k_b", (4,), 96, 100),
            ("layer0.v_w", (4, 4), 100, 116), ("layer0.v_b", (4,), 116, 120),
            ("layer0.o_w", (4, 4), 120, 136), ("layer0.o_b", (4,), 136, 140),
            ("layer0.attn_ln_g", (4,), 140, 144), ("layer0.attn_ln_b", (4,), 144, 148),
            ("layer0.ffn_up_w", (4, 6), 148, 172), ("layer0.ffn_up_b", (6,), 172, 178),
            ("layer0.ffn_down_w", (6, 4), 178, 202), ("layer0.ffn_down_b", (4,), 202, 206),
            ("layer0.ffn_ln_g", (4,), 206, 210), ("layer0.ffn_ln_b", (4,), 210, 214),
            ("layer1.q_w", (4, 4), 214, 230), ("layer1.q_b", (4,), 230, 234),
            ("layer1.k_w", (4, 4), 234, 250), ("layer1.k_b", (4,), 250, 254),
            ("layer1.v_w", (4, 4), 254, 270), ("layer1.v_b", (4,), 270, 274),
            ("layer1.o_w", (4, 4), 274, 290), ("layer1.o_b", (4,), 290, 294),
            ("layer1.attn_ln_g", (4,), 294, 298), ("layer1.attn_ln_b", (4,), 298, 302),
            ("layer1.ffn_up_w", (4, 6), 302, 326), ("layer1.ffn_up_b", (6,), 326, 332),
            ("layer1.ffn_down_w", (6, 4), 332, 356), ("layer1.ffn_down_b", (4,), 356, 360),
            ("layer1.ffn_ln_g", (4,), 360, 364), ("layer1.ffn_ln_b", (4,), 364, 368),
            ("pooler_w", (4, 4), 368, 384), ("pooler_b", (4,), 384, 388),
            ("cls_w", (4, 3), 388, 400), ("cls_b", (3,), 400, 403),
        )

    @pytest.mark.parametrize("cfg", [
        TINY, WIDE, TWO_LAYERS,
        ArchConfig(layers=12, hidden=768, heads=12, ffn=3072, vocab=50000),
        ArchConfig(layers=1, hidden=16, heads=1, ffn=2688, vocab=1000, max_seq_len=32),
    ])
    def test_buffer_size_is_param_count(self, cfg):
        layout = nn._layout(cfg)
        assert layout[-1][-1] == estimators.param_count(cfg)
        # the tensors tile the buffer: each starts where the one before stops
        assert [start for _, _, start, _ in layout] == [0] + [stop for *_, stop in layout[:-1]]


class TestForward:
    def test_logits_shape_and_finite(self):
        model = nn.init(TINY, 1)
        logits = nn.forward(model, [1, 2, 3])
        assert logits.shape == (2,)
        assert np.all(np.isfinite(logits))

    def test_deterministic(self):
        model = nn.init(TINY, 1)
        a = nn.forward(model, [4, 5, 6, 7])
        b = nn.forward(model, [4, 5, 6, 7])
        assert np.array_equal(a, b)

    def test_out_of_vocab_rejected(self):
        model = nn.init(TINY, 1)
        with pytest.raises(nn.InvalidInputError):
            nn.forward(model, [0, 25])

    def test_too_long_rejected(self):
        model = nn.init(TINY, 1)
        with pytest.raises(nn.InvalidInputError):
            nn.forward(model, list(range(9)))

    def test_instrumented_tally_matches_estimator(self):
        cfg = ArchConfig(layers=2, hidden=4, heads=2, ffn=6, vocab=10, max_seq_len=6)
        model = nn.init(cfg, 2)
        counter = nn.FlopCounter()
        nn.forward(model, [1, 2, 3], counter=counter)
        assert counter.flops == estimators.forward_flops(cfg, 3).flops

    @pytest.mark.parametrize("layers", [1, 3])
    def test_training_pass_logits_match_inference(self, layers):
        cfg = ArchConfig(layers=layers, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)
        model = nn.init(cfg, 4)
        ids = np.random.default_rng(4).integers(0, 20, size=(3, 7))
        trained, _ = nn.forward_batch(model, ids, want_cache=True)
        inferred, _ = nn.forward_batch(model, ids)
        assert np.allclose(trained, inferred, rtol=1e-12, atol=1e-14)

    def test_training_pass_counts_the_products_it_runs(self):
        # the last layer runs queries, attention output and FFN for position 0
        # only, so s - 1 rows of each go uncounted
        cfg = ArchConfig(layers=2, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)
        model = nn.init(cfg, 5)
        B, s, h, d = 3, 6, cfg.hidden, cfg.ffn
        counter = nn.FlopCounter()
        nn.forward_batch(model, np.ones((B, s), dtype=int), counter=counter, want_cache=True)
        skipped = (s - 1) * (4 * h * h + 4 * s * h + 4 * h * d)
        assert counter.flops == B * (estimators.forward_flops(cfg, s).flops - skipped)

    def test_attention_probs_rows_sum_to_one(self):
        # softmax invariant, checked through a forward with cache
        model = nn.init(TINY, 3)
        _, cache = nn.forward_batch(model, np.array([[1, 2, 3, 4]]), want_cache=True)
        probs = cache["layers"][0]["probs"]
        assert np.allclose(probs.sum(-1), 1.0, atol=1e-6)


class TestPredictLogits:
    def test_mixed_lengths_in_input_order(self):
        # three lengths, ~100 sequences each: more than one batch per length
        model = nn.init(TINY, 10)
        rng = np.random.default_rng(10)
        seqs = [rng.integers(0, 20, size=int(n)).tolist() for n in rng.integers(1, 4, size=300)]
        logits = nn.predict_logits(model, seqs)
        assert logits.shape == (300, 2)
        for ids, row in zip(seqs, logits):
            np.testing.assert_allclose(row, nn.forward(model, ids), rtol=1e-12, atol=0)

    def test_invalid_sequence_rejected(self):
        model = nn.init(TINY, 10)
        with pytest.raises(nn.InvalidInputError):
            nn.predict_logits(model, [[1, 2], list(range(9))])


class TestOneGemmPerWeightProduct:
    @pytest.mark.parametrize("B", [1, 5])
    def test_each_weight_product_gets_all_rows_as_one_matrix(self, monkeypatch, B):
        # spy on what the product inside nn.matmul receives: every 2-D weight, forward
        # and backward, must meet one (rows, k) activation, never a (B, s, k) stack
        cfg = ArchConfig(layers=2, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)
        model = nn.init(cfg, 6)
        s = 7
        ids = np.random.default_rng(6).integers(0, cfg.vocab, size=(B, s))
        seen = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [np.asarray(x) for x in inputs]
                if ufunc is np.matmul and inputs[1].ndim == 2:
                    name = next(n for n, w in model.weights.items()
                                if np.shares_memory(w, inputs[1]))
                    seen.append((name, inputs[0].shape))
                return getattr(ufunc, method)(*inputs, **kwargs)

        matmul = nn.matmul
        monkeypatch.setattr(nn, "matmul",
                            lambda a, b, counter=None: matmul(a.view(Spy), b, counter))
        last = {f"layer{cfg.layers - 1}.{n}" for n in ("q_w", "o_w", "ffn_up_w", "ffn_down_w")}
        rows = {n: B if n in last | {"pooler_w", "cls_w"} else B * s
                for n, *_ in nn._layout(cfg) if n.endswith("_w")}

        def check(transposed):
            assert sorted(n for n, _ in seen) == sorted(rows)
            for name, shape in seen:
                k = model.weights[name].shape[1 if transposed else 0]
                assert shape == (rows[name], k), name
            seen.clear()

        nn.forward_batch(model, ids)
        check(transposed=False)
        _, cache = nn.forward_batch(model, ids, want_cache=True)
        check(transposed=False)
        nn.backward(model, cache, np.ones((B, cfg.num_classes)))
        check(transposed=True)


class TestTrainLoop:
    def test_each_example_once_per_epoch_in_equal_length_batches(self):
        model = nn.init(TINY, 11)
        rng = np.random.default_rng(11)
        seqs = [[1] * int(n) for n in rng.integers(2, 6, size=20)]
        seen = []

        def loss_and_grad(batch, logits):
            assert len(batch) <= 3 and len({len(seqs[i]) for i in batch}) == 1
            seen.extend(batch)
            return np.ones(len(batch)), np.zeros_like(logits)

        losses = nn.train_loop(model, rng, seqs, loss_and_grad,
                               nn.TrainParams(epochs=2, batch_size=3))
        assert losses == [1.0, 1.0]
        assert sorted(seen) == sorted(list(range(20)) * 2)

    def test_nonfinite_loss_raises(self):
        model = nn.init(TINY, 12)

        def loss_and_grad(batch, logits):
            return np.full(len(batch), np.inf), np.zeros_like(logits)

        with pytest.raises(FloatingPointError):
            nn.train_loop(model, np.random.default_rng(0), [[1, 2, 3]] * 4, loss_and_grad,
                          nn.TrainParams(epochs=1))

    def test_no_sequences_rejected(self):
        model = nn.init(TINY, 12)
        with pytest.raises(ValueError, match="no sequences"):
            nn.train_loop(model, np.random.default_rng(0), [], None, nn.TrainParams(epochs=1))
        assert nn.train_loop(model, np.random.default_rng(0), [], None,
                             nn.TrainParams(epochs=0)) == []

    @pytest.mark.parametrize("bad", [dict(batch_size=0), dict(epochs=-1), dict(dtype=np.float16),
                                     dict(dtype="int32"), dict(dtype="no such type"),
                                     dict(dtype=None), dict(learning_rate=0),
                                     dict(learning_rate=-1e-3), dict(max_grad_norm=0),
                                     dict(max_grad_norm=-1.0), dict(rng_seed=-1)])
    def test_params_validated(self, bad):
        with pytest.raises(ValueError):
            nn.TrainParams(**bad)

    def test_model_and_params_must_share_a_dtype(self):
        model = nn.init(TINY, 12, np.float32)
        with pytest.raises(ValueError, match="float32 model"):
            nn.train_loop(model, np.random.default_rng(0), [[1, 2, 3]], None,
                          nn.TrainParams(epochs=1))


class TestBackward:
    @staticmethod
    def _distill_loss(targets, logits, temperature):
        """The loss against teacher logits ``targets``, softened as distill_train does."""
        soft = np.exp(nn.log_softmax(targets / temperature))
        return nn.soft_ce(soft, logits, temperature)

    def _loss_and_grads(self, model, ids, targets, temperature=2.0):
        logits, cache = nn.forward_batch(model, ids, want_cache=True)
        dlogits = self._distill_loss(targets, logits, temperature)[1] / len(ids)
        return nn.backward(model, cache, dlogits)

    def _loss_fn(self, ids, targets, temperature=2.0):
        def fn(model):
            logits, _ = nn.forward_batch(model, ids)
            per = [float(self._distill_loss(targets[i], logits[i], temperature)[0].mean())
                   for i in range(len(ids))]
            return float(np.mean(per))
        return fn

    def test_finite_difference_check(self):
        rng = np.random.default_rng(42)
        model = nn.init(TINY, rng)
        ids = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        targets = rng.normal(size=(2, 2))
        grads = self._loss_and_grads(model, ids, targets)
        worst = fd_check(model, self._loss_fn(ids, targets), grads)
        assert worst < 1e-4

    def test_finite_difference_check_three_layers(self):
        # only the last layer runs at position 0 alone in a training pass
        rng = np.random.default_rng(43)
        cfg = ArchConfig(layers=3, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)
        model = nn.init(cfg, rng)
        ids = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
        targets = rng.normal(size=(2, 2))
        grads = self._loss_and_grads(model, ids, targets)
        worst = fd_check(model, self._loss_fn(ids, targets), grads)
        assert worst < 1e-4

    def test_absent_token_embedding_grad_zero(self):
        rng = np.random.default_rng(0)
        model = nn.init(TINY, rng)
        ids = np.array([[1, 2, 3]])
        grads = self._loss_and_grads(model, ids, rng.normal(size=(1, 2)))
        for token in range(model.config.vocab):
            if token not in (1, 2, 3):
                assert np.all(grads["tok_emb"][token] == 0.0)

    def test_grad_linear_in_loss_scale(self):
        rng = np.random.default_rng(1)
        model = nn.init(TINY, rng)
        ids = np.array([[1, 2, 3, 4]])
        logits, cache = nn.forward_batch(model, ids, want_cache=True)
        dl = rng.normal(size=logits.shape)
        g1 = nn.backward(model, cache, dl)
        _, cache = nn.forward_batch(model, ids, want_cache=True)  # backward spent the first
        g2 = nn.backward(model, cache, 2.0 * dl)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], rtol=1e-12, atol=1e-12)

    def test_reused_gradient_buffer_is_overwritten(self):
        # train_loop hands backward the previous step's buffer
        model = nn.init(TINY, 6)
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        logits, cache = nn.forward_batch(model, ids, want_cache=True)
        dl = np.random.default_rng(6).normal(size=logits.shape)
        fresh = nn.backward(model, cache, dl)
        out = np.full_like(model.flat, np.nan)
        _, cache = nn.forward_batch(model, ids, want_cache=True)  # backward spent the first
        reused = nn.backward(model, cache, dl, out=out)
        for name in fresh:
            assert np.shares_memory(reused[name], out)
            assert np.array_equal(reused[name], fresh[name])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_gradient_is_written_on_the_desk_teacher(self, dtype):
        # four layers, a last layer that computes one row of eight, and vocab rows
        # and positions the batch never uses: backward zeroes nothing else first,
        # so whatever a reused buffer held must be gone
        cfg = cli.DEFAULT_TEACHER
        rng = np.random.default_rng(7)
        model = nn.init(cfg, 7, dtype)
        ids = rng.integers(0, 50, size=(3, 8))
        dl = rng.normal(size=(3, cfg.num_classes))
        results = []
        for fill in (np.nan, 7.0):
            out = np.full_like(model.flat, fill)
            _, cache = nn.forward_batch(model, ids, want_cache=True)  # one cache per backward
            nn.backward(model, cache, dl, out=out)
            assert not np.isnan(out).any()
            results.append(out)
        assert results[0].tobytes() == results[1].tobytes()
        grads = nn._views(results[0], cfg)
        assert not grads["tok_emb"][50:].any() and not grads["pos_emb"][8:].any()

    def test_gelu_from_cached_normal_cdf_is_exact(self):
        # inference computes GELU(u) in place; a training pass caches GELU(u) and
        # GELU'(u) from one Phi(u): both GELUs equal the formula bit for bit
        from scipy.special import erf
        x = np.random.default_rng(2).normal(scale=4.0, size=(3, 5, 64))
        x[0, 0, :6] = [-40.0, -9.0, -0.0, 0.0, 1e-300, 40.0]
        reference = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        assert np.array_equal(nn._gelu(x), reference)
        assert np.array_equal(nn._gelu_and_grad(x)[0], reference)


def float_arrays(obj):
    """Every floating-point array in a nest of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind == "f" else []
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else []
    return [a for item in items for a in float_arrays(item)]


class TestComputeDtype:
    """A model computes in its flat buffer's dtype. fp32 results are compared
    with another run in the same process or with fp64 at a tolerance, never with
    a pinned digest: sgemm kernels round differently from CPU to CPU."""

    CFG = ArchConfig(layers=2, hidden=16, heads=2, ffn=32, vocab=40, max_seq_len=12)

    # every function of a training step whose result holds activations or gradients
    SPIED = ("forward_batch", "_attention", "_ffn", "_gelu_and_grad", "_layer_norm_fwd",
             "_row_mean", "backward", "_ffn_backward", "_attention_backward",
             "_linear_backward", "_layer_norm_bwd")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_training_steps_keep_every_array_in_the_buffers_dtype(self, dtype,
                                                                       monkeypatch):
        seen = {name: [] for name in (*self.SPIED, "sgd_adam_step", "loss")}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                seen[name].extend(float_arrays(result))
                return result
            return wrapper

        def spy_adam(state, grad, lr):
            seen["sgd_adam_step"].extend([grad, state.adam_m, state.adam_v, state.scratch])
            return adam_step(state, grad, lr)

        def loss_and_grad(batch, logits):
            seen["loss"].append(logits)
            return np.zeros(len(batch)), rng.normal(size=logits.shape)

        for name in self.SPIED:
            monkeypatch.setattr(nn, name, spy(name, getattr(nn, name)))
        adam_step = nn.sgd_adam_step
        monkeypatch.setattr(nn, "sgd_adam_step", spy_adam)
        rng = np.random.default_rng(40)
        model = nn.init(self.CFG, 40, dtype)
        seqs = rng.integers(0, self.CFG.vocab, size=(6, 7)).tolist()
        nn.train_loop(model, rng, seqs, loss_and_grad,
                      nn.TrainParams(epochs=1, batch_size=3, dtype=dtype))

        assert len(seen["loss"]) == 2
        for name in (*self.SPIED, "sgd_adam_step"):
            assert {a.dtype for a in seen[name]} == {np.dtype(dtype)}, name
        assert {a.dtype for a in seen["loss"]} == {np.dtype(np.float64)}
        assert model.flat.dtype == dtype

    def test_float32_backward_matches_float64_on_the_same_weights(self):
        # fp32 rounds at 6e-8. Each tensor's gradient stays within 1e-5 of fp64's,
        # relative to its norm (3e-7 to 5e-7 read here), except the key biases':
        # softmax ignores a shift shared by a row's scores, so theirs is zero but
        # for rounding, and their error is set against the whole gradient's norm
        cfg = ArchConfig(layers=3, hidden=32, heads=4, ffn=64, vocab=50, max_seq_len=16)
        rng = np.random.default_rng(41)
        single = nn.init(cfg, 41, np.float32)
        double = nn.EncoderModel(cfg, single.flat.astype(np.float64))
        ids = rng.integers(0, cfg.vocab, size=(8, 12))
        dlogits = rng.normal(size=(8, cfg.num_classes))
        flat = {}
        for model in (single, double):
            logits, cache = nn.forward_batch(model, ids, want_cache=True)
            flat[model.flat.dtype.name] = np.empty_like(model.flat)
            nn.backward(model, cache, dlogits, out=flat[model.flat.dtype.name])
        g32, g64 = (nn._views(flat[name], cfg) for name in ("float32", "float64"))
        for name in g64:
            scale = np.linalg.norm(flat["float64"] if name.endswith("k_b") else g64[name])
            assert np.linalg.norm(g32[name] - g64[name]) <= 1e-5 * scale, name

    @pytest.mark.parametrize("bad", [np.float16, np.int32, "complex128"])
    def test_other_dtypes_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="float64 or float32"):
            nn.init(TINY, 0, bad)
        nn.save_checkpoint(nn.init(TINY, 0), tmp_path / "m.ckpt")
        with pytest.raises(ValueError, match="float64 or float32"):
            nn.load_checkpoint(tmp_path / "m.ckpt", bad)


class TestKernelBits:
    """Each in-place kernel against the expression it replaced, written out
    here: the rewrite must not move a bit."""

    SHAPES = [(1, 7, 16), (5, 7, 16)]

    @staticmethod
    def _data(shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(loc=0.5, scale=3.0, size=shape)
        x[0, 0, :4] = [-40.0, 1e-300, 0.0, 40.0]
        return rng, x

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm(self, shape):
        rng, x = self._data(shape, 20)
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + nn.LN_EPS)
        xhat = xc * inv
        y, (got_xhat, got_inv, got_g) = nn._layer_norm_fwd(x.copy(), g, b)
        assert np.array_equal(y, g * xhat + b)
        assert np.array_equal(got_xhat, xhat) and np.array_equal(got_inv, inv) and got_g is g

        dy = rng.normal(size=shape)
        axes = tuple(range(dy.ndim - 1))
        dxhat = dy * g
        dx = inv * (dxhat - dxhat.mean(-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(-1, keepdims=True))
        got_dx, dg, db = nn._layer_norm_bwd(dy.copy(), (xhat, inv, g))
        assert np.array_equal(got_dx, dx)
        assert np.array_equal(dg, (dy * xhat).sum(axis=axes))
        assert np.array_equal(db, dy.sum(axis=axes))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_softmax(self, shape):
        _, x = self._data(shape, 21)
        x[-1, -1, :] = 800.0  # exp would overflow without the row max
        e = np.exp(x - x.max(-1, keepdims=True))
        reference = e / e.sum(-1, keepdims=True)
        assert np.array_equal(nn.softmax(x), reference)
        assert np.array_equal(nn.softmax(x, out=x), reference)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu_grad(self, shape):
        # float64 caches GELU(x) = x * Phi(x) and its gradient as written out
        _, x = self._data(shape, 22)
        phi = nn._normal_cdf(x)
        gelu, grad = nn._gelu_and_grad(x.copy())  # GELU is written over its input
        assert np.array_equal(gelu, x * phi)
        assert np.array_equal(grad, gelu_grad(x, phi))


def gelu_grad(x, phi):
    """GELU'(x) = exp(-x^2 / 2) * x / sqrt(2 pi) + phi, from x and its Phi, one
    operation at a time in x's dtype. Of two nan operands x86 keeps the first, so
    the order also fixes a nan's sign."""
    return np.exp(-0.5 * x * x) * x / math.sqrt(2.0 * math.pi) + phi


class TestGelu:
    def test_float32_normal_cdf_against_float64(self):
        # A&S 7.1.26 without scipy; x^2 of 1e-30 underflows, which is harmless
        from scipy.special import ndtr
        special = [0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30, np.inf, -np.inf, np.nan]
        x = np.concatenate([np.linspace(-12.0, 12.0, 480_001), special]).astype(np.float32)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            phi = nn._normal_cdf(x)
        assert phi.dtype == np.float32
        finite = ~np.isnan(x)
        assert np.isnan(phi[~finite]).all()
        assert phi[finite].min() >= 0.0 and phi[finite].max() <= 1.0
        assert np.abs(phi[finite] - ndtr(x[finite].astype(np.float64))).max() <= 3e-7

    @pytest.mark.parametrize("scale", [0.01, 0.3, 1.0, 3.0, 8.0])
    def test_float32_cached_gradient_reuses_the_exp_of_phi_bit_for_bit(self, scale):
        # the kernel's exp takes x clamped at +-16 and squares before it halves;
        # the gradient's formula halves before it squares and clamps nothing
        x = np.random.default_rng(4).normal(scale=scale, size=(3, 7, 64)).astype(np.float32)
        x[0, 0, :24] = [0.0, -0.0, 1e-30, -1e-30, 1e-40, -1e-40, 1e-45, -1e-45,
                        15.9, -15.9, 16.0, -16.0, 16.1, -16.1, 1e20, -1e20,
                        np.inf, -np.inf, np.nan, -np.nan, 13.0, -13.0, 14.5, -14.5]
        with np.errstate(over="ignore", invalid="ignore"):
            phi = nn._normal_cdf(x)
            gelu, grad = nn._gelu_and_grad(x.copy())  # GELU is written over its input
            references = x * phi, gelu_grad(x, phi)
        assert gelu.dtype == grad.dtype == np.float32
        # int32 views: every bit, a nan's sign and payload too
        for got, reference in zip((gelu, grad), references):
            assert np.array_equal(got.view(np.int32), reference.view(np.int32))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(7, 24, 512), (64, 1, 2688), (5, 13, 2688)])
    def test_blocks_give_the_bits_of_one_sequence_at_a_time(self, shape, dtype):
        # blocks of 2, 12 and 1 sequences: the first two batches end in a short
        # block, and 13 x 2688 is more than one block on its own
        x = np.random.default_rng(3).normal(scale=3.0, size=shape).astype(dtype)
        reference = np.stack([xs * nn._normal_cdf(xs) for xs in x])
        got = nn._gelu(x)
        assert got.dtype == dtype and np.array_equal(got, reference)
        # a training pass writes GELU over its input and keeps GELU' beside it
        grads = np.stack([nn._gelu_and_grad(xs.copy())[1] for xs in x])
        u = x.copy()
        gelu, grad = nn._gelu_and_grad(u)
        assert gelu is u and np.array_equal(u, reference) and np.array_equal(grad, grads)
        assert nn._gelu(x, out=x) is x and np.array_equal(x, reference)


def traced(fn, *args, **kwargs):
    """``fn``'s result, the most bytes it held at once beyond what was live
    before the call, and the bytes still held when it returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        return result, peak - base, current - base
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A batched pass of the default desk teacher holds one sub-block's
    temporaries at a time, and a training step the cache of one pass."""

    CFG = cli.DEFAULT_TEACHER

    def test_inference_pass_holds_one_ffn_array_and_a_few_hidden_ones(self, dtype=np.float64):
        B, s = 64, 24
        model = nn.init(self.CFG, 30, dtype)
        ids = np.random.default_rng(30).integers(0, self.CFG.vocab, size=(B, s))
        nn.forward_batch(model, ids[:1])  # float64's lazy erf import, untraced
        _, peak, _ = traced(nn.forward_batch, model, ids)
        itemsize = np.dtype(dtype).itemsize
        hidden = B * s * self.CFG.hidden * itemsize
        ffn = B * s * self.CFG.ffn * itemsize
        # the FFN holds its input, u and its output; attention holds x, q, k, v,
        # the scores, the context and its output: never both sub-blocks at once
        assert peak < ffn + 4 * hidden

    def test_training_step_never_holds_two_caches(self, dtype=np.float64):
        B, s = 32, 24
        model = nn.init(self.CFG, 31, dtype)
        rng = np.random.default_rng(31)
        seqs = rng.integers(0, self.CFG.vocab, size=(2 * B, s)).tolist()
        nn.forward_batch(model, np.array(seqs[:1]))  # float64's lazy erf import, untraced
        (logits, cache), _, cache_bytes = traced(nn.forward_batch, model, np.array(seqs[:B]),
                                                 want_cache=True)
        grad = np.empty_like(model.flat)
        _, backward_peak, _ = traced(nn.backward, model, cache, np.ones_like(logits), out=grad)
        del logits, cache

        def loss_and_grad(batch, logits):
            return np.zeros(len(batch)), np.ones_like(logits)

        params = nn.TrainParams(epochs=1, batch_size=B, dtype=dtype)
        _, peak, _ = traced(nn.train_loop, model, rng, seqs, loss_and_grad, params)
        itemsize = np.dtype(dtype).itemsize
        grad_and_adam = 3 * model.flat.nbytes + 2 * nn.BLOCK * itemsize
        # one (B, s, hidden) array of slack for the batch's ids, logits and loss
        assert peak < (cache_bytes + backward_peak + grad_and_adam
                       + B * s * self.CFG.hidden * itemsize)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_training_cache_keeps_each_activation_once_and_backward_spends_it(self, dtype):
        B, s = 32, 24
        cfg = self.CFG
        model = nn.init(cfg, 32, dtype)
        ids = np.random.default_rng(32).integers(0, cfg.vocab, size=(B, s))
        logits, cache = nn.forward_batch(model, ids, want_cache=True)
        buffers = []
        for a in float_arrays(cache):
            while a.base is not None:
                a = a.base
            if not np.shares_memory(a, model.flat) and \
                    not any(np.shares_memory(a, b) for b in buffers):
                buffers.append(a)
        itemsize = np.dtype(dtype).itemsize

        def layer(r):
            # the first r positions of q, the context and the two normalized inputs,
            # every position of k and v, r rows of probabilities, GELU and GELU',
            # and the two norms' inverse deviations
            return (4 * B * r * cfg.hidden + 2 * B * s * cfg.hidden + B * cfg.heads * r * s
                    + 2 * B * r * cfg.ffn + 2 * B * r)

        # every layer at all s positions but the last, which runs position 0 alone;
        # emb_ln's normalized input and inverse deviation; the pooler's input and output
        held = ((cfg.layers - 1) * layer(s) + layer(1) + B * s * (cfg.hidden + 1)
                + 2 * B * cfg.hidden)
        assert sum(a.nbytes for a in buffers) <= held * itemsize
        nn.backward(model, cache, np.ones_like(logits))
        assert cache["layers"] == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_init_save_and_load_hold_the_weights_once(self, tmp_path, dtype):
        nn.init(self.CFG, 33, dtype)  # first-call set-up, untraced
        # one block of float64 draws, or of payload and its finiteness mask, and
        # an allowance for the model's views and the parsed header
        block = nn.BLOCK * 8 + 64 * 1024
        model, init_peak, _ = traced(nn.init, self.CFG, 33, dtype)
        _, save_peak, _ = traced(nn.save_checkpoint, model, tmp_path / "m.ckpt")
        loaded, load_peak, _ = traced(nn.load_checkpoint, tmp_path / "m.ckpt", dtype)
        assert init_peak <= model.flat.nbytes + block
        assert save_peak <= block
        assert load_peak <= loaded.flat.nbytes + block

    # the same bounds at 4 bytes an element (pytest passes no default argument)
    def test_inference_pass_in_float32(self):
        self.test_inference_pass_holds_one_ffn_array_and_a_few_hidden_ones(np.float32)

    def test_training_step_in_float32(self):
        self.test_training_step_never_holds_two_caches(np.float32)


class TestAdam:
    def test_zero_grad_no_move(self):
        model = nn.init(TINY, 0)
        before = {k: v.copy() for k, v in model.weights.items()}
        state = nn.TrainState(model)
        zeros = np.zeros_like(model.flat)
        nn.sgd_adam_step(state, zeros, lr=0.1)
        assert state.step == 1
        for name in before:
            assert np.array_equal(state.model.weights[name], before[name])

    def test_deterministic(self):
        grads = None
        results = []
        for _ in range(2):
            model = nn.init(TINY, 3)
            state = nn.TrainState(model)
            if grads is None:
                rng = np.random.default_rng(9)
                grads = rng.normal(size=model.flat.shape)
            nn.sgd_adam_step(state, grads, lr=1e-3)
            results.append({k: v.copy() for k, v in state.model.weights.items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    def test_first_step_magnitude_near_lr(self):
        model = nn.init(TINY, 4)
        before = {k: v.copy() for k, v in model.weights.items()}
        state = nn.TrainState(model)
        grads = np.full_like(model.flat, 0.5)
        lr = 1e-2
        nn.sgd_adam_step(state, grads, lr)
        for name in before:
            delta = before[name] - state.model.weights[name]
            assert np.allclose(delta, lr, rtol=1e-6)

    def test_step_counter_strictly_increments(self):
        model = nn.init(TINY, 5)
        state = nn.TrainState(model)
        grads = np.zeros_like(model.flat)
        for expected in (1, 2, 3):
            nn.sgd_adam_step(state, grads, 1e-3)
            assert state.step == expected


class TestClipGlobalNorm:
    @pytest.mark.parametrize("cfg", [TINY, cli.DEFAULT_TEACHER])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("max_norm", [1e-3, 1e30])  # clipping fires, clipping does not
    def test_total_is_the_tensor_by_tensor_sum_of_squares(self, cfg, dtype, max_norm):
        # heavy tails, so that a sum's bits depend on its order: summing all squares
        # at once gives other bits here
        size = estimators.param_count(cfg)
        grad = np.random.default_rng(12).standard_cauchy(size=size).astype(dtype)
        before = grad.copy()
        total = math.sqrt(sum(float((g * g).sum()) for g in nn._views(before, cfg).values()))
        assert total != math.sqrt(float((before * before).sum()))
        assert nn.clip_global_norm(grad, cfg, max_norm).hex() == total.hex()
        expected = before * (max_norm / total) if total > max_norm else before
        assert (total > max_norm) == (max_norm == 1e-3)
        assert grad.dtype == dtype and grad.tobytes() == expected.tobytes()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = nn.init(TINY, 6)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.weights:
            # fp32 storage quantizes fp64 weights
            assert np.allclose(loaded.weights[name], model.weights[name], atol=1e-6)

    def test_forward_agrees_after_roundtrip(self, tmp_path):
        model = nn.init(TINY, 7)
        nn.save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = nn.load_checkpoint(tmp_path / "m.ckpt")
        a = nn.forward(model, [1, 2, 3])
        b = nn.forward(loaded, [1, 2, 3])
        assert np.allclose(a, b, atol=1e-5)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    def test_vocab_map_roundtrip(self, tmp_path):
        model = nn.init(TINY, 8, vocab_map={1500: 1, 7: 2, 42: 19})
        nn.save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = nn.load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.vocab_map == {1500: 1, 7: 2, 42: 19}

    def test_header_without_vocab_map_loads_unmapped(self, tmp_path):
        model = nn.init(TINY, 9, vocab_map={5: 1})
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(model, path)
        # rewrite the header as checkpoints without the field have it
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        del doc["vocab_map"]
        path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + payload)
        loaded = nn.load_checkpoint(path)
        assert loaded.vocab_map is None
        assert np.array_equal(loaded.flat, model.flat.astype(np.float32))

    def test_appended_byte_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(nn.init(TINY, 10), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(nn.init(TINY, 11), path)
        raw = path.read_bytes()
        for size in (100, len(raw) - 1):
            path.write_bytes(raw[:size])
            with pytest.raises(ValueError):
                nn.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_rejected_naming_file_and_tensor(self, tmp_path, bad):
        model = nn.init(TINY, 11)
        model.weights["cls_b"][0] = bad
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(model, path)
        with pytest.raises(ValueError, match="m.ckpt.*cls_b"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("target", [999, 20, -3])
    def test_vocab_map_target_outside_vocab_rejected_naming_file(self, tmp_path, target):
        model = nn.init(TINY, 8, vocab_map={1500: 1, 7: target})  # vocab 20
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(model, path)
        with pytest.raises(ValueError, match=f"m.ckpt.*{target}.*vocab of size 20"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda t: t[0].update(name="token_embedding"),   # renamed tensor
        lambda t: t[-1].update(shape=[3]),                # shape off its config
        lambda t: t.pop(),                                # tensor missing
    ])
    def test_header_tensors_must_match_config(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(nn.init(TINY, 12), path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        edit(doc["tensors"])
        path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)


# 82,818 weights, three blocks: tok_emb fills the first two and part of the third
SPAN = ArchConfig(layers=1, hidden=16, heads=2, ffn=32, vocab=5000, max_seq_len=16)


class TestCheckpointAcrossBlocks:
    """A payload longer than one block loads whole or is refused as a one-block one is."""

    @pytest.fixture
    def saved(self, tmp_path):
        """A checkpoint of SPAN, its bytes and where its payload starts."""
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(nn.init(SPAN, 20), path)
        raw = path.read_bytes()
        return path, raw, raw.index(b"\n", len(b"ENCKPT1\n")) + 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_block_lands_where_it_belongs(self, tmp_path, dtype):
        assert nn._layout(SPAN)[-1][-1] > 2 * nn.BLOCK
        model = nn.init(SPAN, 21, dtype)
        nn.save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = nn.load_checkpoint(tmp_path / "m.ckpt", dtype)
        assert loaded.flat.dtype == dtype
        assert np.array_equal(loaded.flat, model.flat.astype(np.float32))

    def test_blockwise_draws_are_one_draw_per_matrix(self):
        model = nn.init(SPAN, 22)
        rng = np.random.default_rng(22)
        for name, w in model.weights.items():
            if not name.endswith(("_g", "_b")):
                assert np.array_equal(w, rng.normal(0.0, nn.INIT_STD, size=w.shape)), name

    @pytest.mark.parametrize("index, name", [
        (0, "tok_emb"),                      # the first block's first weight
        (nn.BLOCK - 1, "tok_emb"),           # its last
        (nn.BLOCK, "tok_emb"),               # the second block's first
        (2 * nn.BLOCK + 1, "tok_emb"),       # inside the third
        (80_000, "pos_emb"),                 # the first tensor after tok_emb, third block
        (82_817, "cls_b"),                   # the last weight
    ])
    def test_nan_named_in_any_block(self, saved, index, name):
        path, raw, start = saved
        assert name == next(n for n, _, lo, hi in nn._layout(SPAN) if lo <= index < hi)
        at = start + 4 * index
        path.write_bytes(raw[:at] + np.array([np.nan], "<f4").tobytes() + raw[at + 4:])
        for dtype in (np.float64, np.float32):
            with pytest.raises(ValueError, match=rf"m\.ckpt.*weight {name} holds .*nan"):
                nn.load_checkpoint(path, dtype)

    @pytest.mark.parametrize("cut", [nn.BLOCK, 2 * nn.BLOCK])
    def test_cut_at_a_block_boundary_rejected(self, saved, cut):
        path, raw, start = saved
        path.write_bytes(raw[:start + 4 * cut])
        with pytest.raises(ValueError, match=f"payload is {4 * cut} bytes, its tensors need "
                                             f"{4 * nn._layout(SPAN)[-1][-1]}"):
            nn.load_checkpoint(path)

    def test_appended_byte_rejected(self, saved):
        path, raw, start = saved
        path.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match=f"payload is {len(raw) - start + 1} bytes"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_unreadable_checkpoint_exit_3(self, saved, monkeypatch, capsys, fail_at):
        # file modes do not bind every user, so the failure is simulated: refused at
        # open, or an I/O error while the second block streams in
        path, _, _ = saved
        path.rename(path.with_name("teacher.ckpt"))
        real_open = Path.open

        class FailingReader(io.BufferedReader):
            blocks = 0

            def readinto(self, buffer):
                self.blocks += 1
                if self.blocks > 1:
                    raise OSError(errno.EIO, "Input/output error")
                return super().readinto(buffer)

        def open_(self, mode="r", *args, **kwargs):
            if self.name != "teacher.ckpt":
                return real_open(self, mode, *args, **kwargs)
            if fail_at == 0:
                raise PermissionError(errno.EACCES, "Permission denied", str(self))
            return FailingReader(io.FileIO(self, "rb"))

        monkeypatch.setattr(Path, "open", open_)
        assert cli.main(["--out", str(path.parent), "capture"]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert ("Permission denied", "Input/output error")[fail_at] in err
        assert not (path.parent / "logits.ldst").exists()


class TestPinnedBits:
    """Digests taken when every weight, gradient and Adam moment was its own
    array: how they are laid out in memory must not change a single bit."""

    @pytest.mark.parametrize("cfg, digest", [
        (TINY, "cf6dbc293a23dce67a9b4474503a13599cda7fe56a945821e117c4b16bac89ae"),
        (WIDE, "a1e5e5192d157ceed4807fd55e2b08275392533e2dcd16f5b505ab3013be192b"),
    ])
    def test_checkpoint_of_init(self, tmp_path, cfg, digest):
        nn.save_checkpoint(nn.init(cfg, 3), tmp_path / "m.ckpt")
        assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == digest

    def test_clipped_training_trajectory(self):
        # run in a child on OpenBLAS's AVX2 (Haswell) kernels, one thread: AVX-512
        # kernels round batched products differently, so only a pinned kernel gives
        # one digest on every x86-64 machine with AVX2
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(nn.__file__).resolve().parents[1]),
                                              str(Path(__file__).resolve().parent)])}
        probe = "import test_nn; print(test_nn.clipped_training_trajectory_digest())"
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == \
            "6be446f062e567edc986779a3c3df2e8f4faa19a9f83c75f7b02d19e777641d6"

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 20.0, 1e3])
    def test_one_hot_soft_ce_is_the_trajectory_loss(self, scale):
        # nn.soft_ce at T = 1 on one-hot rows gives the bits of the inline loss the
        # pinned trajectory trains on, loss and gradient alike
        rng = np.random.default_rng(16)
        logits = rng.normal(scale=scale, size=(64, 2))
        logits[0] = [0.0, 800.0]  # a probability that underflows float64
        labels = rng.integers(0, 2, size=64)
        labels[0] = 0
        logp = nn.log_softmax(logits)
        onehot = np.eye(2)[labels]
        loss, grad = nn.soft_ce(np.eye(2)[labels], logits)
        assert loss.tobytes() == (-(onehot * logp).sum(-1)).tobytes()
        assert grad.tobytes() == (np.exp(logp) - onehot).tobytes()
        assert loss[0] == 800.0

    def test_weight_writes_seen_after_init_and_load(self, tmp_path):
        model = nn.init(TINY, 15)
        nn.save_checkpoint(model, tmp_path / "a.ckpt")
        for m in (model, nn.load_checkpoint(tmp_path / "a.ckpt")):
            m.weights["cls_w"][:] = 0.0
            m.weights["cls_b"][:] = [0.5, -1.5]
            assert np.array_equal(nn.forward(m, [1, 2, 3]), [0.5, -1.5])
            nn.save_checkpoint(m, tmp_path / "b.ckpt")
            assert np.array_equal(nn.load_checkpoint(tmp_path / "b.ckpt").weights["cls_b"],
                                  [0.5, -1.5])


def clipped_training_trajectory_digest() -> str:
    """sha256 of the epoch losses and every weight after three epochs of training
    ``WIDE``: max_grad_norm is far below the gradient norm, so every step clips and
    the per-tensor order of the norm's sums reaches the weights."""
    rng = np.random.default_rng(14)
    seqs = [rng.integers(0, WIDE.vocab, size=int(n)).tolist()
            for n in rng.integers(3, 7, size=24)]
    labels = rng.integers(0, 2, size=24)
    model = nn.init(WIDE, 14)

    def loss_and_grad(batch, logits):
        logp = nn.log_softmax(logits)
        onehot = np.eye(2)[labels[batch]]
        return -(onehot * logp).sum(-1), np.exp(logp) - onehot

    losses = nn.train_loop(model, rng, seqs, loss_and_grad,
                           nn.TrainParams(learning_rate=1e-2, epochs=3, batch_size=8,
                                          max_grad_norm=1e-3))
    h = hashlib.sha256(json.dumps(losses).encode())
    for name, *_ in nn._layout(WIDE):
        h.update(model.weights[name].tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A checkpoint's bytes, and a file that each fuzz example overwrites."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    nn.save_checkpoint(nn.init(TINY, 13), path)
    return path.read_bytes(), path


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_loads_whole_or_raises_value_error(fuzz_checkpoint, data):
    # a cut or an append is always caught; a changed payload byte still loads
    # unless the weight it lands in decodes to NaN or +-inf, which is refused
    original, path = fuzz_checkpoint
    raw = bytearray(original)
    payload_start = raw.index(b"\n", len(b"ENCKPT1\n")) + 1
    pos = data.draw(st.integers(0, len(raw) - 1))
    kind = data.draw(st.sampled_from(["flip", "cut", "append"]))
    if kind == "flip":
        raw[pos] = data.draw(st.integers(0, 255))
    elif kind == "cut":
        raw = raw[:pos]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=8))
    path.write_bytes(bytes(raw))
    finite = kind != "flip" or pos < payload_start or np.isfinite(np.frombuffer(
        bytes(raw), dtype="<f4", count=1, offset=pos - (pos - payload_start) % 4)[0])
    try:
        model = nn.load_checkpoint(path)
    except ValueError:
        assert kind != "flip" or pos < payload_start or not finite
        return
    assert kind == "flip" and finite
    assert model.flat.size == estimators.param_count(model.config)
    assert [(name, w.shape) for name, w in model.weights.items()] == [
        (name, shape) for name, shape, *_ in nn._layout(TINY)]
