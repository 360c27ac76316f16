import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distillsearch import distill, estimators, nn
from distillsearch.archspace import ArchConfig

TINY = ArchConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)


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
        assert model.num_params() == estimators.param_count(cfg)

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

    def test_misaligned_heads_rejected(self):
        with pytest.raises(ValueError):
            ArchConfig(layers=1, hidden=10, heads=4, ffn=8, vocab=10)


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

    @pytest.mark.parametrize("bad", [dict(batch_size=0), dict(epochs=-1)])
    def test_params_validated(self, bad):
        with pytest.raises(ValueError):
            nn.TrainParams(**bad)


class TestBackward:
    def _loss_and_grads(self, model, ids, targets, temperature=2.0):
        logits, cache = nn.forward_batch(model, ids, want_cache=True)
        dlogits = distill.soft_ce_loss_grad(targets, logits, temperature) / len(ids)
        return nn.backward(model, cache, dlogits)

    def _loss_fn(self, ids, targets, temperature=2.0):
        def fn(model):
            logits, _ = nn.forward_batch(model, ids)
            per = [distill.soft_ce_loss(targets[i], logits[i], temperature)
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
        g2 = nn.backward(model, cache, 2.0 * dl)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], rtol=1e-12, atol=1e-12)


class TestAdam:
    def test_zero_grad_no_move(self):
        model = nn.init(TINY, 0)
        before = {k: v.copy() for k, v in model.weights.items()}
        state = nn.TrainState(model)
        zeros = {k: np.zeros_like(v) for k, v in model.weights.items()}
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
                grads = {k: rng.normal(size=v.shape) for k, v in model.weights.items()}
            nn.sgd_adam_step(state, grads, lr=1e-3)
            results.append({k: v.copy() for k, v in state.model.weights.items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    def test_first_step_magnitude_near_lr(self):
        model = nn.init(TINY, 4)
        before = {k: v.copy() for k, v in model.weights.items()}
        state = nn.TrainState(model)
        grads = {k: np.full_like(v, 0.5) for k, v in model.weights.items()}
        lr = 1e-2
        nn.sgd_adam_step(state, grads, lr)
        for name in before:
            delta = before[name] - state.model.weights[name]
            assert np.allclose(delta, lr, rtol=1e-6)

    def test_step_counter_strictly_increments(self):
        model = nn.init(TINY, 5)
        state = nn.TrainState(model)
        grads = {k: np.zeros_like(v) for k, v in model.weights.items()}
        for expected in (1, 2, 3):
            nn.sgd_adam_step(state, grads, 1e-3)
            assert state.step == expected


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
        model = nn.init(TINY, 8)
        model.vocab_map = {1500: 1, 7: 2, 42: 19}
        nn.save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = nn.load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.vocab_map == {1500: 1, 7: 2, 42: 19}

    def test_header_without_vocab_map_loads_unmapped(self, tmp_path):
        model = nn.init(TINY, 9)
        model.vocab_map = {5: 1}
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(model, path)
        # rewrite the header as checkpoints without the field have it
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        del doc["vocab_map"]
        path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + payload)
        loaded = nn.load_checkpoint(path)
        assert loaded.vocab_map is None
        assert np.allclose(nn.forward(loaded, [1, 2, 3]), nn.forward(model, [1, 2, 3]),
                           atol=1e-5)

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
    try:
        model = nn.load_checkpoint(path)
    except ValueError:
        assert kind != "flip" or pos < payload_start
        return
    assert kind == "flip"
    for name in nn.weight_names(model.config):
        assert model.weights[name].shape == nn._weight_shape(name, model.config)
