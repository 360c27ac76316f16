import math

import numpy as np
import pytest

from distillsearch import nn
from distillsearch.archspace import ArchConfig
from distillsearch.distill import (
    DistillParams,
    LogitDataset,
    LogitRecord,
    agreement,
    apply_vocab_map,
    build_vocab_map,
    capture_teacher_logits,
    dataset_loss,
    distill_train,
    soft_ce,
    soft_ce_loss,
    soft_ce_loss_grad,
)

TINY = ArchConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)


def softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


class TestSoftCeLoss:
    def test_uniform_binary_is_ln2(self):
        assert soft_ce_loss([0.0, 0.0], [0.0, 0.0], 1.0) == pytest.approx(math.log(2), abs=1e-9)

    def test_frozen_regression_value(self):
        # high-precision direct evaluation, frozen
        assert soft_ce_loss([2.0, 0.0], [0.0, 2.0], 2.0) == pytest.approx(
            4.177281064592911, abs=1e-12)

    def test_self_loss_is_scaled_entropy_and_minimum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(scale=3, size=4)
            t = float(rng.uniform(0.5, 5))
            sp = softmax(p / t)
            entropy = -(sp * np.log(sp)).sum()
            self_loss = soft_ce_loss(p, p, t)
            assert self_loss == pytest.approx(t * t * entropy, rel=1e-10)
            q = p + rng.normal(scale=2, size=4)
            assert soft_ce_loss(p, q, t) >= self_loss - 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, q = rng.normal(scale=5, size=(2, 3))
            assert soft_ce_loss(p, q, float(rng.uniform(0.5, 100))) >= 0.0

    def test_stable_at_extreme_logits_and_temperatures(self):
        for t in (0.5, 1.0, 10.0, 1000.0):
            v = soft_ce_loss([50.0, -50.0], [-50.0, 50.0], t)
            assert np.isfinite(v)

    def test_high_temperature_approaches_uniform(self):
        p = np.array([3.0, -1.0, 2.0])
        t = 1e6
        soft = softmax(p / t)
        assert np.allclose(soft, 1 / 3, atol=1e-6)
        # and the loss approaches T^2 * ln(num_classes) for any q of bounded spread
        v = soft_ce_loss(p, np.array([1.0, 0.0, -1.0]), t) / t**2
        assert v == pytest.approx(math.log(3), abs=1e-5)

    def test_grad_matches_numeric(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=3)
        q = rng.normal(size=3)
        t = 2.5
        g = soft_ce_loss_grad(p, q, t)
        eps = 1e-6
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = eps
            fd = (soft_ce_loss(p, q + dq, t) - soft_ce_loss(p, q - dq, t)) / (2 * eps)
            assert g[i] == pytest.approx(fd, abs=1e-6)

    def test_batched_rows_match_single_pairs(self):
        rng = np.random.default_rng(3)
        p, q = rng.normal(scale=2, size=(2, 5, 3))
        loss, grad = soft_ce(p, q, 1.5)
        for i in range(5):
            assert loss[i] == pytest.approx(soft_ce_loss(p[i], q[i], 1.5), rel=1e-12)
            assert np.allclose(grad[i], soft_ce_loss_grad(p[i], q[i], 1.5), rtol=1e-12, atol=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            soft_ce_loss([0.0, 1.0], [0.0, 1.0, 2.0], 1.0)


class TestCapture:
    def test_one_record_per_input_strict(self):
        teacher = nn.init(TINY, 0)
        seqs = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        data = capture_teacher_logits(teacher, seqs)
        assert len(data) == len(seqs)

    def test_rerun_bit_identical(self):
        teacher = nn.init(TINY, 1)
        seqs = [[1, 2, 3], [4, 5, 6]]
        a = capture_teacher_logits(teacher, seqs)
        b = capture_teacher_logits(teacher, seqs)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.teacher_logits, rb.teacher_logits)

    def test_zeroed_classifier_yields_bias(self):
        teacher = nn.init(TINY, 2)
        teacher.weights["cls_w"][:] = 0.0
        teacher.weights["cls_b"][:] = [0.25, -0.75]
        data = capture_teacher_logits(teacher, [[1, 2], [3, 4, 5]])
        for r in data.records:
            assert np.allclose(r.teacher_logits, [0.25, -0.75])

    def test_strict_raises_lenient_skips(self):
        teacher = nn.init(TINY, 3)
        seqs = [[1, 2], [99, 1], [3, 4]]
        with pytest.raises(nn.InvalidInputError):
            capture_teacher_logits(teacher, seqs, strict=True)
        data = capture_teacher_logits(teacher, seqs, strict=False)
        assert len(data) == 2

    def test_lenient_skips_too_long(self):
        teacher = nn.init(TINY, 3)
        seqs = [[1, 2], list(range(1, 10)), [3, 4]]  # the middle one exceeds max_seq_len 8
        with pytest.raises(nn.InvalidInputError):
            capture_teacher_logits(teacher, seqs, strict=True)
        data = capture_teacher_logits(teacher, seqs, strict=False)
        assert [r.token_ids for r in data.records] == [[1, 2], [3, 4]]

    def test_teacher_weights_untouched(self):
        teacher = nn.init(TINY, 4)
        before = {k: v.copy() for k, v in teacher.weights.items()}
        capture_teacher_logits(teacher, [[1, 2, 3]])
        for name in before:
            assert np.array_equal(teacher.weights[name], before[name])


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        records = [LogitRecord([1, 2, 3], np.array([0.5, -0.5])),
                   LogitRecord([4, 5], np.array([1.5, 2.5]))]
        data = LogitDataset(records, num_classes=2)
        path = tmp_path / "d.ldst"
        data.save(path)
        loaded = LogitDataset.load(path)
        assert loaded.num_classes == 2
        assert len(loaded) == 2
        for ra, rb in zip(data.records, loaded.records):
            assert ra.token_ids == rb.token_ids
            assert np.array_equal(ra.teacher_logits, rb.teacher_logits)

    def test_header_format(self, tmp_path):
        import json
        data = LogitDataset([LogitRecord([1], np.array([0.0, 1.0]))], num_classes=2)
        path = tmp_path / "d.ldst"
        data.save(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"version": 1, "num_classes": 2, "count": 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LogitDataset([], num_classes=2)


class TestDistillTrain:
    def _toy_dataset(self, teacher, n=64, seed=0):
        rng = np.random.default_rng(seed)
        seqs = [rng.integers(1, teacher.config.vocab, size=6).tolist() for _ in range(n)]
        return capture_teacher_logits(teacher, seqs)

    def test_loss_decreases(self):
        teacher = nn.init(TINY, 5)
        data = self._toy_dataset(teacher)
        params = DistillParams(epochs=5, batch_size=16, rng_seed=1)
        _, trace = distill_train(TINY, data, params)
        assert trace.final_loss < trace.initial_loss
        assert len(trace.epoch_losses) == 5

    def test_deterministic_trace(self):
        teacher = nn.init(TINY, 6)
        data = self._toy_dataset(teacher)
        params = DistillParams(epochs=3, batch_size=16, rng_seed=2)
        _, t1 = distill_train(TINY, data, params)
        _, t2 = distill_train(TINY, data, params)
        assert t1.epoch_losses == t2.epoch_losses
        assert t1.final_loss == t2.final_loss

    def test_self_capacity_reaches_entropy_floor(self):
        # equal-capacity student on the teacher's own logits approaches the
        # teacher's softened self-entropy, the minimum of the loss
        teacher = nn.init(TINY, 7)
        data = self._toy_dataset(teacher, n=96, seed=3)
        params = DistillParams(temperature=2.0, epochs=60, batch_size=16,
                               learning_rate=3e-3, rng_seed=3)
        student, trace = distill_train(TINY, data, params)
        t = params.temperature
        floors = []
        for r in data.records:
            sp = softmax(r.teacher_logits / t)
            floors.append(t * t * -(sp * np.log(sp)).sum())
        floor = float(np.mean(floors))
        assert trace.final_loss <= floor * 1.05


class TestAgreement:
    def test_identity_agreement_is_one(self):
        model = nn.init(TINY, 8)
        rng = np.random.default_rng(0)
        seqs = [rng.integers(1, 20, size=5).tolist() for _ in range(20)]
        refs = [nn.forward(model, ids) for ids in seqs]
        assert agreement(model, refs, seqs) == 1.0

    def test_untrained_model_near_chance_on_balanced_set(self):
        model = nn.init(TINY, 9)
        rng = np.random.default_rng(1)
        seqs = [rng.integers(1, 20, size=5).tolist() for _ in range(1000)]
        # balanced random labels, independent of the inputs
        labels = [i % 2 for i in range(1000)]
        acc = agreement(model, labels, seqs)
        assert abs(acc - 0.5) <= 0.05

    def test_empty_eval_set_rejected(self):
        model = nn.init(TINY, 10)
        with pytest.raises(ValueError):
            agreement(model, [], [])


class TestVocabMap:
    def test_top_tokens_kept_rest_collapse(self):
        corpus = [[5, 5, 5, 7], [5, 7, 9], [9, 11]]
        vmap = build_vocab_map(corpus, teacher_vocab=20, student_vocab=3)
        # frequencies: 5 -> 4, 7 -> 2... wait 5 appears 4 times, 7 twice, 9 twice, 11 once
        assert vmap[5] == 1
        assert set(vmap) == {5, 7}  # top student_vocab-1 = 2 tokens (ties by id)
        assert apply_vocab_map([5, 7, 9, 11], vmap) == [1, 2, 0, 0]

    def test_identity_when_none(self):
        assert apply_vocab_map([3, 4], None) == [3, 4]


def test_dataset_loss_matches_manual_mean():
    teacher = nn.init(TINY, 11)
    rng = np.random.default_rng(2)
    seqs = [rng.integers(1, 20, size=4).tolist() for _ in range(10)]
    data = capture_teacher_logits(teacher, seqs)
    student = nn.init(TINY, 12)
    params = DistillParams(temperature=3.0, batch_size=4)
    manual = np.mean([
        soft_ce_loss(r.teacher_logits, nn.forward(student, r.token_ids), 3.0)
        for r in data.records
    ])
    assert dataset_loss(student, data, params) == pytest.approx(float(manual), rel=1e-12)
