import math

import numpy as np
import pytest

from distillsearch import nn
from distillsearch.archspace import ArchConfig
from distillsearch.distill import (
    DistillParams,
    LogitDataset,
    build_vocab_map,
    capture_teacher_logits,
    distill_train,
)

TINY = ArchConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=20, max_seq_len=8)


def softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def soften(p, temperature):
    """Teacher logits ``p`` softened by T, as :func:`distill_train` makes its targets."""
    return np.exp(nn.log_softmax(np.asarray(p, dtype=np.float64) / temperature))


def distill_loss(p, q, temperature):
    """The distillation loss of student logits ``q`` against teacher logits ``p``."""
    return nn.soft_ce(soften(p, temperature), q, temperature)


class TestSoftCeLoss:
    def test_uniform_binary_is_ln2(self):
        assert float(distill_loss([0.0, 0.0], [0.0, 0.0], 1.0)[0].mean()) == pytest.approx(
            math.log(2), abs=1e-9)

    def test_frozen_regression_value(self):
        # high-precision direct evaluation, frozen
        assert float(distill_loss([2.0, 0.0], [0.0, 2.0], 2.0)[0].mean()) == pytest.approx(
            4.177281064592911, abs=1e-12)

    def test_self_loss_is_scaled_entropy_and_minimum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(scale=3, size=4)
            t = float(rng.uniform(0.5, 5))
            sp = softmax(p / t)
            entropy = -(sp * np.log(sp)).sum()
            self_loss = float(distill_loss(p, p, t)[0].mean())
            assert self_loss == pytest.approx(t * t * entropy, rel=1e-10)
            q = p + rng.normal(scale=2, size=4)
            assert float(distill_loss(p, q, t)[0].mean()) >= self_loss - 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, q = rng.normal(scale=5, size=(2, 3))
            assert float(distill_loss(p, q, float(rng.uniform(0.5, 100)))[0].mean()) >= 0.0

    def test_stable_at_extreme_logits_and_temperatures(self):
        for t in (0.5, 1.0, 10.0, 1000.0):
            v = float(distill_loss([50.0, -50.0], [-50.0, 50.0], t)[0].mean())
            assert np.isfinite(v)

    def test_high_temperature_approaches_uniform(self):
        p = np.array([3.0, -1.0, 2.0])
        t = 1e6
        soft = softmax(p / t)
        assert np.allclose(soft, 1 / 3, atol=1e-6)
        # and the loss approaches T^2 * ln(num_classes) for any q of bounded spread
        v = float(distill_loss(p, np.array([1.0, 0.0, -1.0]), t)[0].mean()) / t**2
        assert v == pytest.approx(math.log(3), abs=1e-5)

    def test_grad_matches_numeric(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=3)
        q = rng.normal(size=3)
        t = 2.5
        g = distill_loss(p, q, t)[1]
        eps = 1e-6
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = eps
            fd = (float(distill_loss(p, q + dq, t)[0].mean())
                  - float(distill_loss(p, q - dq, t)[0].mean())) / (2 * eps)
            assert g[i] == pytest.approx(fd, abs=1e-6)

    def test_batched_rows_match_single_pairs(self):
        rng = np.random.default_rng(3)
        p, q = rng.normal(scale=2, size=(2, 5, 3))
        loss, grad = distill_loss(p, q, 1.5)
        for i in range(5):
            assert loss[i] == pytest.approx(float(distill_loss(p[i], q[i], 1.5)[0].mean()),
                                            rel=1e-12)
            assert np.allclose(grad[i], distill_loss(p[i], q[i], 1.5)[1], rtol=1e-12, atol=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn.soft_ce([0.5, 0.5], [0.0, 1.0, 2.0])


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
        assert np.array_equal(a.logits, b.logits)

    def test_zeroed_classifier_yields_bias(self):
        teacher = nn.init(TINY, 2)
        teacher.weights["cls_w"][:] = 0.0
        teacher.weights["cls_b"][:] = [0.25, -0.75]
        data = capture_teacher_logits(teacher, [[1, 2], [3, 4, 5]])
        for row in data.logits:
            assert np.allclose(row, [0.25, -0.75])

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
        assert data.seqs == [[1, 2], [3, 4]]

    def test_teacher_weights_untouched(self):
        teacher = nn.init(TINY, 4)
        before = {k: v.copy() for k, v in teacher.weights.items()}
        capture_teacher_logits(teacher, [[1, 2, 3]])
        for name in before:
            assert np.array_equal(teacher.weights[name], before[name])


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        data = LogitDataset([[1, 2, 3], [4, 5]], np.array([[0.5, -0.5], [1.5, 2.5]]))
        path = tmp_path / "d.ldst"
        data.save(path)
        loaded = LogitDataset.load(path)
        assert loaded.num_classes == 2
        assert len(loaded) == 2
        assert loaded.seqs == data.seqs
        assert np.array_equal(loaded.logits, data.logits)

    def test_header_format(self, tmp_path):
        import json
        data = LogitDataset([[1]], np.array([[0.0, 1.0]]))
        path = tmp_path / "d.ldst"
        data.save(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"version": 1, "num_classes": 2, "count": 1}

    def test_save_writes_the_documented_bytes(self, tmp_path):
        # the header line, then one line per record, floats in their shortest repr
        data = LogitDataset([[1, 2, 3], np.array([4, 5])],
                            np.array([[0.1 + 0.2, -1e-7], [3, 2.5e300]]))
        data.save(tmp_path / "d.ldst")
        assert (tmp_path / "d.ldst").read_bytes() == (
            b'{"version": 1, "num_classes": 2, "count": 2}\n'
            b'{"ids": [1, 2, 3], "logits": [0.30000000000000004, -1e-07]}\n'
            b'{"ids": [4, 5], "logits": [3.0, 2.5e+300]}\n')

    @pytest.mark.parametrize("header", [
        {"version": 2, "num_classes": 2, "count": 1},
        {"version": True, "num_classes": 2, "count": 1},
        {"num_classes": 2, "count": 1},
        {"version": 1, "num_classes": 3, "count": 1},
        {"version": 1, "num_classes": 0, "count": 1},
        {"version": 1, "num_classes": 2.0, "count": 1},
    ], ids=["version-2", "version-true", "no-version", "classes-3", "classes-0", "classes-float"])
    def test_header_rejected_naming_the_file(self, tmp_path, header):
        import json
        path = tmp_path / "d.ldst"
        LogitDataset([[1]], np.array([[0.0, 1.0]])).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="d.ldst"):
            LogitDataset.load(path)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LogitDataset([], np.empty((0, 2)))

    # JSON's NaN and Infinity parse, 1e999 parses as inf, a 400-digit int overflows a float
    @pytest.mark.parametrize("logit", ["NaN", "Infinity", "-Infinity", "1e999", "1" * 400])
    def test_nonfinite_logits_rejected_naming_the_file(self, tmp_path, logit):
        path = tmp_path / "d.ldst"
        LogitDataset([[1]], np.array([[0.0, 1.0]])).save(path)
        path.write_text(path.read_text().replace("0.0", logit))
        with pytest.raises(ValueError, match="d.ldst"):
            LogitDataset.load(path)

    def test_nonfinite_logits_never_written(self, tmp_path):
        data = LogitDataset([[1]], np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            data.save(tmp_path / "d.ldst")


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
        for row in data.logits:
            sp = softmax(row / t)
            floors.append(t * t * -(sp * np.log(sp)).sum())
        floor = float(np.mean(floors))
        assert trace.final_loss <= floor * 1.05


class TestAgreement:
    def test_identity_agreement_is_one(self):
        model = nn.init(TINY, 8)
        rng = np.random.default_rng(0)
        seqs = [rng.integers(1, 20, size=5).tolist() for _ in range(20)]
        refs = [nn.forward(model, ids) for ids in seqs]
        assert nn.match_rate(nn.predict_logits(model, seqs), refs) == 1.0

    def test_untrained_model_near_chance_on_balanced_set(self):
        model = nn.init(TINY, 9)
        rng = np.random.default_rng(1)
        seqs = [rng.integers(1, 20, size=5).tolist() for _ in range(1000)]
        # balanced random labels, independent of the inputs
        labels = [i % 2 for i in range(1000)]
        acc = nn.match_rate(nn.predict_logits(model, seqs), labels)
        assert abs(acc - 0.5) <= 0.05

    def test_empty_eval_set_rejected(self):
        model = nn.init(TINY, 10)
        with pytest.raises(ValueError):
            nn.match_rate(nn.predict_logits(model, []), [])

    def test_references_of_another_length_rejected(self):
        model = nn.init(TINY, 11)
        logits = nn.predict_logits(model, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            nn.match_rate(logits, [0])


class TestVocabMap:
    MAP = {5: 1, 7: 2, 1500: 19, 0: 3}  # 0 is a key here; the corpus ids run to 1500

    def mapped(self, dtype=np.float64):
        """A mapped model of TINY's weights and the same weights without a map."""
        model = nn.init(TINY, 13, dtype, self.MAP)
        return model, nn.EncoderModel(TINY, model.flat)

    def test_top_tokens_kept_rest_collapse(self):
        corpus = [[5, 5, 5, 7], [5, 7, 9], [9, 11]]
        vmap = build_vocab_map(corpus, student_vocab=3, teacher_vocab=20)
        # frequencies: 5 four times, 7 and 9 twice each, 11 once
        assert vmap[5] == 1
        assert set(vmap) == {5, 7}  # top student_vocab-1 = 2 tokens (ties by id)
        model = nn.init(TINY, 14, vocab_map=vmap)
        plain = nn.EncoderModel(TINY, model.flat)
        assert np.array_equal(nn.forward(model, [5, 7, 9, 11]), nn.forward(plain, [1, 2, 0, 0]))

    def test_identity_when_none(self):
        # a student as wide as its teacher gets no map and reads the teacher's ids
        assert build_vocab_map([[3, 4]], student_vocab=20, teacher_vocab=20) is None
        assert build_vocab_map([[3, 4]], student_vocab=30, teacher_vocab=20) is None
        assert nn.init(TINY, 15).vocab_map is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_teacher_ids_equal_mapped_ids_bit_for_bit(self, dtype):
        model, plain = self.mapped(dtype)
        teacher_ids = [[5, 7, 1500, 42], [0, 9, 7, 5], [1500, 1500, 3, 8]]
        model_ids = [[self.MAP.get(i, 0) for i in ids] for ids in teacher_ids]
        got, _ = nn.forward_batch(model, np.array(teacher_ids))
        want, _ = nn.forward_batch(plain, np.array(model_ids))
        assert np.array_equal(got, want)
        for ids, plain_ids in zip(teacher_ids, model_ids):
            assert np.array_equal(nn.forward(model, ids), nn.forward(plain, plain_ids))
        assert np.array_equal(nn.predict_logits(model, teacher_ids + [[7]]),
                              nn.predict_logits(plain, model_ids + [[2]]))

    def test_ids_the_map_lacks_read_zero(self):
        model, plain = self.mapped()
        # 10**12 lies above every key, -4 below them; 0 is a key, so it reads 3
        for teacher_id, model_id in ((10**12, 0), (-4, 0), (1501, 0), (6, 0), (0, 3)):
            assert np.array_equal(nn.forward(model, [teacher_id, 5]),
                                  nn.forward(plain, [model_id, 1]))

    def test_empty_map_reads_every_id_as_zero(self):
        model = nn.init(TINY, 16, vocab_map={})
        plain = nn.EncoderModel(TINY, model.flat)
        assert np.array_equal(nn.forward(model, [-1, 0, 7, 10**9]),
                              nn.forward(plain, [0, 0, 0, 0]))

    def test_training_reads_teacher_ids(self):
        # a mapped student trains on teacher ids as an unmapped one on mapped ids
        teacher = nn.init(ArchConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=2000,
                                     max_seq_len=8), 17)
        rng = np.random.default_rng(4)
        data = capture_teacher_logits(teacher, [rng.integers(0, 2000, size=5).tolist()
                                                for _ in range(32)])
        vmap = build_vocab_map(data.seqs, TINY.vocab, teacher.config.vocab)
        params = DistillParams(epochs=2, batch_size=8, rng_seed=5)
        student, trace = distill_train(TINY, data, params, vmap)
        assert student.vocab_map is vmap
        mapped = LogitDataset([[vmap.get(i, 0) for i in ids] for ids in data.seqs], data.logits)
        plain, plain_trace = distill_train(TINY, mapped, params)
        assert np.array_equal(student.flat, plain.flat)
        assert trace == plain_trace

    def test_checkpoint_with_a_huge_key_loads_by_entries(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(nn.init(TINY, 19, vocab_map={10**12: 4, 7: 2}), path)
        loaded = nn.load_checkpoint(path)
        assert [table.size for table in loaded.id_table] == [3, 3]  # two entries and the 0
        plain = nn.EncoderModel(TINY, loaded.flat)
        assert np.array_equal(nn.forward(loaded, [10**12, 7, 10**12 - 1]),
                              nn.forward(plain, [4, 2, 0]))

    def test_the_map_is_fixed_when_the_model_is_built(self):
        model = nn.init(TINY, 18)
        with pytest.raises(AttributeError):
            model.vocab_map = self.MAP


def test_dataset_loss_matches_manual_mean():
    teacher = nn.init(TINY, 11)
    rng = np.random.default_rng(2)
    seqs = [rng.integers(1, 20, size=4).tolist() for _ in range(10)]
    data = capture_teacher_logits(teacher, seqs)
    student = nn.init(TINY, 12)
    manual = np.mean([
        float(distill_loss(row, nn.forward(student, ids), 3.0)[0].mean())
        for ids, row in zip(data.seqs, data.logits)
    ])
    dataset_loss = float(
        distill_loss(data.logits, nn.predict_logits(student, data.seqs), 3.0)[0].mean())
    assert dataset_loss == pytest.approx(float(manual), rel=1e-12)
