import numpy as np
import pytest

from distillsearch.archspace import ArchConfig
from distillsearch.corpus import (
    SyntheticTaskSpec,
    TeacherTrainParams,
    accuracy,
    generate,
    load_corpus,
    rule_label,
    save_corpus,
    train_teacher,
)

SMALL_SPEC = SyntheticTaskSpec(vocab_size=200, n_labeled=200, n_unlabeled=200,
                               n_val=100, n_test=100, rng_seed=0)


class TestGenerate:
    def test_deterministic_by_seed(self):
        a = generate(SMALL_SPEC)
        b = generate(SMALL_SPEC)
        assert [(ex.ids, ex.label) for ex in a.labeled] == \
               [(ex.ids, ex.label) for ex in b.labeled]
        assert a.unlabeled == b.unlabeled

    def test_splits_disjoint(self):
        data = generate(SMALL_SPEC)
        pools = [
            {tuple(ex.ids) for ex in data.labeled},
            {tuple(ids) for ids in data.unlabeled},
            {tuple(ex.ids) for ex in data.val},
            {tuple(ex.ids) for ex in data.test},
        ]
        for i in range(len(pools)):
            for j in range(i + 1, len(pools)):
                assert pools[i] & pools[j] == set()

    def test_equal_labeled_unlabeled_sizes(self):
        data = generate(SMALL_SPEC)
        assert len(data.labeled) == len(data.unlabeled) == 200

    def test_balance_within_band(self):
        data = generate(SMALL_SPEC)
        for split in (data.labeled, data.val, data.test):
            frac = sum(ex.label for ex in split) / len(split)
            assert 0.45 <= frac <= 0.55

    def test_rule_recheck_oracle(self):
        data = generate(SMALL_SPEC)
        for ex in data.labeled + data.val + data.test:
            assert rule_label(data.spec, ex.ids) == ex.label

    def test_lengths_within_range(self):
        data = generate(SMALL_SPEC)
        for ex in data.labeled:
            assert SMALL_SPEC.min_seq_len <= len(ex.ids) <= SMALL_SPEC.max_seq_len

    def test_trigger_outside_vocab_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(vocab_size=10, rule_params=(7, 11))


class TestCorpusFiles:
    def test_roundtrip(self, tmp_path):
        data = generate(SMALL_SPEC)
        save_corpus(data, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded.spec == data.spec
        assert [(ex.ids, ex.label) for ex in loaded.test] == \
               [(ex.ids, ex.label) for ex in data.test]
        assert loaded.unlabeled == data.unlabeled

    @pytest.mark.parametrize("file, damage", [
        ("task_spec.json", lambda text: text.replace('"rng_seed": 0', '"rng_seed": "0"')),
        ("task_spec.json", lambda text: text.replace(',\n  "rng_seed": 0', "")),
        ("test.jsonl", lambda text: text[:text.index("\n") + 1]),
        ("val.jsonl", lambda text: text.replace('"label": 1', '"label": 2', 1)),
        ("unlabeled.jsonl", lambda text: text.replace('{"ids": [', '{"ids": [[0], ', 1)),
    ], ids=["string-seed", "missing-seed", "short-split", "label-2", "nested-ids"])
    def test_malformed_file_raises_value_error_naming_it(self, tmp_path, file, damage):
        save_corpus(generate(SMALL_SPEC), tmp_path)
        path = tmp_path / file
        damaged = damage(path.read_text())
        assert damaged != path.read_text()
        path.write_text(damaged)
        with pytest.raises(ValueError, match=file):
            load_corpus(tmp_path)

    def test_unlabeled_file_has_no_labels(self, tmp_path):
        import json
        data = generate(SMALL_SPEC)
        save_corpus(data, tmp_path)
        with open(tmp_path / "unlabeled.jsonl") as fh:
            for line in fh:
                assert "label" not in json.loads(line)


class TestTrainTeacher:
    CFG = ArchConfig(layers=1, hidden=16, heads=2, ffn=32, vocab=200, max_seq_len=32)

    def test_zero_epochs_returns_init_model(self):
        import distillsearch.nn as nn
        data = generate(SMALL_SPEC)
        params = TeacherTrainParams(epochs=0, rng_seed=5)
        res = train_teacher(self.CFG, data.labeled, params, val=data.val)
        fresh = nn.init(self.CFG, np.random.default_rng(5))
        for name in fresh.weights:
            assert np.array_equal(res.model.weights[name], fresh.weights[name])

    def test_loss_decreases_over_epochs(self):
        data = generate(SMALL_SPEC)
        params = TeacherTrainParams(epochs=3, batch_size=32, rng_seed=0)
        res = train_teacher(self.CFG, data.labeled, params, val=data.val)
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            train_teacher(self.CFG, [], TeacherTrainParams())

    def test_accuracy_empty_set_rejected(self):
        import distillsearch.nn as nn
        with pytest.raises(ValueError):
            accuracy(nn.init(self.CFG, 0), [])
