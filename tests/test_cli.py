import json

import numpy as np
import pytest

from distillsearch import cli, corpus, distill, nn
from distillsearch.archspace import ArchConfig
from distillsearch.cli import main

TINY_TEACHER = ArchConfig(layers=1, hidden=16, heads=2, ffn=32, vocab=300,
                          max_seq_len=32, num_classes=2)


@pytest.fixture
def small_corpus_dir(tmp_path):
    """Artifact dir pre-seeded with a small corpus so commands run fast."""
    spec = corpus.SyntheticTaskSpec(vocab_size=300, n_labeled=300, n_unlabeled=300,
                                    n_val=120, n_test=120, rng_seed=0)
    corpus.save_corpus(corpus.generate(spec), tmp_path)
    return tmp_path


def run(out, *argv):
    return main(["--out", str(out), *argv])


class TestEstimate:
    def test_reference_megabytes(self, tmp_path, capsys):
        assert run(tmp_path, "estimate", "reference") == 0
        est = json.loads(capsys.readouterr().out)
        assert abs(est["megabytes"] - 476) / 476 < 0.03

    def test_off_grid_config_exit_2(self, tmp_path):
        cfg = ArchConfig(layers=1, hidden=24, heads=1, ffn=32, vocab=1000)
        path = tmp_path / "bad.json"
        path.write_text(cfg.to_json())
        assert run(tmp_path, "estimate", str(path), "--space", "table1") == 2

    def test_seq_len_changes_gflops_not_megabytes(self, tmp_path, capsys):
        cfg = ArchConfig(layers=2, hidden=64, heads=2, ffn=128, vocab=1000)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        run(tmp_path, "estimate", str(path), "--seq-len", "100")
        a = json.loads(capsys.readouterr().out)
        run(tmp_path, "estimate", str(path), "--seq-len", "400")
        b = json.loads(capsys.readouterr().out)
        assert a["megabytes"] == b["megabytes"]
        assert a["gflops"] < b["gflops"]

    def test_missing_config_exit_3(self, tmp_path):
        assert run(tmp_path, "estimate", str(tmp_path / "nope.json")) == 3


class TestSearch:
    def test_writes_artifacts_and_hits_band(self, tmp_path):
        assert run(tmp_path, "--seed", "0", "search", "--target-mb", "3") == 0
        result = json.loads((tmp_path / "ga_result.json").read_text())
        assert 2.8 <= result["size_mb"] <= 3.2
        assert result["seed"] == 0
        arch = json.loads((tmp_path / "arch.json").read_text())
        assert set(arch) == {"layers", "hidden", "heads", "ffn", "vocab",
                             "max_seq_len", "num_classes"}

    def test_nonpositive_target_exit_2(self, tmp_path):
        assert run(tmp_path, "search", "--target-mb", "0") == 2


class TestPipelineCommands:
    def test_distill_without_capture_exit_3(self, small_corpus_dir):
        assert run(small_corpus_dir, "distill") == 3

    def test_capture_without_teacher_exit_3(self, small_corpus_dir):
        assert run(small_corpus_dir, "capture") == 3

    def test_teach_capture_distill_chain(self, small_corpus_dir):
        out = small_corpus_dir
        cfg_path = out / "teacher_cfg.json"
        cfg_path.write_text(TINY_TEACHER.to_json())
        assert run(out, "--seed", "1", "teach", "--config", str(cfg_path),
                   "--epochs", "2") == 0
        assert (out / "teacher.ckpt").exists()
        assert run(out, "--seed", "1", "capture") == 0
        assert (out / "logits.ldst").exists()
        student = out / "student_cfg.json"
        student.write_text(ArchConfig(layers=1, hidden=16, heads=2, ffn=32,
                                      vocab=300, max_seq_len=32).to_json())
        assert run(out, "--seed", "1", "distill", "--student-config", str(student),
                   "--epochs", "2") == 0
        assert (out / "student.ckpt").exists()

        report = json.loads((out / "report.json").read_text())
        assert report["distill"]["temperature"] == 2.0
        assert report["distill"]["lr"] == 1e-3
        assert report["distill"]["seed"] == 1
        assert report["teach"]["val_accuracy"] >= 0.0

    def test_capture_count_matches_unlabeled(self, small_corpus_dir):
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        assert run(out, "capture") == 0
        data = distill.LogitDataset.load(out / "logits.ldst")
        assert len(data) == 300


class TestBench:
    def test_protocol_shape(self, small_corpus_dir):
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        nn.save_checkpoint(
            nn.init(ArchConfig(layers=1, hidden=8, heads=1, ffn=16, vocab=300,
                               max_seq_len=32), 1),
            out / "student.ckpt")
        assert run(out, "bench", "--n", "20", "--repeats", "3") == 0
        report = json.loads((out / "report.json").read_text())["bench"]
        assert report["repeats"] == 3
        for model in report["models"].values():
            assert len(model["per_repeat_mean_s"]) == 3
        assert "latency_ratio" in report

    def test_missing_checkpoint_exit_3(self, small_corpus_dir):
        assert run(small_corpus_dir, "bench") == 3

    def test_student_with_smaller_vocab(self, small_corpus_dir):
        # the student checkpoint carries the vocab map that distill built,
        # so bench can feed it teacher ids
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        assert run(out, "capture") == 0
        student = out / "student_cfg.json"
        student.write_text(ArchConfig(layers=1, hidden=16, heads=2, ffn=32,
                                      vocab=100, max_seq_len=32).to_json())
        assert run(out, "distill", "--student-config", str(student),
                   "--epochs", "1") == 0
        assert nn.load_checkpoint(out / "student.ckpt").vocab_map is not None
        assert run(out, "bench", "--n", "20", "--repeats", "1") == 0

    def test_ids_outside_vocab_exit_2(self, small_corpus_dir):
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        nn.save_checkpoint(
            nn.init(ArchConfig(layers=1, hidden=8, heads=1, ffn=16, vocab=100,
                               max_seq_len=32), 1),
            out / "student.ckpt")
        assert run(out, "bench", "--n", "20", "--repeats", "1") == 2


class TestErrorContract:
    @pytest.fixture
    def captured_dir(self, small_corpus_dir):
        """A teacher, its captured logits and a student config."""
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        assert run(out, "capture") == 0
        (out / "arch.json").write_text(ArchConfig(layers=1, hidden=16, heads=2, ffn=32,
                                                  vocab=300, max_seq_len=32).to_json())
        return out

    def test_teach_batch_size_zero_exit_2(self, small_corpus_dir, capsys):
        assert run(small_corpus_dir, "teach", "--batch-size", "0") == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--batch-size", "0"], ["--temperature", "0"]])
    def test_distill_bad_params_exit_2(self, captured_dir, flag):
        assert run(captured_dir, "distill", *flag) == 2
        assert not (captured_dir / "student.ckpt").exists()

    def test_divergence_exit_4(self, small_corpus_dir, monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("training diverged")
        monkeypatch.setattr(cli.corpus_mod, "train_teacher", diverge)
        assert run(small_corpus_dir, "teach") == 4

    def test_truncated_checkpoint_exit_2(self, small_corpus_dir):
        path = small_corpus_dir / "teacher.ckpt"
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), path)
        path.write_bytes(path.read_bytes()[:100])
        assert run(small_corpus_dir, "capture") == 2


class TestReport:
    def test_report_lists_commands(self, tmp_path, capsys):
        run(tmp_path, "--seed", "0", "search", "--target-mb", "3",
            "--iterations", "2", "--population", "5", "--child-size", "5")
        capsys.readouterr()
        assert run(tmp_path, "report") == 0
        doc = json.loads(capsys.readouterr().out)
        assert "search" in doc
        assert doc["search"]["seed"] == 0

    def test_report_without_runs_exit_3(self, tmp_path):
        assert run(tmp_path, "report") == 3

    def test_truncated_report_exit_2_before_the_work(self, tmp_path, capsys):
        search = ["search", "--target-mb", "3", "--iterations", "2", "--population", "5",
                  "--child-size", "5"]
        assert run(tmp_path, *search) == 0
        assert not (tmp_path / "report.json.tmp").exists()
        report = tmp_path / "report.json"
        report.write_text(report.read_text()[:40])
        (tmp_path / "ga_result.json").unlink()
        capsys.readouterr()
        assert run(tmp_path, *search) == 2
        assert "report.json" in capsys.readouterr().err
        assert not (tmp_path / "ga_result.json").exists()
        assert run(tmp_path, "report") == 2
