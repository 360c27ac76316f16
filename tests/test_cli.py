import argparse
import dataclasses
import errno
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import distillsearch

from distillsearch import cli, corpus, distill, estimators, nn
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

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        # a dropped max_seq_length would leave max_seq_len at 512 and count its positions
        doc = {**ArchConfig(layers=1, hidden=16, heads=1, ffn=32, vocab=1000).to_dict(),
               "max_seq_length": 64}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run(tmp_path, "estimate", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "cfg.json" in captured.err and "max_seq_length" in captured.err

    def test_missing_config_exit_3(self, tmp_path):
        assert run(tmp_path, "estimate", str(tmp_path / "nope.json")) == 3

    def test_unreadable_config_exit_3(self, tmp_path, monkeypatch, capsys):
        # file modes do not bind every user, so the refusal is simulated
        path = tmp_path / "cfg.json"
        path.write_text(ArchConfig(layers=1, hidden=16, heads=1, ffn=32, vocab=1000).to_json())

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", refuse)
        assert run(tmp_path, "estimate", str(path)) == 3
        assert "Permission denied" in capsys.readouterr().err


class TestSearch:
    def test_writes_artifacts_and_hits_band(self, tmp_path):
        assert run(tmp_path, "--seed", "0", "search", "--target-mb", "3") == 0
        result = json.loads((tmp_path / "ga_result.json").read_text())
        assert 2.8 <= result["size_mb"] <= 3.2
        assert result["seed"] == 0
        config = ArchConfig.from_dict(result["best"])
        assert result["live_gflops"] == estimators.live_flops(config, 400).gflops
        arch = json.loads((tmp_path / "arch.json").read_text())
        assert set(arch) == {"layers", "hidden", "heads", "ffn", "vocab",
                             "max_seq_len", "num_classes"}

    def test_reports_optimum_and_regret(self, tmp_path, capsys):
        assert run(tmp_path, "search", "--target-mb", "3", "--iterations", "2",
                   "--population", "5", "--child-size", "5") == 0
        result = json.loads((tmp_path / "ga_result.json").read_text())
        assert result["optimum_fitness"] == 1.1472510831679688
        assert result["regret"] == result["optimum_fitness"] - result["best_fitness"] > 0
        assert f"regret {result['regret']:.4f}" in capsys.readouterr().out

    def test_reports_generation_statistics(self, tmp_path, capsys):
        assert run(tmp_path, "search", "--target-mb", "3", "--iterations", "3",
                   "--population", "5", "--child-size", "5") == 0
        result = json.loads((tmp_path / "ga_result.json").read_text())
        assert len(result["median_history"]) == len(result["distinct_history"]) == 3
        out = capsys.readouterr().out
        assert (f"median fitness {result['median_history'][-1]:.4f}, "
                f"{result['distinct_history'][-1]} of 5 distinct") in out

    def test_nonpositive_target_exit_2(self, tmp_path):
        assert run(tmp_path, "search", "--target-mb", "0") == 2

    def test_budget_no_architecture_meets_exit_2(self, tmp_path, capsys):
        assert run(tmp_path, "search", "--target-mb", "1e-9", "--iterations", "2",
                   "--population", "5", "--child-size", "5") == 2
        assert "the smallest" in capsys.readouterr().err
        assert not (tmp_path / "arch.json").exists()
        assert not (tmp_path / "ga_result.json").exists()


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

    def test_float32_rerun_writes_the_same_bytes(self, small_corpus_dir, tmp_path_factory,
                                                 monkeypatch):
        # a float32 model saves losslessly: what a stage saves is what it computed
        # with, and what the next stage loads
        saved = {}
        save = nn.save_checkpoint

        def spy_save(model, path):
            saved[Path(path)] = model.flat.copy()
            save(model, path)

        monkeypatch.setattr(nn, "save_checkpoint", spy_save)
        (small_corpus_dir / "teacher_cfg.json").write_text(TINY_TEACHER.to_json())
        (small_corpus_dir / "student_cfg.json").write_text(
            ArchConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=100, max_seq_len=32).to_json())
        outs = [tmp_path_factory.mktemp(name) for name in ("first", "second")]
        for out in outs:
            shutil.copytree(small_corpus_dir, out, dirs_exist_ok=True)
            assert run(out, "--seed", "2", "teach", "--config", str(out / "teacher_cfg.json"),
                       "--epochs", "1", "--batch-size", "32") == 0
            assert run(out, "--seed", "2", "capture") == 0
            assert run(out, "--seed", "2", "distill", "--student-config",
                       str(out / "student_cfg.json"), "--epochs", "2") == 0
        for name in ("teacher.ckpt", "logits.ldst", "student.ckpt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        for path, flat in saved.items():
            loaded = nn.load_checkpoint(path, np.float32)
            assert flat.dtype == loaded.flat.dtype == np.float32
            assert np.array_equal(loaded.flat, flat), path.name
        assert len(saved) == 4

    def test_capture_count_matches_unlabeled(self, small_corpus_dir):
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        assert run(out, "capture") == 0
        data = distill.LogitDataset.load(out / "logits.ldst")
        assert len(data) == 300

    def test_capture_generates_the_default_corpus_when_out_has_none(self, tmp_path):
        # --out holds only a teacher: capture makes the seed's default corpus first
        teacher = ArchConfig(layers=1, hidden=8, heads=1, ffn=16, vocab=2000, max_seq_len=24)
        nn.save_checkpoint(nn.init(teacher, 0), tmp_path / "teacher.ckpt")
        assert run(tmp_path, "--seed", "3", "capture") == 0
        spec = json.loads((tmp_path / "task_spec.json").read_text())
        spec["rule_params"] = tuple(spec["rule_params"])
        assert spec == dataclasses.asdict(corpus.SyntheticTaskSpec(rng_seed=3))
        assert len(distill.LogitDataset.load(tmp_path / "logits.ldst")) == 4000
        entry = json.loads((tmp_path / "report.json").read_text())["capture"]
        assert (entry["count"], entry["corpus_seed"]) == (4000, 3)

    def test_lenient_capture_reports_skipped(self, small_corpus_dir, capsys):
        out = small_corpus_dir
        nn.save_checkpoint(nn.init(TINY_TEACHER, 0), out / "teacher.ckpt")
        path = out / "unlabeled.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({"ids": [1] * (TINY_TEACHER.max_seq_len + 1)})
        path.write_text("\n".join(lines) + "\n")
        assert run(out, "capture") == 2
        assert run(out, "capture", "--lenient") == 0
        report = json.loads((out / "report.json").read_text())["capture"]
        assert (report["count"], report["skipped"]) == (299, 1)
        assert "skipped 1 invalid sequences" in capsys.readouterr().out


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
            assert 0 < model["live_flops_at_seq_len"] < model["flops_at_seq_len"]
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

    def test_teach_refuses_its_flags_before_writing_a_corpus(self, tmp_path):
        assert run(tmp_path, "teach", "--lr=inf") == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--temperature=inf", "--lr=nan"])
    def test_distill_refuses_its_flags_before_reading_anything(self, tmp_path, capsys, flag):
        assert run(tmp_path, "distill", flag) == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / "task_spec.json").exists()

    @pytest.mark.parametrize("flag", [["--batch-size", "0"], ["--temperature", "0"],
                                      ["--lr=0"], ["--lr=-1e-3"]])
    def test_distill_bad_params_exit_2(self, captured_dir, flag):
        assert run(captured_dir, "distill", *flag) == 2
        assert not (captured_dir / "student.ckpt").exists()

    @pytest.mark.parametrize("argv", [["teach"], ["search", "--target-mb", "3"], ["distill"],
                                      ["estimate", "reference"], ["capture"], ["bench"],
                                      ["report"]])
    def test_negative_seed_exit_2_naming_it(self, tmp_path, capsys, argv):
        # refused once, for every command, before --out is made or any file read:
        # numpy's seeding would say "expected non-negative integer" without naming
        # the input, and a command that draws nothing would record the seed
        out = tmp_path / "run"
        assert main(["--out", str(out), "--seed", "-1", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--seed must be >= 0, got -1" in err
        assert list(tmp_path.iterdir()) == []

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


# writes an artifact under argv[1] from the seed argv[2], every file the process writes
# capped at argv[3] bytes: a write past the cap fails midway with EFBIG, as on a full disk
WRITE_CAPPED = """
import resource, signal, sys
from pathlib import Path
import numpy as np
from distillsearch import cli, distill, nn
from distillsearch.archspace import ArchConfig
out, seed, cap = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
if cap:
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (cap, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
"""


def capped(out, write, seed, cap):
    """Run ``write`` in a child process as WRITE_CAPPED sets it up."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(nn.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", WRITE_CAPPED + write, str(out), str(seed),
                           str(cap)], env=env, capture_output=True, text=True)


class TestWriteInOneStep:
    """A write that fails midway leaves the previous artifact as it was and no temporary."""

    @pytest.mark.parametrize("name, write", [
        ("m.ckpt", "nn.save_checkpoint(nn.init(ArchConfig(layers=1, hidden=16, heads=2, ffn=32,"
                   " vocab=5000, max_seq_len=16), seed), out / 'm.ckpt')"),
        ("d.ldst", "distill.LogitDataset([[1, 2, 3]] * 500, np.random.default_rng(seed).normal("
                   "size=(500, 2))).save(out / 'd.ldst')"),
        ("report.json", "sys.exit(cli.main(['--out', str(out), '--seed', str(seed),"
                        " 'estimate', 'reference']))"),
    ], ids=["checkpoint", "ldst", "report"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, name, write):
        assert capped(tmp_path, write, 0, 0).returncode == 0
        before = (tmp_path / name).read_bytes()
        failed = capped(tmp_path, write, 1, len(before) // 2)
        assert failed.returncode != 0 and "File too large" in failed.stderr
        assert (tmp_path / name).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_failed_search_rerun_keeps_ga_result_and_arch(self, tmp_path):
        search = ("sys.exit(cli.main(['--out', str(out), '--seed', str(seed), 'search',"
                  " '--target-mb', '3', '--iterations', '2', '--population', '5',"
                  " '--child-size', '5']))")
        assert capped(tmp_path, search, 0, 0).returncode == 0
        names = ["arch.json", "ga_result.json", "report.json"]
        before = {name: (tmp_path / name).read_bytes() for name in names}
        failed = capped(tmp_path, search, 1, 300)
        assert failed.returncode == 3 and "File too large" in failed.stderr
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_failed_corpus_save_leaves_no_spec_and_the_next_command_regenerates(
            self, tmp_path):
        save = ("from distillsearch import corpus\n"
                "corpus.save_corpus(corpus.generate(corpus.SyntheticTaskSpec(vocab_size=300,"
                " n_labeled=200, n_unlabeled=200, n_val=50, n_test=50, rng_seed=seed)), out)")
        assert capped(tmp_path, save, 0, 0).returncode == 0
        failed = capped(tmp_path, save, 1, (tmp_path / "test.jsonl").stat().st_size // 2)
        assert failed.returncode != 0 and "File too large" in failed.stderr
        assert not (tmp_path / "task_spec.json").exists()
        assert not list(tmp_path.glob("*.tmp"))
        # the spec's absence sends the next command to generate the seed's corpus afresh
        teacher = dataclasses.replace(TINY_TEACHER, vocab=2000, max_seq_len=24)
        nn.save_checkpoint(nn.init(teacher, 0), tmp_path / "teacher.ckpt")
        assert run(tmp_path, "--seed", "2", "capture") == 0
        assert corpus.load_corpus(tmp_path).spec == corpus.SyntheticTaskSpec(rng_seed=2)


class TestReport:
    def test_report_lists_commands(self, tmp_path, capsys):
        run(tmp_path, "--seed", "0", "search", "--target-mb", "3",
            "--iterations", "2", "--population", "5", "--child-size", "5")
        capsys.readouterr()
        assert run(tmp_path, "report") == 0
        doc = json.loads(capsys.readouterr().out)
        assert "search" in doc
        assert doc["search"]["seed"] == 0

    def test_full_disk_exit_3_and_keeps_the_report(self, tmp_path, monkeypatch, capsys):
        search = ["search", "--target-mb", "3", "--iterations", "2", "--population", "5",
                  "--child-size", "5"]
        assert run(tmp_path, *search) == 0
        before = (tmp_path / "report.json").read_text()

        def full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))

        monkeypatch.setattr(os, "replace", full)
        capsys.readouterr()
        assert run(tmp_path, *search) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "No space left" in err[0]
        assert (tmp_path / "report.json").read_text() == before

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_report_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys,
                                                     failing):
        # both injections hit report.json alone; the command's own artifacts write first
        real_open, real_replace = Path.open, os.replace

        def open_half(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if path.name == "report.json.tmp":
                def write_half(chunks):
                    data = b"".join(chunks)
                    fh.write(data[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))
                fh.writelines = write_half
            return fh

        def refuse(src, dst):
            if Path(dst).name != "report.json":
                return real_replace(src, dst)
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))

        if failing == "write":
            monkeypatch.setattr(Path, "open", open_half)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        assert run(tmp_path, "search", "--target-mb", "3", "--iterations", "2",
                   "--population", "5", "--child-size", "5") == 3
        assert "No space left" in capsys.readouterr().err
        assert not (tmp_path / "report.json.tmp").exists()
        assert not (tmp_path / "report.json").exists()
        assert (tmp_path / "ga_result.json").exists()  # the command's own artifacts stay

    def test_report_parses_the_file_once_and_leaves_it_as_it_was(self, tmp_path, capsys,
                                                                 monkeypatch):
        assert run(tmp_path, "search", "--target-mb", "3", "--iterations", "2",
                   "--population", "5", "--child-size", "5") == 0
        path = tmp_path / "report.json"
        before = path.read_bytes()
        reads = []
        read_artifact = nn.read_artifact

        def spy(artifact, parse):
            reads.append(Path(artifact))
            return read_artifact(artifact, parse)

        monkeypatch.setattr(nn, "read_artifact", spy)
        capsys.readouterr()
        assert run(tmp_path, "report") == 0
        assert reads.count(path) == 1
        assert path.read_bytes() == before
        assert json.loads(capsys.readouterr().out) == json.loads(before)

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


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A tiny teach -> capture -> distill -> bench run; its student maps the
    teacher's vocab down, so student.ckpt carries a vocab map."""
    out = tmp_path_factory.mktemp("finished")
    spec = corpus.SyntheticTaskSpec(vocab_size=300, n_labeled=60, n_unlabeled=60,
                                    n_val=20, n_test=20, rng_seed=0)
    corpus.save_corpus(corpus.generate(spec), out)
    (out / "teacher_cfg.json").write_text(TINY_TEACHER.to_json())
    (out / "arch.json").write_text(ArchConfig(layers=1, hidden=8, heads=1, ffn=16, vocab=100,
                                              max_seq_len=32).to_json())
    assert run(out, "teach", "--config", str(out / "teacher_cfg.json"), "--epochs", "1") == 0
    assert run(out, "capture") == 0
    assert run(out, "distill", "--epochs", "1") == 0
    assert run(out, "bench", "--n", "5", "--repeats", "1") == 0
    return out


@pytest.fixture
def damaged(finished_run, tmp_path):
    """A copy of the finished run for one test to corrupt."""
    shutil.copytree(finished_run, tmp_path / "run")
    return tmp_path / "run"


def edit_line(path, index, edit):
    """Apply ``edit`` to the JSON document on line ``index`` of ``path``;
    line 1 of a checkpoint is its header."""
    lines = path.read_bytes().split(b"\n")
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = json.dumps(doc).encode()
    path.write_bytes(b"\n".join(lines))


def add_spec_key(out):
    doc = json.loads((out / "task_spec.json").read_text())
    (out / "task_spec.json").write_text(json.dumps({**doc, "extra": 1}))


DISTILL = ["distill", "--epochs", "1"]
BENCH = ["bench", "--n", "5", "--repeats", "1"]


class TestDamagedArtifacts:
    """Each damaged artifact ends in its documented exit code and one
    ``error:`` line naming the file, never a traceback."""

    @pytest.mark.parametrize("damage, argv, code, name", [
        (lambda out: edit_line(out / "logits.ldst", 0, lambda d: d.pop("count")),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 0, lambda d: d.update(version=2)),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d.pop("ids")),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d["logits"].append(0.5)),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d.update(ids=5)),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d["logits"].__setitem__(0, "7")),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1,
                               lambda d: d["logits"].__setitem__(0, float("nan"))),
         DISTILL, 2, "logits.ldst"),
        (lambda out: (out / "teacher.ckpt").write_bytes(  # the last weight is cls_b[-1]
            (out / "teacher.ckpt").read_bytes()[:-4] + np.array([np.nan], "<f4").tobytes()),
         DISTILL, 2, "teacher.ckpt"),
        (lambda out: edit_line(out / "student.ckpt", 1,
                               lambda d: d["vocab_map"][0].__setitem__(1, "7")),
         BENCH, 2, "student.ckpt"),
        (lambda out: edit_line(out / "student.ckpt", 1,
                               lambda d: d["vocab_map"][0].__setitem__(1, 999)),
         BENCH, 2, "student.ckpt"),
        (lambda out: edit_line(out / "student.ckpt", 1,
                               lambda d: d["vocab_map"][0].__setitem__(1, -3)),
         BENCH, 2, "student.ckpt"),
        (lambda out: edit_line(out / "student.ckpt", 1,
                               lambda d: d["vocab_map"][0].__setitem__(0, 2**70)),
         BENCH, 2, "student.ckpt"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d["ids"].__setitem__(0, 2**70)),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "unlabeled.jsonl", 0,
                               lambda d: d["ids"].__setitem__(0, 2**70)),
         ["capture"], 2, "unlabeled.jsonl"),
        (lambda out: edit_line(out / "unlabeled.jsonl", 0,
                               lambda d: d["ids"].__setitem__(0, 2**70)),
         ["capture", "--lenient"], 2, "unlabeled.jsonl"),
        (add_spec_key, ["capture"], 2, "task_spec.json"),
        (lambda out: edit_line(out / "test.jsonl", 0, lambda d: d.pop("label")),
         ["capture"], 2, "test.jsonl"),
        (lambda out: (out / "arch.json").write_text("5"), DISTILL, 2, "arch.json"),
        (lambda out: (out / "test.jsonl").unlink(), ["capture"], 3, "test.jsonl"),
    ], ids=["ldst-header-without-count", "ldst-version-2", "ldst-record-without-ids",
            "ldst-logits-wrong-length", "ldst-ids-int",
            "ldst-logit-string", "ldst-logit-nan", "teacher-weight-nan",
            "vocab-map-entry-string", "vocab-map-target-999", "vocab-map-target-negative",
            "vocab-map-key-beyond-int64", "ldst-id-beyond-int64", "unlabeled-id-beyond-int64",
            "unlabeled-id-beyond-int64-lenient",
            "spec-unknown-key", "test-record-without-label", "arch-holds-5",
            "test-split-missing"])
    def test_exit_code_names_the_file(self, damaged, capsys, damage, argv, code, name):
        damage(damaged)
        capsys.readouterr()
        assert run(damaged, *argv) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and name in err

    def test_token_ids_must_fit_int64(self):
        assert nn.token_ids([2**63 - 1, -2**63]) == [2**63 - 1, -2**63]
        for ids in ([2**63], [0, -2**63 - 1]):
            with pytest.raises(ValueError, match="fit int64"):
                nn.token_ids(ids)

    def test_out_naming_a_file_exit_2(self, damaged, capsys):
        capsys.readouterr()
        assert run(damaged / "report.json", "search", "--target-mb", "3",
                   "--iterations", "1") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "report.json" in err

    def test_directory_in_place_of_a_file_exit_2(self, damaged):
        (damaged / "teacher.ckpt").unlink()
        (damaged / "teacher.ckpt").mkdir()
        assert run(damaged, "capture") == 2
        assert run(damaged, "estimate", str(damaged / "teacher.ckpt")) == 2

    def test_record_without_label_breaks_every_corpus_command(self, damaged):
        edit_line(damaged / "test.jsonl", 0, lambda d: d.pop("label"))
        for argv in (["teach", "--config", str(damaged / "teacher_cfg.json")],
                     ["capture"], DISTILL, ["bench", "--n", "5"]):
            assert run(damaged, *argv) == 2



SUBCOMMANDS = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices
FLOAT_OPTIONS = [(command, action.option_strings[0]) for command, sub in SUBCOMMANDS.items()
                 for action in sub._actions if action.type is float]
# what each command needs besides the flag under test, kept short should a value be accepted
FLOAT_BASE_ARGV = {"search": ["--target-mb", "3", "--iterations", "1"],
                   "teach": ["--epochs", "1"], "distill": ["--epochs", "1"]}


@pytest.mark.parametrize("command, flag", FLOAT_OPTIONS)
def test_non_finite_float_flag_exit_2(damaged, capsys, command, flag):
    # the params refuse the value before any model trains or any search runs
    report = (damaged / "report.json").read_bytes()
    for value in ("nan", "inf", "-inf"):
        capsys.readouterr()
        assert run(damaged, command, *FLOAT_BASE_ARGV.get(command, []), f"{flag}={value}") == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert (damaged / "report.json").read_bytes() == report


def report_entry(out, command):
    return json.loads((out / "report.json").read_text())[command]


class TestRunExplainsItself:
    def test_reports_the_corpus_seed(self, damaged):
        for command in ("teach", "capture", "distill", "bench"):
            assert report_entry(damaged, command)["corpus_seed"] == 0
        # a --seed that differs from the corpus's is recorded, not refused
        assert run(damaged, "--seed", "5", "capture") == 0
        entry = report_entry(damaged, "capture")
        assert (entry["seed"], entry["corpus_seed"]) == (5, 0)

    def test_reports_the_compute_dtype_beside_provenance(self, damaged):
        for command in ("teach", "capture", "distill", "bench"):
            entry = report_entry(damaged, command)
            assert entry["dtype"] == "float32" == cli.COMPUTE_DTYPE.name
            assert "dtype" not in entry["provenance"]

    def test_threads_null_without_threadpoolctl(self, damaged, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        assert run(damaged, *BENCH, "--threads", "2") == 0
        assert report_entry(damaged, "bench")["threads"] is None

    def test_threads_record_the_limit_applied(self, damaged, monkeypatch):
        calls = []

        class Limiter:
            def __init__(self, limits):
                calls.append(("limit", limits))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                calls.append(("restore",))

        monkeypatch.setitem(sys.modules, "threadpoolctl",
                            types.SimpleNamespace(threadpool_limits=Limiter))
        assert run(damaged, *BENCH, "--threads", "2") == 0
        assert calls == [("limit", 2), ("restore",)]
        assert report_entry(damaged, "bench")["threads"] == 2

    def test_provenance_names_versions_blas_and_thread_settings(self, damaged, monkeypatch):
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(damaged, "capture") == 0
        provenance = report_entry(damaged, "capture")["provenance"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert provenance == {
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                    "MKL_NUM_THREADS": None, "OPENBLAS_CORETYPE": "Haswell"}}
        for command in ("teach", "distill", "bench"):
            assert report_entry(damaged, command)["provenance"]["numpy"] == np.__version__

    @pytest.mark.parametrize("flag", [["--n", "0"], ["--repeats", "0"], ["--seq-len", "0"],
                                      ["--seq-len", "-3"], ["--n", "-1"], ["--threads", "0"]])
    def test_bench_empty_sample_exit_2(self, damaged, flag, monkeypatch, capsys):
        timed, reads = [], []
        monkeypatch.setattr(cli, "_bench_model", lambda *args: timed.append(args) or [1.0])
        read_artifact = nn.read_artifact
        monkeypatch.setattr(nn, "read_artifact",
                            lambda path, parse: reads.append(Path(path).name)
                            or read_artifact(path, parse))
        capsys.readouterr()
        assert run(damaged, "bench", *flag) == 2
        assert timed == []  # refused before any model is timed
        assert reads == ["report.json"]  # and before any artifact of its own is read
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"{flag[0]} must be >= 1, got {flag[1]}" in err

    def test_bench_refuses_two_checkpoints_of_one_name(self, damaged, monkeypatch, capsys):
        # results are keyed by file name, so the pair would merge into one entry
        for sub, name in (("a", "teacher.ckpt"), ("b", "student.ckpt")):
            (damaged / sub).mkdir()
            shutil.copy(damaged / name, damaged / sub / "model.ckpt")
        timed = []
        monkeypatch.setattr(cli, "_bench_model", lambda *args: timed.append(args) or [1.0])
        capsys.readouterr()
        assert run(damaged, "bench", "a/model.ckpt", "b/model.ckpt") == 2
        assert timed == []
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "share the file name model.ckpt" in err


def child_prints(probe: str) -> str:
    """What ``probe`` prints, run by a fresh interpreter that imports this checkout."""
    src = str(Path(distillsearch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_scipy_special_out():
    assert child_prints("import sys, distillsearch.cli; "
                        "print('scipy.special' in sys.modules)") == "False"


def test_float32_run_leaves_scipy_special_out(tmp_path):
    # float32 takes Phi from numpy alone: scipy.special would cost a whole CLI run
    # its import time and tens of MB
    probe = f"""
import contextlib, io, sys
from pathlib import Path
from distillsearch import cli, corpus
from distillsearch.archspace import ArchConfig
out = Path({str(tmp_path)!r})
corpus.save_corpus(corpus.generate(corpus.SyntheticTaskSpec(
    vocab_size=300, n_labeled=40, n_unlabeled=40, n_val=10, n_test=10, rng_seed=0)), out)
(out / "teacher.json").write_text({TINY_TEACHER.to_json()!r})
(out / "arch.json").write_text(ArchConfig(layers=1, hidden=8, heads=1, ffn=16, vocab=100,
                                          max_seq_len=32).to_json())
assert cli.COMPUTE_DTYPE.name == "float32"
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["teach", "--config", str(out / "teacher.json"), "--epochs", "1"], ["capture"],
                 ["distill", "--epochs", "1"], ["bench", "--n", "3", "--repeats", "1"]):
        assert cli.main(["--out", str(out), *argv]) == 0, argv
print("scipy.special" in sys.modules)
"""
    assert child_prints(probe) == "False"


# ---------------------------------------------------------------------------
# fuzz: one corrupted artifact of a finished run never raises out of main

CORPUS_FILES = ("task_spec.json", "labeled.jsonl", "unlabeled.jsonl", "val.jsonl", "test.jsonl")
OTHER_VALUES = (7, 7.5, "7", None, True, [7], {"k": 7})


def readers(out):
    """argv of every command that reads each artifact of a finished run."""
    teach = ["teach", "--config", str(out / "teacher_cfg.json"), "--epochs", "1"]
    corpus_readers = [teach, ["capture"], DISTILL, BENCH]
    return {"teacher.ckpt": [["capture"], DISTILL, BENCH], "student.ckpt": [BENCH],
            "logits.ldst": [DISTILL], "arch.json": [DISTILL],
            "report.json": [*corpus_readers, ["report"]],
            **{name: corpus_readers for name in CORPUS_FILES}}


def _nodes(doc):
    """Every value of a JSON document, the document first."""
    yield doc
    for child in doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ():
        yield from _nodes(child)


def mutate(doc, how, draw):
    """``doc`` with one key dropped or added, or one value (or the whole
    document) replaced by a value of another type."""
    dicts = [node for node in _nodes(doc) if isinstance(node, dict) and (node or how == "add")]
    if how == "drop" and dicts:
        node = draw(st.sampled_from(dicts))
        del node[draw(st.sampled_from(sorted(node)))]
        return doc
    if how == "add" and dicts:
        draw(st.sampled_from(dicts))["unexpected"] = 1
        return doc
    slots = [(node, key) for node in _nodes(doc) if isinstance(node, (dict, list))
             for key in (list(node) if isinstance(node, dict) else range(len(node)))]
    pick = draw(st.integers(-1, len(slots) - 1))  # -1: the whole document
    old = doc if pick < 0 else slots[pick][0][slots[pick][1]]
    new = draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(old)]))
    if pick < 0:
        return new
    slots[pick][0][slots[pick][1]] = new
    return doc


def corrupt(path, draw):
    """Truncate ``path``, or mutate one JSON document in it: the whole file for
    .json, the header of a checkpoint, one line of a JSON-lines file."""
    raw = path.read_bytes()
    how = draw(st.sampled_from(["truncate", "drop", "add", "retype"]))
    if how == "truncate":
        path.write_bytes(raw[:draw(st.integers(0, len(raw) - 1))])
        return
    parts = [raw] if path.suffix == ".json" else raw.split(b"\n")
    index = {".json": 0, ".ckpt": 1}.get(path.suffix)
    if index is None:  # a JSON-lines file ends in a newline, so its last part is empty
        index = draw(st.integers(0, len(parts) - 2))
    doc = mutate(json.loads(parts[index]), how, draw)
    parts[index] = json.dumps(doc).encode()
    path.write_bytes(b"\n".join(parts))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_corrupted_artifact_never_raises(finished_run, data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(finished_run, out)
        commands = readers(out)
        name = data.draw(st.sampled_from(sorted(commands)), label="artifact")
        corrupt(out / name, data.draw)
        argv = data.draw(st.sampled_from(commands[name]), label="argv")
        assert main(["--out", str(out), *argv]) in (0, 2, 3, 4)
