import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distillsearch

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
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d.pop("ids")),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d.update(ids=5)),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "logits.ldst", 1, lambda d: d["logits"].__setitem__(0, "7")),
         DISTILL, 2, "logits.ldst"),
        (lambda out: edit_line(out / "student.ckpt", 1,
                               lambda d: d["vocab_map"][0].__setitem__(1, "7")),
         BENCH, 2, "student.ckpt"),
        (add_spec_key, ["capture"], 2, "task_spec.json"),
        (lambda out: edit_line(out / "test.jsonl", 0, lambda d: d.pop("label")),
         ["capture"], 2, "test.jsonl"),
        (lambda out: (out / "arch.json").write_text("5"), DISTILL, 2, "arch.json"),
        (lambda out: (out / "test.jsonl").unlink(), ["capture"], 3, "test.jsonl"),
    ], ids=["ldst-header-without-count", "ldst-record-without-ids", "ldst-ids-int",
            "ldst-logit-string", "vocab-map-entry-string",
            "spec-unknown-key", "test-record-without-label", "arch-holds-5",
            "test-split-missing"])
    def test_exit_code_names_the_file(self, damaged, capsys, damage, argv, code, name):
        damage(damaged)
        capsys.readouterr()
        assert run(damaged, *argv) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and name in err

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

    @pytest.mark.parametrize("flag", [["--n", "0"], ["--repeats", "0"]])
    def test_bench_empty_sample_exit_2(self, damaged, flag):
        assert run(damaged, "bench", *flag) == 2


def test_cli_import_leaves_scipy_special_out():
    src = str(Path(distillsearch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, distillsearch.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


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
