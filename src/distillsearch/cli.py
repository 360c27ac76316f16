"""Command-line surface: estimate, search, teach, capture, distill, bench, report.

Every command but report writes its RunReport into ``<out>/report.json``
(a JSON object keyed by command, which report prints) alongside stable
artifact filenames:
arch.json, ga_result.json, teacher.ckpt, logits.ldst, student.ckpt.

Exit codes: 0 success; 2 a malformed artifact or flag (ValueError);
3 an artifact or split file that cannot be read or written (OSError:
missing, unreadable, a full disk); 4 divergence (FloatingPointError).
The exception's type alone sets the code, and :func:`main` is the one
place that maps it.

Every stage that runs a model (teach, capture, distill, bench) computes in
:data:`COMPUTE_DTYPE`, float32, and records it in its report entry. A
checkpoint stores fp32, so the accuracies a stage reports are those of the
exact weights it saves, and a later stage loads them bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import distill as distill_mod
from . import estimators, gasearch, nn
from .archspace import ArchConfig, default_table1, pretrained_reference, validate

# the exception's type alone sets the exit code; main is the one place that maps it.
# A directory where a file belongs is raised as ValueError where it arises (exit 2).
EXIT_CODES = {ValueError: 2, OSError: 3, FloatingPointError: 4}

COMPUTE_DTYPE = np.dtype(np.float32)  # every stage's models; the library's default is float64
DEFAULT_TEACHER = ArchConfig(layers=4, hidden=128, heads=4, ffn=512, vocab=2000,
                             max_seq_len=32, num_classes=2)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(f"--out {out} is not a directory") from exc
    return out


def _read_report(out: Path) -> dict | None:
    """report.json's object, or None when no command has written one yet."""
    path = out / "report.json"
    if not path.exists():
        return None
    doc = nn.read_artifact(path, json.load)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object; repair or delete it")
    return doc


def _read_config(path) -> ArchConfig:
    return nn.read_artifact(path, lambda fh: ArchConfig.from_json(fh.read()))


@functools.cache
def _versions() -> dict:
    """The interpreter, package and BLAS versions, fixed for the life of a process;
    versions come from package metadata, so scipy is not imported."""
    from importlib import metadata
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _provenance() -> dict:
    """What produced a run's bits: batched products round by BLAS kernel and thread
    count, so the thread settings are read on each call."""
    return {**_versions(),
            "env": {name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "OPENBLAS_CORETYPE")}}


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing artifact {path.name}: run `{produced_by}` first")
    return path


def _load_or_generate_corpus(out: Path, seed: int) -> corpus_mod.Corpus:
    if (out / "task_spec.json").exists():
        return corpus_mod.load_corpus(out)
    data = corpus_mod.generate(corpus_mod.SyntheticTaskSpec(rng_seed=seed))
    corpus_mod.save_corpus(data, out)
    return data


# ---------------------------------------------------------------------------
# commands


def cmd_estimate(args, out: Path) -> dict:
    config = (pretrained_reference() if args.config == "reference"
              else _read_config(args.config))
    if args.space == "table1":
        verdict = validate(config, default_table1())
        if not verdict:
            raise ValueError(f"config rejected: {verdict.violation}")
    seq_len = min(args.seq_len, config.max_seq_len)
    size = estimators.model_size(config, bytes_per_param=args.bytes_per_param)
    flops = estimators.forward_flops(config, seq_len)
    estimate = {
        "param_count": size.param_count,
        "bytes": size.bytes,
        "megabytes": size.megabytes,
        "flops": flops.flops,
        "gflops": flops.gflops,
        "seq_len": flops.seq_len,
    }
    print(json.dumps(estimate, indent=2))
    return {"config": config.to_dict(), "estimate": estimate}


def cmd_search(args, out: Path) -> dict:
    params = gasearch.GaParams(
        population_size=args.population, crossover_rate=args.crossover_rate,
        max_iter=args.iterations, child_size=args.child_size,
        target_size_mb=args.target_mb, fitness_seq_len=args.seq_len,
        rng_seed=args.seed, max_seq_len=args.max_seq_len,
        num_classes=args.num_classes)
    result = gasearch.search(default_table1(), params)
    doc = result.to_dict()
    nn.write_artifact(out / "ga_result.json", [json.dumps(doc, indent=2).encode()])
    nn.write_artifact(out / "arch.json", [json.dumps(doc["best"], indent=2).encode()])
    print(f"best architecture: {doc['best']}")
    print(f"size {doc['size_mb']:.3f} MB, fitness {doc['best_fitness']:.4f} "
          f"(optimum {doc['optimum_fitness']:.4f}, regret {doc['regret']:.4f}), "
          f"{result.elapsed_seconds:.2f}s")
    print(f"last generation: median fitness {doc['median_history'][-1]:.4f}, "
          f"{doc['distinct_history'][-1]} of {params.population_size} distinct")
    return {"ga_result": doc,
            "artifacts": {"arch": str(out / "arch.json"),
                          "ga_result": str(out / "ga_result.json")}}


def cmd_teach(args, out: Path) -> dict:
    config = _read_config(args.config) if args.config else DEFAULT_TEACHER
    params = nn.TrainParams(
        learning_rate=args.lr, epochs=args.epochs,
        batch_size=args.batch_size, rng_seed=args.seed, dtype=COMPUTE_DTYPE)
    data = _load_or_generate_corpus(out, args.seed)
    result = corpus_mod.train_teacher(config, data.labeled, params, val=data.val)
    nn.save_checkpoint(result.model, out / "teacher.ckpt")
    test_acc = corpus_mod.accuracy(result.model, data.test)
    print(f"teacher: val acc {result.val_accuracy:.4f}, test acc {test_acc:.4f}")
    return {"config": config.to_dict(),
            "val_accuracy": result.val_accuracy,
            "test_accuracy": test_acc,
            "epoch_losses": result.epoch_losses,
            "lr": args.lr, "epochs": args.epochs, "batch_size": args.batch_size,
            "corpus_seed": data.spec.rng_seed, "dtype": COMPUTE_DTYPE.name,
            "artifacts": {"teacher": str(out / "teacher.ckpt")}}


def cmd_capture(args, out: Path) -> dict:
    teacher = nn.load_checkpoint(_require(out / "teacher.ckpt", "teach"), COMPUTE_DTYPE)
    data = _load_or_generate_corpus(out, args.seed)
    dataset = distill_mod.capture_teacher_logits(teacher, data.unlabeled,
                                                 strict=not args.lenient)
    dataset.save(out / "logits.ldst")
    skipped = len(data.unlabeled) - len(dataset)  # none unless --lenient
    if skipped:
        print(f"capture: skipped {skipped} invalid sequences")
    print(f"captured {len(dataset)} teacher logit records")
    return {"count": len(dataset), "skipped": skipped, "num_classes": dataset.num_classes,
            "corpus_seed": data.spec.rng_seed, "dtype": COMPUTE_DTYPE.name,
            "artifacts": {"logits": str(out / "logits.ldst")}}


def cmd_distill(args, out: Path) -> dict:
    params = distill_mod.DistillParams(
        temperature=args.temperature, learning_rate=args.lr, epochs=args.epochs,
        batch_size=args.batch_size, rng_seed=args.seed, dtype=COMPUTE_DTYPE)
    dataset = distill_mod.LogitDataset.load(_require(out / "logits.ldst", "capture"))
    teacher = nn.load_checkpoint(_require(out / "teacher.ckpt", "teach"), COMPUTE_DTYPE)
    student_config = _read_config(args.student_config or _require(out / "arch.json", "search"))
    student_config = dataclasses.replace(student_config,
                                         max_seq_len=teacher.config.max_seq_len,
                                         num_classes=teacher.config.num_classes)
    data = _load_or_generate_corpus(out, args.seed)

    vocab_map = distill_mod.build_vocab_map(data.unlabeled, student_config.vocab,
                                            teacher.config.vocab)
    student, trace = distill_mod.distill_train(student_config, dataset, params, vocab_map)
    nn.save_checkpoint(student, out / "student.ckpt")

    test_ids = [ex.ids for ex in data.test]
    logits = nn.predict_logits(student, test_ids)  # once, for both rates
    test_acc = nn.match_rate(logits, [ex.label for ex in data.test])
    teacher_agree = nn.match_rate(logits, nn.predict_logits(teacher, test_ids))
    print(f"student: test acc {test_acc:.4f}, teacher agreement {teacher_agree:.4f}")
    return {"student_config": student_config.to_dict(),
            "temperature": args.temperature, "lr": args.lr,
            "epochs": args.epochs, "batch_size": args.batch_size,
            "vocab_mapped": vocab_map is not None,
            "initial_loss": trace.initial_loss, "final_loss": trace.final_loss,
            "epoch_losses": trace.epoch_losses,
            "test_accuracy": test_acc, "teacher_agreement": teacher_agree,
            "corpus_seed": data.spec.rng_seed, "dtype": COMPUTE_DTYPE.name,
            "artifacts": {"student": str(out / "student.ckpt")}}


def _bench_model(model, sequences, repeats):
    """Each repeat's mean seconds per sequence on the live path the CLI infers
    with, one sequence per :func:`nn.forward_batch` call."""
    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for ids in sequences:
            nn.forward_batch(model, np.array([ids]))
        means.append((time.perf_counter() - start) / len(sequences))
    return means


def cmd_bench(args, out: Path) -> dict:
    for flag in ("n", "repeats", "seq_len", "threads"):  # refused before any file is read
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 1, got {getattr(args, flag)}")
    paths = [out / name for name in args.checkpoints or ["teacher.ckpt", "student.ckpt"]]
    names = [path.name for path in paths]  # an absolute name stays; results are keyed by name
    if shared := [name for name in names if names.count(name) > 1]:
        raise ValueError(f"two checkpoints share the file name {shared[0]}")
    paths = [_require(path, "teach/distill") for path in paths]
    data = _load_or_generate_corpus(out, args.seed)
    rng = np.random.default_rng(args.seed)
    idx = rng.choice(len(data.test), size=min(args.n, len(data.test)), replace=False)
    sample = [data.test[i].ids for i in idx]
    if not sample:
        raise ValueError("bench needs a non-empty test split")

    results = {}
    try:
        from threadpoolctl import threadpool_limits
        limiter, threads = threadpool_limits(limits=args.threads), args.threads
    except ImportError:  # no limit applied: BLAS runs at the threads the environment sets
        limiter, threads = contextlib.nullcontext(), None
    with limiter:
        for path in paths:
            model = nn.load_checkpoint(path, COMPUTE_DTYPE)
            seqs = [ids[: model.config.max_seq_len] for ids in sample]
            means = _bench_model(model, seqs, args.repeats)
            seq_len = min(args.seq_len, model.config.max_seq_len)
            results[path.name] = {
                "per_repeat_mean_s": means,
                "grand_mean_s": float(np.mean(means)),
                "flops_at_seq_len": estimators.forward_flops(model.config, seq_len).flops,
                "live_flops_at_seq_len": estimators.live_flops(model.config, seq_len).flops,
            }
            print(f"{path.name}: mean {np.mean(means) * 1e3:.3f} ms over "
                  f"{len(seqs)} examples x {args.repeats} repeats")

    report = {"n": len(sample), "repeats": args.repeats, "threads": threads,
              "corpus_seed": data.spec.rng_seed, "dtype": COMPUTE_DTYPE.name, "models": results}
    if len(names) == 2:
        a, b = results[names[0]]["grand_mean_s"], results[names[1]]["grand_mean_s"]
        report["latency_ratio"] = b / a
        print(f"latency ratio {names[1]}/{names[0]} = {b / a:.3f}")
    return report


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillsearch",
        description="Compress encoder classifiers: GA architecture search + distillation")
    parser.add_argument("--out", default="runs", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="parameter/size/FLOPs estimate for a config")
    p.add_argument("config", help="config JSON path, or 'reference'")
    p.add_argument("--seq-len", type=int, default=400)
    p.add_argument("--bytes-per-param", type=int, default=4,
                   choices=estimators.VALID_BYTES_PER_PARAM)
    p.add_argument("--space", choices=("none", "table1"), default="none",
                   help="validate against the student grid before estimating")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("search", help="GA search for a student architecture")
    p.add_argument("--target-mb", type=float, required=True)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--crossover-rate", type=float, default=0.6)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--child-size", type=int, default=50)
    p.add_argument("--seq-len", type=int, default=400)
    p.add_argument("--max-seq-len", type=int, default=512)
    p.add_argument("--num-classes", type=int, default=2)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("teach", help="train the teacher on the labeled split")
    p.add_argument("--config", help="teacher config JSON (default desk-scale teacher)")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=cmd_teach)

    p = sub.add_parser("capture", help="record teacher logits on the unlabeled split")
    p.add_argument("--lenient", action="store_true",
                   help="skip sequences with invalid tokens instead of aborting")
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("distill", help="train the student on captured logits")
    p.add_argument("--student-config", help="override arch.json from search")
    p.add_argument("--temperature", type=float, default=2.0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("bench", help="per-example forward latency of checkpoints")
    p.add_argument("checkpoints", nargs="*", help="checkpoint files under --out")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seq-len", type=int, default=24)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    sub.add_parser("report", help="print the accumulated run report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.seed < 0:  # refused before --out is made or any file read
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        out = _out_dir(args)
        previous = _read_report(out)
        if args.command == "report":  # prints what the other commands wrote
            if previous is None:
                raise FileNotFoundError("missing artifact report.json: run any command first")
            print(json.dumps(previous, indent=2))
            return 0
        body = args.func(args, out)
        report = {"command": args.command, "seed": args.seed,
                  "wall_time_s": time.perf_counter() - start,
                  "provenance": _provenance(), **body}
        nn.write_artifact(out / "report.json", [json.dumps(
            {**(previous or {}), args.command: report}, indent=2).encode()])
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
