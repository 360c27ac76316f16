"""One benchmark workload, run in a fresh process; writes its result as JSON.

run.py starts this file with the BLAS thread count pinned to 1 in the
environment (before numpy is imported) and the checkout's ``src`` on
PYTHONPATH. All three workloads are single-caller closed loops: the next
unit of work starts when the previous one has finished, until ``--seconds``
have passed. Inputs come from ``--seed`` only.

* ``pipeline``: ``cli.main`` for teach, search, capture, distill and bench
  in a fresh ``--out`` on a seeded synthetic corpus. Unit: one whole run.
* ``infer``: a seeded set of 12-24-token sequences through ``nn.forward``
  (teacher and student, one call per sequence) and, length-bucketed in
  batches of 64, through ``nn.forward_batch`` (teacher). Unit: one pass.
* ``search``: GA runs over seeds x four budgets, scored against the exact
  optimum. Unit: one sweep.

A reference kernel runs after every segment of a unit (see
:class:`SpeedClock`); ``work_ref``, the gated time, is a unit's time
relative to it, which cancels the machine's speed drift. With
``--trace 1`` units alternate untraced and traced; the traced ones give
per-layer sums (plus one traced set-up) and the ratio of the two medians
gives the tracing overhead.
"""

import time

_START = time.perf_counter()  # set-up time includes the imports below

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import distillsearch
from distillsearch import archspace, cli, corpus, estimators, gasearch, nn
from distillsearch.archspace import ArchConfig

from oracle import exact_optimum
from provenance import GEMM_SHAPE, gemm_gflops, provenance, reference_seconds
from tracer import Tracer

_IMPORT_S = time.perf_counter() - _START

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "distillsearch"

LAYERS = ("cli", "corpus", "nn", "distill", "gasearch", "estimators", "archspace")
# called thousands of times per unit: sums only, no span per call
HOT = ("nn.matmul", "gasearch.fitness", "gasearch.crossover", "gasearch.mutation",
       "gasearch.random_chromosome", "estimators.param_count", "estimators.model_size",
       "estimators.forward_flops", "distill.apply_vocab_map", "corpus.rule_label")
SETUP_REPEATS = 3

# pipeline: sized so that one teach->bench run takes about 15 s on one core
# and still trains a teacher and a student that clear the floors below on
# every seed tried (teacher test accuracy >= 0.945, student agreement >= 0.90
# over 27 seeds); fewer examples or epochs, or a higher teacher learning
# rate, left some seeds untrained.
PIPELINE_CORPUS = dict(n_labeled=600, n_unlabeled=600, n_val=200, n_test=200)
# The CLI seed stays fixed, so every run trains the same architectures
# (the GA's pick for seed 0 is 1x32, ffn 96, vocab 3000); --seed varies the corpus.
CLI_SEED = "0"
STAGES = (
    ("teach", ["teach", "--epochs", "1", "--lr", "1e-3", "--batch-size", "32"]),
    ("search", ["search", "--target-mb", "0.408", "--seq-len", "24", "--max-seq-len", "32"]),
    ("capture", ["capture"]),
    ("distill", ["distill", "--epochs", "12", "--lr", "2e-3", "--batch-size", "8"]),
    ("bench", ["bench", "--n", "50", "--repeats", "2"]),
)
TEACHER_MIN_ACCURACY = 0.90
STUDENT_MIN_RETENTION = 0.85   # student test accuracy / teacher test accuracy
STUDENT_MIN_AGREEMENT = 0.85
STUDENT_MAX_SIZE_SHARE = 0.12  # of the teacher's MB, as in acceptance criterion 8

# infer: the default desk-scale teacher and the pipeline's GA pick
TEACHER_CONFIG = ArchConfig(layers=4, hidden=128, heads=4, ffn=512, vocab=2000,
                            max_seq_len=32, num_classes=2)
STUDENT_CONFIG = ArchConfig(layers=1, hidden=32, heads=2, ffn=96, vocab=3000,
                            max_seq_len=32, num_classes=2)
INFER_LENGTHS = range(12, 25)
INFER_BATCH = 64  # sequences per length, so every batch is full

# search: (target MB, fitness seq len, max seq len); the paper's three
# budgets on default_table1() and the pipeline's desk-scale budget
BUDGETS = ((3.0, 400, 512), (25.0, 400, 512), (50.0, 400, 512), (0.408, 24, 32))
SEEDS_PER_SWEEP = 2
# exact optimum at 3 MB, seq 400: fitness and (layers, hidden, ffn, vocab), ROADMAP item 1
ANCHOR = (1.14725, (11, 112, 32, 1000))

# percentiles tried for the tail, highest first: report the highest one
# with at least ten samples beyond it
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


# ---------------------------------------------------------------------------
# helpers


def tail(samples):
    """(label, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return f"p{p:g}", ordered[math.ceil(p / 100 * n) - 1]
    return None, None


def timing(name, samples, unit, scale=1.0, tail_prefix=None):
    """Named-metric rows for a list of seconds: the median, with the count,
    and (under ``tail_prefix``) the tail percentile when there is one."""
    if not samples:
        return [(name, None, unit, "no samples")]
    rows = [(name, statistics.median(samples) * scale, unit, f"median of {len(samples)}")]
    label, value = tail(samples)
    if tail_prefix and label:
        rows.append((f"{tail_prefix}_{label}_{unit}", value * scale, unit,
                     f"{label} of {len(samples)}"))
    return rows


class Ops:
    """Operations attempted and failed; failures keep a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{name}: {detail}")
        return ok


@contextlib.contextmanager
def maybe_span(tracer, name):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


def make_tracer():
    """Tracer over the package's modules, with hooks for FLOPs and GA dedup."""
    layers = {}
    for name in LAYERS:
        try:
            layers[name] = importlib.import_module(f"distillsearch.{name}")
        except ImportError:
            pass
    forward_flops = estimators.forward_flops  # the original, not the wrapper
    counter = nn.FlopCounter() if hasattr(nn, "FlopCounter") else None
    scored = set()

    def batch_flops(args, kwargs):
        model = args[0] if args else kwargs["model"]
        ids = np.asarray(args[1] if len(args) > 1 else kwargs["ids"])
        return ids.shape[0] * forward_flops(model.config, ids.shape[1]).flops

    def matmul_flops(args, kwargs):
        a, b = args[0], args[1]
        before = counter.flops
        counter.add_matmul(a.shape if a.ndim >= 2 else (1, a.shape[0]), b.shape)
        return counter.flops - before

    def fitness_distinct(args, kwargs):
        key = (tracer.run_id, args[1], args[0])  # (unit, params, chromosome)
        if key in scored:
            return 0
        scored.add(key)
        return 1

    hooks = {"nn.forward_batch": batch_flops, "gasearch.fitness": fitness_distinct}
    if counter is not None:
        hooks["nn.matmul"] = matmul_flops
    tracer = Tracer(layers, alias_modules=[distillsearch], hot=HOT, hooks=hooks)
    return tracer


def timed_setup(setup, tracer):
    """Median seconds of SETUP_REPEATS set-ups, the last result, and the
    layer sums of one more set-up, traced when there is a tracer."""
    times, result = [], None
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = setup(k)
        times.append(time.perf_counter() - start)
    stats = {}
    if tracer is not None:
        tracer.run_id = "setup"
        tracer.install()
        try:
            setup(SETUP_REPEATS)
        finally:
            tracer.uninstall()
        stats = tracer.take()
    return statistics.median(times), result, stats


class SpeedClock:
    """Sums the times of a unit's segments, raw and over the reference
    kernel's time around each segment.

    The kernel runs after every segment: once after a short segment, and
    three times (taking the median) after one longer than a second, where
    its cost is small beside the segment's.
    """

    def __init__(self):
        self.ref = statistics.median(reference_seconds() for _ in range(3))
        self.raw = self.relative = 0.0

    def lap(self, seconds):
        ref = statistics.median(reference_seconds() for _ in range(3 if seconds > 1.0 else 1))
        self.raw += seconds
        self.relative += seconds / ((self.ref + ref) / 2)
        self.ref = ref

    def take(self):
        sums = self.raw, self.relative
        self.raw = self.relative = 0.0
        return sums


def closed_loop(seconds, unit, check, tracer):
    """Run units back to back for ``seconds``.

    ``unit(i, tracer_or_None, clock)`` does the work, calls ``clock.lap``
    with the time of each segment of it, and returns its outputs;
    ``check(outputs, traced)`` then checks them, outside the traced region.
    Untraced when ``tracer`` is None; otherwise even units are untraced and
    odd ones traced, and the loop ends only after one of each. Returns the
    unit times, raw and over the reference, keyed by whether traced.
    """
    units = {key: [] for key in ("untraced", "traced", "untraced_ref", "traced_ref")}
    clock = SpeedClock()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tr = tracer if tracer is not None and i % 2 == 1 else None
        if tr is not None:
            tr.run_id = f"unit{i}"
            tr.install()
        try:
            outputs = unit(i, tr, clock)
        finally:
            if tr is not None:
                tr.uninstall()
        elapsed, over_ref = clock.take()
        check(outputs, tr is not None)
        kind = "traced" if tr is not None else "untraced"
        units[kind].append(elapsed)
        units[kind + "_ref"].append(over_ref)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or units["traced"]):
            return units


def attempt(fn, *args, **kwargs):
    """(result or the exception raised, seconds taken)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a raised error is a failed operation, not a crash
        result = exc
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(seed, seconds, tracer, workdir, ops):
    spec = corpus.SyntheticTaskSpec(rng_seed=seed, **PIPELINE_CORPUS)

    def setup(k):
        out = workdir / f"corpus{k}"
        corpus.save_corpus(corpus.generate(spec), out)
        return out

    setup_s, corpus_dir, setup_stats = timed_setup(setup, tracer)
    teacher_mb = estimators.model_size(TEACHER_CONFIG).megabytes
    stage_times = {stage: [] for stage, _ in STAGES}
    totals, quality = [], {}

    def unit(i, tr, clock):
        out = workdir / f"run{i}"
        shutil.copytree(corpus_dir, out)
        codes, times = {}, {}
        for stage, argv in STAGES:
            with maybe_span(tr, f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
                codes[stage], times[stage] = attempt(
                    cli.main, ["--out", str(out), "--seed", CLI_SEED, *argv])
            clock.lap(times[stage])
        return out, codes, times

    def check(outputs, traced):
        out, codes, times = outputs
        ok = check_pipeline_run(out, codes, teacher_mb, quality, ops)
        shutil.rmtree(out)
        if not traced:
            for stage, _ in STAGES:
                stage_times[stage].append(times[stage] if ok[stage] else math.inf)
            totals.append(sum(times.values()) if all(ok.values()) else math.inf)

    units = closed_loop(seconds, unit, check, tracer)
    named = timing("pipeline_s", totals, "s", tail_prefix="pipeline")
    for stage, _ in STAGES:
        named += timing(f"{stage}_s", stage_times[stage], "s", tail_prefix=stage)
    named += [
        ("teacher_test_accuracy", quality.get("teacher_test"), "fraction", "deterministic"),
        ("student_test_accuracy", quality.get("student_test"), "fraction", "deterministic"),
        ("teacher_agreement", quality.get("agreement"), "fraction", "deterministic"),
    ]
    return setup_s, setup_stats, units, named


def check_pipeline_run(out, codes, teacher_mb, quality, ops):
    """One operation per CLI stage: exit code 0 and the stage's output check.

    Returns {stage: ok}. A later run on the same inputs must reproduce the
    first run's accuracies and loss trace bit for bit.
    """
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError):
        report = {}
    teach = report.get("teach", {})

    def search_check(r):
        config = ArchConfig.from_dict(r["ga_result"]["best"])
        return (archspace.validate(config, archspace.default_table1()).ok
                and r["ga_result"]["size_mb"] <= STUDENT_MAX_SIZE_SHARE * teacher_mb)

    checks = {
        "teach": (lambda r: min(r["val_accuracy"], r["test_accuracy"]) >= TEACHER_MIN_ACCURACY,
                  f"teacher accuracy below {TEACHER_MIN_ACCURACY}"),
        "search": (search_check, "GA pick off the grid or over the size share"),
        "capture": (lambda r: r["count"] == PIPELINE_CORPUS["n_unlabeled"],
                    "wrong logit record count"),
        "distill": (lambda r: r["test_accuracy"] >= STUDENT_MIN_RETENTION * teach["test_accuracy"]
                    and r["teacher_agreement"] >= STUDENT_MIN_AGREEMENT,
                    "student retention or agreement below floor"),
        "bench": (lambda r: r["latency_ratio"] < 1.0, "student not faster than teacher"),
    }
    ok = {}
    for stage, (check, detail) in checks.items():
        if codes[stage] != 0:
            ok[stage] = ops.record(stage, False, f"exit {codes[stage]!r}")
            continue
        try:
            passed = bool(check(report[stage]))
        except (KeyError, TypeError, ValueError) as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        ok[stage] = ops.record(stage, passed, detail)

    if all(ok.values()):
        seen = {"teacher_test": teach["test_accuracy"],
                "student_test": report["distill"]["test_accuracy"],
                "agreement": report["distill"]["teacher_agreement"],
                "losses": report["distill"]["epoch_losses"]}
        if not quality:
            quality.update(seen)
        else:
            ok["distill"] = ops.record("rerun", seen == quality,
                                       "a rerun on the same inputs differs")
    return ok


# ---------------------------------------------------------------------------
# infer


def run_infer(seed, seconds, tracer, workdir, ops):
    def setup(k):
        out = workdir / f"ckpt{k}"
        out.mkdir()
        models = []
        for name, config, init_seed in (("teacher", TEACHER_CONFIG, seed),
                                        ("student", STUDENT_CONFIG, seed + 1)):
            nn.save_checkpoint(nn.init(config, init_seed), out / f"{name}.ckpt")
            models.append(nn.load_checkpoint(out / f"{name}.ckpt"))
        return models

    setup_s, (teacher, student), setup_stats = timed_setup(setup, tracer)
    rng = np.random.default_rng(seed)
    batches = {n: rng.integers(1, TEACHER_CONFIG.vocab, size=(INFER_BATCH, n))
               for n in INFER_LENGTHS}
    order = [(n, r) for n in INFER_LENGTHS for r in range(INFER_BATCH)]
    order = [order[j] for j in rng.permutation(len(order))]
    chunks = [order[k:k + INFER_BATCH] for k in range(0, len(order), INFER_BATCH)]
    seqs = {(n, r): batches[n][r].tolist() for n, r in order}
    for model in (teacher, student):  # warm-up, untimed
        nn.forward(model, seqs[order[0]])
    nn.forward_batch(teacher, batches[INFER_LENGTHS[0]])

    lat = {"teacher": [], "student": []}
    batch_time, batch_seqs = [], []

    def unit(i, tr, clock):
        """13 segments: 64 of the shuffled sequences at B=1, then one batch."""
        single = {"teacher": {}, "student": {}}
        batched = {}
        for chunk, (n, ids) in zip(chunks, batches.items()):
            spent = 0.0
            for key in chunk:
                for name, model in (("teacher", teacher), ("student", student)):
                    single[name][key] = attempt(nn.forward, model, seqs[key])
                    spent += single[name][key][1]
            batched[n] = attempt(nn.forward_batch, teacher, ids)
            clock.lap(spent + batched[n][1])
        return single, batched

    def check(outputs, traced):
        single, batched = outputs
        batch_logits = {}
        for n, (result, _) in batched.items():
            if ops.record("forward_batch teacher", not isinstance(result, Exception), repr(result)):
                batch_logits[n] = result[0]
        for name, runs in single.items():
            for (n, r), (logits, elapsed) in runs.items():
                ok = ops.record(f"forward {name}", not isinstance(logits, Exception), repr(logits))
                if ok and name == "teacher" and n in batch_logits:
                    row = batch_logits[n][r]
                    ok = ops.record("batch matches B=1",
                                    np.allclose(row, logits, rtol=1e-9, atol=1e-12)
                                    and np.argmax(row) == np.argmax(logits),
                                    f"length {n} row {r}")
                if not traced:
                    lat[name].append(elapsed if ok else math.inf)
        if not traced:
            batch_time.append(sum(t for _, t in batched.values()))
            batch_seqs.append(INFER_BATCH * len(batch_logits))

    units = closed_loop(seconds, unit, check, tracer)

    for name, model, config in (("teacher", teacher, TEACHER_CONFIG),
                                ("student", student, STUDENT_CONFIG)):
        for n in (min(INFER_LENGTHS), max(INFER_LENGTHS)):
            counter = nn.FlopCounter()
            nn.forward(model, batches[n][0].tolist(), counter=counter)
            expected = estimators.forward_flops(config, n).flops
            ops.record(f"FlopCounter {name}", counter.flops == expected,
                       f"length {n}: counted {counter.flops}, estimated {expected}")

    named = timing("teacher_p50_ms", lat["teacher"], "ms", 1e3, "teacher")
    named += timing("student_p50_ms", lat["student"], "ms", 1e3, "student")
    named.append(("batch_seqs_per_s", sum(batch_seqs) / sum(batch_time), "seq/s",
                  f"teacher, batches of {INFER_BATCH}, {sum(batch_seqs)} sequences"))
    return setup_s, setup_stats, units, named


# ---------------------------------------------------------------------------
# search


def run_search(seed, seconds, tracer, workdir, ops):
    def setup(k):
        space = archspace.default_table1()
        return space, [gasearch.GaParams(target_size_mb=mb, fitness_seq_len=seq,
                                         max_seq_len=max_seq, rng_seed=0)
                       for mb, seq, max_seq in BUDGETS]

    setup_s, (space, _), setup_stats = timed_setup(setup, tracer)
    optimum = {b: exact_optimum(estimators, space, *b) for b in BUDGETS}
    anchor = optimum[BUDGETS[0]]
    ops.record("oracle anchor",
               round(anchor.fitness, 5) == ANCHOR[0]
               and (anchor.layers, anchor.hidden, anchor.ffn, anchor.vocab) == ANCHOR[1],
               f"3 MB optimum {anchor}")

    run_times, regrets = [], {b: [] for b in BUDGETS}
    first = {}

    def unit(i, tr, clock):
        runs = []
        for s in range(SEEDS_PER_SWEEP):
            ga_seed = seed * 1000 + i * SEEDS_PER_SWEEP + s
            for budget in BUDGETS:
                mb, seq, max_seq = budget
                params = gasearch.GaParams(target_size_mb=mb, fitness_seq_len=seq,
                                           max_seq_len=max_seq, rng_seed=ga_seed)
                runs.append((budget, params, *attempt(gasearch.search, space, params)))
                clock.lap(runs[-1][-1])
        return runs

    def check(runs, traced):
        for budget, params, result, elapsed in runs:
            ok, regret = check_search_run(result, space, optimum[budget], ops)
            if ok and not first:
                first.update(params=params, doc=_ga_doc(result))
            if not traced:
                run_times.append(elapsed if ok else math.inf)
                regrets[budget].append(regret if ok else math.inf)

    units = closed_loop(seconds, unit, check, tracer)
    if first:
        ops.record("GA rerun bit-exact",
                   _ga_doc(gasearch.search(space, first["params"])) == first["doc"],
                   f"seed {first['params'].rng_seed}")

    all_regrets = [r for rs in regrets.values() for r in rs]
    named = [("search_runs_per_s", len(run_times) / sum(run_times), "runs/s",
              f"{len(run_times)} GA runs")]
    named += timing("search_run_p50_ms", run_times, "ms", 1e3, "search_run")
    named.append(("search_regret", statistics.median(all_regrets), "fitness",
                  "median over the sweep of exact optimum - GA best"))
    for budget in BUDGETS:
        label = f"{budget[0]:g}MB"
        named.append((f"regret_{label}", statistics.median(regrets[budget]), "fitness",
                      f"median of {len(regrets[budget])}"))
        named.append((f"optimum_{label}", optimum[budget].fitness, "fitness",
                      str(optimum[budget])))
    return setup_s, setup_stats, units, named


def _ga_doc(result):
    doc = result.to_dict()
    doc.pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


def check_search_run(result, space, optimum, ops):
    """Winner on the grid and regret >= 0; returns (ok, regret)."""
    if isinstance(result, Exception):
        return ops.record("GA run", False, repr(result)), None
    config = ArchConfig.from_dict(result.to_dict()["best"])
    regret = optimum.fitness - result.best_fitness
    ok = ops.record("GA run", archspace.validate(config, space).ok and regret >= -1e-9,
                    f"{config} regret {regret}")
    return ok, regret


# ---------------------------------------------------------------------------

WORKLOADS = {"pipeline": run_pipeline, "infer": run_infer, "search": run_search}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    if Path(distillsearch.__file__).resolve().parent != PACKAGE_DIR:
        print(f"error: distillsearch imported from {distillsearch.__file__}, "
              f"not from {PACKAGE_DIR}", file=sys.stderr)
        return 2

    tracer = make_tracer() if args.trace else None
    ops = Ops()
    args.workdir.mkdir(parents=True)
    try:
        setup_s, setup_stats, units, named = WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, args.workdir, ops)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.reasons,
        "import_s": _IMPORT_S,
        "e2e": {"setup_step_s": setup_s, "work_s": statistics.median(units["untraced"]),
                "work_ref": statistics.median(units["untraced_ref"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "unit_s": units,
        "named": named,
        "gemm_shape": GEMM_SHAPE,
        "gemm_gflops_per_s": {"f64": gemm_gflops(np.float64), "f32": gemm_gflops(np.float32)},
        "provenance": provenance(ROOT, PACKAGE_DIR, args.seed),
    }
    if tracer is not None:
        unit_stats = tracer.take()
        combined = dict(setup_stats)
        for name, st in unit_stats.items():
            per_unit = st.scaled(1 / len(units["traced"]))
            combined[name] = combined[name].plus(per_unit) if name in combined else per_unit
        result["layer_stats"] = {name: vars(st) for name, st in combined.items()}
        result["wrapped"] = sorted(tracer.wrapped_names())
        result["own_spans"] = [f"cli.{stage}" for stage, _ in STAGES]
        result["hook_errors"] = tracer.hook_errors
        # from the reference-relative times, which the machine's drift moves less
        result["overhead_share"] = (statistics.median(units["traced_ref"])
                                    / statistics.median(units["untraced_ref"]) - 1)
        result["overhead_s"] = result["overhead_share"] * statistics.median(units["untraced"])
        result["spans"] = [dict(zip(("id", "name", "start", "end", "parent", "run"), s))
                           for s in tracer.spans]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
