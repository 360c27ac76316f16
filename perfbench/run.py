"""Benchmark for distillsearch: run workloads, check outputs, print metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the root of a checkout. Each workload runs in its own fresh
process (``perfbench/workloads.py``) with the BLAS thread count pinned to
1 and the checkout's ``src`` on PYTHONPATH. With ``--trace 0`` the last
line of standard output is a JSON object whose ``metrics`` are the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` they are its
``per_layer`` metrics. The lines before it print every metric by name with
its unit, including the workload's own named metrics, and the provenance.
Full results land in ``perfbench/results/BENCH_*.json`` (spans of a traced
run in ``TRACE_*.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("pipeline", "infer", "search")
LAYERS = ("cli", "corpus", "nn", "distill", "gasearch", "estimators", "archspace")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
IMPORT_PROBES = 4
IMPORT_PROBE = ("import time; start = time.perf_counter(); import numpy, distillsearch.cli; "
                "print(time.perf_counter() - start)")


class BenchError(Exception):
    pass


def child_env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": os.pathsep.join(paths)}


def import_seconds() -> list[float]:
    """Seconds to import numpy and the package, each in a fresh process."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def run_child(workload: str, args) -> dict:
    """Run one workload in a fresh process and return its result document.

    ``setup_s`` is the median import time over the workload process and
    IMPORT_PROBES more fresh processes, plus the median set-up step.
    """
    env = child_env()
    fd, result_path = tempfile.mkstemp(prefix=f".{workload}-", suffix=".json", dir=RESULTS)
    os.close(fd)
    workdir = RESULTS / f".work-{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--result", result_path]
    try:
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        result = json.loads(Path(result_path).read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {workload} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        os.unlink(result_path)
        shutil.rmtree(workdir, ignore_errors=True)
    imports = [result["import_s"], *import_seconds()]
    result["e2e"]["setup_s"] = statistics.median(imports) + result["e2e"]["setup_step_s"]
    result["import_s"] = imports
    return result


def layer_metrics(result: dict, specs: list[dict]) -> tuple[dict, list[str]]:
    """Resolve each per-layer metric name against the traced sums.

    ``<layer>.calls|self_s`` sums the wrapped functions of a module;
    ``<layer>.<function>.calls|s|self_s|gflops_per_s`` reads one function
    (or one span the benchmark opened); a function that no longer exists
    reads 0 and is listed as missing.
    """
    stats = result["layer_stats"]
    known = set(result["wrapped"]) | set(result["own_spans"])
    fitness = stats.get("gasearch.fitness")
    special = {
        "trace.overhead_s": result["overhead_s"],
        "trace.overhead_share": result["overhead_share"],
        "gemm.f64.gflops_per_s": result["gemm_gflops_per_s"]["f64"],
        "gemm.f32.gflops_per_s": result["gemm_gflops_per_s"]["f32"],
        "gasearch.distinct_ratio": fitness["work"] / fitness["calls"] if fitness else 0.0,
        "trace.missing": 0,
    }
    referenced = {spec["name"].rsplit(".", 1)[0] for spec in specs if spec["name"] not in special}
    missing = sorted(referenced - known - set(LAYERS))
    special["trace.missing"] = len(missing)

    values = {}
    for spec in specs:
        name = spec["name"]
        if name in special:
            values[name] = special[name]
            continue
        key, field = name.rsplit(".", 1)
        if key in LAYERS:
            members = [st for fn, st in stats.items()
                       if fn.startswith(key + ".") and not st["own"]]
            values[name] = float(sum(st[field] for st in members))
        elif key not in stats:
            values[name] = 0.0
        elif field == "gflops_per_s":
            st = stats[key]
            values[name] = st["work"] / st["s"] / 1e9 if st["s"] else 0.0
        else:
            values[name] = float(stats[key][field])
    return values, missing


def report(workload: str, result: dict, bench: dict, args) -> dict:
    """Print the human-readable lines for one workload; return its metrics."""
    print(f"== distillsearch benchmark: workload {workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, units run "
          f"{len(result['unit_s']['untraced'])} untraced + {len(result['unit_s']['traced'])} traced")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values, missing = layer_metrics(result, specs)
        peak = result["gemm_gflops_per_s"]["f64"]
        for spec in specs:
            note = ""
            if spec["name"].endswith("gflops_per_s") and not spec["name"].startswith("gemm."):
                note = f"  computed; {values[spec['name']] / peak:.1%} of the f64 GEMM peak"
            print(f"  {spec['name']:<40} {values[spec['name']]:>14.6g} {spec['unit']}{note}")
        print("  per unit of work plus one set-up; tracing overhead "
              f"{result['overhead_s']:+.4g} s per unit ({result['overhead_share']:+.2%})")
        print(f"  missing wrappers: {', '.join(missing) or 'none'}; "
              f"hook errors: {result['hook_errors']}")
    else:
        values = {spec["name"]: result["e2e"][spec["name"]] for spec in specs}
        for spec in specs:
            print(f"  {spec['name']:<40} {values[spec['name']]:>14.6g} {spec['unit']}")
        print(f"  {'work_s':<40} {result['e2e']['work_s']:>14.6g} s  (median wall time of "
              f"{len(result['unit_s']['untraced'])} units; not gated: it carries the machine's drift)")
        for name, value, unit, note in result["named"]:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<40} {shown:>14} {unit}  ({note})")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  error_rate {rate:.6g} ({result['failed']} failed of {result['attempted']} attempted)")
    for reason in result["failures"]:
        print(f"    failed: {reason}")
    prov = result["provenance"]
    print(f"  provenance: {prov['cpu_model']}, nproc {prov['nproc']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, blas {prov['blas'].get('name')} "
          f"{prov['blas'].get('version')}, threads {prov['blas_threads_env']}, threadpoolctl "
          f"{'available' if prov['threadpoolctl_available'] else 'not installed'}, "
          f"commit {prov['git_commit']}")
    gemm = result["gemm_gflops_per_s"]
    print(f"  GEMM reference (m, k, n) = {tuple(result['gemm_shape'])}: "
          f"f64 {gemm['f64']:.4g} GFLOP/s, f32 {gemm['f32']:.4g} GFLOP/s")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through subprocess.run, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="distillsearch benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed not negative")

    if not (ROOT / "src" / "distillsearch" / "__init__.py").is_file():
        print(f"error: no distillsearch sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        try:
            result = run_child(workload, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        values = report(workload, result, bench, args)
        tag = f"{workload}_seed{args.seed}_trace{args.trace}"
        spans = result.pop("spans", None)
        if spans is not None:
            (RESULTS / f"TRACE_{tag}.json").write_text(json.dumps(spans))
        (RESULTS / f"BENCH_{tag}.json").write_text(
            json.dumps({"metrics": values, "result": result}, indent=1))
        correct &= result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        metrics.update({prefix + name: v for name, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
