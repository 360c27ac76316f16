"""Where a result was measured: machine, library versions, BLAS, threads,
source revision; plus a GEMM reference and a machine-speed reference
kernel timed in the same process."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.special import erf

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the teacher's FFN-up GEMM at batch 64, sequence 24: (64*24) x 128 by 128 x 512
GEMM_SHAPE = (64 * 24, 128, 512)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}


def _git_commit(root: Path):
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(package_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, package_dir: Path, seed: int) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "threadpoolctl_available": importlib.util.find_spec("threadpoolctl") is not None,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(package_dir),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def gemm_gflops(dtype, reps: int = 25) -> float:
    """Median GFLOP/s of one GEMM at :data:`GEMM_SHAPE`, after one warm-up."""
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    a @ b
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2 * m * k * n / statistics.median(times) / 1e9


_REF_A = np.random.default_rng(0).standard_normal((256, 128))
_REF_B = np.random.default_rng(1).standard_normal((128, 512))


def reference_seconds() -> float:
    """Seconds for one run of a fixed kernel of about 25 ms.

    The work is in the program's proportions: interpreter-bound dict and
    sort work like the GA's, then GEMMs and erf like the encoder's. The
    machine's speed drifts (shared hosts were seen to swing by up to 2x over
    tens of seconds), and a segment's time over the kernel's time around it
    cancels the drift that both share. The garbage collector is off during
    the kernel, so that its time does not depend on the program's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        pool = {}
        for i in range(10_000):
            key = (i % 97, i % 89, i % 7)
            pool[key] = pool.get(key, 0) + i
        sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))
        for _ in range(2):
            erf(_REF_A @ _REF_B)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
