"""Shared pieces of the benchmark: statistics, child processes, run record.

Every workload runs its timed work in fresh interpreters (``child.py``)
so that one operation's leftovers (caches, heap growth, JIT-less
interpreter warm state) never leak into the next replay or pass.  The
parent process only orchestrates, gates and summarises.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: A child that has not finished in this long is killed and its work
#: counted as failed; no single pass, replay or probe comes close.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken child)."""


def require_program() -> None:
    """Fail early when the program's source is absent; else make it importable."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program source at {SRC}/repro; run from the root of a checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    BLAS is held to one thread.  On the 2-CPU reference host one core
    runs the program and the other the load generator or supervisor,
    and a second BLAS thread on small bases only adds scheduling noise.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def apply_thread_caps() -> None:
    """Hold this process's BLAS to one thread too (before numpy loads)."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  The percentile is taken by
    nearest rank, so ``value`` is an observed sample and exactly
    ``n - rank >= 10`` samples lie above it.
    """
    n = len(values)
    if n < 20:
        raise BenchError(f"tail needs at least 20 samples, got {n}")
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return float(sorted(values)[rank - 1]), pct, n


def units_for(seconds: float, nominal_s: float, minimum: int) -> int:
    """How many whole units of work a run of ``seconds`` measures.

    The work of a run is fixed by ``--seconds`` alone, not by how fast
    the program turns out to be, so both sides of a comparison time the
    same operations and the tail percentile rests on the same sample
    count.
    """
    return max(minimum, round(seconds / nominal_s))


# -- host speed ----------------------------------------------------------------

#: On a shared 2-CPU VM, CPU speed swings by up to 1.9x within minutes
#: (neighbours on shared cores): a fixed loop reads 85-140 ms, a fixed
#: branch-and-bound solve 113-245 ms.  A fixed kernel of interpreter and
#: NumPy work slows down with the program, so every run times it around
#: its operations and reports times scaled to the kernel's reference
#: time (README.md, "Host-speed normalisation").  Raw values are
#: printed too.
CAL_LOOP = 60_000
CAL_VECTOR = 600_000
#: The kernel's usual time on the reference host (a shared 2-CPU VM).
CAL_REF_S = 0.028


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration kernel.

    The two 4.8 MB arrays live in their own anonymous mappings,
    unmapped on return, so the kernel leaves the process's resident set
    as it found it.  Writing the product into fresh pages each call is
    part of the kernel: page faults and memory traffic are what the
    program's own solves pay too.
    """
    import mmap

    import numpy

    matrix = 250.0 * numpy.eye(250) + numpy.arange(62_500.0).reshape(250, 250) % 7
    identity = numpy.eye(250)
    buffers = [mmap.mmap(-1, CAL_VECTOR * 8) for _ in range(2)]
    vector, product = (numpy.frombuffer(b, dtype=numpy.float64) for b in buffers)
    vector.fill(1.0)
    start = time.perf_counter()
    x = 0
    for i in range(CAL_LOOP):
        x += i * i % 7
    # An inverse by ``solve``: ``numpy.linalg.inv`` is a traced span.
    for _ in range(2):
        numpy.linalg.solve(matrix, identity)
    for _ in range(3):
        numpy.multiply(vector, 1.0001, out=product)
        product.sum()
    elapsed = time.perf_counter() - start
    del vector, product
    for b in buffers:
        b.close()
    return elapsed


# -- host record -------------------------------------------------------------


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already folded into user/nice.
    return steal, sum(fields[:8])


class StealMeter:
    """Share of CPU time the hypervisor stole between start and stop."""

    def __init__(self) -> None:
        self._start = _cpu_ticks()

    def share(self) -> float:
        steal, total = _cpu_ticks()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0


@functools.lru_cache(maxsize=None)
def src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "src_digest": src_digest(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "thread_caps": {
            k: child_env().get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# -- reference cache -----------------------------------------------------------

#: Correctness references (the full re-plan arm, in-process solves) are
#: deterministic for a given program, so they are computed once per
#: program digest and kept here, inside the checkout.
CACHE_DIR = os.path.join(ROOT, ".bench_cache")


def _reference_path(name: str) -> str:
    return os.path.join(CACHE_DIR, src_digest(), f"{name}.json")


def load_reference(name: str):
    try:
        with open(_reference_path(name), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def store_reference(name: str, value) -> None:
    path = _reference_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    os.replace(tmp, path)


# -- child processes ---------------------------------------------------------


def run_child(task: str, args: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``child.py <task>`` in a fresh interpreter; return its report.

    The report is the child's last stdout line (JSON).  ``spawned_at``
    is this process's monotonic clock just before the fork; the clock is
    system-wide, so a child can stamp ``ready_at`` with its own reading
    and the difference is the set-up the child paid.
    """
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), task, json.dumps(args)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        proc.wait()
    finally:
        killer.cancel()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {task} exited {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_at"] - spawned_at
    return report


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set.

    Lets a child report the peak of its timed operations alone, not of
    the untimed kernel and gates between them.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc`` scan)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            found.append(int(entry))
    return found


# -- result ------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    """Print the run's notes, then the one-line JSON result, last."""
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
