"""``service-open``: planning jobs sent to ``etransform serve``.

The service runs in a subprocess with one worker and default options
(``method="auto"``, which plans these estates as a HiGHS MILP).  The
load comes from this process, with at most two threads:

1. an open loop: jobs due at a fixed rate (about half the capacity
   measured on a 2-CPU host), each timed from its due time to the
   moment the client sees it complete;
2. a closed loop: two callers, each submitting its next job when its
   last one completes, which keeps the single worker saturated; the
   jobs completed per second of this phase are ``capacity_per_s``.

Every fifth submission repeats a payload whose job has already been
seen to complete, so the service's result cache answers it.  The other
payloads come from a fixed pool, each planned once per run, in an order
the seed sets.  Here the service layers (HTTP admission, queue, worker
IPC, result cache) carry the work around a HiGHS solve; the
repository's own simplex runs in none of it.

Its metrics are not scaled by the host-speed kernel (README.md).  The
work runs in the server's processes, where the kernel cannot run.  Run
in the load process during the load, the kernel competes with the
server for the two cores and reads the load, not the host.
"""

from __future__ import annotations

import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import gates

#: Payload pool: (dataset, generator seed, scale).  Estates whose HiGHS
#: solve takes 0.1-0.55 s, so the service's fixed poll steps (20 ms
#: supervisor, 50 ms client) stay a small share of a job.  Each phase
#: plans its own fixed part of the pool, so every run's open loop and
#: closed loop see the same jobs; the seed only orders them.
_FLORIDA = (1, 2, 3, 5, 6, 7, 10, 11, 12, 13, 14, 16, 17, 20, 21, 24, 25, 26, 27,
            30, 31, 35, 37, 38, 39, 40)
_ENTERPRISE1 = (2, 4, 7, 8, 11, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
                27, 32, 34, 35, 36, 37, 38, 39, 40)
OPEN_POOL = tuple(("florida", s, 0.4) for s in _FLORIDA[:16]) + tuple(
    ("enterprise1", s, 0.4) for s in _ENTERPRISE1[:16])
CLOSED_POOL = tuple(("florida", s, 0.4) for s in _FLORIDA[16:]) + tuple(
    ("enterprise1", s, 0.4) for s in _ENTERPRISE1[16:])
POOL = OPEN_POOL + CLOSED_POOL
WARMUP = ("enterprise1", 3, 0.3)

OPEN_RATE_PER_S = 2.0
REPEAT_EVERY = 5
CLOSED_CALLERS = 2
BOOTS = 3
POLL_S = 0.05
TERMINAL = ("succeeded", "failed", "cancelled", "timeout")


def payload_key(entry) -> str:
    name, seed, scale = entry
    return f"{name}:s{seed}:x{scale}"


def _state(entry):
    from repro.datasets import load_enterprise1, load_florida

    name, seed, scale = entry
    loader = {"enterprise1": load_enterprise1, "florida": load_florida}[name]
    return loader(seed=seed, scale=scale)


def build_payloads() -> dict:
    """Wire-ready state dicts of the pool and the warm-up job."""
    from repro.io import state_to_dict

    return {payload_key(e): state_to_dict(_state(e)) for e in POOL + (WARMUP,)}


def build_probe_inputs() -> None:
    import repro  # noqa: F401

    build_payloads()


def job_counts(seconds: int) -> tuple[int, int]:
    """(open-loop jobs, closed-loop jobs) for a run of ``seconds``.

    Four in five submissions plan a fresh payload, so a phase needs
    ``jobs * 4/5`` payloads of its pool.
    """
    n_open = round(seconds * 2 / 3 * OPEN_RATE_PER_S)
    n_closed = round(seconds * 0.85)
    for jobs, pool in ((n_open, OPEN_POOL), (n_closed, CLOSED_POOL)):
        if jobs - jobs // REPEAT_EVERY > len(pool):
            raise common.BenchError(f"--seconds {seconds} needs more than {len(pool)} payloads")
    return n_open, n_closed


# -- the service process --------------------------------------------------------


class Server:
    """``etransform serve`` in a subprocess, booted and warmed up."""

    def __init__(self, warmup_state: dict) -> None:
        from repro.service import ServiceClient

        start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
            cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            if "listening on " not in banner:
                raise common.BenchError(f"serve did not start: {banner!r}")
            self.url = banner.split("listening on ", 1)[1].split()[0]
            self.client = ServiceClient(self.url, timeout=60.0)
            while self.client.healthz().get("status") != "ok":
                time.sleep(0.01)
            job = self.client.submit_plan(warmup_state)
            self.client.wait(job["id"], poll_interval=POLL_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.monotonic() - start

    def peak_rss_kb(self) -> int:
        """Peak resident set of the server plus its worker(s)."""
        pids = [self.proc.pid] + common.child_pids(self.proc.pid)
        return sum(common.vm_hwm_kb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- load generation -------------------------------------------------------------


class Load:
    """Submits jobs, watches them complete, keeps per-job client clocks."""

    def __init__(self, client, payloads: dict, rng: random.Random):
        self.client = client
        self.payloads = payloads
        self.fresh: list[str] = []
        self.rng = rng
        self.lock = threading.Lock()
        self.jobs: list[dict] = []
        #: Payload keys whose first job has been seen to complete.
        self.completed: set[str] = set()
        self.slot = 0
        self.rejected = 0

    def _refill(self, pool) -> None:
        """The phase's fresh payloads, in an order the seed sets."""
        self.fresh = [payload_key(e) for e in pool]
        self.rng.shuffle(self.fresh)

    def _next_payload(self) -> tuple[str, bool]:
        with self.lock:
            self.slot += 1
            if (self.slot % REPEAT_EVERY == 0 or not self.fresh) and self.completed:
                return self.rng.choice(sorted(self.completed)), True
            return self.fresh.pop(), False

    def submit(self, phase: str, due: float) -> dict:
        from repro.service import ServiceError

        key, repeat = self._next_payload()
        job = {"phase": phase, "key": key, "repeat": repeat, "due": due,
               "posted": time.monotonic()}
        try:
            record = self.client.submit_plan(self.payloads[key])
        except ServiceError as exc:
            job.update(error=str(exc), seen=time.monotonic())
            if exc.status == 429:
                self.rejected += 1
        else:
            job["post_s"] = time.monotonic() - job["posted"]
            job["id"] = record["id"]
            if record["state"] in TERMINAL:
                self._seen(job)
        with self.lock:
            self.jobs.append(job)
        return job

    def _seen(self, job: dict) -> None:
        job["seen"] = time.monotonic()
        job["seen_wall"] = time.time()
        if not job["repeat"]:
            with self.lock:
                self.completed.add(job["key"])

    def open_loop(self, n_jobs: int) -> float:
        """Jobs due every ``1/OPEN_RATE_PER_S``; returns the max lateness."""
        self._refill(OPEN_POOL)
        start = time.monotonic() + 0.1
        late = [0.0]
        submitted = threading.Event()

        def submitter():
            for i in range(n_jobs):
                due = start + i / OPEN_RATE_PER_S
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                late[0] = max(late[0], time.monotonic() - due)
                self.submit("open", due)
            submitted.set()

        thread = threading.Thread(target=submitter)
        thread.start()
        try:
            while True:
                time.sleep(POLL_S)
                with self.lock:
                    waiting = {j["id"]: j for j in self.jobs if "seen" not in j}
                if waiting:
                    for record in self.client.jobs():
                        job = waiting.get(record["id"])
                        if job is not None and record["state"] in TERMINAL:
                            self._seen(job)
                elif submitted.is_set():
                    break
        finally:
            thread.join()
        return late[0]

    def closed_loop(self, n_jobs: int) -> float:
        """Saturate the worker with waiting callers; returns jobs/s."""
        self._refill(CLOSED_POOL)
        remaining = [n_jobs]
        errors: list[BaseException] = []

        def caller():
            try:
                while True:
                    with self.lock:
                        if remaining[0] == 0:
                            return
                        remaining[0] -= 1
                    job = self.submit("closed", time.monotonic())
                    if "seen" not in job:
                        self.client.wait(job["id"], poll_interval=POLL_S,
                                         raise_on_failure=False)
                        self._seen(job)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        start = time.monotonic()
        threads = [threading.Thread(target=caller) for _ in range(CLOSED_CALLERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return n_jobs / (time.monotonic() - start)


# -- references ------------------------------------------------------------------


def _reference_objectives(payloads: dict, keys, tracer_on: bool) -> dict:
    """In-process plans of the pool, through the service's own decode path."""
    from repro import PlannerOptions, solve
    from repro.io import state_from_dict

    cached = None if tracer_on else common.load_reference("service-open")
    if cached is not None and set(keys) <= set(cached):
        return cached
    out = {}
    for key in keys:
        result = solve(state_from_dict(payloads[key]), options=PlannerOptions.from_wire({}))
        out[key] = result.objective
    if not tracer_on:
        common.store_reference("service-open", out)
    return out


# -- the run ---------------------------------------------------------------------


def run(seed: int, seconds: int, trace: bool) -> dict:
    n_open, n_closed = job_counts(seconds)
    rng = random.Random(seed)

    payloads = build_payloads()
    setups = []
    server = None
    for _ in range(BOOTS):
        probe = common.run_child("probe", {"workload": "service-open"})
        if server is not None:
            server.stop()
        server = Server(payloads[payload_key(WARMUP)])
        setups.append(probe["setup_s"] + server.boot_s)
    try:
        load = Load(server.client, payloads, rng)
        open_start = time.monotonic()
        late_s = load.open_loop(n_open)
        open_wall = time.monotonic() - open_start
        capacity = load.closed_loop(n_closed)
        peak_kb = server.peak_rss_kb()
        records = {j["id"]: server.client.job(j["id"]) for j in load.jobs if "id" in j}
    finally:
        server.stop()

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer_mod.import_layers()
        tracer = tracer_mod.Tracer()
        tracer.install()
    references = _reference_objectives(
        payloads, sorted({j["key"] for j in load.jobs}), tracer is not None
    )

    failures = []
    first_record = {}
    for job in load.jobs:
        record = records.get(job.get("id"))
        if record is None:
            reason = job.get("error", "no record")
        elif job["repeat"]:
            reason = None
        else:
            first_record.setdefault(job["key"], record)
            reason = gates.service_job_ok(record, references[job["key"]])
        job["failed"] = reason is not None
        if reason is not None:
            failures.append(f"{job['key']}: {reason}")
    for job in load.jobs:
        if job["repeat"] and not job["failed"]:
            reason = gates.cache_hit_identical(records[job["id"]], first_record[job["key"]])
            job["failed"] = reason is not None
            if reason is not None:
                failures.append(f"{job['key']}: {reason}")

    open_jobs = [j for j in load.jobs if j["phase"] == "open"]
    result = {
        "setups": setups,
        "latencies": [j["seen"] - j["due"] for j in open_jobs],
        "throughput_s": open_wall,
        "capacity_per_s": capacity,
        "cost_ratios": [
            records[j["id"]]["result"]["summary"]["total_cost"] / references[j["key"]]
            for j in load.jobs if not j["failed"]
        ],
        "peak_rss_kb": peak_kb,
        "attempted": len(load.jobs),
        "failed": sum(j["failed"] for j in load.jobs),
        "failures": failures,
        "notes": {"open_jobs": n_open, "closed_jobs": n_closed,
                  "open_rate_per_s": OPEN_RATE_PER_S,
                  "cache_hits": sum(j["repeat"] for j in load.jobs)},
    }
    # Throughput counts the whole open-loop phase: its jobs over its wall.
    result["throughput_ops"] = len(open_jobs)
    if trace:
        result["layers"] = _layers(load, records, late_s, tracer)
    return result


def _layers(load: Load, records: dict, late_s: float, tracer) -> tuple[dict, dict]:
    import layers

    solved = [records[j["id"]] for j in load.jobs
              if "id" in j and not j["repeat"] and records[j["id"]].get("started_at")]
    seen = {j["id"]: j["seen_wall"] for j in load.jobs if "seen_wall" in j}

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    # Solver layers are measured on the in-process replay of the same
    # payloads (the service's worker is another process).
    values, calls = layers.from_reports(
        [{"trace": tracer.report(), "build_s": 0.0, "wall_s": 0.0}], 0.0
    )
    values.update({
        "service.post_s": med([j["post_s"] for j in load.jobs if "post_s" in j]),
        "service.queue_wait_s": med([r["started_at"] - r["created_at"] for r in solved]),
        "service.worker_s": med([r["finished_at"] - r["started_at"] for r in solved]),
        "service.notice_s": med([seen[r["id"]] - r["finished_at"] for r in solved]),
        "service.cache_hit_ratio": sum(r.get("via") == "cache" for r in records.values())
        / max(1, len(records)),
        "service.retries": sum(max(0, r.get("attempts", 1) - 1) for r in solved),
        "service.rejected": load.rejected,
        "generator.late_s": late_s,
        # The load's clocks are read outside any span.
        "trace.overhead_frac": 0.0,
    })
    return values, calls
