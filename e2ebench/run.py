"""Run one benchmark workload and print its metrics.

    python3 e2ebench/run.py --workload plan-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work with outside-in spans and prints the
per-layer metrics instead.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it (``# ...``) record the host, the program digest and any gate
failure.  See README.md for the workloads, the metrics and the bounds.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import common

common.apply_thread_caps()


def end_to_end(result: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, timings scaled to the reference host speed.

    ``slowdown`` is the run's median calibration-kernel time over its
    reference time; whole-run times are divided by it and rates
    multiplied.  Where a workload gauges the host around each operation
    (``op_slowdowns``), each latency is scaled by its own gauge.  A
    workload that times no kernel is reported unscaled.
    """
    calibration = result.get("calibration")
    slowdown = common.median(calibration) / common.CAL_REF_S if calibration else 1.0
    latencies = result["latencies"]
    scaled = [
        t / s for t, s in zip(latencies, result.get("op_slowdowns") or [slowdown] * len(latencies))
    ]
    throughput = result.get("throughput_ops", result["attempted"]) / result["throughput_s"]
    capacity = result.get("capacity_per_s", throughput)
    tail_value, pct, n = common.tail(scaled)
    values = {
        "setup_s": (common.median(result["setups"]) / slowdown, "s"),
        "p50_s": (common.median(scaled), "s"),
        "tail_s": (tail_value, "s"),
        "throughput_per_s": (throughput * slowdown, "1/s"),
        # Outside the service the work runs back to back, which is
        # already a saturated closed loop of one caller.
        "capacity_per_s": (capacity * slowdown, "1/s"),
    }
    raw = {
        "setup_s": common.median(result["setups"]),
        "p50_s": common.median(latencies),
        "tail_s": common.tail(latencies)[0],
        "throughput_per_s": throughput,
        "capacity_per_s": capacity,
    }
    values["cost_ratio"] = (statistics.fmean(result["cost_ratios"]), "ratio")
    values["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB")
    notes = {
        "host_slowdown": slowdown,
        "raw": raw,
        "tail_s": f"p{pct} of {n} operations",
        "setup_samples_s": [round(x, 3) for x in result["setups"]],
    }
    return {k: common.metric(v, u) for k, (v, u) in values.items()}, notes


def per_layer(workload: str, result: dict) -> tuple[dict, list[str]]:
    import layers
    import tracer

    if "layers" in result:
        values, calls = result["layers"]
    else:
        values, calls = layers.from_reports(result["reports"], tracer.per_call_overhead_s())
    problems = layers.coverage_failures(workload, calls)
    metrics = {name: common.metric(values.get(name, 0.0), unit)
               for name, unit in layers.UNITS.items()}
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.require_program()
        import workloads

        if args.workload not in workloads.MODULES:
            raise common.BenchError(
                f"unknown workload {args.workload!r}; "
                f"expected one of {', '.join(workloads.MODULES)}"
            )
        steal = common.StealMeter()
        env = common.environment_record()
        result = workloads.MODULES[args.workload].run(
            args.seed, args.seconds, bool(args.trace)
        )
    except common.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    failures = list(result["failures"])
    if args.trace:
        metrics, problems = per_layer(args.workload, result)
        failures += [f"layer coverage: {p}" for p in problems]
        notes: dict = {}
    else:
        metrics, notes = end_to_end(result)
    env["steal_share"] = steal.share()
    notes = {"env": env, **result["notes"], **notes}
    if failures:
        notes["failures"] = failures
    emit_failed = result["failed"] + (len(failures) - len(result["failures"]))
    common.emit(not failures and result["failed"] == 0, result["attempted"],
                emit_failed, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
