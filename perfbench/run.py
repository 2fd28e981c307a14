"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload beacon --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``perfbench/README.md``): ``beacon``, ``batch_expose``,
``campaign``.

``--trace 0`` measures the end-to-end metrics with tracing off: whole
passes of the workload's fixed units run until at least ``--seconds`` of
operations have been measured.  Set-up is timed here and in four fresh
set-up-only processes started between units (median reported).
``--trace 1`` runs the fixed units once untraced, in a child process, and
once traced here, and reports the per-layer metrics, the tracing overhead
(traced time / untraced time) and the spans, written to ``perfbench/out``.

Host speed drifts by tens of percent over seconds to minutes on shared
machines, and it moves every timing of a run together.  A short fixed
pure-python calibration loop therefore runs before and after every unit
of work (outside the timed operations), and every end-to-end time is
scaled to the speed of a reference host on which that loop takes
``CAL_REF_S``.  Unscaled wall-clock figures are printed and recorded too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the program source is missing.
"""

import time

CAL_ITERATIONS = 50_000


def calibration_s():
    """Time of a fixed pure-python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


_START_CALIBRATION_S = calibration_s()
_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150
#: the calibration loop's time on the reference host (2-vCPU Xeon VM,
#: Python 3.11.7, in a typical stretch of its load)
CAL_REF_S = 0.0075

clock = time.perf_counter


def use_checkout_source():
    """Import ``repro`` from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


# -- measurement helpers -------------------------------------------------------

def peak_rss_mb():
    """The process's peak resident set size so far, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it.  Below 22 samples no percentile above the
    median qualifies, and the maximum is reported instead."""
    ordered = sorted(samples)
    count = len(ordered)
    index = count - 11 if count >= 22 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def environment(workload, seed, tally):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.fields.gf2k import GF2k

    field = getattr(workload, "field", None) or GF2k(8)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "field_backend": field.backend_name,
        "nproc": os.cpu_count(),
        "seed": seed,
        "calibration_s": statistics.median(tally.calibrations),
        "calibration_range_s": [min(tally.calibrations), max(tally.calibrations)],
    }


def child(args, probe):
    """Run this script as a fresh process in ``probe`` mode; its JSON line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--probe", probe,
    ]
    if args.small:
        command.append("--small")
    done = subprocess.run(
        command, cwd=str(ROOT), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{probe} probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def set_up(args):
    """Build the workload; returns it with its set-up time, raw and scaled
    to the reference host speed."""
    use_checkout_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, small=args.small)
    raw = clock() - _START
    scale = 2 * CAL_REF_S / (_START_CALIBRATION_S + calibration_s())
    return workload, {"raw_s": raw, "s": raw * scale}


class Tally:
    """Operations, failures and latencies over a sequence of units."""

    def __init__(self):
        self.latencies = []      # wall-clock, per operation
        self.scaled = []         # the same, at the reference host speed
        self.calibrations = []
        self.unit_s = []
        self.failed = 0
        self.wrong = 0
        self.items = 0
        self.units = 0
        self.notes = []

    def add(self, step, before, after):
        """Record one unit timed between calibrations ``before``/``after``."""
        scale = 2 * CAL_REF_S / (before + after)
        self.latencies.extend(step.latencies)
        self.scaled.extend(latency * scale for latency in step.latencies)
        self.calibrations.append(after)
        self.unit_s.append(sum(step.latencies))
        self.failed += step.failed
        self.wrong += step.wrong
        self.items += step.items
        self.units += 1
        self.notes.extend(step.notes)

    @property
    def measured_s(self):
        return sum(self.unit_s)

    @property
    def scaled_s(self):
        return sum(self.scaled)


def run_units(workload, more, tracer=None, between=None):
    """Run units while ``more(tally)`` holds, each between two calibrations.

    ``between(tally)`` runs after each unit; it returns True when it used
    the machine, so that the next unit gets a fresh calibration.
    """
    tally = Tally()
    before = calibration_s()
    while more(tally):
        step = workload.step(tracer)
        after = calibration_s()
        tally.add(step, before, after)
        before = after
        if between is not None and between(tally):
            before = calibration_s()
    return tally


def fixed_pass(workload, tracer=None):
    return run_units(
        workload, lambda tally: tally.units < workload.fixed_units, tracer
    )


def count_summary(workload, counts):
    """Deterministic per-coin counts from the program's NetworkMetrics."""
    coins = counts.get("coins", 0)
    if "messages" not in counts or not coins:
        return {}
    return {
        "messages_per_coin": counts["messages"] / coins,
        "bits_per_coin": counts["bits"] / coins,
        "messages_per_coin_per_n": counts["messages"] / coins / workload.n,
        "adds_per_coin": counts["adds"] / coins,
        "muls_per_coin": counts["muls"] / coins,
        "invs_per_coin": counts["invs"] / coins,
    }


def timing_metrics(tally, scaled):
    latencies = tally.scaled if scaled else tally.latencies
    total = tally.scaled_s if scaled else tally.measured_s
    tail_s, tail_pct, samples = tail(latencies)
    return {
        "throughput_per_s": tally.items / total,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }, tail_pct, samples


# -- untraced run: end-to-end metrics ----------------------------------------

def run_untraced(args):
    workload, own_setup = set_up(args)
    if args.probe == "setup":
        return own_setup
    workload.prepare()
    if args.probe == "fixed":
        from tracer import import_targets

        import_targets()
        tally = fixed_pass(workload)
        return {
            "scaled_s": tally.scaled_s, "counts": workload.counts(),
            "failed": tally.failed, "wrong": tally.wrong,
        }

    fixed = workload.fixed_units
    setups = [own_setup]
    at_fixed = {}

    def more(tally):
        return (tally.units < fixed or tally.units % fixed
                or tally.measured_s < args.seconds)

    def between(tally):
        if tally.units == fixed:
            at_fixed.update(rss_mb=peak_rss_mb(), counts=workload.counts())
        # set-up probes run between units, spread over the run, so that
        # their median does not hang on one stretch of machine load
        due = SETUP_PROBES * min(1.0, tally.measured_s / args.seconds)
        probed = False
        while len(setups) - 1 < due:
            setups.append(child(args, "setup"))
            probed = True
        return probed

    tally = run_units(workload, more, between=between)
    timing, tail_pct, samples = timing_metrics(tally, scaled=True)
    metrics = {
        "setup_s": (statistics.median(s["s"] for s in setups), "s"),
        "throughput_per_s": (timing["throughput_per_s"], "1/s"),
        "op_p50_ms": (timing["op_p50_ms"], "ms"),
        "op_tail_ms": (timing["op_tail_ms"], "ms"),
        "peak_rss_mb": (at_fixed["rss_mb"], "MB"),
    }
    wall, _, _ = timing_metrics(tally, scaled=False)
    wall["setup_s"] = statistics.median(s["raw_s"] for s in setups)
    detail = {
        "wall_clock": wall,
        "setup_samples": setups,
        "tail_percentile": tail_pct,
        "latency_samples": samples,
        "units": tally.units,
        "fixed_units": fixed,
        "measured_s": tally.measured_s,
        "unit_s": tally.unit_s,
        "calibrations_s": tally.calibrations,
        "items": tally.items,
        "counts_after_fixed_units": at_fixed["counts"],
        "per_coin": count_summary(workload, at_fixed["counts"]),
    }
    if hasattr(workload, "stretch_s"):
        detail["stretch_share"] = workload.stretch_s / tally.measured_s
    return finish(args, workload, tally, metrics, detail)


# -- traced run: per-layer metrics -------------------------------------------

SPANS = [
    "core.stretch", "core.expose",
    "net.lockstep_run", "net.async_run", "net.codec.encode", "net.codec.decode",
    "protocols.filter_tag", "protocols.decode_exposed",
    "poly.berlekamp_welch", "poly.full_decode", "poly.interp",
    "poly.evaluate_polys",
    "fields.kernel", "fields.construct",
    "obs.flight.dumps", "obs.flight.loads", "obs.flight.diff",
    "obs.flight.replay", "obs.forensics.analyze_log",
    "campaign.run_cell", "campaign.oracle",
]


def layer_metrics(tracer, workload, overhead):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    coins = workload.counts()["coins"]
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = (calls[span], "count")
        metrics[f"{span}.self_s"] = (self_s[span], "s")
    for direction in ("encode", "decode"):
        name = f"net.codec.{direction}.bytes"
        metrics[name] = (counts[name], "bytes")
    metrics.update({
        "net.messages": (counts["net.messages"], "count"),
        "net.bits": (counts["net.bits"], "bits"),
        "net.messages_per_coin": (ratio(counts["net.messages"], coins), "msg/coin"),
        "net.bits_per_coin": (ratio(counts["net.bits"], coins), "bits/coin"),
        "protocols.filter_tag.payloads_scanned": (
            counts["protocols.filter_tag.payloads_scanned"], "count"),
        "protocols.filter_tag.match_ratio": (ratio(
            counts["protocols.filter_tag.matches"],
            counts["protocols.filter_tag.payloads_scanned"]), "ratio"),
        "poly.optimistic_ratio": (1.0 - ratio(
            calls["poly.full_decode"], calls["poly.berlekamp_welch"])
            if calls["poly.berlekamp_welch"] else 0.0, "ratio"),
        "poly.interp_cache.hit_ratio": (ratio(
            counts["poly.interp_cache.hits"],
            counts["poly.interp_cache.hits"] + counts["poly.interp_cache.misses"]),
            "ratio"),
        "fields.kernel.elements": (counts["fields.kernel.elements"], "count"),
        "fields.ops.adds": (ratio(counts["fields.ops.adds"], coins), "ops/coin"),
        "fields.ops.muls": (ratio(counts["fields.ops.muls"], coins), "ops/coin"),
        "fields.ops.invs": (ratio(counts["fields.ops.invs"], coins), "ops/coin"),
        "fields.construct.s": (tracer.total_s["fields.construct"], "s"),
        "campaign.cells.violated": (getattr(workload, "violated", 0), "count"),
        "campaign.cells.errored": (getattr(workload, "errored", 0), "count"),
        "trace.overhead": (overhead, "x"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


def deterministic_counts(tracer, workload):
    """Counts that must repeat exactly between two same-seed passes."""
    counts = dict(workload.counts())
    counts.update({f"calls.{k}": v for k, v in sorted(tracer.calls.items())})
    for key in ("net.messages", "net.bits", "fields.ops.adds",
                "fields.ops.muls", "fields.ops.invs",
                "protocols.filter_tag.payloads_scanned",
                "fields.kernel.elements", "poly.interp_cache.hits"):
        counts[key] = tracer.counts[key]
    return counts


def traced_pass(workload):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tally = fixed_pass(workload, tracer)
    finally:
        tracer.uninstall()
    return tracer, tally


def run_traced(args):
    workload, _ = set_up(args)
    workload.prepare()
    baseline = child(args, "fixed")
    tracer, tally = traced_pass(workload)
    overhead = tally.scaled_s / baseline["scaled_s"]
    metrics = layer_metrics(tracer, workload, overhead)

    # same seed, same work: the program's own counts must not move, and
    # the tracer's message count must equal the program's where it has one
    program = workload.counts()
    mismatches = [
        key for key, value in baseline["counts"].items()
        if program.get(key) != value
    ]
    if "messages" in program and program["messages"] != tracer.counts["net.messages"]:
        mismatches.append("net.messages vs NetworkMetrics")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    detail = {
        "untraced_scaled_s": baseline["scaled_s"],
        "traced_scaled_s": tally.scaled_s,
        "traced_wall_s": tally.measured_s,
        "hook_s": tracer.hook_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "deterministic_counts": deterministic_counts(tracer, workload),
        "count_mismatches": mismatches,
        "fixed_units": workload.fixed_units,
    }
    return finish(args, workload, tally, metrics, detail,
                  extra_wrong=len(mismatches) + baseline["wrong"])


# -- output ---------------------------------------------------------------------

ALIASES = {
    "beacon": {"throughput_per_s": "coins_per_s", "op_p50_ms": "toss_p50_ms",
               "op_tail_ms": "toss_tail_ms"},
    "batch_expose": {"throughput_per_s": "coins_per_s",
                     "op_p50_ms": "batch_p50_ms", "op_tail_ms": "batch_tail_ms"},
    "campaign": {"throughput_per_s": "cells_per_s", "op_p50_ms": "cell_p50_ms",
                 "op_tail_ms": "cell_tail_ms"},
}


def finish(args, workload, tally, metrics, detail, extra_wrong=0):
    correct = tally.wrong == 0 and extra_wrong == 0
    env = environment(workload, args.seed, tally)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    aliases = ALIASES[args.workload]
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{alias}")
    if "tail_percentile" in detail:
        print(f"  tail = p{detail['tail_percentile']:.2f} of "
              f"{detail['latency_samples']} samples; times scaled to the "
              f"reference host (calibration {CAL_REF_S * 1e3:g} ms)")
        print("  wall clock, unscaled: " + "  ".join(
            f"{aliases.get(k, k)}={v:.6g}" for k, v in detail["wall_clock"].items()))
    for name, value in detail.get("per_coin", {}).items():
        print(f"  {name:<40} {value:>14.6g}")
    if detail.get("per_coin"):
        print("  paper: amortized O(n) messages and O(n^2 log k) additions "
              "per coin; messages_per_coin_per_n is the constant")
    for note, times in Counter(tally.notes).items():
        print(f"  failed x{times}: {note}")
    for key in detail.get("count_mismatches", ()):
        print(f"  count mismatch: {key}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "detail": detail,
        "failures": tally.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {
        "correct": correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": record["metrics"],
    }


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("beacon", "batch_expose", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    parser.add_argument("--probe", choices=("setup", "fixed"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
