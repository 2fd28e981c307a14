#!/usr/bin/env python
"""Machine-readable core benchmarks -> BENCH_core.json.

Runs the coin-generation, batch-VSS, coin-exposure, and field-arithmetic
benches and writes wall-clock + ops/sec per configuration, so the perf
trajectory of the hot path is tracked in one diffable artifact.

Each interpolation-heavy bench runs in three cache modes (see
``repro.poly.barycentric``):

* ``off``    — classic Lagrange / full Berlekamp-Welch (the baseline);
* ``fresh``  — Montgomery batch inversion but no cross-call reuse
  (isolates the batch-inversion speedup);
* ``shared`` — the full barycentric weight cache (adds cross-call reuse).

Orthogonally, every protocol bench runs once per available *field
backend* (``repro.fields.backends``): the pure-python reference and,
when numpy imports, the vectorized numpy kernels.  Python-backend rows
keep the historical speedup keys (``{bench}_{config}_{mode}_vs_off``);
numpy rows add ``{bench}_{config}_numpy_{mode}_vs_off`` keys measured
against the *python* off-mode wall, so each ratio is the end-to-end
uplift over the classic baseline.  A ``batch_vss_gfp`` arm over an
NTT-friendly prime field at n=33 adds the ``ntt`` interpolation mode
(transform-based evaluation/interpolation, see ``repro.poly.fast_eval``)
to the matrix.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench_json.py [--smoke] [--out PATH]
        [--baseline PATH] [--max-regression 0.20]

``--smoke`` shrinks every configuration for CI (a correctness/regression
smoke, not a rigorous measurement).  ``--baseline`` compares this run's
speedup ratios against a committed baseline JSON (same flavour:
smoke-vs-smoke or full-vs-full) and fails if any ratio regressed by more
than ``--max-regression`` (default 20%).  Ratios — not wall-clock — are
compared, so the guard is machine-independent: it catches "the cache
stopped helping", not "the CI runner is slower".

Every run also *appends* one timestamped summary row (flavour, python,
speedup ratios) to ``BENCH_history.json`` (override with ``--history``,
disable with ``--no-history``), so the performance trajectory across
commits accumulates in one artifact instead of each run overwriting the
last; CI uploads the file after its smoke run.  Rows are ``schema: 2``:
alongside the speedups they carry the run's provenance manifest
(:mod:`repro.obs.manifest`) and the op-enriched per-phase Coin-Gen
profile, so any two rows are diffable with ``repro diff``; legacy v1
rows (no ``schema`` key) are read unchanged.  ``--check-history``
additionally gates the run against that trajectory: each speedup ratio
must stay within ``--max-regression`` of the *median* of the last
``--history-window`` same-flavour rows (checked before the current row
is appended), so a slow drift the static baseline would absorb still
fails CI.  When that gate trips, the failure output ends with a priced
*attribution report* (:mod:`repro.obs.diffing`) naming the phase and op
class that moved versus the last profiled history row.  The guard also
warns about speedup keys with fewer than ``--history-window``
same-flavour samples once the history is deep enough — a renamed key
cannot quietly restart its median from scratch unnoticed.

``--only <prefix>[,<prefix>...]`` runs a subset of the bench families
(e.g. ``--only async_coin,async_liveness``) so CI legs emit only the
rows they gate; partial runs skip the history append (a partial row
would occupy a median-window slot without most keys) and the static
baseline guard skips keys belonging to families that did not run.

A ``critical_path`` row (per Coin-Gen configuration) records the
happens-before DAG's structural depth, unit-latency makespan, per-phase
critical-path attribution, per-coin exposure latencies, and a 10x
straggler what-if delta — all deterministic (graph-derived, not
wall-clock), so they are directly diffable across commits.  An
``async_coin`` row records the event-driven runtime's delivery-count
makespan and causal depth for the guarded coin exposure under seeded
adversarial schedules (DESIGN.md §11), with its ``delivery_efficiency``
ratio wired into the same ``--check-history`` gate.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.fields import GF2k, GFp  # noqa: E402
from repro.fields.backends import numpy_available  # noqa: E402
from repro.fields.ntt import find_ntt_prime  # noqa: E402
from repro.obs.manifest import RunManifest  # noqa: E402
from repro.poly.barycentric import interpolation_mode  # noqa: E402
from repro.protocols.batch_vss import run_batch_vss  # noqa: E402
from repro.protocols.coin_gen import expose_coin, run_coin_gen  # noqa: E402

MODES = ("off", "fresh", "shared")


def backends():
    """Field backends this interpreter can bench."""
    return ("python", "numpy") if numpy_available() else ("python",)


def timed(fn, repeats=1):
    """Best-of-``repeats`` wall-clock seconds and the last return value."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_field_arithmetic(results, smoke):
    """ops/sec for scalar and bulk field primitives, per backend."""
    import random

    count = 512 if smoke else 4096
    for backend in backends():
        for label, field in (
            ("gf2k16_tables", GF2k(16, backend=backend)),
            ("gf2k32_clmul", GF2k(32, backend=backend)),
        ):
            rng = random.Random(1)
            a = [field.random_nonzero(rng) for _ in range(count)]
            b = [field.random_nonzero(rng) for _ in range(count)]

            cases = {
                "mul_scalar": lambda: [field.mul(x, y) for x, y in zip(a, b)],
                "mul_many": lambda: field.mul_many(a, b),
                "inv_scalar": lambda: [field.inv(x) for x in a],
                "batch_inv": lambda: field.batch_inv(a),
                "dot": lambda: field.dot(a, b),
            }
            for op, fn in cases.items():
                wall, _ = timed(fn, repeats=3)
                results.append(
                    {
                        "bench": "field_arithmetic",
                        "backend": backend,
                        "field": label,
                        "op": op,
                        "elements": count,
                        "wall_s": wall,
                        "ops_per_s": count / wall if wall > 0 else None,
                    }
                )


def bench_batch_vss(results, smoke):
    n, t = 7, 2
    M = 16 if smoke else 64
    for backend in backends():
        field = GF2k(32, backend=backend)
        for mode in MODES:
            with interpolation_mode(mode):
                run_batch_vss(field, n, t, M=M, seed=3)  # warm-up / JIT caches
                wall, (out, _) = timed(
                    lambda: run_batch_vss(field, n, t, M=M, seed=3),
                    repeats=3,
                )
            assert all(r.accepted for r in out.values())
            results.append(
                {
                    "bench": "batch_vss",
                    "backend": backend,
                    "n": n,
                    "t": t,
                    "M": M,
                    "mode": mode,
                    "wall_s": wall,
                    "ops_per_s": M / wall if wall > 0 else None,
                }
            )


def bench_ntt_gfp(results, smoke):
    """Batch-VSS over an NTT-friendly prime field, wide enough (n=33)
    that the ``ntt`` interpolation mode actually takes the transform
    path — the only bench where all four modes differ."""
    q = find_ntt_prime(1 << 20, 4096)
    n, t = 33, 10
    M = 2 if smoke else 8
    for backend in backends():
        field = GFp(q, backend=backend)
        for mode in MODES + ("ntt",):
            with interpolation_mode(mode):
                run_batch_vss(field, n, t, M=M, seed=3)  # warm-up
                # best-of-3 even in smoke: at n=33 the cached modes run in
                # single-digit milliseconds, where a one-shot measurement
                # makes the regression-gate ratios too noisy
                wall, (out, _) = timed(
                    lambda: run_batch_vss(field, n, t, M=M, seed=3),
                    repeats=3,
                )
            assert all(r.accepted for r in out.values())
            results.append(
                {
                    "bench": "batch_vss_gfp",
                    "backend": backend,
                    "q": q,
                    "n": n,
                    "t": t,
                    "M": M,
                    "mode": mode,
                    "wall_s": wall,
                    "ops_per_s": M / wall if wall > 0 else None,
                }
            )


def coin_gen_conformance(n, t, M, field):
    """One *instrumented* Coin-Gen (separate from the timed runs): the
    per-phase wall/message/field-op breakdown plus the lemma-conformance
    audit.  The op counts (adds/muls/invs/interpolations, from the
    per-player step spans) are what ``repro diff`` prices when two rows
    disagree — they are seed-derived, so identical configurations yield
    identical counts."""
    from repro.obs import SpanRecorder
    from repro.obs.audit import audit_coin_gen
    from repro.obs.critical_path import OP_KEYS
    from repro.obs.diffing import profile_from_recorder
    from repro.protocols.context import ProtocolContext

    recorder = SpanRecorder()
    ctx = ProtocolContext.create(field, n, t, seed=5, recorder=recorder)
    out, _ = run_coin_gen(ctx, M=M)
    assert all(o.success for o in out.values())
    ops = profile_from_recorder(recorder).phases
    phases = [
        {
            "phase": span.attrs["phase"],
            "rounds": span.attrs["rounds"],
            "messages": span.attrs["messages"],
            "bits": span.attrs["bits"],
            **{key: ops.get(span.attrs["phase"], {}).get(key, 0)
               for key in OP_KEYS},
            "wall_s": span.duration,
        }
        for span in recorder.phase_spans()
    ]
    return phases, audit_coin_gen(recorder).to_dict()


def bench_coin_gen(results, smoke):
    configs = [(7, 1, 8)] if smoke else [(7, 1, 16), (13, 2, 64)]
    for n, t, M in configs:
        phases, conformance = coin_gen_conformance(n, t, M, GF2k(32))
        for backend in backends():
            field = GF2k(32, backend=backend)
            for mode in MODES:
                with interpolation_mode(mode):
                    run_coin_gen(field, n, t, M=M, seed=5)  # warm-up
                    wall, (out, _) = timed(
                        lambda: run_coin_gen(field, n, t, M=M, seed=5),
                        repeats=3,
                    )
                assert all(o.success for o in out.values())
                row = {
                    "bench": "coin_gen",
                    "backend": backend,
                    "n": n,
                    "t": t,
                    "M": M,
                    "mode": mode,
                    "wall_s": wall,
                    "ops_per_s": M / wall if wall > 0 else None,
                }
                if backend == "python":
                    # the instrumented breakdown/audit is backend-invariant
                    row["phases"] = phases
                    row["conformance"] = conformance
                results.append(row)


def bench_coin_expose(results, smoke):
    """The acceptance bench: expose M coins over one fixed qualified set."""
    n, t, M = (7, 1, 8) if smoke else (13, 2, 64)
    for backend in backends():
        field = GF2k(32, backend=backend)
        outputs, _ = run_coin_gen(field, n, t, M=M, seed=7)
        assert all(o.success for o in outputs.values())

        def expose_all():
            for h in range(M):
                values, _ = expose_coin(field, n, outputs, h, t)
                assert len(set(values.values())) == 1
                assert None not in values.values()

        for mode in MODES:
            with interpolation_mode(mode):
                expose_all()  # warm-up (pre-builds caches in "shared" mode)
                wall, _ = timed(expose_all, repeats=3)
            results.append(
                {
                    "bench": "coin_expose",
                    "backend": backend,
                    "n": n,
                    "t": t,
                    "M": M,
                    "mode": mode,
                    "wall_s": wall,
                    "ops_per_s": M / wall if wall > 0 else None,
                }
            )
    bench_expose_many(results, n, t, (8, 256) if smoke else (16, 256))


def bench_expose_many(results, n, t, batch_sizes):
    """Per-coin wall of one batched ``expose_many`` round at two batch sizes.

    Exposure costs each receiver one inbox pass plus one bulk decode of
    all M coins, so the per-coin wall must not grow with M; the speedup
    key ``coin_expose_many_per_coin_small_vs_large_M`` (small-batch over
    large-batch per-coin wall) drops well below 1 when the inbox read
    goes quadratic in M.  Each row also carries the round's field ops per
    coin (all receivers, warm interpolation cache), which are
    deterministic and equal at both sizes: batching the decodes does not
    change what they compute.  Dealer coins keep Coin-Gen out of the
    timing.
    """
    from repro.core.dprbg import SharedCoinSystem
    from repro.core.seed import TrustedDealer

    field = GF2k(32)
    batches = []
    ops = {}
    for M in batch_sizes:
        dealer = TrustedDealer(field, n, t, seed=11)
        coins = dealer.deal_seed(M)
        expected = [dealer.dealt_secrets[coin.coin_id] for coin in coins]
        system = SharedCoinSystem(field, n, t, seed=12)

        def expose_batch(system=system, coins=coins, expected=expected):
            assert system.expose_many(coins) == expected

        expose_batch()  # warm-up (interpolation weights, field tables)
        before = field.counter.snapshot()
        expose_batch()
        ops[M] = field.counter.delta(before)
        batches.append((M, expose_batch))
    # The sizes take turns, about as many coins each per turn, and each
    # keeps its best wall: a slow spell of the machine then hits both
    # sizes instead of one.  The collector is paused, because its pauses
    # land on one size or the other at random; with either left out the
    # ratio swung between 0.6 and 1.3 on one machine.
    best = {M: float("inf") for M in batch_sizes}
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for M, expose_batch in batches:
                for _ in range(max(1, max(batch_sizes) // M)):
                    start = time.perf_counter()
                    expose_batch()
                    best[M] = min(best[M], time.perf_counter() - start)
    finally:
        gc.enable()
    for M in batch_sizes:
        results.append(
            {
                "bench": "coin_expose_many",
                "n": n,
                "t": t,
                "M": M,
                "wall_s": best[M],
                "per_coin_s": best[M] / M,
                "muls": ops[M].muls / M,
                "adds": ops[M].adds / M,
                "invs": ops[M].invs / M,
                "interpolations": ops[M].interpolations / M,
            }
        )


def bench_critical_path(results, smoke):
    """Structural latency rows off the happens-before DAG (deterministic)."""
    from repro.analysis.rounds import predicted_rounds
    from repro.obs import SpanRecorder
    from repro.obs.causality import CausalRecorder
    from repro.obs.critical_path import (
        CostModel, critical_path, ops_from_recorder, what_if,
    )
    from repro.protocols.context import ProtocolContext

    configs = [(7, 1, 8)] if smoke else [(7, 1, 16), (13, 2, 16)]
    field = GF2k(32)
    for n, t, M in configs:
        recorder = SpanRecorder()
        ctx = ProtocolContext.create(field, n, t, seed=5, recorder=recorder)
        causal = CausalRecorder(n=n).attach(ctx.ensure_bus())
        out, _ = run_coin_gen(ctx, M=M)
        assert all(o.success for o in out.values())
        expose_coin(ctx, outputs=out, h=0)
        graph = causal.graph()
        step_ops, labels = ops_from_recorder(recorder)
        result = critical_path(graph, CostModel(), step_ops)
        straggler = n // 2 + 1
        counterfactual = what_if(graph, CostModel(), player=straggler,
                                 scale=10.0, step_ops=step_ops)
        spans = {s.name: s for s in recorder.by_kind("protocol")}
        iterations = spans["coin_gen"].attrs.get("iterations", 1)
        depths = {labels[run]: graph.depth(run) for run in graph.runs()}
        predicted = {
            label: predicted_rounds(label, t=t, iterations=iterations)
            for label in depths
        }
        assert depths == predicted, (
            f"fault-free DAG depth {depths} != round model {predicted}"
        )
        results.append({
            "bench": "critical_path",
            "n": n, "t": t, "M": M,
            "edges": len(graph.edges),
            "depths": depths,
            "predicted_depths": predicted,
            "makespan_unit_latency": result.makespan,
            "phase_attribution": result.phase_attribution(),
            "coin_exposures": {
                f"run{run}:{coin}": latency
                for (run, coin), latency
                in sorted(result.coin_exposures.items())
            },
            "what_if": {
                "player": straggler,
                "scale": 10.0,
                "makespan_delta": counterfactual.makespan_delta,
            },
        })


def bench_async_coin(results, smoke):
    """Deterministic async-runtime rows: the guarded coin exposure under
    seeded adversarial delivery schedules (DESIGN.md §11).

    Everything recorded is schedule-derived, not wall-clock — delivery
    counts, logical-time makespan, causal-DAG depth — so the row is
    byte-diffable across commits.  ``delivery_efficiency`` is the ratio
    of *necessary* deliveries (every live player needs an ``n - t``
    quorum of shares) to deliveries actually consumed before the run
    terminated; it is wired into the ``--check-history`` gate, so a
    guard-layer change that makes wakes lazier (more deliveries to
    finish the same exposure) fails CI as a regression.
    """
    from repro.net import RandomOrderScheduler
    from repro.obs.bus import EventBus
    from repro.obs.causality import CausalRecorder
    from repro.protocols.async_coin import run_async_coin

    field = GF2k(32)
    configs = [(7, 2, 4)] if smoke else [(7, 2, 8), (10, 3, 8)]
    for n, t, coins in configs:
        total_deliveries = 0
        total_logical = 0
        depths = []
        for index in range(coins):
            bus = EventBus()
            causal = CausalRecorder(n=n).attach(bus)
            outputs, secret, runtime = run_async_coin(
                field, n, t, seed=index,
                scheduler=RandomOrderScheduler(seed=100 + index),
                bus=bus,
            )
            assert set(outputs.values()) == {secret}, "async coin not unanimous"
            total_deliveries += runtime.delivery_count
            total_logical += runtime.logical_time
            depths.append(causal.graph().depth())
        necessary = n * (n - t)  # each player a quorum of expose shares
        results.append({
            "bench": "async_coin",
            "n": n, "t": t, "coins": coins,
            "scheduler": "random-order",
            "deliveries": total_deliveries,
            "logical_time": total_logical,
            "mean_causal_depth": round(sum(depths) / len(depths), 2),
            "delivery_efficiency": round(
                coins * necessary / total_deliveries, 4
            ),
        })


def bench_async_liveness(results, smoke):
    """Deterministic liveness-observatory rows (DESIGN.md §12).

    Guard wait-state gauges over the same seeded schedules as
    ``bench_async_coin``: waits armed, mean/max armed→fired latency in
    logical ticks, peak in-flight pool depth, and the stall count under
    the default watchdog threshold.  Everything is schedule-derived, so
    the rows are byte-diffable across commits; the history gate carries
    ``wait_headroom`` (threshold / max wait — shrinks when guards start
    waiting longer) and ``stall_free`` (1.0 while fault-free runs never
    stall), so a liveness regression in the guard or wake layer fails
    CI even when outputs stay correct.
    """
    from repro.net import RandomOrderScheduler
    from repro.obs import QuorumLatencyRecorder, StallWatchdog
    from repro.obs.bus import EventBus
    from repro.protocols.async_coin import run_async_coin

    field = GF2k(32)
    configs = [(7, 2, 4)] if smoke else [(7, 2, 8), (10, 3, 8)]
    for n, t, coins in configs:
        bus = EventBus()
        latency = QuorumLatencyRecorder().attach(bus)
        watchdog = StallWatchdog(n).attach(bus)
        for index in range(coins):
            outputs, secret, runtime = run_async_coin(
                field, n, t, seed=index,
                scheduler=RandomOrderScheduler(seed=100 + index),
                bus=bus,
            )
            assert set(outputs.values()) == {secret}, \
                "async coin not unanimous"
        assert len(latency.waits()) == coins * n, "guards missing waits"
        assert all(r.fired for r in latency.waits()), "unfired guard"
        results.append({
            "bench": "async_liveness",
            "n": n, "t": t, "coins": coins,
            "scheduler": "random-order",
            "waits": len(latency.waits()),
            "mean_guard_wait": round(latency.mean_wait(), 2),
            "max_guard_wait": latency.max_wait(),
            "max_pool_depth": latency.pool_peak,
            "watchdog_threshold": watchdog.threshold,
            "stalls": len(watchdog.stalls),
        })


def bench_campaign(results, smoke):
    """Deterministic campaign-observatory rows (DESIGN.md §14).

    Runs a seeded clean-only slice of the default scenario space plus
    the known-bad negative controls, and records cell counts, outcome
    tallies, and scenario-space coverage.  Everything is derived from
    seeded executions — no wall-clock — so the row is byte-diffable
    across commits.  Three ratios ride the ``--check-history`` gate,
    all pinned at 1.0 while the stack is healthy: ``clean_rate`` (a
    drop means an in-model scenario started tripping the oracle),
    ``coverage`` (a drop means enumeration lost reachable grid cells),
    and ``detection_rate`` (a drop means the oracle stopped catching a
    seeded breakage — a silent-regression alarm for the oracle itself).
    """
    from repro.campaign import (
        default_space, known_bad_scenarios, run_campaign,
    )

    seeds = (0,) if smoke else (0, 1)
    sched_seeds = (0,) if smoke else (0, 1)
    space = default_space(seeds=seeds, sched_seeds=sched_seeds,
                          clean_only=True)
    cells = space.cells()
    result = run_campaign(cells)
    counts = result.status_counts()
    known_bad = run_campaign(known_bad_scenarios())
    results.append({
        "bench": "campaign",
        "n": 7, "t": 1,
        "cells": len(cells),
        "clean": counts["clean"],
        "violated": counts["violated"],
        "errors": counts["error"],
        "coverage_percent": round(result.coverage.percentage(space), 2),
        "known_bad_cells": len(known_bad.outcomes),
        "known_bad_detected": len(known_bad.violated),
    })


#: bench families, keyed by the prefix their speedup keys start with —
#: the ``--only`` tokens and the baseline-guard skip both resolve here
BENCHES = {
    "field": bench_field_arithmetic,
    "batch_vss": bench_batch_vss,
    "batch_vss_gfp": bench_ntt_gfp,
    "coin_gen": bench_coin_gen,
    "coin_expose": bench_coin_expose,
    "critical_path": bench_critical_path,
    "async_coin": bench_async_coin,
    "async_liveness": bench_async_liveness,
    "campaign": bench_campaign,
}


def key_bench(key):
    """Which bench family a speedup key belongs to (longest prefix wins,
    so ``batch_vss_gfp_...`` resolves before ``batch_vss``)."""
    for name in sorted(BENCHES, key=len, reverse=True):
        if key.startswith(name):
            return name
    return None


def speedups(results):
    """Wall-clock ratios vs the python-backend off-mode baseline.

    Python-backend rows keep the historical key shape
    (``{bench}_n{n}_t{t}_M{M}_{mode}_vs_off``); numpy rows add
    ``..._numpy_{mode}_vs_off`` keys — every ratio's denominator is that
    configuration's *python off* wall, so numpy keys read as end-to-end
    uplift over the classic baseline, not over numpy-off.  Bulk field
    kernels additionally get direct cross-backend ratios
    (``field_{label}_{op}_numpy_vs_python``).
    """
    table = {}
    for row in results:
        if "mode" not in row:
            continue
        key = (row["bench"], row.get("n"), row.get("t"), row.get("M"))
        backend = row.get("backend", "python")
        table.setdefault(key, {})[(backend, row["mode"])] = row["wall_s"]
    out = {}
    for (bench, n, t, M), walls in table.items():
        base = walls.get(("python", "off"))
        if not base:
            continue
        label = f"{bench}_n{n}_t{t}_M{M}"
        for (backend, mode), wall in sorted(walls.items()):
            if mode == "off" and backend == "python":
                continue
            if wall <= 0:
                continue
            infix = "" if backend == "python" else f"_{backend}"
            out[f"{label}{infix}_{mode}_vs_off"] = round(base / wall, 2)
    kernels = {}
    for row in results:
        if row.get("bench") != "field_arithmetic":
            continue
        key = (row["field"], row["op"])
        kernels.setdefault(key, {})[row.get("backend", "python")] = \
            row["wall_s"]
    for (label, op), walls in sorted(kernels.items()):
        if op.endswith("_scalar"):
            continue  # scalar paths never dispatch to a backend
        if label != "gf2k32_clmul":
            # only the clmul kernels get gated ratios: the gf2k16 gather
            # kernels hover near parity at bench sizes and their
            # microsecond-scale walls are far too noisy for a 20% gate
            continue
        if "python" in walls and "numpy" in walls and walls["numpy"] > 0:
            out[f"field_{label}_{op}_numpy_vs_python"] = round(
                walls["python"] / walls["numpy"], 2
            )
    per_coin = sorted((row["M"], row["per_coin_s"]) for row in results
                      if row.get("bench") == "coin_expose_many")
    if len(per_coin) == 2 and per_coin[1][1] > 0:
        # below 1 when a bigger batch costs more per coin
        out["coin_expose_many_per_coin_small_vs_large_M"] = round(
            per_coin[0][1] / per_coin[1][1], 2
        )
    for row in results:
        if row.get("bench") != "async_coin":
            continue
        # deterministic (schedule-derived) ratio; in the history gate a
        # drop means the async runtime started needing more deliveries
        key = (f"async_coin_n{row['n']}_t{row['t']}"
               f"_c{row['coins']}_delivery_efficiency")
        out[key] = row["delivery_efficiency"]
    for row in results:
        if row.get("bench") != "async_liveness":
            continue
        # schedule-derived liveness ratios, bigger is better: headroom
        # shrinks when guards wait longer, stall_free drops to 0.0 the
        # moment a fault-free run trips the default watchdog
        label = f"async_liveness_n{row['n']}_t{row['t']}_c{row['coins']}"
        if row["max_guard_wait"] > 0:
            out[f"{label}_wait_headroom"] = round(
                row["watchdog_threshold"] / row["max_guard_wait"], 2
            )
        out[f"{label}_stall_free"] = 1.0 if row["stalls"] == 0 else 0.0
    for row in results:
        if row.get("bench") != "campaign":
            continue
        # deterministic observatory health ratios, all pinned at 1.0:
        # any drop is a protocol, enumeration, or oracle regression
        label = f"campaign_n{row['n']}_t{row['t']}_c{row['cells']}"
        out[f"{label}_clean_rate"] = round(row["clean"] / row["cells"], 4)
        out[f"{label}_coverage"] = round(row["coverage_percent"] / 100, 4)
        if row["known_bad_cells"]:
            out[f"{label}_detection_rate"] = round(
                row["known_bad_detected"] / row["known_bad_cells"], 4
            )
    return out


def append_history(payload, history_path):
    """Append one summary row to the running BENCH_history.json trajectory.

    The history file is a JSON object ``{"rows": [...]}``.  Rows are
    ``schema: 2``: timestamp + speedup ratios plus the run's provenance
    manifest and its op-enriched per-phase Coin-Gen profile, so any two
    rows feed ``repro diff`` directly.  Legacy v1 rows (no ``schema``
    key, no manifest/profile) coexist in the same file and are read
    unchanged by every consumer.  A corrupt or legacy *file* is reset
    rather than crashing the bench.
    """
    path = pathlib.Path(history_path)
    try:
        history = json.loads(path.read_text())
        rows = history["rows"]
        assert isinstance(rows, list)
    except (OSError, ValueError, KeyError, AssertionError):
        history, rows = {"rows": []}, []
        history["rows"] = rows
    row = {
        "schema": 2,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "smoke": payload["smoke"],
        "python": payload["python"],
        "speedups": payload["speedups"],
    }
    if payload.get("manifest"):
        row["manifest"] = payload["manifest"]
    if payload.get("profile"):
        row["profile"] = payload["profile"]
    rows.append(row)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return len(rows)


def check_regressions(payload, baseline_path, max_regression, only=None):
    """Compare speedup ratios against a committed baseline.

    Returns a list of human-readable failure strings (empty = pass).
    Keys are matched exactly: every baseline speedup key must exist in
    the current run (the configurations are deterministic per flavour),
    and each current ratio must be >= baseline * (1 - max_regression).
    Numpy-backend keys are skipped when the current run has no numpy —
    the pure-python CI leg checks only the python rows.  With ``only``
    (a ``--only`` bench-family list), baseline keys belonging to
    families that did not run are skipped instead of reported missing.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    failures = []
    if bool(baseline.get("smoke")) != bool(payload["smoke"]):
        return [
            "baseline flavour mismatch: baseline smoke="
            f"{baseline.get('smoke')} vs current smoke={payload['smoke']} "
            "(compare smoke-vs-smoke or full-vs-full only)"
        ]
    current = payload["speedups"]
    available = set(payload.get("backends", ("python",)))
    for key, base in sorted(baseline.get("speedups", {}).items()):
        if "_numpy" in key and "numpy" not in available:
            # the baseline is recorded with numpy installed; a pure-python
            # leg legitimately has no numpy rows to compare
            print(f"  {key}: skipped (numpy backend unavailable)")
            continue
        if only is not None and key_bench(key) not in only:
            print(f"  {key}: skipped (--only)")
            continue
        if key not in current:
            failures.append(f"{key}: present in baseline but missing from "
                            "this run (configuration drift?)")
            continue
        floor = base * (1 - max_regression)
        status = "ok" if current[key] >= floor else "REGRESSED"
        print(f"  {key}: {current[key]}x vs baseline {base}x "
              f"(floor {floor:.2f}x) {status}")
        if current[key] < floor:
            failures.append(
                f"{key}: {current[key]}x < floor {floor:.2f}x "
                f"(baseline {base}x, tolerance {max_regression:.0%})"
            )
    return failures


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def check_history(payload, history_path, window, max_regression):
    """Compare speedup ratios against the rolling history median.

    The static ``--baseline`` guard catches one bad commit; this guard
    catches slow drift.  Each current ratio must be >= ``(1 -
    max_regression)`` times the *median* of that key over the last
    ``window`` same-flavour history rows (median, not mean, so one noisy
    CI run cannot poison the reference).  Must run *before* the current
    row is appended, or the run would vouch for itself.  Returns failure
    strings (empty = pass); no same-flavour rows is a pass.
    """
    try:
        rows = json.loads(pathlib.Path(history_path).read_text())["rows"]
        assert isinstance(rows, list)
    except (OSError, ValueError, KeyError, AssertionError):
        print("history guard: no readable history, skipping")
        return []
    flavour = [r for r in rows
               if bool(r.get("smoke")) == bool(payload["smoke"])]
    recent = flavour[-window:]
    if not recent:
        print("history guard: no same-flavour rows yet, skipping")
        return []
    failures = []
    current = payload["speedups"]
    if len(flavour) >= window:
        # a key with a thin sample set in a *deep* history means it was
        # renamed or newly added — its median gate restarted from
        # scratch, so say so rather than letting a rename quietly
        # disable the guard for that configuration
        thin = sorted(
            key for key in current
            if sum(1 for r in recent
                   if key in r.get("speedups", {})) < window
        )
        if thin:
            print(f"history guard WARNING: fewer than {window} "
                  "same-flavour samples for: " + ", ".join(thin)
                  + " (renamed or newly added key? the median gate is "
                  "weak until the window refills)")
    for key in sorted(current):
        samples = [r["speedups"][key] for r in recent
                   if key in r.get("speedups", {})]
        if not samples:
            continue
        median = _median(samples)
        floor = median * (1 - max_regression)
        status = "ok" if current[key] >= floor else "REGRESSED"
        print(f"  {key}: {current[key]}x vs median {median:.2f}x of last "
              f"{len(samples)} (floor {floor:.2f}x) {status}")
        if current[key] < floor:
            failures.append(
                f"{key}: {current[key]}x < floor {floor:.2f}x (median of "
                f"last {len(samples)} runs {median:.2f}x, tolerance "
                f"{max_regression:.0%})"
            )
    return failures


def history_attribution(payload, history_path):
    """Attribute a history-gate failure to per-phase op deltas.

    Diffs the current run's op-enriched Coin-Gen profile against the
    most recent same-flavour history row that carries one, and returns
    the priced attribution report ("clique-phase muls +6615, 38% of the
    delta") — or ``None`` when no profiled (schema >= 2) reference row
    exists yet, e.g. over a purely legacy v1 history.
    """
    from repro.obs.diffing import diff_profiles, profile_from_bench_phases

    current = payload.get("profile") or {}
    if not current:
        return None
    try:
        rows = json.loads(pathlib.Path(history_path).read_text())["rows"]
        assert isinstance(rows, list)
    except (OSError, ValueError, KeyError, AssertionError):
        return None
    reference = None
    for row in reversed(rows):
        if bool(row.get("smoke")) != bool(payload["smoke"]):
            continue
        if row.get("profile"):
            reference = row
            break
    if reference is None:
        return None
    ref_manifest = (RunManifest.from_dict(reference["manifest"])
                    if reference.get("manifest") else None)
    cur_manifest = (RunManifest.from_dict(payload["manifest"])
                    if payload.get("manifest") else None)
    sections = []
    for label in sorted(set(current) & set(reference["profile"])):
        diff = diff_profiles(
            profile_from_bench_phases(reference["profile"][label],
                                      manifest=ref_manifest,
                                      source="history"),
            profile_from_bench_phases(current[label],
                                      manifest=cur_manifest,
                                      source="current"),
        )
        sections.append(f"== {label} ==\n"
                        + diff.report(label_a="history", label_b="current"))
    return "\n\n".join(sections) or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configurations for CI")
    parser.add_argument("--out", default=None,
                        help="output path (default: <repo>/BENCH_core.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to guard speedups against")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="max allowed fractional speedup regression "
                             "vs the baseline (default 0.20)")
    parser.add_argument("--history", default=None,
                        help="history file to append the summary row to "
                             "(default: <repo>/BENCH_history.json)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip appending to the history file")
    parser.add_argument("--check-history", action="store_true",
                        help="fail if any speedup regresses by more than "
                             "--max-regression vs the median of the last "
                             "--history-window same-flavour history rows")
    parser.add_argument("--history-window", type=int, default=5,
                        help="history rows the rolling median looks back "
                             "over (default 5)")
    parser.add_argument("--only", default=None,
                        help="comma-separated bench families to run "
                             f"(choose from: {', '.join(BENCHES)}); "
                             "partial runs skip the history append")
    args = parser.parse_args(argv)

    only = None
    if args.only:
        only = [token.strip() for token in args.only.split(",")
                if token.strip()]
        unknown = [token for token in only if token not in BENCHES]
        if unknown:
            parser.error(f"--only: unknown bench {', '.join(unknown)} "
                         f"(choose from: {', '.join(BENCHES)})")

    out_path = pathlib.Path(
        args.out
        if args.out
        else pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"
    )

    results = []
    for name, bench in BENCHES.items():
        if only is None or name in only:
            bench(results, args.smoke)

    payload = {
        "generated_by": "benchmarks/emit_bench_json.py",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "backends": list(backends()),
        "modes": {
            "off": "classic Lagrange + full Berlekamp-Welch (baseline)",
            "fresh": "Montgomery batch inversion, no cross-call cache",
            "shared": "batch inversion + cached barycentric weights",
            "ntt": "shared cache + transform-based eval/interpolation "
                   "where applicable (prime fields, >= 32 points)",
        },
        "results": results,
        "speedups": speedups(results),
        # provenance: one manifest for the whole matrix — interpolation
        # is omitted (every mode is swept) and backend lists all benched
        "manifest": RunManifest.capture(
            protocol="bench",
            backend=",".join(backends()),
            interpolation=None,
        ).to_dict(),
    }
    profile = {
        f"coin_gen_n{row['n']}_t{row['t']}_M{row['M']}": row["phases"]
        for row in results
        if row.get("bench") == "coin_gen" and "phases" in row
    }
    if profile:
        payload["profile"] = profile
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    history_path = pathlib.Path(
        args.history
        if args.history
        else pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_history.json"
    )
    history_failures = []
    if args.check_history:
        print(f"history guard vs last {args.history_window} rows of "
              f"{history_path} (tolerance {args.max_regression:.0%}):")
        history_failures = check_history(
            payload, history_path, args.history_window, args.max_regression
        )
    if not args.no_history:
        if only is not None:
            # a partial row would occupy a median-window slot while
            # missing most keys, thinning every other key's sample set
            print("history append skipped (--only partial run)")
        else:
            row_count = append_history(payload, history_path)
            print(f"appended history row {row_count} to {history_path}")

    print(f"wrote {out_path}")
    for key, factor in payload["speedups"].items():
        print(f"  {key}: {factor}x")
    expose_key = [k for k in payload["speedups"] if k.startswith("coin_expose")
                  and k.endswith("shared_vs_off")
                  and "numpy" not in k]
    if expose_key and not args.smoke:
        factor = payload["speedups"][expose_key[0]]
        status = "OK" if factor >= 2.0 else "BELOW TARGET"
        print(f"coin exposure cached-vs-uncached: {factor}x ({status}, target >= 2x)")
    best_gen = max(
        (row["ops_per_s"] for row in results
         if row["bench"] == "coin_gen" and row.get("n") == 13
         and row["ops_per_s"]),
        default=None,
    )
    if best_gen and not args.smoke:
        status = "OK" if best_gen >= 883.0 else "BELOW TARGET"
        print(f"coin_gen n=13 M=64 best: {best_gen:.0f} ops/s "
              f"({status}, target >= 883 = 10x the PR-5 off baseline)")

    if args.baseline:
        print(f"regression guard vs {args.baseline} "
              f"(tolerance {args.max_regression:.0%}):")
        failures = check_regressions(payload, args.baseline,
                                     args.max_regression, only=only)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression guard: all speedups within tolerance")

    if history_failures:
        for failure in history_failures:
            print(f"HISTORY REGRESSION: {failure}", file=sys.stderr)
        attribution = history_attribution(payload, history_path)
        if attribution:
            print("regression attribution (current vs last profiled "
                  "history row):", file=sys.stderr)
            print(attribution, file=sys.stderr)
        else:
            print("regression attribution unavailable: no profiled "
                  "(schema >= 2) same-flavour history row yet",
                  file=sys.stderr)
        return 1
    if args.check_history:
        print("history guard: all speedups within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
