#!/usr/bin/env python
"""Watch one Coin-Gen execution round by round.

Attaches a tracer to the context's event bus and prints the protocol's
timeline — the concrete shape behind Fig. 5's step list — together with
per-phase message totals and the per-player cost meter that backs the
benchmark harness.

Run:  python examples/trace_walkthrough.py
"""

import random

from repro.fields import GF2k
from repro.net.trace import Tracer
from repro.protocols.coin_gen import coin_gen_program, make_seed_coins
from repro.protocols.context import ProtocolContext


def main() -> None:
    field = GF2k(32)
    n, t, M = 7, 1, 4

    ctx = ProtocolContext.create(field, n, t, enforce_codec=True)
    tracer = Tracer().attach(ctx.ensure_bus())
    seeds = make_seed_coins(field, n, t, 4, random.Random(1))
    network = ctx.network(allow_broadcast=False)
    programs = {
        pid: coin_gen_program(
            field, n, t, pid, M, seeds[pid], random.Random(pid)
        )
        for pid in range(1, n + 1)
    }
    outputs = network.run(programs)
    assert all(o.success for o in outputs.values())

    print(f"Coin-Gen: n={n}, t={t}, M={M}, field GF(2^32)\n")
    print(tracer.timeline())

    print("\nmessage totals by protocol phase:")
    for tag, count in sorted(tracer.messages_by_tag().items()):
        print(f"  {tag:24s} {count:5d}")

    print("\ncost meter:")
    summary = network.metrics.summary()
    for key in ("rounds", "messages", "bits"):
        print(f"  {key:10s} {summary[key]:,}")
    print(f"  wire bytes {network.metrics.wire_bytes:,} "
          f"(binary codec ground truth)")
    busiest = network.metrics.max_player_ops()
    print(f"  busiest player: {busiest.adds:,} adds, {busiest.muls:,} muls, "
          f"{busiest.interpolations} interpolations")

    print(f"\nagreed clique: {outputs[1].clique}, "
          f"iterations: {outputs[1].iterations}")
    print(f"{M} sealed coins ready: "
          f"{', '.join(c.coin_id for c in outputs[1].coins)}")


if __name__ == "__main__":
    main()
