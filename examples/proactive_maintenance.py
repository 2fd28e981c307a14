#!/usr/bin/env python
"""Full proactive-security lifecycle: corruption, refresh, recovery.

The paper's proactive motivation (Section 1.2) end-to-end, over one
long-lived sealed coin:

  epoch 1: the adversary controls player 4, which records its share;
  epoch 2: the adversary has moved on; the committee *refreshes* the
           sharing (zero-dealings), making the recorded share useless,
           and *recovers* player 4's share so it rejoins as a first-class
           holder;
  epoch 3: the adversary corrupts player 2 — its freshly stolen share
           plus the stale share recorded in epoch 1 do NOT reconstruct
           the coin, even though together they exceed t = 1.

Run:  python examples/proactive_maintenance.py
"""

import random

from repro.fields import GF2k
from repro.poly.lagrange import interpolate_at
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.recovery import run_recovery
from repro.protocols.refresh import run_refresh
from repro.net.runtime import ProtocolRuntime
from repro.sharing.shamir import ShamirScheme


def expose(field, n, table, h):
    net = ProtocolRuntime(n, field=field, allow_broadcast=False)
    programs = {pid: coin_expose(field, pid, table[pid][h]) for pid in table}
    return set(net.run(programs).values())


def main() -> None:
    field = GF2k(32)
    n, t = 7, 1
    rng = random.Random(2024)
    scheme = ShamirScheme(field, n, t)

    # ---- a long-lived sealed coin
    secret, shares = make_dealer_coin(field, n, t, "treasury", rng)
    table = {pid: [shares[pid]] for pid in range(1, n + 1)}
    print(f"sealed coin dealt; secret (oracle view) = {secret:#010x}\n")

    # ---- epoch 1: intruder on player 4 records its share
    stolen_old = table[4][0].my_value
    print(f"epoch 1: intruder on player 4 records share {stolen_old:#010x}")
    # the corrupted player's share is considered burned; blank it
    table[4] = [CoinShare("treasury", table[4][0].senders, t, None)]

    # ---- epoch 2: refresh (old shares die) + recovery (player 4 reborn)
    outputs, _ = run_refresh(field, n, t, table, seed=1, tag="epoch2-refresh")
    table = {pid: outputs[pid].coins for pid in outputs}
    print("epoch 2: shares refreshed (zero-dealings added)")

    outputs, _ = run_recovery(field, n, t, recovering=4, coin_table=table,
                              seed=2, tag="epoch2-recover")
    table = {pid: outputs[pid].coins for pid in outputs}
    print(f"epoch 2: player 4 recovered share "
          f"{table[4][0].my_value:#010x} (different from the stolen one)")

    # ---- epoch 3: intruder moves to player 2
    stolen_new = table[2][0].my_value
    print(f"epoch 3: intruder on player 2 records share {stolen_new:#010x}")

    # combine the two stolen shares (t+1 = 2 points!) across epochs:
    mixed = interpolate_at(
        field,
        [(scheme.point(4), stolen_old), (scheme.point(2), stolen_new)],
        field.zero,
    )
    print(f"\nadversary combines both stolen shares -> {mixed:#010x}")
    print(f"actual secret                          -> {secret:#010x}")
    assert mixed != secret
    print("=> cross-epoch shares are useless: proactive security holds")

    # the committee, of course, can still open the coin
    values = expose(field, n, table, 0)
    assert values == {secret}
    print(f"\ncommittee exposes the coin unanimously -> {values.pop():#010x}")


if __name__ == "__main__":
    main()
