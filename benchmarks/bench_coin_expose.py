"""E13 (Theorem 1) — Coin-Expose decodes through t corrupted shares.

Paper claim: "We are guaranteed that since at most t of the players are
faulty, at least 2t+1 players in S ... have proper shares of the coin.
This enables us to use the Berlekamp-Welch decoder to compute the desired
polynomial."

Regenerated series: decode success and cost as the number of injected
share corruptions sweeps from 0 to beyond t.
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.runtime import ProtocolRuntime
from repro.net.transport import multicast
from repro.protocols.coin_expose import coin_expose, make_dealer_coin

K = 32
FIELD = GF2k(K)


def expose_with_liars(n, t, num_liars, seed):
    rng = random.Random(seed)
    secret, shares = make_dealer_coin(FIELD, n, t, f"qc{seed}", rng)
    liars = list(range(1, num_liars + 1))

    def liar_program(coin_id):
        def program():
            yield [multicast(("expose/" + coin_id, rng.randrange(FIELD.order)))]
        return program()

    net = ProtocolRuntime(n, field=FIELD, allow_broadcast=False)
    programs = {}
    for pid in range(1, n + 1):
        if pid in liars:
            programs[pid] = liar_program(f"qc{seed}")
        else:
            programs[pid] = coin_expose(FIELD, pid, shares[pid])
    outputs = net.run(programs, wait_for=[p for p in programs if p not in liars])
    honest_views = {outputs[p] for p in programs if p not in liars}
    return secret, honest_views, net.metrics


@pytest.mark.parametrize("num_liars", [0, 1, 2])
def test_decode_within_capacity(benchmark, report, num_liars):
    n, t = 13, 2
    secret, views, metrics = benchmark.pedantic(
        lambda: expose_with_liars(n, t, num_liars, seed=num_liars),
        rounds=3,
        iterations=1,
    )
    assert views == {secret}
    report.row(
        f"n={n} t={t} liars={num_liars}: decoded correctly, "
        f"one interpolation/player={metrics.ops(5).interpolations}"
    )


def test_beyond_capacity_refuses(report, benchmark):
    """More than t corruptions: the decoder must refuse (None), never
    return a wrong value silently."""
    n, t = 13, 2
    trials = 6
    for seed in range(trials):
        secret, views, _ = expose_with_liars(n, t, t + 2, seed=100 + seed)
        assert len(views) == 1
        view = views.pop()
        assert view is None or view == secret
    report.row(
        f"n={n} t={t} liars={t + 2}: decoder refuses or survives, never "
        f"returns a wrong unanimous value ({trials} trials)"
    )
    benchmark(lambda: expose_with_liars(13, 2, 1, seed=0))


def test_expose_cost_one_interpolation(report, benchmark):
    """Section 5: "the bottleneck for distributed coin generation in such
    a setting is the final interpolation of the coin" — exactly one per
    player per coin, and it cannot be amortized."""
    n, t = 7, 1
    _, _, metrics = expose_with_liars(n, t, 0, seed=200)
    for pid in range(2, n + 1):
        assert metrics.ops(pid).interpolations == 1
    report.row("exactly 1 interpolation per player per exposed coin")
    benchmark(lambda: expose_with_liars(7, 1, 0, seed=201))
