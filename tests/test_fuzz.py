"""Adversarial fuzzing: randomized Byzantine behaviour against the full
coin pipeline.  The invariant under ANY behaviour of t players:

* all honest players agree on success/failure, clique, and iterations;
* on success, every coin exposes to one common non-None value.
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.runtime import ProtocolRuntime
from repro.net.transport import ALL, Send
from repro.protocols.coin_gen import (
    coin_gen_program,
    expose_coin,
    make_seed_coins,
    run_coin_gen,
)

F = GF2k(32)
N, T = 7, 1

# tags a chaotic adversary can spray at the honest protocol
TAG_POOL = [
    "cg/sh",
    "cg/nu",
    "cg/gc/v",
    "cg/gc/echo",
    "cg/gc/echo2",
    "cg/ba0/p1/vote",
    "cg/ba0/p1/king",
    "cg/ba1/p1/vote",
    "expose/cg-seed0",
    "expose/cg-seed1",
    "expose/cg/c0",
    "garbage/unknown",
]


def chaotic_program(n, rng):
    """Sends random payloads with protocol-shaped tags every round,
    equivocating freely."""
    def body():
        value = rng.randrange(3)
        if value == 0:
            return rng.randrange(F.order)
        if value == 1:
            return tuple(rng.randrange(F.order) for _ in range(rng.randrange(1, n + 2)))
        return ("prop", tuple(range(1, rng.randrange(2, n + 1))), ())

    def program():
        while True:
            sends = []
            for _ in range(rng.randrange(0, 12)):
                dst = rng.randrange(1, n + 1) if rng.random() < 0.7 else ALL
                sends.append(Send(dst, (rng.choice(TAG_POOL), body())))
            yield sends

    return program()


@pytest.mark.parametrize("seed", range(12))
def test_chaotic_adversary_invariants(seed):
    rng = random.Random(seed)
    bad = rng.randrange(1, N + 1)
    outputs, _ = run_coin_gen(
        F, N, T, M=2, seed=seed,
        faulty_programs={bad: chaotic_program(N, rng)},
    )
    honest = {pid: o for pid, o in outputs.items() if pid != bad}

    assert len({o.success for o in honest.values()}) == 1
    if not next(iter(honest.values())).success:
        return
    assert len({o.clique for o in honest.values()}) == 1
    assert len({o.iterations for o in honest.values()}) == 1

    for h in range(2):
        values, _ = expose_coin(F, N, honest, h, T)
        vs = {v for pid, v in values.items() if pid != bad}
        assert len(vs) == 1
        assert None not in vs


@pytest.mark.parametrize("seed", range(6))
def test_rushing_chaotic_adversary(seed):
    """The same invariant with the adversary seeing each round's honest
    traffic before sending (strongest synchronous scheduling)."""
    rng = random.Random(1000 + seed)
    bad = rng.randrange(1, N + 1)
    seeds = make_seed_coins(F, N, T, 4, random.Random(seed))

    net = ProtocolRuntime(
        N, field=F, allow_broadcast=False, rushing=[bad]
    )
    programs = {}
    for pid in range(1, N + 1):
        if pid == bad:
            programs[pid] = chaotic_program(N, rng)
        else:
            programs[pid] = coin_gen_program(
                F, N, T, pid, 2, seeds[pid], random.Random(seed * 31 + pid)
            )
    honest_ids = [pid for pid in programs if pid != bad]
    outputs = net.run(programs, wait_for=honest_ids)
    honest = {pid: outputs[pid] for pid in honest_ids}

    assert len({o.success for o in honest.values()}) == 1
    if next(iter(honest.values())).success:
        assert len({o.clique for o in honest.values()}) == 1
        values, _ = expose_coin(F, N, honest, 0, T)
        vs = {v for pid, v in values.items() if pid != bad}
        assert len(vs) == 1 and None not in vs


@pytest.mark.parametrize("seed", range(4))
def test_two_colluding_chaotic_adversaries_n13(seed):
    n, t = 13, 2
    rng = random.Random(2000 + seed)
    bad = set(rng.sample(range(1, n + 1), t))
    outputs, _ = run_coin_gen(
        F, n, t, M=2, seed=seed,
        faulty_programs={pid: chaotic_program(n, rng) for pid in bad},
    )
    honest = {pid: o for pid, o in outputs.items() if pid not in bad}
    assert len({o.success for o in honest.values()}) == 1
    if next(iter(honest.values())).success:
        assert len({o.clique for o in honest.values()}) == 1
        values, _ = expose_coin(F, n, honest, 0, t)
        vs = {v for pid, v in values.items() if pid not in bad}
        assert len(vs) == 1 and None not in vs


def test_honest_runs_always_succeed_across_seeds():
    """Sanity companion to the fuzz: without faults the pipeline never
    fails, for many seeds."""
    for seed in range(8):
        outputs, _ = run_coin_gen(F, N, T, M=1, seed=3000 + seed)
        assert all(o.success for o in outputs.values())
