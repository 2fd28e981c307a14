"""Scheduler-equivalence property: delivery order cannot matter.

In the synchronous model a round's inbox is a *set* of messages — honest
protocol code never depends on arrival order within a round.  The
runtime makes that a testable property: an honest run under the
:class:`LockstepScheduler` and under a :class:`PermutedDeliveryScheduler`
with any seed must produce identical per-player outputs *and* identical
metered costs (the Lemma 2/4/6 quantities: rounds, messages, bits, and
per-player field-operation counts).

The :class:`RandomOrderScheduler` joins the family from the async
runtime work: on the lockstep runtime it degrades to a seeded per-round
shuffle (a different stream than the permuted scheduler), so the same
honest protocol must agree under all *three* schedulers — and a guarded
program must additionally agree with its own run on the event-driven
:class:`~repro.net.async_runtime.AsyncRuntime` under the same seed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import GF2k
from repro.net import PermutedDeliveryScheduler, RandomOrderScheduler
from repro.net.runtime import ProtocolRuntime
from repro.protocols.async_coin import async_coin_program, run_async_coin
from repro.protocols.batch_vss import run_batch_vss
from repro.protocols.bit_gen import run_bit_gen
from repro.protocols.coin_expose import make_dealer_coin
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext
from repro.core.bootstrap import BootstrapCoinSource


def metered_costs(metrics):
    """The cost quantities the paper's lemmas count, as a comparable value."""
    return (
        metrics.rounds,
        metrics.unicast_messages,
        metrics.broadcast_messages,
        metrics.bits,
        {
            pid: (ops.adds, ops.muls, ops.invs, ops.interpolations)
            for pid, ops in sorted(metrics.player_ops.items())
        },
    )


def outputs_equal(a, b):
    """Per-player outputs identical (dataclass/dict equality is
    insensitive to dict insertion order, which legitimately follows
    delivery order within a round)."""
    return set(a) == set(b) and all(a[pid] == b[pid] for pid in a)


FIELD = GF2k(8)


@given(
    sched_seed=st.integers(min_value=0, max_value=2**31 - 1),
    run_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=12)
def test_batch_vss_equivalence(sched_seed, run_seed):
    """Batch-VSS: outputs and Lemma 2 costs match under both schedulers."""
    # warm the shared interpolation cache so neither measured run pays
    # the one-time weight-building cost (see poly/barycentric.py)
    run_batch_vss(FIELD, 7, 1, M=3, seed=run_seed, blinding=True)
    lock_out, lock_metrics = run_batch_vss(
        FIELD, 7, 1, M=3, seed=run_seed, blinding=True
    )
    ctx = ProtocolContext.create(
        FIELD, 7, 1, seed=run_seed,
        scheduler=PermutedDeliveryScheduler(seed=sched_seed),
    )
    perm_out, perm_metrics = run_batch_vss(ctx, M=3, blinding=True)
    assert outputs_equal(lock_out, perm_out)
    assert metered_costs(lock_metrics) == metered_costs(perm_metrics)


@given(
    sched_seed=st.integers(min_value=0, max_value=2**31 - 1),
    run_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=12)
def test_bit_gen_equivalence(sched_seed, run_seed):
    """Bit-Gen: outputs and Lemma 6 costs match under both schedulers."""
    run_bit_gen(FIELD, 7, 1, M=2, seed=run_seed)  # warm interpolation cache
    lock_out, lock_metrics = run_bit_gen(FIELD, 7, 1, M=2, seed=run_seed)
    ctx = ProtocolContext.create(
        FIELD, 7, 1, seed=run_seed,
        scheduler=PermutedDeliveryScheduler(seed=sched_seed),
    )
    perm_out, perm_metrics = run_bit_gen(ctx, M=2)
    assert outputs_equal(lock_out, perm_out)
    assert metered_costs(lock_metrics) == metered_costs(perm_metrics)


@given(sched_seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=6)
def test_coin_gen_equivalence(sched_seed):
    """Full Coin-Gen: same clique, coins, and costs under both schedulers."""
    run_coin_gen(FIELD, 7, 1, M=2, seed=3)  # warm interpolation cache
    lock_out, lock_metrics = run_coin_gen(FIELD, 7, 1, M=2, seed=3)
    ctx = ProtocolContext.create(
        FIELD, 7, 1, seed=3,
        scheduler=PermutedDeliveryScheduler(seed=sched_seed),
    )
    perm_out, perm_metrics = run_coin_gen(ctx, M=2)
    assert outputs_equal(lock_out, perm_out)
    assert metered_costs(lock_metrics) == metered_costs(perm_metrics)


@given(
    sched_seed=st.integers(min_value=0, max_value=2**31 - 1),
    run_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=8)
def test_three_scheduler_equivalence(sched_seed, run_seed):
    """Lockstep, permuted, and random-order: one protocol, three orders.

    The random-order scheduler's lockstep degradation (a seeded
    per-round shuffle, a *different* permutation stream than the
    permuted scheduler's) must be just as invisible to honest code.
    """
    run_batch_vss(FIELD, 7, 1, M=3, seed=run_seed, blinding=True)  # warm
    results = {}
    for name, scheduler in (
        ("lockstep", None),
        ("permuted", PermutedDeliveryScheduler(seed=sched_seed)),
        ("random", RandomOrderScheduler(seed=sched_seed)),
    ):
        ctx = ProtocolContext.create(
            FIELD, 7, 1, seed=run_seed, scheduler=scheduler
        )
        out, metrics = run_batch_vss(ctx, M=3, blinding=True)
        results[name] = (out, metered_costs(metrics))
    base_out, base_costs = results["lockstep"]
    for name in ("permuted", "random"):
        out, costs = results[name]
        assert outputs_equal(base_out, out), name
        assert base_costs == costs, name


@given(
    sched_seed=st.integers(min_value=0, max_value=2**31 - 1),
    run_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=8)
def test_coin_body_equivalent_across_runtimes(sched_seed, run_seed):
    """One guarded coin body, four schedules: three lockstep + async.

    The async-portable exposure program must output the dealt secret
    unanimously under every synchronous scheduler *and* under the
    event-driven runtime's message-at-a-time schedule for the same seed.
    """
    secret, shares = make_dealer_coin(
        FIELD, 7, 2, "eq-coin", random.Random(run_seed)
    )

    def programs():
        return {
            pid: async_coin_program(FIELD, 7, pid, shares[pid])
            for pid in range(1, 8)
        }

    for scheduler in (
        None,
        PermutedDeliveryScheduler(seed=sched_seed),
        RandomOrderScheduler(seed=sched_seed),
    ):
        net = ProtocolRuntime(7, field=FIELD, scheduler=scheduler)
        out = net.run(programs())
        assert set(out.values()) == {secret}

    out, async_secret, _ = run_async_coin(
        FIELD, 7, 2, seed=run_seed, coin_id="eq-coin",
        scheduler=RandomOrderScheduler(sched_seed),
        rng=random.Random(run_seed),
    )
    assert async_secret == secret
    assert set(out.values()) == {secret}


@given(sched_seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=4)
def test_dprbg_stretch_equivalence(sched_seed):
    """A full D-PRBG stretch + exposures is scheduler-independent."""
    def run(scheduler):
        ctx = ProtocolContext.create(
            FIELD, 7, 1, seed=5, scheduler=scheduler
        )
        source = BootstrapCoinSource(context=ctx, batch_size=4)
        bits = source.tosses(6)
        return bits, metered_costs(source.system.total_metrics)

    run(None)  # warm interpolation cache
    lock_bits, lock_costs = run(None)
    perm_bits, perm_costs = run(PermutedDeliveryScheduler(seed=sched_seed))
    assert lock_bits == perm_bits
    assert lock_costs == perm_costs
