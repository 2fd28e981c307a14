"""Batched coin exposure through the system API."""

import random

import pytest

from repro.fields import GF2k
from repro.core.dprbg import SharedCoinSystem
from repro.core.seed import TrustedDealer
from repro.net.adversary import Adversary
from repro.net.scheduler import RandomOrderScheduler
from repro.net.transport import multicast
from repro.protocols.async_coin import run_async_coin

F = GF2k(32)
N, T = 7, 1


def make_batch(seed=0, M=6):
    system = SharedCoinSystem(F, N, T, seed=seed)
    dealer = TrustedDealer(F, N, T, seed=seed + 1)
    result = system.generate(dealer.deal_seed(4), M=M)
    return system, result.coins


class TestExposeMany:
    def test_matches_single_exposures(self):
        system_a, coins_a = make_batch(seed=1)
        system_b, coins_b = make_batch(seed=1)
        batched = system_a.expose_many(coins_a)
        singles = [system_b.expose(coin) for coin in coins_b]
        assert batched == singles

    def test_single_round(self):
        system, coins = make_batch(seed=2)
        before = system.total_metrics.rounds
        system.expose_many(coins)
        delta = system.total_metrics.rounds - before
        assert delta <= 2  # announcement + drain, regardless of batch size

    def test_batching_saves_rounds(self):
        system_a, coins_a = make_batch(seed=3)
        before = system_a.total_metrics.rounds
        system_a.expose_many(coins_a)
        batched_rounds = system_a.total_metrics.rounds - before

        system_b, coins_b = make_batch(seed=3)
        before = system_b.total_metrics.rounds
        for coin in coins_b:
            system_b.expose(coin)
        single_rounds = system_b.total_metrics.rounds - before
        assert batched_rounds < single_rounds

    def test_empty(self):
        system, _ = make_batch(seed=4)
        assert system.expose_many([]) == []

    def test_dealer_coins(self):
        system = SharedCoinSystem(F, N, T, seed=5)
        dealer = TrustedDealer(F, N, T, seed=6)
        coins = dealer.deal_seed(3)
        values = system.expose_many(coins)
        assert values == [
            dealer.dealt_secrets[coin.coin_id] for coin in coins
        ]

    def test_with_adversary(self):
        system, coins = make_batch(seed=7)
        system.set_adversary(Adversary({4}, behaviour="noise", seed=1))
        values = system.expose_many(coins)
        assert len(values) == len(coins)
        assert None not in values


WRONG = object()  # stands for "a wrong field element, sent first"
JUNK_FIRST = [["x"], {"k": 1}, None, 1.5, 3.0, 2**40, -7, "share", WRONG]


def junk_sends(tag, first, rng, later=None):
    """Type-confused traffic on a real expose tag.

    Unhashable tag heads and a 3-tuple (both without a tag under the
    inbox-reading rule), then ``first`` as this sender's body, then a
    later body that first-wins reading must ignore.
    """
    if first is WRONG:
        first = F.random_nonzero(rng)
    sends = [
        multicast(([tag], 1)),
        multicast(({}, 1)),
        multicast((tag, 1, 2)),
        multicast((tag, first)),
    ]
    if later is not None:
        sends.append(multicast((tag, later)))
    return sends


def junk_label(first):
    return "wrong_value" if first is WRONG else repr(first)


class TestTypeConfusedExposeTags:
    """≤ t faulty players multicast junk on the coins' real expose tags."""

    @pytest.mark.parametrize("n,t", [(7, 1), (13, 2)])
    @pytest.mark.parametrize("first", JUNK_FIRST, ids=junk_label)
    def test_lockstep_expose_many(self, n, t, first):
        dealer = TrustedDealer(F, n, t, seed=8)
        coins = dealer.deal_seed(6)

        def junk(pid, n, blackboard, rng):
            def program():
                sends = []
                for coin in coins:
                    sends += junk_sends("expose/" + coin.coin_id, first, rng,
                                        later=coin.share_for(pid).my_value)
                yield sends
            return program()

        system = SharedCoinSystem(F, n, t, seed=9)
        # the lowest ids: their shares are among the first t+1 points,
        # which the optimistic decoder interpolates through
        system.set_adversary(Adversary(range(1, t + 1), behaviour=junk))
        # expose_many raises UnanimityError if honest players disagree
        assert system.expose_many(coins) == [
            dealer.dealt_secrets[coin.coin_id] for coin in coins
        ]

    @pytest.mark.parametrize("schedule", range(4))
    @pytest.mark.parametrize("first", JUNK_FIRST, ids=junk_label)
    def test_async_coin(self, schedule, first):
        rng = random.Random(schedule)

        def junk():
            yield junk_sends("expose/junk-coin", first, rng,
                             later=F.random(rng))

        outputs, secret, _ = run_async_coin(
            F, 7, 2, seed=schedule, coin_id="junk-coin",
            scheduler=RandomOrderScheduler(schedule),
            faulty_programs={3: junk(), 6: junk()},
        )
        assert outputs == {pid: secret for pid in (1, 2, 4, 5, 7)}
