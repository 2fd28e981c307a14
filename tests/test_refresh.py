"""Proactive share refresh: value preservation, re-randomization, safety."""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import silent_program
from repro.net.runtime import ProtocolRuntime
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.refresh import run_refresh

F = GF2k(32)
N, T = 7, 1


def make_coin_table(count, seed=0):
    rng = random.Random(seed)
    secrets = []
    table = {pid: [] for pid in range(1, N + 1)}
    for index in range(count):
        secret, shares = make_dealer_coin(F, N, T, f"lc{index}", rng)
        secrets.append(secret)
        for pid in range(1, N + 1):
            table[pid].append(shares[pid])
    return secrets, table


def expose_all(coin_table, h, exclude=()):
    net = ProtocolRuntime(N, field=F, allow_broadcast=False)
    programs = {
        pid: coin_expose(F, pid, coin_table[pid][h])
        for pid in range(1, N + 1)
        if pid not in exclude
    }
    out = net.run(programs)
    return set(out.values())


class TestValuePreservation:
    def test_refreshed_coins_expose_to_same_secrets(self):
        secrets, table = make_coin_table(3, seed=1)
        outputs, _ = run_refresh(F, N, T, table, seed=2)
        assert all(o.success for o in outputs.values())
        new_table = {pid: outputs[pid].coins for pid in outputs}
        for h, secret in enumerate(secrets):
            assert expose_all(new_table, h) == {secret}

    def test_multiple_refresh_rounds(self):
        secrets, table = make_coin_table(2, seed=3)
        for epoch in range(3):
            outputs, _ = run_refresh(
                F, N, T, table, seed=10 + epoch, tag=f"refresh{epoch}"
            )
            assert all(o.success for o in outputs.values())
            table = {pid: outputs[pid].coins for pid in outputs}
        for h, secret in enumerate(secrets):
            assert expose_all(table, h) == {secret}


class TestReRandomization:
    def test_shares_actually_change(self):
        _, table = make_coin_table(2, seed=4)
        outputs, _ = run_refresh(F, N, T, table, seed=5)
        changed = 0
        for pid in range(1, N + 1):
            for h in range(2):
                if outputs[pid].coins[h].my_value != table[pid][h].my_value:
                    changed += 1
        assert changed >= 2 * N - 1  # essentially all shares move

    def test_old_and_new_shares_do_not_mix(self):
        """The proactive property: t old shares + t new shares from
        different epochs do not interpolate the secret — combining them
        produces garbage, so a mobile adversary gains nothing."""
        from repro.poly.lagrange import interpolate_at

        secrets, table = make_coin_table(1, seed=6)
        outputs, _ = run_refresh(F, N, T, table, seed=7)
        new_table = {pid: outputs[pid].coins for pid in outputs}
        # mix t+1 = 2 shares: player 1 old, player 2 new
        mixed = [
            (F.element_point(1), table[1][0].my_value),
            (F.element_point(2), new_table[2][0].my_value),
        ]
        value = interpolate_at(F, mixed, F.zero)
        assert value != secrets[0]  # w.p. 1 - 1/2^32


class TestFaults:
    def test_refresh_with_silent_player(self):
        secrets, table = make_coin_table(2, seed=8)
        outputs, _ = run_refresh(
            F, N, T, table, seed=9, faulty_programs={4: silent_program()}
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 4}
        assert all(o.success for o in honest.values())
        new_table = {pid: honest[pid].coins for pid in honest}
        for h, secret in enumerate(secrets):
            assert expose_all(new_table, h, exclude=(4,)) == {secret}

    def test_previously_corrupt_player_keeps_stale_share(self):
        """A player silent during the refresh ends with no usable share
        (it abstains), but reconstruction still works without it."""
        secrets, table = make_coin_table(1, seed=10)
        outputs, _ = run_refresh(
            F, N, T, table, seed=11, faulty_programs={2: silent_program()}
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 2}
        # the refreshed coins exclude the faulty player's contribution:
        # its own old share no longer lies on the new polynomial
        new_table = {pid: honest[pid].coins for pid in honest}
        values = expose_all(new_table, 0, exclude=(2,))
        assert values == {secrets[0]}


class TestValidation:
    def test_rejects_clique_held_coins(self):
        from repro.protocols.refresh import refresh_program

        share = CoinShare("x", frozenset({1, 2, 3, 4, 5}), T, F.one)
        with pytest.raises(ValueError):
            gen = refresh_program(
                F, N, T, 1, [share], [], random.Random(0)
            )
            next(gen)

    def test_refresh_consumes_seed_coins(self):
        _, table = make_coin_table(1, seed=12)
        outputs, _ = run_refresh(F, N, T, table, seed=13)
        used = {o.seed_coins_used for o in outputs.values()}
        assert used == {2}  # 1 challenge + 1 leader election
