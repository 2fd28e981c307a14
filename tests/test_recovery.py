"""Share recovery: correctness, privacy structure, fault tolerance."""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import silent_program
from repro.net.runtime import ProtocolRuntime
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.recovery import run_recovery

F = GF2k(32)
N, T = 7, 1


def make_coin_table(count, seed=0, lost_by=None):
    """Deal coins; optionally blank one player's share values (lost)."""
    rng = random.Random(seed)
    secrets = []
    originals = {}
    table = {pid: [] for pid in range(1, N + 1)}
    for index in range(count):
        secret, shares = make_dealer_coin(F, N, T, f"rc{seed}-{index}", rng)
        secrets.append(secret)
        for pid in range(1, N + 1):
            share = shares[pid]
            if pid == lost_by:
                originals.setdefault(pid, []).append(share.my_value)
                share = CoinShare(share.coin_id, share.senders, share.t, None)
            table[pid].append(share)
    return secrets, table, originals


class TestRecovery:
    def test_lost_share_recovered_exactly(self):
        secrets, table, originals = make_coin_table(3, seed=1, lost_by=4)
        outputs, _ = run_recovery(F, N, T, recovering=4, coin_table=table, seed=2)
        assert all(o.success for o in outputs.values())
        for h in range(3):
            assert outputs[4].coins[h].my_value == originals[4][h]

    def test_recovered_player_can_expose_again(self):
        secrets, table, _ = make_coin_table(2, seed=3, lost_by=6)
        outputs, _ = run_recovery(F, N, T, recovering=6, coin_table=table, seed=4)
        new_table = {pid: outputs[pid].coins for pid in outputs}
        net = ProtocolRuntime(N, field=F, allow_broadcast=False)
        programs = {
            pid: coin_expose(F, pid, new_table[pid][0])
            for pid in range(1, N + 1)
        }
        out = net.run(programs)
        assert set(out.values()) == {secrets[0]}

    def test_helpers_shares_unchanged(self):
        _, table, _ = make_coin_table(2, seed=5, lost_by=3)
        outputs, _ = run_recovery(F, N, T, recovering=3, coin_table=table, seed=6)
        for pid in range(1, N + 1):
            if pid == 3:
                continue
            for h in range(2):
                assert outputs[pid].coins[h].my_value == table[pid][h].my_value

    def test_recovery_with_silent_faulty_helper(self):
        secrets, table, originals = make_coin_table(1, seed=7, lost_by=5)
        outputs, _ = run_recovery(
            F, N, T, recovering=5, coin_table=table, seed=8,
            faulty_programs={2: silent_program()},
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 2}
        assert all(o.success for o in honest.values())
        assert honest[5].coins[0].my_value == originals[5][0]

    def test_masked_values_hide_the_secret(self):
        """Structural privacy check: the masked polynomial the recovering
        player decodes differs from the real coin polynomial everywhere
        except at its own point (the z-dealings re-randomize it)."""
        from repro.poly.berlekamp_welch import berlekamp_welch
        from repro.net.runtime import ProtocolRuntime
        from repro.protocols.recovery import recovery_program
        from repro.protocols.coin_gen import make_seed_coins
        from repro.sharing.shamir import ShamirScheme

        secrets, table, originals = make_coin_table(1, seed=9, lost_by=1)
        # capture the masked messages crossing the wire
        crossing = []
        original_expand = ProtocolRuntime._expand

        def spying(self, src, sends):
            deliveries = original_expand(self, src, sends)
            for dst, payload in deliveries:
                if isinstance(payload, tuple) and payload[0] == "recover/mask":
                    crossing.append((src, payload[1]))
            return deliveries

        ProtocolRuntime._expand = spying
        try:
            outputs, _ = run_recovery(
                F, N, T, recovering=1, coin_table=table, seed=10
            )
        finally:
            ProtocolRuntime._expand = original_expand

        assert outputs[1].coins[0].my_value == originals[1][0]
        scheme = ShamirScheme(F, N, T)
        pts = [(scheme.point(src), vec[0]) for src, vec in crossing]
        masked_poly, _ = berlekamp_welch(F, pts, T)
        # masked polynomial reveals the right share at x0 ...
        assert masked_poly(scheme.point(1)) == originals[1][0]
        # ... but NOT the secret at the origin
        assert masked_poly(F.zero) != secrets[0]


class TestValidation:
    def test_rejects_clique_held_coins(self):
        from repro.protocols.recovery import recovery_program

        share = CoinShare("x", frozenset({1, 2, 3, 4, 5}), T, F.one)
        with pytest.raises(ValueError):
            gen = recovery_program(
                F, N, T, 1, 2, [share], [], random.Random(0)
            )
            next(gen)
