"""Section 1.4 baselines: correctness and the cost relations the paper
claims over them."""

import random

import pytest

from repro.fields import GF2k
from repro.baselines import (
    RabinDealerService,
    run_cut_and_choose_vss,
    run_feldman_vss,
    run_from_scratch_coin,
)
from repro.net.adversary import silent_program
from repro.net.transport import Send

F = GF2k(16)
N, T = 7, 2


class TestFromScratch:
    def test_unanimous_coin(self):
        values, _ = run_from_scratch_coin(F, N, T, seed=1)
        assert len(set(values.values())) == 1
        assert None not in set(values.values())

    def test_t_plus_1_interpolations_per_player(self):
        """The cost Coin-Gen eliminates: one interpolation per dealing."""
        _, metrics = run_from_scratch_coin(F, N, T, seed=2)
        for pid in range(1, N + 1):
            assert metrics.ops(pid).interpolations == T + 1

    def test_tolerates_lying_shareholder(self):
        def liar(n):
            def program():
                inbox = yield []
                yield [Send(d, ("fs/open", (1, 2, 3))) for d in range(1, n + 1)]
            return program()

        values, _ = run_from_scratch_coin(
            F, N, T, seed=3, faulty_programs={5: liar(N)}
        )
        honest = {v for pid, v in values.items() if pid != 5}
        assert len(honest) == 1 and None not in honest

    def test_silent_dealer_breaks_coin(self):
        """An uncooperative dealer among the t+1 leaves the coin undefined
        — exactly why real from-scratch protocols need VSS on top."""
        values, _ = run_from_scratch_coin(
            F, N, T, seed=4, faulty_programs={1: silent_program()}
        )
        honest = {v for pid, v in values.items() if pid != 1}
        assert honest == {None}


class TestCutAndChoose:
    def test_honest_accept(self):
        out, _ = run_cut_and_choose_vss(F, N, T, challenges=8, seed=5)
        assert all(r.accepted for r in out.values())

    def test_bad_dealing_rejected(self):
        out, _ = run_cut_and_choose_vss(
            F, N, T, challenges=8, seed=6, cheat_shares={3: 12345}
        )
        assert not any(r.accepted for r in out.values())

    def test_k_interpolations(self):
        """The cost the paper criticizes: one interpolation per challenge."""
        for challenges in (4, 12):
            _, metrics = run_cut_and_choose_vss(
                F, N, T, challenges=challenges, seed=7
            )
            assert metrics.ops(2).interpolations == challenges + 1  # + expose

    def test_cheater_caught_with_enough_challenges(self):
        """Each challenge independently catches a bad dealing with
        probability 1/2; with 8 challenges escape probability is 2^-8."""
        accepts = 0
        trials = 30
        for seed in range(trials):
            rng = random.Random(seed + 4242)
            bad_f = {pid: rng.randrange(1, F.order) for pid in (1, 2, 3)}
            out, _ = run_cut_and_choose_vss(
                F, N, T, challenges=8, seed=seed, cheat_offsets=bad_f
            )
            accepted = {r.accepted for r in out.values()}
            assert len(accepted) == 1
            accepts += accepted.pop()
        assert accepts == 0

    def test_guessing_cheater_escapes_half_the_time(self):
        """The optimal single-challenge cheater: f' = f + noise with
        companion g' = g - noise, so that f'+g' = f+g looks clean while
        g' alone looks corrupted.  It survives exactly when the challenge
        bit says "open f+g" — empirical rate ~ 1/2, vs ~1/p for Protocol
        VSS at the same interpolation budget."""
        accepts = 0
        trials = 120
        for seed in range(trials):
            rng = random.Random(seed + 999)
            noise = {pid: rng.randrange(1, F.order) for pid in (1, 2, 3)}
            out, _ = run_cut_and_choose_vss(
                F, N, T, challenges=1, seed=seed,
                cheat_offsets=noise,
                # characteristic 2: -noise == noise
                cheat_companion_offsets={0: noise},
            )
            accepted = {r.accepted for r in out.values()}
            assert len(accepted) == 1
            accepts += accepted.pop()
        assert abs(accepts - trials / 2) < 25, accepts


class TestFeldman:
    def test_honest_accept(self):
        out, _ = run_feldman_vss(N, T, q_bits=24, seed=8)
        assert all(r.accepted for r in out.values())

    def test_wrong_share_detected_locally(self):
        out, _ = run_feldman_vss(N, T, q_bits=24, seed=9, cheat_shares={4: 0})
        assert not out[4].accepted
        assert all(out[pid].accepted for pid in range(1, N + 1) if pid != 4)

    def test_exponentiation_cost_scales_with_group_bits(self):
        """[12]'s t log p multiplications: doubling q_bits ~doubles muls."""
        _, m24 = run_feldman_vss(N, T, q_bits=24, seed=10)
        _, m48 = run_feldman_vss(N, T, q_bits=48, seed=10)
        muls24 = m24.ops(3).muls
        muls48 = m48.ops(3).muls
        assert muls48 > 1.5 * muls24


class TestRabinDealer:
    def test_every_coin_needs_the_dealer(self):
        svc = RabinDealerService(GF2k(32), N, 1, seed=11)
        for expected in range(1, 6):
            svc.toss_element()
            assert svc.dealer_invocations == expected

    def test_bits(self):
        svc = RabinDealerService(GF2k(32), N, 1, seed=12)
        assert svc.toss() in (0, 1)
