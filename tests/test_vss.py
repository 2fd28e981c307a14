"""Protocol VSS (Fig. 2): acceptance, soundness (Lemma 1), privacy, cost."""

import random

import pytest

from repro.fields import GF2k
from repro.poly.polynomial import Polynomial
from repro.protocols.vss import run_vss

F = GF2k(16)
TINY = GF2k(4)  # p = 16, so Lemma 1's 1/p bound is visible statistically
N, T = 7, 2


class TestAcceptance:
    def test_honest_dealer_accepted_unanimously(self):
        results, _ = run_vss(F, N, T, seed=1)
        assert all(r.accepted for r in results.values())

    def test_bad_dealing_rejected(self):
        results, _ = run_vss(F, N, T, seed=2, cheat_shares={4: 999})
        assert not any(r.accepted for r in results.values())

    def test_degree_t_plus_1_dealing_rejected(self):
        """A clean polynomial of degree t+1 (not just noise) is caught."""
        rng = random.Random(3)
        high = Polynomial.random(F, T + 1, rng)
        while high.degree != T + 1:
            high = Polynomial.random(F, T + 1, rng)
        overrides = {pid: high(F.element_point(pid)) for pid in range(1, N + 1)}
        results, _ = run_vss(F, N, T, seed=3, cheat_shares=overrides)
        assert not any(r.accepted for r in results.values())

    def test_all_players_same_verdict(self):
        for seed in range(5):
            results, _ = run_vss(F, N, T, seed=seed, cheat_shares={1: seed})
            assert len({r.accepted for r in results.values()}) == 1


class TestRobustMode:
    def test_garbage_broadcaster_vetoes_plain_mode(self):
        """Fig. 2 verbatim: one faulty broadcaster makes honest players
        reject an honest dealer (the fragility the paper acknowledges)."""
        from repro.net.transport import broadcast as bc

        def saboteur():
            yield []          # g-share round
            yield []          # expose round
            yield [bc(("vss/nu", 1234))]

        results, _ = run_vss(F, N, T, seed=4, faulty_programs={6: saboteur()})
        honest = {pid: r for pid, r in results.items() if pid != 6}
        assert not any(r.accepted for r in honest.values())

    def test_robust_mode_survives_saboteur(self):
        from repro.net.transport import broadcast as bc

        def saboteur():
            yield []
            yield []
            yield [bc(("vss/nu", 1234))]

        results, _ = run_vss(
            F, N, T, seed=4, robust=True, faulty_programs={6: saboteur()}
        )
        honest = {pid: r for pid, r in results.items() if pid != 6}
        assert all(r.accepted for r in honest.values())

    def test_robust_mode_tolerates_t_bad_shares(self):
        """<= t corrupted shares are within Fig. 4's n-t criterion: the
        dealing is still accepted (the t bad positions are correctable)."""
        results, _ = run_vss(F, N, T, seed=5, robust=True, cheat_shares={2: 7})
        assert all(r.accepted for r in results.values())

    def test_robust_mode_still_sound(self):
        """A dealing bad at t+1 positions cannot meet the n-t criterion."""
        results, _ = run_vss(
            F, N, T, seed=5, robust=True, cheat_shares={2: 7, 3: 8, 4: 9}
        )
        assert not any(r.accepted for r in results.values())

    def test_silent_player_robust(self):
        from repro.net.adversary import silent_program

        results, _ = run_vss(
            F, N, T, seed=6, robust=True, faulty_programs={3: silent_program()}
        )
        honest = {pid: r for pid, r in results.items() if pid != 3}
        assert all(r.accepted for r in honest.values())


class TestSoundnessLemma1:
    """Lemma 1: the optimal cheater is accepted with probability 1/p."""

    @staticmethod
    def optimal_cheater_run(seed):
        """Dealer adds d*x^(t+1) to f and crafts g to cancel it iff the
        exposed challenge equals a guessed r*."""
        field, n, t = TINY, 7, 1
        rng = random.Random(seed + 10_000)
        d = field.random_nonzero(rng)
        r_star = field.random_nonzero(rng)
        offsets = {
            pid: field.mul(d, field.pow(field.element_point(pid), t + 1))
            for pid in range(1, n + 1)
        }
        # g = g0 - (d / r*) x^(t+1):  F = f + d x^{t+1} + r g has zero
        # x^{t+1} coefficient iff r == r*.
        g0 = Polynomial.random(field, t, rng)
        correction = field.neg(field.div(d, r_star))
        g = g0 + Polynomial(
            field, [field.zero] * (t + 1) + [correction]
        )
        results, _ = run_vss(
            field, n, t, seed=seed, cheat_offsets=offsets, cheat_g=g
        )
        verdicts = {r.accepted for r in results.values()}
        assert len(verdicts) == 1
        return verdicts.pop()

    def test_acceptance_rate_matches_one_over_p(self):
        trials = 320
        accepts = sum(self.optimal_cheater_run(seed) for seed in range(trials))
        expected = trials / TINY.order  # = trials * (1/p) = 20
        # binomial sd ~ sqrt(20 * 15/16) ~ 4.3; allow 4 sigma
        assert abs(accepts - expected) < 18, accepts
        assert accepts > 0, "optimal cheater should sometimes win in a tiny field"


class TestCostLemma2:
    def test_two_interpolations_per_player(self):
        _, metrics = run_vss(F, N, T, seed=7)
        for pid in range(1, N + 1):
            assert metrics.ops(pid).interpolations == 2

    def test_message_counts(self):
        """Fig. 2 traffic: n unicasts (g-shares) + n broadcasts (nu),
        plus the Coin-Expose round the paper accounts separately."""
        _, metrics = run_vss(F, N, T, seed=8)
        assert metrics.broadcast_messages == N          # nu round
        # g-share unicasts + expose multicasts (n senders x n receivers)
        assert metrics.unicast_messages == N + N * N

    def test_bits_scale_with_k(self):
        _, m16 = run_vss(GF2k(16), N, T, seed=9)
        _, m8 = run_vss(GF2k(8), N, T, seed=9)
        assert m16.bits == 2 * m8.bits
