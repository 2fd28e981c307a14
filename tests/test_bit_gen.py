"""Protocol Bit-Gen (Fig. 4): verified dealing without broadcast."""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import silent_program
from repro.net.transport import Send, unicast
from repro.poly.polynomial import Polynomial
from repro.protocols.bit_gen import run_bit_gen

F = GF2k(16)
TINY = GF2k(4)
N, T = 7, 1


class TestHonestDealer:
    def test_all_players_accept_same_polynomial(self):
        outputs, _ = run_bit_gen(F, N, T, M=4, seed=1)
        polys = {o.poly for o in outputs.values()}
        assert len(polys) == 1 and None not in polys
        assert all(o.accepted for o in outputs.values())

    def test_share_sets_complete(self):
        outputs, _ = run_bit_gen(F, N, T, M=4, seed=2)
        for o in outputs.values():
            assert set(o.share_set) == set(range(1, N + 1))

    def test_my_shares_retained(self):
        """Raw shares are kept for later coin exposure (Fig. 6 needs them)."""
        outputs, _ = run_bit_gen(F, N, T, M=4, seed=3, blinding=True)
        for o in outputs.values():
            assert o.my_shares is not None
            assert len(o.my_shares) == 5  # M + blinding

    def test_decoded_poly_matches_batched_shares(self):
        outputs, _ = run_bit_gen(F, N, T, M=3, seed=4)
        for pid, o in outputs.items():
            from repro.poly.polynomial import horner_batch

            nu = horner_batch(F, list(o.my_shares), o.challenge)
            assert o.poly(F.element_point(pid)) == nu

    def test_three_protocol_rounds_plus_expose(self):
        _, metrics = run_bit_gen(F, N, T, M=4, seed=5)
        # deal + expose + nu announcements (+ final drain round)
        assert metrics.rounds <= 4

    def test_two_interpolations_per_player(self):
        """Lemma 6: 2 interpolations (challenge expose + BW decode)."""
        _, metrics = run_bit_gen(F, N, T, M=8, seed=6)
        for pid in range(1, N + 1):
            assert metrics.ops(pid).interpolations == 2

    def test_bits_linear_in_m(self):
        """Lemma 6: nMk + 2n^2 k bits — the M-dependence is n*k per unit."""
        _, m4 = run_bit_gen(F, N, T, M=4, seed=7, blinding=False)
        _, m12 = run_bit_gen(F, N, T, M=12, seed=7, blinding=False)
        assert m12.bits - m4.bits == 8 * N * F.bit_length


class TestFaultyDealer:
    def test_high_degree_dealing_rejected(self):
        rng = random.Random(8)
        bad_polys = [Polynomial.random(F, T + 2, rng) for _ in range(5)]
        outputs, _ = run_bit_gen(F, N, T, M=4, seed=8, cheat_polys=bad_polys)
        assert not any(o.accepted for o in outputs.values())

    def test_single_bad_dealing_in_batch_rejected(self):
        rng = random.Random(9)
        polys = [Polynomial.random(F, T, rng) for _ in range(4)]
        polys.append(Polynomial.random(F, T + 3, rng))  # one bad apple
        outputs, _ = run_bit_gen(F, N, T, M=4, seed=9, cheat_polys=polys)
        assert not any(o.accepted for o in outputs.values())

    def test_silent_dealer_rejected(self):
        outputs, _ = run_bit_gen(
            F, N, T, M=4, seed=10, faulty_programs={1: silent_program()}
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 1}
        assert not any(o.accepted for o in honest.values())
        assert all(o.my_shares is None for o in honest.values())

    def test_dealer_skipping_t_players_still_accepted(self):
        """A dealer that withholds shares from t players but otherwise
        behaves passes Fig. 4's n-t criterion — and the skipped players
        still learn F from the other announcements."""
        from repro.protocols.bit_gen import bit_gen_program
        from repro.protocols.coin_expose import make_dealer_coin
        from repro.net.runtime import ProtocolRuntime

        rng = random.Random(11)
        polys = [Polynomial.random(F, T, rng) for _ in range(5)]
        _, coin_shares = make_dealer_coin(F, N, T, "bitgen-challenge", rng)

        def drop_first_round_to(skip, base):
            sends = next(base)
            inbox = yield [s for s in sends if s.dst != skip]
            while True:
                try:
                    sends = base.send(inbox)
                except StopIteration as stop:
                    return stop.value
                inbox = yield sends

        programs = {}
        for pid in range(1, N + 1):
            base = bit_gen_program(
                F, N, T, pid, 1, 4, coin_shares[pid],
                dealer_polys=polys if pid == 1 else None,
            )
            programs[pid] = (
                drop_first_round_to(N, base) if pid == 1 else base
            )
        net = ProtocolRuntime(N, field=F, allow_broadcast=False)
        outputs = net.run(programs)
        # players 1..n-1 got shares; player n did not, but still decodes F
        assert all(o.accepted for o in outputs.values())
        assert outputs[N].my_shares is None
        assert outputs[N].poly is not None


class TestSoundnessLemma5:
    """Lemma 5: bad dealing accepted w.p. <= M/p (tiny field makes the
    event observable; the cheater cancels the offending coefficient on
    planted challenge values, as in Batch-VSS)."""

    @staticmethod
    def cheat_run(seed, M=4):
        field, n, t = TINY, 7, 1
        scheme_points = [field.element_point(i) for i in range(1, n + 1)]
        rng = random.Random(seed + 999)
        # dealing h gets coefficient c_h at x^{t+1}; combined coefficient
        # r * c(r) vanishes on roots {0, 1, 2}
        roots = [field.from_int(v) for v in range(1, M)]
        poly = Polynomial.constant(field, field.one)
        for rho in roots:
            poly = poly * Polynomial(field, [field.neg(rho), field.one])
        base = [Polynomial.random(field, t, rng) for _ in range(M)]
        bad = [
            b + Polynomial(field, [field.zero] * (t + 1) + [poly.coefficient(h)])
            for h, b in enumerate(base)
        ]
        outputs, _ = run_bit_gen(
            field, n, t, M=M, seed=seed, blinding=False, cheat_polys=bad
        )
        verdicts = {o.accepted for o in outputs.values()}
        assert len(verdicts) == 1
        return verdicts.pop()

    def test_acceptance_rate_bounded_by_m_over_p(self):
        trials = 200
        accepts = sum(self.cheat_run(seed) for seed in range(trials))
        # 4 roots {0,1,2,3}... M=4: roots {0,1,2} plus r=0 -> rate 4/16
        expected = trials * 4 / 16
        assert accepts > 0
        assert abs(accepts - expected) < 28, accepts
