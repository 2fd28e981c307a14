"""Security properties of the generated coins.

Unpredictability/unbiasability (Section 1.1: "no subset of players
smaller than a given size would have any influence on the outcome") and
the blinding fix documented in DESIGN.md Section 5.
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import silent_program
from repro.net.transport import Send, unicast
from repro.protocols.coin_gen import expose_coin, run_coin_gen

FAST = GF2k(16)
N, T = 7, 1


def exposed_value(outputs, h, t, n=N, exclude=()):
    values, _ = expose_coin(FAST, n, outputs, h, t)
    vs = {v for pid, v in values.items() if pid not in exclude}
    assert len(vs) == 1
    return vs.pop()


class TestUnbiasability:
    def test_coin_bit_uniform_across_runs(self):
        """The exposed coin's low bit over independent runs is ~Bernoulli(1/2)."""
        ones = 0
        trials = 60
        for seed in range(trials):
            outputs, _ = run_coin_gen(FAST, N, T, M=1, seed=seed)
            ones += FAST.coin_bit(exposed_value(outputs, 0, T))
        assert 15 <= ones <= 45  # ±4 sigma around 30

    def test_constant_dealer_cannot_skew(self):
        """An adversarial dealer contributing all-zero dealings (the most
        'targeted' dealing possible) leaves the coin uniform, because the
        honest dealings in the clique sum still randomize it."""
        from repro.sharing.shamir import ShamirScheme
        scheme = ShamirScheme(FAST, N, T)

        def zero_dealer(n):
            def program():
                # deal the all-zero tuple to everyone (a perfectly valid
                # degree-0 dealing of the secret 0), then follow nothing
                yield [
                    unicast(j, ("cg/sh", (0, 0)))
                    for j in range(1, n + 1)
                ]
                while True:
                    yield []
            return program()

        ones = 0
        trials = 40
        for seed in range(trials):
            outputs, _ = run_coin_gen(
                FAST, N, T, M=1, seed=seed,
                faulty_programs={2: zero_dealer(N)},
            )
            honest = {pid: o for pid, o in outputs.items() if pid != 2}
            assert all(o.success for o in honest.values())
            ones += FAST.coin_bit(exposed_value(honest, 0, T, exclude=(2,)))
        assert 8 <= ones <= 32  # ±4 sigma around 20

    def test_abort_at_expose_cannot_change_value(self):
        """The coin value is fixed by the dealings; a holder aborting at
        expose time changes nothing (no bias-via-abort)."""
        outputs, _ = run_coin_gen(FAST, N, T, M=1, seed=77)
        v_full = exposed_value(outputs, 0, T)
        values, _ = expose_coin(
            FAST, N, outputs, 0, T, faulty_programs={3: silent_program()}
        )
        vs = {v for pid, v in values.items() if pid != 3}
        assert vs == {v_full}


class TestBlinding:
    """DESIGN.md Section 5 item 1: without the blinding dealing, the last
    coin of a batch is a public function of the earlier coins; with it,
    that attack fails."""

    @staticmethod
    def predict_last_coin(outputs, M, t):
        """The linear-algebra attack: sum_h r^h coin_h = sum_k F_k(0)."""
        field = FAST
        any_out = next(iter(outputs.values()))
        r = any_out.challenge
        total = field.zero
        for k in any_out.clique:
            total = field.add(total, any_out.public_polys[k](field.zero))
        acc = field.zero
        for h in range(M - 1):
            coin_h = exposed_value(outputs, h, t)
            acc = field.add(acc, field.mul(field.pow(r, h + 1), coin_h))
        # solve r^M * coin_{M-1} = total - acc
        residue = field.sub(total, acc)
        return field.div(residue, field.pow(r, M))

    def test_without_blinding_last_coin_is_predictable(self):
        M = 4
        outputs, _ = run_coin_gen(FAST, N, T, M=M, seed=5, blinding=False)
        predicted = self.predict_last_coin(outputs, M, T)
        actual = exposed_value(outputs, M - 1, T)
        assert predicted == actual  # the attack works verbatim

    def test_with_blinding_prediction_fails(self):
        M = 4
        outputs, _ = run_coin_gen(FAST, N, T, M=M, seed=5, blinding=True)
        predicted = self.predict_last_coin(outputs, M, T)
        actual = exposed_value(outputs, M - 1, T)
        assert predicted != actual  # w.p. 1 - 1/p


class TestPrivacyBeforeExpose:
    def test_t_shares_of_a_sealed_coin_reveal_nothing(self):
        """Any t coin shares are consistent with every possible value."""
        from repro.poly.lagrange import interpolate

        outputs, _ = run_coin_gen(FAST, N, T, M=1, seed=9)
        clique = outputs[1].clique
        holder = clique[0]
        observed = [(
            FAST.element_point(holder),
            outputs[holder].coins[0].my_value,
        )]
        for candidate in range(0, FAST.order, 4099):
            poly = interpolate(FAST, observed + [(FAST.zero, candidate)])
            assert poly.degree <= T
