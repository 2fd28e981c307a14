"""Targeted adversarial strategies against Coin-Gen's weak points.

These attacks aim at the exact design decisions DESIGN.md Section 5
documents: view-splitting of the nu announcements (which motivated the
self-selecting expose rule) and leader-proposal sabotage (which motivated
the existence-style condition iii).
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.transport import Send
from repro.poly.polynomial import Polynomial, horner_batch
from repro.protocols.coin_expose import coin_expose_many
from repro.protocols.coin_gen import (
    coin_gen_program,
    expose_coin,
    make_seed_coins,
    run_coin_gen,
)
from repro.sharing.shamir import ShamirScheme

F = GF2k(32)
N, T = 7, 1


def nu_equivocator(n, t, seed_shares, rng):
    """Deals honestly, then announces a *different* nu vector to each
    player — the view-splitting attack on Fig. 4's point-to-point
    announcements."""
    scheme = ShamirScheme(F, n, t)

    def program():
        # round 1: honest dealing (degree-t polynomials, with blinder)
        polys = [Polynomial.random(F, t, rng) for _ in range(3)]
        yield [
            Send(j, ("cg/sh", tuple(p(scheme.point(j)) for p in polys)))
            for j in range(1, n + 1)
        ]
        yield []  # challenge-expose round: withholds its seed share
        # round 3: equivocate the nu vector per receiver
        sends = []
        for dst in range(1, n + 1):
            fake = tuple(rng.randrange(F.order) for _ in range(n))
            sends.append(Send(dst, ("cg/nu", fake)))
        yield sends
        while True:
            yield []

    return program()


class TestViewSplitting:
    @pytest.mark.parametrize("bad", [1, 4, 7])
    def test_nu_equivocation_does_not_break_pipeline(self, bad):
        rng = random.Random(bad)
        outputs, _ = run_coin_gen(
            F, N, T, M=2, seed=bad * 11,
            faulty_programs={bad: nu_equivocator(N, T, None, rng)},
        )
        honest = {pid: o for pid, o in outputs.items() if pid != bad}
        assert len({o.success for o in honest.values()}) == 1
        assert all(o.success for o in honest.values())
        assert len({o.clique for o in honest.values()}) == 1
        for h in range(2):
            values, _ = expose_coin(F, N, honest, h, T)
            vs = {v for pid, v in values.items() if pid != bad}
            assert len(vs) == 1 and None not in vs


def proposal_saboteur(n, rng):
    """Behaves silently except for grade-casting a *structurally valid
    but bogus* proposal — if elected leader, BA must reject it; if not,
    it must not disturb anyone."""
    def program():
        yield []  # dealing round: deals nothing
        yield []  # expose round
        yield []  # nu round
        bogus = (
            "prop",
            tuple(range(1, n - 1)),
            tuple((j, (rng.randrange(F.order), rng.randrange(F.order)))
                  for j in range(1, n - 1)),
        )
        yield [Send(dst, ("cg/gc/v", bogus)) for dst in range(1, n + 1)]
        # echo rounds + everything after: silent
        while True:
            yield []

    return program()


class TestProposalSabotage:
    def test_bogus_proposals_rejected_or_avoided(self):
        """Across seeds (hence leader draws), honest players always end
        in a common state; a bogus-proposal leader costs at most extra
        iterations, never a bad clique."""
        for seed in range(6):
            rng = random.Random(seed)
            outputs, _ = run_coin_gen(
                F, N, T, M=1, seed=seed,
                faulty_programs={3: proposal_saboteur(N, rng)},
            )
            honest = {pid: o for pid, o in outputs.items() if pid != 3}
            assert all(o.success for o in honest.values()), seed
            clique = next(iter(honest.values())).clique
            # the saboteur dealt nothing, so it can never be in the clique
            assert 3 not in clique
            values, _ = expose_coin(F, N, honest, 0, T)
            vs = {v for pid, v in values.items() if pid != 3}
            assert len(vs) == 1 and None not in vs


class TestSeparateChallengesUnderFaults:
    def test_ablation_mode_with_silent_fault(self):
        from repro.net.adversary import silent_program

        outputs, _ = run_coin_gen(
            F, N, T, M=2, seed=9, shared_challenge=False,
            faulty_programs={6: silent_program()},
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 6}
        assert all(o.success for o in honest.values())
        values, _ = expose_coin(F, N, honest, 0, T)
        vs = {v for pid, v in values.items() if pid != 6}
        assert len(vs) == 1 and None not in vs
