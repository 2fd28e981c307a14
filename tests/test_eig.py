"""EIG Byzantine agreement (optimal resilience n > 3t)."""

import random

import pytest

from repro.net.adversary import silent_program
from repro.net.transport import Send
from repro.protocols.eig import eig_program, run_eig


class TestHonest:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    def test_validity(self, n, t):
        for bit in (0, 1):
            out, _ = run_eig(n, t, {pid: bit for pid in range(1, n + 1)})
            assert set(out.values()) == {bit}

    def test_agreement_mixed(self):
        n, t = 7, 2
        out, _ = run_eig(n, t, {pid: pid % 2 for pid in range(1, n + 1)})
        assert len(set(out.values())) == 1

    def test_round_count(self):
        n, t = 7, 2
        _, metrics = run_eig(n, t, {pid: 1 for pid in range(1, n + 1)})
        assert metrics.rounds <= t + 2  # t+1 protocol rounds + drain

    def test_minimum_resilience_bound(self):
        with pytest.raises(ValueError):
            gen = eig_program(6, 2, 1, 1)  # n = 3t violates n > 3t
            next(gen)


class TestByzantine:
    def test_silent_fault_n4(self):
        """The tightest configuration: n = 4, t = 1."""
        out, _ = run_eig(4, 1, {pid: pid % 2 for pid in range(1, 5)},
                         faulty={4: silent_program()})
        assert len(set(out.values())) == 1

    def test_equivocating_fault_n4(self):
        """A faulty player telling different stories to different players
        must not break agreement at n = 3t + 1."""
        def two_faced(n):
            def program():
                # round 1: different input bit per receiver
                yield [Send(dst, ("eig/r1", dst % 2)) for dst in range(1, n + 1)]
                # round 2: contradictory relays
                yield [
                    Send(
                        dst,
                        ("eig/r2", tuple(((j,), (dst + j) % 2)
                                          for j in range(1, n + 1) if j != 1)),
                    )
                    for dst in range(1, n + 1)
                ]
            return program()

        for honest_bits in [(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]:
            inputs = {pid: bit for pid, bit in enumerate(honest_bits, start=2)}
            inputs[1] = 0  # placeholder; player 1 is faulty
            out, _ = run_eig(4, 1, inputs, faulty={1: two_faced(4)})
            decisions = set(out.values())
            assert len(decisions) == 1, (honest_bits, out)
            if len(set(honest_bits)) == 1:
                assert decisions == {honest_bits[0]}

    def test_fuzz_agreement_n7_t2(self):
        rng = random.Random(3)

        def chaotic(n):
            def program():
                while True:
                    sends = []
                    for dst in range(1, n + 1):
                        tag = rng.choice(["eig/r1", "eig/r2", "eig/r3"])
                        body = rng.choice([
                            rng.randrange(2),
                            tuple(((j,), rng.randrange(2))
                                  for j in range(2, 5)),
                            "junk",
                        ])
                        sends.append(Send(dst, (tag, body)))
                    yield sends
            return program()

        for trial in range(6):
            inputs = {pid: rng.randrange(2) for pid in range(1, 8)}
            faulty = {2: chaotic(7), 6: chaotic(7)}
            out, _ = run_eig(7, 2, inputs, faulty=faulty)
            assert len(set(out.values())) == 1, (trial, out)

    def test_validity_with_faulty_players(self):
        """All honest share b; two Byzantine players push the opposite."""
        def opposer(n, t):
            def program():
                yield [Send(dst, ("eig/r1", 0)) for dst in range(1, n + 1)]
                while True:
                    yield []
            return program()

        out, _ = run_eig(
            7, 2, {pid: 1 for pid in range(1, 8)},
            faulty={3: opposer(7, 2), 5: opposer(7, 2)},
        )
        assert set(out.values()) == {1}


class TestMessageGrowth:
    def test_exponential_layer_sizes(self):
        """The EIG price: bits grow steeply with t (why the paper prefers
        randomized BA fed by cheap coins)."""
        _, m1 = run_eig(4, 1, {pid: 1 for pid in range(1, 5)})
        _, m2 = run_eig(7, 2, {pid: 1 for pid in range(1, 8)})
        assert m2.bits > 4 * m1.bits
