"""Deterministic Byzantine agreement (phase king)."""

import random

import pytest

from repro.net.adversary import silent_program
from repro.net.transport import Send, multicast
from repro.protocols.ba import phase_king, run_phase_king

N, T = 9, 2


class TestHonestRuns:
    def test_validity_all_ones(self):
        out, _ = run_phase_king(N, T, {pid: 1 for pid in range(1, N + 1)})
        assert set(out.values()) == {1}

    def test_validity_all_zeros(self):
        out, _ = run_phase_king(N, T, {pid: 0 for pid in range(1, N + 1)})
        assert set(out.values()) == {0}

    @pytest.mark.parametrize("split", [1, 3, 4, 5, 8])
    def test_agreement_mixed_inputs(self, split):
        inputs = {pid: 1 if pid <= split else 0 for pid in range(1, N + 1)}
        out, _ = run_phase_king(N, T, inputs)
        assert len(set(out.values())) == 1

    def test_round_count(self):
        """Exactly 2(t+1) protocol rounds."""
        _, metrics = run_phase_king(N, T, {pid: 1 for pid in range(1, N + 1)})
        assert metrics.rounds <= 2 * (T + 1) + 1

    def test_nonbinary_inputs_coerced(self):
        out, _ = run_phase_king(N, T, {pid: pid for pid in range(1, N + 1)})
        assert set(out.values()) <= {0, 1}


class TestFaultyRuns:
    def test_silent_faulty_players(self):
        inputs = {pid: pid % 2 for pid in range(1, N + 1)}
        faulty = {2: silent_program(), 7: silent_program()}
        out, _ = run_phase_king(N, T, inputs, faulty=faulty)
        honest = [v for pid, v in out.items() if pid not in faulty]
        assert len(set(honest)) == 1

    def test_validity_despite_adversarial_votes(self):
        """All honest start with 1; faulty players vote 0 everywhere."""
        def always_zero(n):
            while True:
                yield [multicast(("ba/p1/vote", 0)),
                       *[Send(d, (f"ba/p{p}/vote", 0)) for p in range(2, 4)
                         for d in range(1, n + 1)]]

        inputs = {pid: 1 for pid in range(1, N + 1)}
        faulty = {1: always_zero(N), 5: always_zero(N)}
        out, _ = run_phase_king(N, T, inputs, faulty=faulty)
        honest = [v for pid, v in out.items() if pid not in faulty]
        assert set(honest) == {1}

    def test_equivocating_voters(self):
        """Faulty players send different bits to different players each
        round; honest players must still agree."""
        rng = random.Random(0)

        def equivocator(n, t):
            def program():
                while True:
                    sends = []
                    for phase in range(1, t + 2):
                        for dst in range(1, n + 1):
                            sends.append(
                                Send(dst, (f"ba/p{phase}/vote", rng.randrange(2)))
                            )
                            sends.append(
                                Send(dst, (f"ba/p{phase}/king", rng.randrange(2)))
                            )
                    yield sends
            return program()

        for trial in range(5):
            inputs = {pid: pid % 2 for pid in range(1, N + 1)}
            faulty = {1: equivocator(N, T), 4: equivocator(N, T)}
            out, _ = run_phase_king(N, T, inputs, faulty=faulty)
            honest = [v for pid, v in out.items() if pid not in faulty]
            assert len(set(honest)) == 1, (trial, out)

    def test_faulty_king_cannot_break_agreement(self):
        """Player 1 is the first-phase king; making it Byzantine leaves
        t+1-phase agreement intact (some later king is honest)."""
        def evil_king(n):
            def program():
                while True:
                    sends = []
                    for dst in range(1, n + 1):
                        sends.append(Send(dst, ("ba/p1/king", dst % 2)))
                        sends.append(Send(dst, ("ba/p1/vote", dst % 2)))
                    yield sends
            return program()

        inputs = {pid: pid % 2 for pid in range(1, N + 1)}
        out, _ = run_phase_king(N, T, inputs, faulty={1: evil_king(N)})
        honest = [v for pid, v in out.items() if pid != 1]
        assert len(set(honest)) == 1


class TestPreconditions:
    def test_requires_n_over_4t(self):
        with pytest.raises(ValueError):
            # n = 8, t = 2 violates n > 4t
            gen = phase_king(8, 2, 1, 1)
            next(gen)

    def test_t_zero_single_phase(self):
        out, metrics = run_phase_king(5, 0, {pid: 1 for pid in range(1, 6)})
        assert set(out.values()) == {1}
        assert metrics.rounds <= 3
