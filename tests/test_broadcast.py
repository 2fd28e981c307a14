"""Byzantine broadcast built from grade-cast + BA."""

import random

import pytest

from repro.net.adversary import silent_program
from repro.net.transport import Send
from repro.protocols.broadcast import DEFAULT, run_broadcast

N, T = 9, 2


class TestHonestSender:
    def test_all_receive_the_value(self):
        outputs, _ = run_broadcast(N, T, sender=3, value=("payload", 42))
        assert all(v == ("payload", 42) for v in outputs.values())

    def test_with_silent_faulty_receivers(self):
        faulty = {2: silent_program(), 7: silent_program()}
        outputs, _ = run_broadcast(
            N, T, sender=1, value="hello", faulty_programs=faulty
        )
        honest = {pid: v for pid, v in outputs.items() if pid not in faulty}
        assert set(honest.values()) == {"hello"}


class TestFaultySender:
    def test_silent_sender_default(self):
        outputs, _ = run_broadcast(
            N, T, sender=4, value=None, faulty_programs={4: silent_program()}
        )
        honest = {pid: v for pid, v in outputs.items() if pid != 4}
        assert set(honest.values()) == {DEFAULT}

    def test_equivocating_sender_still_agreement(self):
        """The sender sends a different value to each player; honest
        players must still all output the SAME value (possibly default)."""
        def equivocator(n):
            def program():
                yield [
                    Send(dst, ("bcast/gc/v", ("split", dst)))
                    for dst in range(1, n + 1)
                ]
                while True:
                    yield []
            return program()

        outputs, _ = run_broadcast(
            N, T, sender=5, value=None, faulty_programs={5: equivocator(N)}
        )
        honest = {pid: v for pid, v in outputs.items() if pid != 5}
        assert len(set(map(repr, honest.values()))) == 1

    def test_random_adversaries_agreement_fuzz(self):
        """Fuzz: chaotic sender + one chaotic helper; agreement must hold
        in every trial."""
        rng = random.Random(7)

        def chaotic(n):
            def program():
                while True:
                    sends = []
                    for dst in range(1, n + 1):
                        tag = rng.choice(
                            ["bcast/gc/v", "bcast/gc/echo", "bcast/ba/p1/vote"]
                        )
                        sends.append(Send(dst, (tag, rng.randrange(50))))
                    yield sends
            return program()

        for trial in range(5):
            outputs, _ = run_broadcast(
                N, T, sender=2, value=None,
                faulty_programs={2: chaotic(N), 8: chaotic(N)},
            )
            honest = {p: v for p, v in outputs.items() if p not in (2, 8)}
            assert len(set(map(repr, honest.values()))) == 1, (trial, honest)


class TestCost:
    def test_rounds(self):
        """3 gradecast rounds + 2(t+1) BA rounds."""
        _, metrics = run_broadcast(N, T, sender=1, value="x")
        assert metrics.rounds <= 3 + 2 * (T + 1) + 1
