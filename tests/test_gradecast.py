"""Grade-Cast: the Feldman-Micali graded broadcast of Fig. 5."""

import random

import pytest

from repro.net.runtime import ProtocolRuntime
from repro.net.transport import Send, multicast
from repro.protocols.gradecast import parallel_gradecast

N, T = 7, 2


def run_gradecast(values, faulty=None, n=N, t=T):
    net = ProtocolRuntime(n, allow_broadcast=False)
    programs = {}
    faulty = faulty or {}
    for pid in range(1, n + 1):
        if pid in faulty:
            if faulty[pid] is not None:
                programs[pid] = faulty[pid]
            continue
        programs[pid] = parallel_gradecast(n, t, pid, values[pid])
    honest = [pid for pid in programs if pid not in faulty]
    out = net.run(programs, wait_for=honest)
    return {pid: out[pid] for pid in honest}, net.metrics


class TestHonestSenders:
    def test_everyone_grade_2(self):
        values = {pid: ("v", pid * 10) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values)
        for pid, graded in results.items():
            for sender in range(1, N + 1):
                assert graded[sender] == (("v", sender * 10), 2)

    def test_three_rounds(self):
        values = {pid: pid for pid in range(1, N + 1)}
        _, metrics = run_gradecast(values)
        assert metrics.rounds <= 4  # 3 protocol rounds + final drain


class TestFaultySenders:
    def _equivocating_sender(self, me, n):
        """Sends a different value to each player in round 1, then follows
        the protocol honestly for the echo rounds."""
        def program():
            inbox = yield [
                Send(dst, ("gc/v", ("evil", dst))) for dst in range(1, n + 1)
            ]
            # echo honestly
            from repro.protocols.common import filter_tag, is_hashable

            first = {
                src: val
                for src, val in filter_tag(inbox, "gc/v").items()
                if is_hashable(val)
            }
            inbox = yield [multicast(("gc/echo", tuple(sorted(first.items()))))]
            yield []
            return None

        return program()

    def test_equivocator_gets_low_grade(self):
        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        faulty = {4: self._equivocating_sender(4, N)}
        results, _ = run_gradecast(values, faulty=faulty)
        for graded in results.values():
            value, conf = graded[4]
            assert conf < 2  # no honest player fully trusts instance 4

    def test_silent_sender_grade_0(self):
        from repro.net.adversary import silent_program

        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values, faulty={3: silent_program()})
        for graded in results.values():
            assert graded[3] == (None, 0)
        # other instances unaffected
        for graded in results.values():
            assert graded[1] == (("v", 1), 2)

    def test_grade2_implies_common_value_grade1(self):
        """The gradecast soundness property, under a randomized adversary:
        whenever any honest player outputs grade 2 for a sender, every
        honest player holds the same value with grade >= 1."""
        rng = random.Random(0)

        def chaotic(me, n):
            def program():
                for _ in range(3):
                    sends = []
                    for dst in range(1, n + 1):
                        tag = rng.choice(["gc/v", "gc/echo", "gc/echo2"])
                        sends.append(Send(dst, (tag, rng.randrange(100))))
                    yield sends
            return program()

        for trial in range(10):
            values = {pid: ("v", pid) for pid in range(1, N + 1)}
            faulty = {2: chaotic(2, N), 6: chaotic(6, N)}
            results, _ = run_gradecast(values, faulty=faulty)
            for sender in range(1, N + 1):
                grade2_values = {
                    graded[sender][0]
                    for graded in results.values()
                    if graded[sender][1] == 2
                }
                if grade2_values:
                    assert len(grade2_values) == 1
                    common = grade2_values.pop()
                    for graded in results.values():
                        value, conf = graded[sender]
                        assert conf >= 1
                        assert value == common


class TestValidation:
    def test_unhashable_values_ignored(self):
        """A sender proposing an unhashable value is treated as silent."""
        def bad_sender(n):
            yield [multicast(("gc/v", ["un", "hashable"]))]
            yield []
            yield []

        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values, faulty={5: bad_sender(N)})
        for graded in results.values():
            assert graded[5] == (None, 0)

    def test_malformed_echoes_ignored(self):
        def bad_echoer(n):
            yield [multicast(("gc/v", "mine"))]
            # echo body is not a tuple of pairs
            yield [multicast(("gc/echo", "garbage"))]
            yield [multicast(("gc/echo2", ((1, "x", "y"),)))]

        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values, faulty={2: bad_echoer(N)})
        for graded in results.values():
            assert graded[1] == (("v", 1), 2)
