"""Byzantine adversary behaviours."""

import random

import pytest

from repro.net.adversary import (
    Adversary,
    MobileAdversary,
    crash_program,
    echo_noise_program,
    equivocator_program,
    silent_program,
)
from repro.net.runtime import ProtocolRuntime
from repro.net.transport import ALL, Send, multicast, unicast


def collector(rounds):
    """Honest program recording its inboxes for ``rounds`` rounds."""
    seen = []
    for _ in range(rounds):
        inbox = yield []
        seen.append(inbox)
    return seen


class TestBehaviours:
    def test_silent_never_sends(self):
        net = ProtocolRuntime(2, max_rounds=20)
        out = net.run({1: collector(3), 2: silent_program()}, wait_for=[1])
        assert all(inbox == {} for inbox in out[1])

    def test_crash_follows_then_stops(self):
        def chatty(me):
            while True:
                yield [multicast(("t", me))]

        net = ProtocolRuntime(2, max_rounds=30)
        out = net.run(
            {1: collector(5), 2: crash_program(3, chatty(2))}, wait_for=[1]
        )
        inboxes = out[1]
        assert 2 in inboxes[0] and 2 in inboxes[1]   # alive in rounds 1-2
        assert all(2 not in inbox for inbox in inboxes[2:])  # crashed

    def test_noise_replays_tags(self):
        def honest():
            inbox = yield [multicast(("proto/x", 42))]
            inbox = yield []
            inbox = yield []
            return inbox

        rng = random.Random(0)
        net = ProtocolRuntime(2, max_rounds=20)
        out = net.run(
            {1: honest(), 2: echo_noise_program(2, rng)}, wait_for=[1]
        )
        final = out[1]
        # the noise player replays the observed tag with garbage
        assert any(
            isinstance(p, tuple) and p[0] == "proto/x"
            for payloads in final.values()
            for p in payloads
        )

    def test_equivocator_sends_different_values(self):
        def base(me):
            while True:
                yield [multicast(("t", 1234))]

        rng = random.Random(1)
        received = {}

        def listener(me):
            for _ in range(6):
                inbox = yield []
                for p in inbox.get(3, []):
                    received.setdefault(me, set()).add(p)

        net = ProtocolRuntime(3, max_rounds=40)
        net.run(
            {
                1: listener(1),
                2: listener(2),
                3: equivocator_program(3, rng, base(3)),
            },
            wait_for=[1, 2],
        )
        all_values = set().union(*received.values())
        assert len(all_values) > 1  # equivocation happened


class TestAdversaryObject:
    def test_program_selection(self):
        adv = Adversary({2, 3}, behaviour="silent")
        progs = adv.programs(5)
        assert set(progs) == {2, 3}
        with pytest.raises(ValueError):
            adv.program(1, 5)

    def test_custom_factory(self):
        def factory(pid, n, blackboard, rng):
            blackboard["built"] = blackboard.get("built", 0) + 1
            return silent_program()

        adv = Adversary({1, 4}, behaviour=factory)
        adv.programs(5)
        assert adv.blackboard["built"] == 2

    def test_unknown_behaviour(self):
        with pytest.raises(ValueError):
            Adversary({1}, behaviour="teleport").program(1, 4)


class TestMobileAdversary:
    def test_moves_between_epochs(self):
        mob = MobileAdversary(10, 3, seed=5)
        sets = [mob.next_epoch().corrupt for _ in range(20)]
        assert all(len(s) == 3 for s in sets)
        assert len(set(sets)) > 1  # actually moves
        assert mob.history == sets
