"""The synchronous network simulator: delivery, metering, fault hooks."""

import pytest

from repro.fields import GF2k
from repro.net.transport import (
    ALL,
    ProtocolViolation,
    Send,
    broadcast,
    multicast,
    unicast,
)
from repro.net.runtime import ProtocolRuntime


def echo_once(me, dst, payload):
    """Send one message, return the inbox received next round."""
    inbox = yield [unicast(dst, payload)]
    return inbox


class TestDelivery:
    def test_unicast_private(self):
        """Only the addressee sees a unicast (private channels)."""
        def sender():
            inbox = yield [unicast(2, "secret")]
            return inbox

        def receiver():
            inbox = yield []
            return inbox

        net = ProtocolRuntime(3)
        out = net.run({1: sender(), 2: receiver(), 3: receiver()})
        assert out[2] == {1: ["secret"]}
        assert out[3] == {}
        assert out[1] == {}

    def test_multicast_reaches_everyone_including_self(self):
        def prog(me):
            inbox = yield [multicast(("tag", me))]
            return sorted(inbox)

        net = ProtocolRuntime(3)
        out = net.run({pid: prog(pid) for pid in range(1, 4)})
        assert out == {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3]}

    def test_multiple_payloads_per_source(self):
        def sender():
            yield [unicast(2, "a"), unicast(2, "b")]

        def receiver():
            inbox = yield []
            return inbox

        net = ProtocolRuntime(2)
        out = net.run({1: sender(), 2: receiver()})
        assert out[2] == {1: ["a", "b"]}

    def test_rounds_counted(self):
        def prog():
            yield []
            yield []
            yield []

        net = ProtocolRuntime(1)
        net.run({1: prog()})
        assert net.metrics.rounds == 4  # 3 yields + final advance

    def test_messages_next_round_only(self):
        """A round-r message is visible in round r+1, not sooner."""
        log = []

        def a():
            inbox = yield [unicast(2, "x")]
            log.append(("a", dict(inbox)))

        def b():
            inbox = yield []
            log.append(("b1", dict(inbox)))
            inbox = yield []
            log.append(("b2", dict(inbox)))

        net = ProtocolRuntime(2)
        net.run({1: a(), 2: b()})
        assert ("b1", {1: ["x"]}) in log
        assert ("b2", {}) in log


class TestValidation:
    def test_non_send_rejected(self):
        def bad():
            yield ["not-a-send"]

        with pytest.raises(ProtocolViolation):
            ProtocolRuntime(1).run({1: bad()})

    def test_bad_destination_rejected(self):
        def bad():
            yield [unicast(99, "x")]

        with pytest.raises(ProtocolViolation):
            ProtocolRuntime(2).run({1: bad()})

    def test_broadcast_forbidden_in_p2p_model(self):
        def bc():
            yield [broadcast("x")]

        net = ProtocolRuntime(2, allow_broadcast=False)
        with pytest.raises(ProtocolViolation):
            net.run({1: bc()})

    def test_unknown_player_program(self):
        with pytest.raises(ValueError):
            ProtocolRuntime(2).run({5: iter(())})

    def test_max_rounds(self):
        def forever():
            while True:
                yield []

        net = ProtocolRuntime(1, max_rounds=10)
        with pytest.raises(ProtocolViolation):
            net.run({1: forever()})


class TestWaitFor:
    def test_nonterminating_faulty_does_not_stall(self):
        def honest():
            yield []
            return "done"

        def faulty():
            while True:
                yield []

        net = ProtocolRuntime(2, max_rounds=50)
        out = net.run({1: honest(), 2: faulty()}, wait_for=[1])
        assert out == {1: "done"}


class TestRushing:
    def test_rusher_peeks_current_round(self):
        """A rushing player sees round-r honest traffic inside round r."""
        peeked = []

        def honest():
            yield [unicast(2, "early-bird")]

        def rusher():
            inbox = yield []
            peeked.append(inbox.get("rush_peek"))
            yield []

        net = ProtocolRuntime(2, rushing=[2])
        net.run({1: honest(), 2: rusher()}, wait_for=[1])
        assert {1: ["early-bird"]} in peeked


class TestIdealBroadcastSemantics:
    def test_broadcast_cannot_equivocate(self):
        """The *assumed* channel delivers one identical copy to everyone
        — even a faulty sender cannot split views through it (that is
        precisely what 'assuming a broadcast channel' means)."""
        def sender():
            yield [broadcast(("tag", 42))]

        def listener():
            inbox = yield []
            return inbox

        net = ProtocolRuntime(4)
        out = net.run({1: sender(), 2: listener(), 3: listener(), 4: listener()})
        views = {repr(out[pid]) for pid in (2, 3, 4)}
        assert views == {repr({1: [("tag", 42)]})}

    def test_broadcast_requires_all_destination(self):
        def bad():
            yield [Send(2, "x", broadcast=True)]

        with pytest.raises(ProtocolViolation):
            ProtocolRuntime(3).run({1: bad()})


class TestMetering:
    def test_message_and_bit_counts(self):
        F = GF2k(8)

        def sender():
            yield [multicast(("t", 255))]   # 3 unicasts, 1 element each

        def listener():
            yield []

        net = ProtocolRuntime(3, field=F)
        net.run({1: sender(), 2: listener(), 3: listener()})
        assert net.metrics.unicast_messages == 3
        assert net.metrics.bits == 3 * 8

    def test_broadcast_counts_once(self):
        F = GF2k(8)

        def sender():
            yield [broadcast(("t", 255))]

        net = ProtocolRuntime(3, field=F)
        net.run({1: sender()})
        assert net.metrics.broadcast_messages == 1
        assert net.metrics.unicast_messages == 0
        assert net.metrics.bits == 8
        assert net.metrics.paper_messages == 1

    def test_per_player_op_attribution(self):
        F = GF2k(8)

        def worker():
            for _ in range(5):
                F.mul(3, 7)
            yield []

        def idle():
            yield []

        net = ProtocolRuntime(2, field=F)
        net.run({1: worker(), 2: idle()})
        assert net.metrics.ops(1).muls == 5
        assert net.metrics.ops(2).muls == 0
