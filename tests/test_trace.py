"""Protocol tracing and wire-codec enforcement in the simulator."""

import random

import pytest

from repro.fields import GF2k
from repro.net.runtime import ProtocolRuntime
from repro.net.transport import ProtocolViolation, multicast
from repro.net.trace import Tracer, payload_tag
from repro.protocols.coin_gen import coin_gen_program, make_seed_coins

F = GF2k(32)
N, T = 7, 1


def run_coin_gen_traced(enforce_codec=False):
    seeds = make_seed_coins(F, N, T, 4, random.Random(0))
    net = ProtocolRuntime(
        N, field=F, allow_broadcast=False, enforce_codec=enforce_codec,
    )
    tracer = Tracer().attach(net.bus)
    programs = {
        pid: coin_gen_program(F, N, T, pid, 2, seeds[pid], random.Random(pid))
        for pid in range(1, N + 1)
    }
    outputs = net.run(programs)
    return outputs, tracer, net


class TestTracer:
    def test_rounds_recorded(self):
        outputs, tracer, net = run_coin_gen_traced()
        assert all(o.success for o in outputs.values())
        assert len(tracer.rounds) == net.metrics.rounds

    def test_phase_structure_visible(self):
        _, tracer, _ = run_coin_gen_traced()
        tags = tracer.messages_by_tag()
        # the Coin-Gen phases all appear in the trace
        assert "cg/sh" in tags
        assert "cg/nu" in tags
        assert any(tag.startswith("cg/gc/") for tag in tags)
        assert any(tag.startswith("cg/ba0/") for tag in tags)
        assert any(tag.startswith("expose/") for tag in tags)

    def test_dealing_round_message_count(self):
        """Round 1 carries exactly n^2 share messages (Theorem 2)."""
        _, tracer, _ = run_coin_gen_traced()
        first = tracer.rounds[0]
        assert first.messages[(1, "cg/sh")] == N
        assert first.total_messages == N * N

    def test_timeline_renders(self):
        _, tracer, _ = run_coin_gen_traced()
        text = tracer.timeline()
        assert "round | msgs | phases" in text
        assert "cg/sh" in text

    def test_payload_tag(self):
        assert payload_tag(("x/y", 1)) == "x/y"
        assert payload_tag(42) == "?"
        assert payload_tag(()) == "?"


class TestTracerUnderFaults:
    """The trace must reflect what the FaultPlane actually delivered."""

    @staticmethod
    def _ping(pid, n):
        def program():
            yield [multicast(("ping", pid))]

        return program()

    def _run(self, plane):
        n = 3
        net = ProtocolRuntime(n, field=F, allow_broadcast=False, faults=plane)
        tracer = Tracer().attach(net.bus)
        net.run({pid: self._ping(pid, n) for pid in range(1, n + 1)})
        return tracer, net

    def test_dropped_messages_absent_from_trace(self):
        from repro.net.faults import FaultPlane

        tracer, _ = self._run(FaultPlane().drop(src=3))
        first = tracer.rounds[0]
        # players 1 and 2 each reach all 3; player 3's sends vanish
        assert first.messages.get((1, "ping")) == 3
        assert first.messages.get((2, "ping")) == 3
        assert (3, "ping") not in first.messages
        assert tracer.messages_by_tag()["ping"] == 6

    def test_duplicated_messages_doubled_in_trace(self):
        from repro.net.faults import FaultPlane

        tracer, _ = self._run(FaultPlane().duplicate(src=2, dst=1))
        first = tracer.rounds[0]
        # the 2 -> 1 edge delivers twice; 2's other two sends once each
        assert first.messages.get((2, "ping")) == 4
        assert tracer.messages_by_tag()["ping"] == 10

    def test_fault_events_published_to_recorder(self):
        from repro.net.faults import FaultPlane
        from repro.obs.spans import SpanRecorder

        n = 3
        recorder = SpanRecorder()
        plane = FaultPlane().drop(src=3).duplicate(src=2, dst=1)
        net = ProtocolRuntime(
            n, field=F, allow_broadcast=False, faults=plane,
            recorder=recorder,
        )
        net.run({pid: self._ping(pid, n) for pid in range(1, n + 1)})
        kinds = sorted(f["kind"] for f in recorder.faults)
        # 3 drops (3 -> everyone) + 1 duplicate (2 -> 1)
        assert kinds == ["drop", "drop", "drop", "duplicate"]

    def test_timeline_consistent_with_faulted_delivery(self):
        from repro.net.faults import FaultPlane

        tracer, net = self._run(FaultPlane().drop(src=3))
        assert len(tracer.rounds) == net.metrics.rounds
        assert "ping" in tracer.timeline()


class TestCodecEnforcement:
    def test_coin_gen_payloads_all_encodable(self):
        outputs, _, net = run_coin_gen_traced(enforce_codec=True)
        assert all(o.success for o in outputs.values())
        assert net.metrics.wire_bytes > 0

    def test_wire_bytes_close_to_paper_accounting(self):
        """The paper's k-bit accounting and the real wire bytes agree
        within framing overhead (a sanity check on the metrics model)."""
        _, _, net = run_coin_gen_traced(enforce_codec=True)
        paper_bytes = net.metrics.bits / 8
        wire = net.metrics.wire_bytes
        assert 0.3 * paper_bytes < wire < 4 * paper_bytes

    def test_unencodable_payload_raises(self):
        def bad():
            yield [multicast(("tag", [1, 2]))]  # lists are off-vocabulary

        from repro.net.codec import CodecError

        net = ProtocolRuntime(2, enforce_codec=True)
        with pytest.raises(CodecError):
            net.run({1: bad()})


class TestTracerOnTheBus:
    """``Tracer.attach``/``detach`` on both runtimes' event bus."""

    @staticmethod
    def _pings(n):
        return {pid: TestTracerUnderFaults._ping(pid, n) for pid in range(1, n + 1)}

    @staticmethod
    def _runtimes(n):
        from repro.net.async_runtime import AsyncRuntime

        return [ProtocolRuntime(n, field=F), AsyncRuntime(n, field=F)]

    def test_records_what_a_round_subscriber_sees(self):
        from repro.obs.bus import ROUND

        for net in self._runtimes(3):
            tracer = Tracer().attach(net.bus)
            # a plain ROUND subscriber, as the old constructor hook was
            direct = Tracer()
            net.bus.subscribe(ROUND, direct.observe)
            net.run(self._pings(3))
            assert tracer.rounds
            assert tracer.phase_summary() == direct.phase_summary()
            delivered = getattr(net, "delivery_count", 9)
            assert tracer.messages_by_tag() == {"ping": delivered}

    def test_detach_stops_recording(self):
        for net in self._runtimes(3):
            tracer = Tracer().attach(net.bus)
            net.run(self._pings(3))
            seen = len(tracer.rounds)
            tracer.detach(net.bus)
            net.run(self._pings(3))
            assert len(tracer.rounds) == seen

    def test_context_bus_sees_every_run(self):
        from repro.protocols.context import ProtocolContext

        ctx = ProtocolContext.create(F, n=3, t=0, seed=5)
        tracer = Tracer().attach(ctx.ensure_bus())
        lockstep, asynchronous = ctx.network(), ctx.async_runtime()
        lockstep.run(self._pings(3))
        asynchronous.run(self._pings(3))
        assert lockstep.bus is asynchronous.bus is ctx.bus
        # one trace row per lockstep round, then one per async delivery
        assert len(tracer.rounds) == (
            lockstep.metrics.rounds + asynchronous.logical_time
        )
        assert tracer.messages_by_tag() == {
            "ping": 9 + asynchronous.delivery_count
        }
