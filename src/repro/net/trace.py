"""Protocol execution tracing.

A :class:`Tracer` observes a protocol run and records, per round: which
players sent, message counts per tag prefix, and byte volumes.  Useful
for debugging protocol round structure and for the documentation's
round-by-round tables.

Attach a tracer to a runtime's event bus — ``Tracer().attach(net.bus)``,
or ``Tracer().attach(ctx.ensure_bus())`` to trace every run a
:class:`~repro.protocols.context.ProtocolContext` builds — rather than
wrapping the network: the runtime publishes each round's deliveries
after the scheduler and fault plane have settled them, so traces are
produced identically under every scheduler.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Tuple


def payload_tag(payload: Any) -> str:
    """A payload's trace tag.

    Conventional ``(tag, body)`` payloads are tagged by their string
    tag; dataclass payloads (e.g. structured adversary probes) by their
    class name; anything else by ``"?"``.
    """
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return type(payload).__name__
    return "?"


@dataclass
class RoundTrace:
    """What happened in one synchronous round."""

    number: int
    #: messages per (src, tag): count
    messages: Dict[Tuple[int, str], int] = dataclass_field(default_factory=dict)

    def record(self, src: int, payload: Any) -> None:
        key = (src, payload_tag(payload))
        self.messages[key] = self.messages.get(key, 0) + 1

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    def tags(self) -> List[str]:
        return sorted({tag for _, tag in self.messages})

    def senders(self) -> List[int]:
        return sorted({src for src, _ in self.messages})


class Tracer:
    """Collects per-round traces; attach to an event bus with :meth:`attach`."""

    def __init__(self) -> None:
        self.rounds: List[RoundTrace] = []

    def attach(self, bus) -> "Tracer":
        from repro.obs.bus import ROUND  # repro.obs imports this module

        bus.subscribe(ROUND, self.observe)
        return self

    def detach(self, bus) -> None:
        from repro.obs.bus import ROUND

        bus.unsubscribe(ROUND, self.observe)

    def observe(self, round_number: int, deliveries) -> None:
        """``"round"`` topic handler: one call per round with (dst, src, payload)."""
        trace = RoundTrace(round_number)
        for _dst, src, payload in deliveries:
            trace.record(src, payload)
        self.rounds.append(trace)

    # -- reporting -----------------------------------------------------------
    def phase_summary(self) -> List[Tuple[int, int, List[str]]]:
        """(round, message count, tags) per round — the protocol's shape."""
        return [(r.number, r.total_messages, r.tags()) for r in self.rounds]

    def timeline(self) -> str:
        """Human-readable round-by-round table."""
        lines = ["round | msgs | phases"]
        lines.append("------+------+-------")
        for r in self.rounds:
            tags = ", ".join(r.tags()) or "-"
            lines.append(f"{r.number:5d} | {r.total_messages:4d} | {tags}")
        return "\n".join(lines)

    def messages_by_tag(self) -> Dict[str, int]:
        """Total message counts aggregated by tag."""
        totals: Dict[str, int] = {}
        for r in self.rounds:
            for (_src, tag), count in r.messages.items():
                totals[tag] = totals.get(tag, 0) + count
        return totals
