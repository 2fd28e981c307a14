"""Synchronous-network substrate (the paper's model, Section 2).

"We consider a synchronous network of n players P_1,...,P_n ... which
communicate by sending messages.  We assume that private channels are
available between the players.  Of the n players, a subset of size at most
t of them is assumed to be able to deviate arbitrarily from the protocol,
and even collude."

:class:`ProtocolRuntime` runs lock-step rounds over private channels
plus an optional ideal broadcast channel (assumed in Section 3, dropped
in Section 4); :class:`AsyncRuntime` delivers one message at a time.
Metering reproduces the quantities the paper's lemmas count.
"""

from repro.net.transport import (
    ALL,
    BroadcastTransport,
    PrivateChannelTransport,
    ProtocolViolation,
    Send,
    Transport,
    broadcast,
    make_transport,
    multicast,
    unicast,
)
from repro.net.scheduler import (
    LockstepScheduler,
    PermutedDeliveryScheduler,
    RandomOrderScheduler,
    Scheduler,
)
from repro.net.faults import FaultPlane
from repro.net.guards import AnyWait, Guarded, Wait, guarded, wait_any
from repro.net.runtime import ProtocolRuntime, RuntimeBase, RuntimeExhausted
from repro.net.async_runtime import AsyncRuntime
from repro.net.trace import Tracer
from repro.net.metrics import NetworkMetrics, payload_field_elements
from repro.net.adversary import (
    Adversary,
    crash_program,
    echo_noise_program,
    silent_program,
)

__all__ = [
    "ALL",
    "Send",
    "broadcast",
    "multicast",
    "unicast",
    "Transport",
    "BroadcastTransport",
    "PrivateChannelTransport",
    "make_transport",
    "ProtocolViolation",
    "Scheduler",
    "LockstepScheduler",
    "PermutedDeliveryScheduler",
    "RandomOrderScheduler",
    "FaultPlane",
    "Wait",
    "AnyWait",
    "Guarded",
    "guarded",
    "wait_any",
    "RuntimeBase",
    "ProtocolRuntime",
    "AsyncRuntime",
    "RuntimeExhausted",
    "Tracer",
    "NetworkMetrics",
    "payload_field_elements",
    "Adversary",
    "silent_program",
    "crash_program",
    "echo_noise_program",
]
