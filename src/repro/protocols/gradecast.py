"""Grade-Cast (Feldman-Micali [14]) — the graded broadcast of Fig. 5 step 7.

"Grade-Cast is the three level-outcome primitive ... the sender sends
his/her value to the rest of the players.  In the next round everybody
echoes, and this is followed by another round of echos.  Each player
outputs a value v, which is the view of the grade-casted message, and a
confidence value conf in {0, 1, 2} indicating how certain (s)he is that
the grade-cast was received by all players.  A confidence of 2 indicates
that all other honest players have seen the value v."

Guarantees for ``n >= 3t+1``:

* honest sender with value v: every honest player outputs (v, 2);
* if any honest player outputs (v, 2), every honest player outputs
  (v, grade >= 1) — in particular they all hold the same value v.

This module implements ``n`` *parallel* grade-casts (every player is the
sender of its own instance) in 3 rounds with merged echo messages, which
is what produces Theorem 2's "n^2 messages each of size ntk" accounting
for the clique-distribution step.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.net.transport import multicast
from repro.obs.phases import register_tag_phase
from repro.protocols.common import filter_tag, is_hashable

GradedValue = Tuple[Optional[Any], int]  # (value, confidence in {0,1,2})

# the three grade-cast rounds: value, echo, re-echo
register_tag_phase("gradecast", suffix="/v")
register_tag_phase("gradecast", suffix="/echo")
register_tag_phase("gradecast", suffix="/echo2")


def parallel_gradecast(
    n: int,
    t: int,
    me: int,
    my_value: Any,
    tag: str = "gc",
) -> Generator:
    """Run n simultaneous grade-casts; player ``j`` is sender of instance j.

    Returns ``{sender_id: (value, confidence)}`` for all n instances.
    ``my_value`` must be hashable (the wire convention's nested tuples
    are); values from other players are validated for hashability before
    any counting.
    """
    # Round 1: every sender multicasts its own value.
    inbox = yield [multicast((tag + "/v", my_value))]
    first: Dict[int, Any] = {
        src: val
        for src, val in filter_tag(inbox, tag + "/v").items()
        if is_hashable(val)
    }

    # Round 2: echo everything received, merged into one message.
    echo_body = tuple(sorted(first.items()))
    inbox = yield [multicast((tag + "/echo", echo_body))]
    echoes = filter_tag(inbox, tag + "/echo")
    # counts[sender][value] = number of distinct echoers
    counts: Dict[int, Dict[Any, int]] = {}
    for src, body in echoes.items():
        for sender, value in _parse_echo(body, n):
            per = counts.setdefault(sender, {})
            per[value] = per.get(value, 0) + 1

    # Round 3: re-echo values supported by >= n - t echoers.
    supported = tuple(
        sorted(
            (sender, value)
            for sender, per in counts.items()
            for value, count in per.items()
            if count >= n - t
        )
    )
    inbox = yield [multicast((tag + "/echo2", supported))]
    echo2 = filter_tag(inbox, tag + "/echo2")
    counts2: Dict[int, Dict[Any, int]] = {}
    for src, body in echo2.items():
        for sender, value in _parse_echo(body, n):
            per = counts2.setdefault(sender, {})
            per[value] = per.get(value, 0) + 1

    # Grading.
    result: Dict[int, GradedValue] = {}
    for sender in range(1, n + 1):
        per = counts2.get(sender, {})
        graded: GradedValue = (None, 0)
        for value, count in per.items():
            if count >= n - t:
                graded = (value, 2)
                break
            if count >= t + 1 and graded[1] == 0:
                graded = (value, 1)
        result[sender] = graded
    return result


def _parse_echo(body: Any, n: int):
    """Validate an echo body: a tuple of (sender_id, hashable_value) pairs,
    at most one entry per sender."""
    if not isinstance(body, tuple):
        return
    seen = set()
    for item in body:
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], int)
            and not isinstance(item[0], bool)
            and 1 <= item[0] <= n
            and item[0] not in seen
            and is_hashable(item[1])
        ):
            seen.add(item[0])
            yield item[0], item[1]
