"""Shared plumbing for protocol programs.

Wire conventions
----------------
Every payload is a ``(tag, body)`` pair whose ``tag`` is a string unique to
one protocol phase (e.g. ``"coingen/nu"``).  Honest programs filter their
inbox by tag, so stray or malicious messages with foreign tags are simply
ignored — exactly the robustness the synchronous model requires.  A
program reading several tags from one inbox makes one :func:`filter_tags`
call rather than one :func:`filter_tag` scan per tag.  Both match by
:func:`~repro.net.guards.inbox_tag`, the rule quorum guards count by.

Bodies consist only of ints, strings, and (nested) tuples, so they are
hashable (needed for vote counting) and meterable (see
:mod:`repro.net.metrics`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.fields.base import Element, Field
from repro.net.guards import inbox_tag


def filter_tag(inbox: Dict[Any, List[Any]], tag: str) -> Dict[int, Any]:
    """Extract ``{src: body}`` for the first payload per source matching ``tag``."""
    out: Dict[int, Any] = {}
    for src, payloads in inbox.items():
        if not isinstance(src, int):
            continue  # e.g. the simulator's rush_peek entry
        for payload in payloads:
            if inbox_tag(payload) == tag:
                out[src] = payload[1]
                break
    return out


def filter_tags(
    inbox: Dict[Any, List[Any]], tags: Iterable[str]
) -> Dict[str, Dict[int, Any]]:
    """``{tag: filter_tag(inbox, tag)}`` for every tag in ``tags``, in one pass.

    Reading k tags with k :func:`filter_tag` calls scans the inbox k
    times; a batch of M coin exposures would scan n·M payloads M times
    per receiver.  This reads each payload once and keeps, per tag, the
    first body each source sent under it.
    """
    out: Dict[str, Dict[int, Any]] = {tag: {} for tag in tags}
    for src, payloads in inbox.items():
        if not isinstance(src, int):
            continue  # e.g. the simulator's rush_peek entry
        for payload in payloads:
            received = out.get(inbox_tag(payload))
            if received is not None and src not in received:
                received[src] = payload[1]
    return out


def valid_element(field: Field, value: Any) -> bool:
    """Is ``value`` a well-formed element of ``field``?

    Faulty players may send arbitrary objects; honest code validates every
    field element before using it.
    """
    if isinstance(value, bool):
        return False
    return value in field


def valid_element_tuple(field: Field, value: Any, length: int) -> bool:
    """Is ``value`` a tuple of exactly ``length`` valid field elements?"""
    return (
        isinstance(value, tuple)
        and len(value) == length
        and all(valid_element(field, v) for v in value)
    )


def is_hashable(value: Any) -> bool:
    """Can ``value`` be used as a vote/counting key?"""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def plurality(votes: Dict[int, Any]) -> Optional[Tuple[Any, int]]:
    """The most frequent hashable vote value and its count (ties broken
    deterministically by repr), or None when there are no valid votes."""
    counts: Dict[Any, int] = {}
    for value in votes.values():
        if is_hashable(value):
            counts[value] = counts.get(value, 0) + 1
    if not counts:
        return None
    best = max(counts.items(), key=lambda item: (item[1], repr(item[0])))
    return best
