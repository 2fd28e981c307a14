"""Reading an inbox by tag: one matching rule, one pass per batch."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.net.guards import Wait
from repro.protocols.coin_expose import coin_expose_many, make_dealer_coin
from repro.protocols.common import filter_tag, filter_tags

TAGS = ["expose/a", "expose/b", "coingen/nu", ""]
NEVER_SENT = ["expose/never", "expose/a/"]

tags = st.sampled_from(TAGS)
bodies = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
payloads = st.one_of(
    st.tuples(tags, bodies),  # well-formed (tag, body)
    bodies,  # None / int / str / list / dict payloads
    st.just(()),
    st.tuples(tags),
    st.tuples(tags, bodies, bodies),
    st.tuples(st.just(["expose/a"]), bodies),  # unhashable heads
    st.tuples(st.just({}), bodies),
    st.tuples(st.integers(), bodies),
)
inboxes = st.dictionaries(
    st.one_of(st.integers(min_value=1, max_value=7), st.just("rush_peek")),
    st.lists(payloads, max_size=8),
    max_size=8,
)
requested = st.lists(st.sampled_from(TAGS + NEVER_SENT), max_size=5)


class TestFilterTags:
    @given(inbox=inboxes, wanted=requested)
    def test_matches_filter_tag_for_every_requested_tag(self, inbox, wanted):
        got = filter_tags(inbox, wanted)
        assert set(got) == set(wanted)
        for tag in wanted:
            assert got[tag] == filter_tag(inbox, tag)

    @given(inbox=inboxes, tag=st.sampled_from(TAGS + NEVER_SENT))
    def test_guard_counts_exactly_the_senders_filter_tag_reads(
        self, inbox, tag
    ):
        """A quorum guard never fires on traffic the body cannot see."""
        assert Wait((tag,)).matched_senders(inbox) == tuple(
            sorted(filter_tag(inbox, tag))
        )

    def test_first_payload_per_source_wins(self):
        inbox = {2: [("expose/a", 1), ("expose/b", 5), ("expose/a", 9)]}
        assert filter_tags(inbox, ["expose/a", "expose/b"]) == {
            "expose/a": {2: 1},
            "expose/b": {2: 5},
        }

    def test_unhashable_heads_and_junk_are_ignored(self):
        inbox = {
            1: [(["expose/a"], 1), ({}, 2), ("expose/a", 3, 4), ("expose/a",)],
            2: [None, "expose/a", ["expose/a", 5], {"expose/a": 6}],
            "rush_peek": [("expose/a", 7)],
        }
        assert filter_tags(inbox, ["expose/a"]) == {"expose/a": {}}

    def test_no_tags_requested(self):
        assert filter_tags({1: [("expose/a", 1)]}, []) == {}


class CountingList(list):
    """A payload list that counts how often each entry is iterated over."""

    def __init__(self, items):
        super().__init__(items)
        self.yields = [0] * len(items)

    def __iter__(self):
        for index, item in enumerate(list.__iter__(self)):
            self.yields[index] += 1
            yield item


class TestExposeManyReadsTheInboxOnce:
    F = GF2k(32)
    N, T = 7, 1

    @pytest.mark.parametrize("M", [1, 16, 256])
    def test_every_payload_is_iterated_once_per_receiver(self, M):
        rng = random.Random(M)
        dealt = [
            make_dealer_coin(self.F, self.N, self.T, f"c{i}", rng)
            for i in range(M)
        ]
        secrets = [secret for secret, _ in dealt]
        for me in range(1, self.N + 1):
            inbox = {
                src: CountingList(
                    [("expose/" + shares[src].coin_id, shares[src].my_value)
                     for _, shares in dealt]
                )
                for src in range(1, self.N + 1)
            }
            program = coin_expose_many(
                self.F, me, [shares[me] for _, shares in dealt]
            )
            assert len(next(program)) == M  # one multicast per coin
            with pytest.raises(StopIteration) as stop:
                program.send(inbox)
            assert stop.value.value == secrets
            for payload_list in inbox.values():
                assert payload_list.yields == [1] * M
