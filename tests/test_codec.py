"""Wire codec round-trips and error handling."""

import enum

import pytest
from hypothesis import given, strategies as st

from repro.net import codec

payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**128), max_value=2**128)
    | st.text(max_size=20),
    lambda children: st.tuples(children, children)
    | st.tuples(children)
    | st.tuples(children, children, children),
    max_leaves=12,
)


class TestRoundTrip:
    @given(payload=payloads)
    def test_round_trip(self, payload):
        assert codec.decode(codec.encode(payload)) == payload

    def test_protocol_shaped_payloads(self):
        samples = [
            ("cg/sh", (123456789, 987654321, 0)),
            ("expose/seed-0", 42),
            ("cg/gc/echo", ((1, ("prop", (1, 2, 3), ())), (2, "x"))),
            ("ba/p1/vote", 1),
            None,
            (),
        ]
        for payload in samples:
            assert codec.decode(codec.encode(payload)) == payload

    def test_distinguishes_bool_from_int(self):
        assert codec.decode(codec.encode(True)) is True
        assert codec.decode(codec.encode(1)) == 1
        assert codec.decode(codec.encode(1)) is not True

    def test_negative_ints(self):
        assert codec.decode(codec.encode(-7)) == -7
        assert codec.decode(codec.encode(-(2**100))) == -(2**100)


def strict(payload):
    """``payload`` with every leaf tagged by its exact type, so ``True``
    and ``1`` (or an ``IntEnum`` member and its value) compare unequal."""
    if isinstance(payload, tuple):
        return ("tuple", tuple(strict(item) for item in payload))
    return (type(payload).__name__, payload)


class Colour(enum.IntEnum):
    RED = 5


#: (payload, wire hex, decoded payload) pinning the bytes at every
#: boundary of the int and tuple-count fast paths
GOLDEN = [
    (0, "690100", 0),
    (127, "69017f", 127),
    (128, "690180", 128),
    (255, "6901ff", 255),
    (256, "69020100", 256),
    (2**1016 - 1, "697f" + "ff" * 127, 2**1016 - 1),
    (2**1016, "69800101" + "00" * 127, 2**1016),
    (-1, "6a0101", -1),
    (-256, "6a020100", -256),
    (-(2**1016), "6a800101" + "00" * 127, -(2**1016)),
    (True, "54", True),
    (False, "46", False),
    (None, "4e", None),
    ((True, 1, False, 0), "2804" "54" "690101" "46" "690100",
     (True, 1, False, 0)),
    ((1, (True,), (1,)), "2803" "690101" "280154" "2801690101",
     (1, (True,), (1,))),
    (Colour.RED, "690105", 5),
    ((Colour.RED, 5), "2802690105690105", (5, 5)),
    ((), "2800", ()),
    (((),), "28012800", ((),)),
    ((0,) * 127, "287f" + "690100" * 127, (0,) * 127),
    ((0,) * 128, "288001" + "690100" * 128, (0,) * 128),
    ("", "7300", ""),
    ("cg/sh", "7305" + "cg/sh".encode().hex(), "cg/sh"),
    ("\u00e9", "7302c3a9", "\u00e9"),
    (("expose/c0", (7, 2**31)),
     "2802" "7309" + "expose/c0".encode().hex() + "2802" "690107" "690480000000",
     ("expose/c0", (7, 2**31))),
]


class TestGoldenVectors:
    @pytest.mark.parametrize("payload,wire,decoded", GOLDEN)
    def test_encode_bytes_are_pinned(self, payload, wire, decoded):
        assert codec.encode(payload).hex() == wire

    @pytest.mark.parametrize("payload,wire,decoded", GOLDEN)
    def test_decode_types_are_pinned(self, payload, wire, decoded):
        assert strict(codec.decode(bytes.fromhex(wire))) == strict(decoded)


class TestNestingLimit:
    @staticmethod
    def nested(depth):
        payload = None
        for _ in range(depth):
            payload = (payload,)
        return payload

    def test_deepest_allowed_payload_round_trips(self):
        payload = self.nested(codec.MAX_DEPTH)
        assert codec.decode(codec.encode(payload)) == payload

    def test_encode_refuses_one_level_deeper(self):
        with pytest.raises(codec.CodecError):
            codec.encode(self.nested(codec.MAX_DEPTH + 1))

    def test_decode_refuses_one_level_deeper(self):
        wire = b"(\x01" * (codec.MAX_DEPTH + 1) + b"N"
        with pytest.raises(codec.CodecError):
            codec.decode(wire)

    def test_stack_exhausting_depths_fail_closed(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"(\x01" * 5000 + b"N")
        with pytest.raises(codec.CodecError):
            codec.encode(self.nested(5000))


class TestSizes:
    def test_int_size_scales_with_bits(self):
        small = codec.encoded_size(("t", 255))
        big = codec.encoded_size(("t", 2**255))
        assert big - small == 31  # 32-byte int vs 1-byte int

    def test_field_element_tuple(self):
        # a Bit-Gen share message with 4 GF(2^32) elements
        payload = ("bg/sh", tuple([2**31] * 4))
        size = codec.encoded_size(payload)
        assert 4 * 4 <= size <= 4 * 4 + 20  # elements + framing


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(codec.CodecError):
            codec.encode([1, 2, 3])
        with pytest.raises(codec.CodecError):
            codec.encode({"a": 1})

    def test_truncated(self):
        data = codec.encode(("tag", 123))
        with pytest.raises(codec.CodecError):
            codec.decode(data[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(codec.CodecError):
            codec.decode(codec.encode(1) + b"x")

    def test_unknown_type_byte(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"Z")

    def test_empty(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"")

    def test_bad_utf8(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"s\x02\xff\xfe")


class TestProtocolIntegration:
    def test_every_coin_gen_message_is_encodable(self):
        """All payloads crossing the simulated network during a real
        Coin-Gen run must survive the wire codec."""
        from repro.fields import GF2k
        from repro.net.runtime import ProtocolRuntime
        from repro.protocols.coin_gen import make_seed_coins, coin_gen_program
        import random

        F = GF2k(32)
        n, t = 7, 1
        seeds = make_seed_coins(F, n, t, 4, random.Random(0))

        crossing = []
        original_expand = ProtocolRuntime._expand

        def spying_expand(self, src, sends):
            deliveries = original_expand(self, src, sends)
            crossing.extend(payload for _, payload in deliveries)
            return deliveries

        ProtocolRuntime._expand = spying_expand
        try:
            net = ProtocolRuntime(n, field=F, allow_broadcast=False)
            programs = {
                pid: coin_gen_program(
                    F, n, t, pid, 2, seeds[pid], random.Random(pid)
                )
                for pid in range(1, n + 1)
            }
            net.run(programs)
        finally:
            ProtocolRuntime._expand = original_expand

        assert crossing
        for payload in crossing:
            assert codec.decode(codec.encode(payload)) == payload
