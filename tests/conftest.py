"""Shared fixtures and hypothesis configuration for the test suite."""

import random

import pytest
from hypothesis import HealthCheck, settings

from repro.fields import GF2k, GFp, build_special_field
from repro.net import codec

# Keep property-based tests fast and deterministic across the suite.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def gf16():
    """Tiny field (p=16) — small enough to exhibit soundness errors."""
    return GF2k(4)


@pytest.fixture(scope="session")
def gf256():
    return GF2k(8)


@pytest.fixture(scope="session")
def gf2_16():
    return GF2k(16)


@pytest.fixture(scope="session")
def gf2_32():
    return GF2k(32)


@pytest.fixture(scope="session")
def gfp31():
    return GFp(2**31 - 1)


@pytest.fixture(scope="session")
def special32():
    return build_special_field(32)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def _ones_to_true(payload):
    """A decoder bug ``==`` cannot see: every int 1 comes back as True."""
    if type(payload) is int and payload == 1:
        return True
    if isinstance(payload, tuple):
        return tuple(_ones_to_true(item) for item in payload)
    return payload


@pytest.fixture()
def make_decoder_lossy(monkeypatch):
    """Call to patch ``codec.decode`` so every decoded int 1 becomes True,
    for negative controls of checks that must compare re-encoded bytes."""
    def install():
        real = codec.decode
        monkeypatch.setattr(codec, "decode",
                            lambda data: _ones_to_true(real(data)))
    return install
