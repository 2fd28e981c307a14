"""The bulk Berlekamp-Welch decoder against the one-set decoder.

``berlekamp_welch_many`` must return, per point set, exactly what
``berlekamp_welch`` returns or raises, and meter exactly the ops the
one-by-one decodes meter, whichever interpolation mode, backend and
field runs it.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.dprbg import SharedCoinSystem
from repro.core.seed import TrustedDealer
from repro.fields import GF2k, GFp
from repro.fields.backends import numpy_available
from repro.fields.base import Field, OpCounter
from repro.poly import (
    DecodingError,
    Polynomial,
    berlekamp_welch,
    berlekamp_welch_many,
    interpolation_mode,
)

MODES = ("shared", "fresh", "off", "ntt")
#: 119 * 2^23 + 1: the transform paths apply from 32 points on
NTT_PRIME = 998244353

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

FIELDS = [
    pytest.param(backend, build, id=f"{name}-{backend}", marks=marks)
    for backend, marks in (("python", ()), ("numpy", needs_numpy))
    for name, build in (
        ("gf2^32", lambda backend: GF2k(32, backend=backend)),
        ("gf2^16-tables", lambda backend: GF2k(16, tables=True,
                                               backend=backend)),
        ("gfp", lambda backend: GFp(NTT_PRIME, backend=backend)),
    )
]

# sets drawn from a few sender subsets, so batches mix groups sharing
# their abscissas with sets that miss some senders
TEMPLATES = [(1, 2, 3, 4, 5, 6, 7), (1, 2, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7),
             (1, 2, 3, 4, 5, 6, 7, 8, 9)]
small = st.integers(min_value=0, max_value=2**16 - 1)


@st.composite
def point_set_specs(draw, degree):
    xs = draw(st.one_of(
        st.sampled_from(TEMPLATES),
        st.lists(st.integers(min_value=1, max_value=9), unique=True,
                 max_size=9),
    ))
    coeffs = draw(st.one_of(
        st.lists(small, min_size=degree + 1, max_size=degree + 1),
        st.just([0] * (degree + 1)),  # every share zero
    ))
    # (position, replacement): None zeroes the share, an int is added
    corruptions = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=8),
                  st.one_of(st.none(), small)),
        max_size=5,
    ))
    max_errors = draw(st.one_of(st.none(),
                                st.integers(min_value=0, max_value=4)))
    return list(xs), coeffs, corruptions, max_errors


@st.composite
def batches(draw):
    degree = draw(st.integers(min_value=0, max_value=3))
    specs = draw(st.lists(point_set_specs(degree), min_size=1, max_size=12))
    return degree, specs


def build_sets(field, specs):
    point_sets, max_errors = [], []
    for xs, coeffs, corruptions, errors in specs:
        poly = Polynomial(field, [field.from_int(c) for c in coeffs])
        points = [(field.from_int(x), poly(field.from_int(x))) for x in xs]
        for position, replacement in corruptions:
            if not points:
                break
            x, y = points[position % len(points)]
            y = (field.zero if replacement is None
                 else field.add(y, field.from_int(replacement)))
            points[position % len(points)] = (x, y)
        point_sets.append(points)
        max_errors.append(errors)
    return point_sets, max_errors


def comparable(outcome):
    if isinstance(outcome, DecodingError):
        return ("error", str(outcome))
    poly, good = outcome
    return ("decoded", poly.coeffs, list(good))


def one_by_one(field, point_sets, degree, max_errors):
    outcomes = []
    for points, errors in zip(point_sets, max_errors):
        try:
            outcomes.append(berlekamp_welch(field, points, degree, errors))
        except DecodingError as error:
            outcomes.append(error)
    return outcomes


def decode_both(build, point_specs, degree, mode):
    """(bulk, one-by-one) comparable outcomes and op deltas, each side on
    its own fresh field so neither inherits the other's warm cache."""
    sides = []
    for decode in (berlekamp_welch_many, one_by_one):
        field = build()
        point_sets, max_errors = build_sets(field, point_specs)
        before = field.counter.snapshot()
        with interpolation_mode(mode):
            outcomes = decode(field, point_sets, degree, max_errors)
        sides.append(([comparable(o) for o in outcomes],
                      field.counter.delta(before)))
    return sides


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend,build", FIELDS)
@given(batch=batches())
def test_bulk_equals_one_by_one(backend, build, mode, batch):
    degree, specs = batch
    (bulk, bulk_ops), (single, single_ops) = decode_both(
        lambda: build(backend), specs, degree, mode)
    assert bulk == single
    assert bulk_ops == single_ops


@pytest.mark.parametrize("mode", MODES)
def test_transform_paths_equal_one_by_one(mode):
    """40-point sets over an NTT prime: under ``"ntt"`` the degree-32
    candidates come from the transform interpolation and every set is
    evaluated by the remainder tree, with one tail share corrupted."""
    specs = [
        (list(range(1, 41)), [(7 * g + c) % 65536 for c in range(33)],
         [(39 - g, 1)], None)
        for g in range(3)
    ] + [(list(range(1, 41)), [5, 0, 9], [(30 + g, None)], 3)
         for g in range(3)]
    for degree in (32, 2):
        batch = [s for s in specs if len(s[1]) == degree + 1]
        (bulk, bulk_ops), (single, single_ops) = decode_both(
            lambda: GFp(NTT_PRIME), batch, degree, mode)
        assert bulk == single
        assert bulk_ops == single_ops
        assert all(outcome[0] == "decoded" for outcome in bulk)


def test_corruption_outcomes():
    """A corrupted head share goes through the key-equation decoder,
    a corrupted tail share only fails its own match, and more than
    ``max_errors`` corruptions fail to decode."""
    field = GF2k(32)
    poly = Polynomial(field, [11, 22, 33])
    honest = [(x, poly(x)) for x in range(1, 8)]

    def corrupt(*positions):
        points = list(honest)
        for i in positions:
            points[i] = (points[i][0], field.add(points[i][1], 1))
        return points

    outcomes = berlekamp_welch_many(
        field, [corrupt(0), corrupt(6), corrupt(0, 3, 6), honest[:2]], 2,
        [2, 2, 2, None],
    )
    assert outcomes[0] == (poly, [1, 2, 3, 4, 5, 6])
    assert outcomes[1] == (poly, [0, 1, 2, 3, 4, 5])
    assert isinstance(outcomes[2], DecodingError)
    assert str(outcomes[3]) == "need at least 3 points, got 2"


def test_duplicate_abscissas_raise_before_any_work():
    field = GF2k(32)
    good = [(x, x) for x in range(1, 5)]
    with pytest.raises(ValueError):
        berlekamp_welch(field, [(1, 2), (1, 3), (2, 4)], 1)
    before = field.counter.snapshot()
    with pytest.raises(ValueError):
        berlekamp_welch_many(field, [good, [(1, 2), (1, 3), (2, 4)]], 1,
                             [None, None])
    assert field.counter.delta(before) == OpCounter()


KERNELS = ("mul_many", "dot", "axpy_many", "fma_many", "dot_rows",
           "batch_inv")


def kernel_calls_per_receiver(monkeypatch, M, n=13, t=2):
    """Bulk field-kernel calls one honest ``expose_many`` round makes,
    per receiver, on a fresh field (so both sizes pay the same one-time
    interpolation-cache build)."""
    field = GF2k(32)
    dealer = TrustedDealer(field, n, t, seed=21)
    coins = dealer.deal_seed(M)
    system = SharedCoinSystem(field, n, t, seed=22)
    calls = []
    with monkeypatch.context() as patch:
        for name in KERNELS:
            original = getattr(Field, name)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            patch.setattr(Field, name, counted)
        values = system.expose_many(coins)
    assert values == [dealer.dealt_secrets[coin.coin_id] for coin in coins]
    return len(calls) / n


def test_kernel_calls_do_not_grow_with_batch(monkeypatch):
    assert (kernel_calls_per_receiver(monkeypatch, 256)
            == kernel_calls_per_receiver(monkeypatch, 16))
