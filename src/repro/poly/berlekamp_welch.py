"""Berlekamp-Welch decoding of Reed-Solomon-coded shares.

The paper cites the Berlekamp-Welch decoder [5] as the method for
interpolating "a polynomial F(x) through the shares in S" when up to ``t``
of the shares may be corrupted by faulty players (Fig. 4 step 5, Fig. 6
step 2).

Given N points of which at most ``e`` are wrong and the underlying
polynomial has degree <= t, decoding succeeds whenever
``N >= t + 2e + 1``.  The decoder solves the key equation
``Q(x_i) = y_i * E(x_i)`` for an error-locator ``E`` (monic, degree e) and
``Q`` (degree <= t + e), then recovers ``F = Q / E``.

The protocols decode many sharings over one evaluation set at a time
(M exposed coins, n Bit-Gen dealings), so the decoder works on batches:
:func:`berlekamp_welch_many` decodes every set of a batch with kernels
as wide as the batch, and :func:`berlekamp_welch` is its one-set case.
A set pays the key-equation solve (:func:`full_decode`) only when its
optimistic head-interpolation candidate does not match enough points.
Op counts are those of decoding each set on its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fields.base import Element, Field
from repro.poly import barycentric
from repro.poly.lagrange import _require_distinct
from repro.poly.linalg import solve_linear_system
from repro.poly.polynomial import Polynomial, evaluate_polys

Point = Tuple[Element, Element]


class DecodingError(Exception):
    """No polynomial of the requested degree explains enough of the points."""


def max_correctable_errors(num_points: int, degree: int) -> int:
    """Largest ``e`` with ``num_points >= degree + 2e + 1``."""
    return max(0, (num_points - degree - 1) // 2)


def berlekamp_welch(
    field: Field,
    points: Sequence[Point],
    degree: int,
    max_errors: int = None,
) -> Tuple[Polynomial, List[int]]:
    """Decode ``points`` to a polynomial of degree <= ``degree``.

    Returns ``(F, good_indices)`` where ``good_indices`` lists the
    positions whose values match ``F``.  Raises :class:`DecodingError` when
    no degree-``degree`` polynomial agrees with at least
    ``len(points) - max_errors`` of the points.

    Counted as a single interpolation in the field's counter, matching the
    paper's accounting ("the Berlekamp-Welch decoder can be used to
    implement this operation", Section 2).  The one-set case of
    :func:`berlekamp_welch_many`.
    """
    (outcome,) = berlekamp_welch_many(
        field, [list(points)], degree, [max_errors]
    )
    if isinstance(outcome, DecodingError):
        raise outcome
    return outcome


def berlekamp_welch_many(
    field: Field,
    point_sets: Sequence[Sequence[Point]],
    degree: int,
    max_errors: Sequence[Optional[int]],
) -> List[Union[Tuple[Polynomial, List[int]], DecodingError]]:
    """:func:`berlekamp_welch` over many point sets, in wide kernels.

    ``max_errors[i]`` bounds the errors of ``point_sets[i]`` (None: as
    many as the set can correct).  Entry i of the result is the
    ``(F, good_indices)`` pair :func:`berlekamp_welch` returns for set i,
    or the :class:`DecodingError` it raises.  Op counts are identical to
    decoding the sets one by one, one interpolation each.  Raises
    ``ValueError`` before any work if a set repeats an abscissa or
    ``max_errors`` is not one entry per set.

    Optimistic fast path: each set's candidate interpolates its first
    ``degree + 1`` points and is accepted if it matches at least
    ``len(points) - max_errors`` of them.  Any degree-<=degree polynomial
    matching that many points is unique (two candidates would agree on
    >= n - 2*max_errors >= degree + 1 common points), so the candidate is
    exactly what the key-equation solve would return, without the O(n^3)
    linear system.  Sets are grouped by their abscissas; a group's
    candidates are built together on the cached barycentric node set of
    its head abscissas (``degree + 1`` inversion-free sweeps as wide as
    the group) and checked by one
    :func:`~repro.poly.polynomial.evaluate_polys` call.  A set whose
    candidate falls short (a corrupted head point) goes through
    :func:`full_decode`, as does every set under interpolation mode
    ``"off"``.  Under ``"fresh"`` (a throwaway cache per set) and
    ``"ntt"`` (transform interpolation) candidates are built set by set,
    and under ``"ntt"`` also evaluated set by set, so their op counts stay
    those of one-set decodes.
    """
    if len(max_errors) != len(point_sets):
        raise ValueError("berlekamp_welch_many needs one max_errors per set")
    xs_sets = [tuple([x for x, _ in points]) for points in point_sets]
    for xs in xs_sets:
        _require_distinct(xs)
    mode = barycentric.cache_mode()
    results: list = [None] * len(point_sets)
    pending = []  # (index, max_errors) of every set that reaches a decode
    for index, (points, errors) in enumerate(zip(point_sets, max_errors)):
        n = len(points)
        if n < degree + 1:
            results[index] = DecodingError(
                f"need at least {degree + 1} points, got {n}"
            )
            continue
        correctable = max_correctable_errors(n, degree)
        errors = correctable if errors is None else min(errors, correctable)
        field.counter.interpolations += 1
        if mode == "off":
            results[index] = _full_decode_or_error(
                field, points, degree, errors
            )
        else:
            pending.append((index, errors))

    groups: Dict[tuple, list] = {}
    for entry in pending:
        groups.setdefault(xs_sets[entry[0]], []).append(entry)
    for xs, group in groups.items():
        heads = [point_sets[index][: degree + 1] for index, _ in group]
        if mode == "shared":
            node = barycentric.shared_cache(field).node_set(xs[: degree + 1])
            candidates = node.polynomials(heads)
        else:
            candidates = [optimistic_candidate(field, head) for head in heads]
        if mode == "ntt":
            # one by one, so evaluate_many can take its transform path
            rows = [poly.evaluate_many(xs) for poly in candidates]
        else:
            rows = evaluate_polys(field, candidates, xs)
        for (index, errors), candidate, values in zip(group, candidates, rows):
            points = point_sets[index]
            good = [
                i for i, (v, (_, y)) in enumerate(zip(values, points))
                if v == y
            ]
            if len(good) >= len(points) - errors:
                results[index] = (candidate, good)
            else:
                results[index] = _full_decode_or_error(
                    field, points, degree, errors
                )
    return results


def _full_decode_or_error(
    field: Field, points, degree: int, max_errors: int
):
    """:func:`full_decode`'s result, or the :class:`DecodingError` raised."""
    try:
        return full_decode(field, points, degree, max_errors)
    except DecodingError as error:
        return error


def decode_quorums(
    field: Field,
    point_sets: Sequence[Sequence[Point]],
    degree: int,
    quorums: Sequence[int],
) -> List[Optional[Polynomial]]:
    """Per set, the degree-<=degree polynomial matching at least
    ``quorums[i]`` of its points, or None when there is none.

    One :func:`berlekamp_welch_many` call with ``len(points) - quorum``
    allowed errors per set; a set with fewer than ``quorum`` points (or
    none) is not decoded at all.
    """
    decodable = [
        i for i, (points, quorum) in enumerate(zip(point_sets, quorums))
        if points and len(points) >= quorum
    ]
    outcomes = berlekamp_welch_many(
        field,
        [point_sets[i] for i in decodable],
        degree,
        [len(point_sets[i]) - quorums[i] for i in decodable],
    )
    polys: List[Optional[Polynomial]] = [None] * len(point_sets)
    for i, outcome in zip(decodable, outcomes):
        if isinstance(outcome, DecodingError):
            continue
        poly, good = outcome
        if len(good) >= quorums[i]:
            polys[i] = poly
    return polys


def optimistic_candidate(field: Field, points: Sequence[Point]) -> Polynomial:
    """The head-interpolation candidate the optimistic fast path tests,
    built for one set (the ``"fresh"`` and ``"ntt"`` modes)."""
    if barycentric.cache_mode() == "ntt":
        from repro.poly import fast_eval

        if fast_eval.ntt_applicable(field, len(points)):
            return Polynomial(
                field, fast_eval.fast_interpolate_coeffs(field, list(points))
            )
    return barycentric.cache_for(field).polynomial(list(points))


def full_decode(
    field: Field,
    points: Sequence[Point],
    degree: int,
    max_errors: int,
) -> Tuple[Polynomial, List[int]]:
    """The key-equation decoder (no optimistic pre-pass, no re-metering)."""
    points = list(points)
    n = len(points)
    for e in range(max_errors, -1, -1):
        candidate = _try_decode(field, points, degree, e)
        if candidate is None:
            continue
        good = [i for i, (x, y) in enumerate(points) if candidate(x) == y]
        if len(good) >= n - max_errors:
            return candidate, good
    raise DecodingError(
        f"no degree-{degree} polynomial matches >= {n - max_errors} of {n} points"
    )


def _try_decode(field: Field, points: List[Point], t: int, e: int):
    """Solve the key equation for exactly ``e`` allowed errors."""
    # unknowns: Q_0..Q_{t+e} then E_0..E_{e-1} (E is monic of degree e)
    q_terms = t + e + 1
    rows = []
    rhs = []
    for x, y in points:
        powers = [field.one]
        for _ in range(t + e):
            powers.append(field.mul(powers[-1], x))
        row = powers[:q_terms]
        # -y * x^j for the E coefficients
        row += [field.neg(field.mul(y, powers[j])) for j in range(e)]
        rows.append(row)
        # RHS: y * x^e   (from the monic leading term of E)
        rhs.append(field.mul(y, powers[e]))
    solution = solve_linear_system(field, rows, rhs)
    if solution is None:
        return None
    q_poly = Polynomial(field, solution[:q_terms])
    e_poly = Polynomial(field, solution[q_terms:] + [field.one])
    quotient, remainder = q_poly.divmod(e_poly)
    if not remainder.is_zero():
        return None
    if quotient.degree > t:
        return None
    return quotient
