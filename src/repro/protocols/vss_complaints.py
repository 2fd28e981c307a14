"""VSS with complaint resolution — the paper's "two rounds of broadcast".

Section 3.1: "It seems that it would be impossible to grant that all the
n players' shares will satisfy the polynomial, as some of them might be
faulty.  Yet it is easy to see that two rounds of broadcast render this
possible."

This module implements that remark as an extension of Protocol VSS:

1. run Fig. 2's check in robust mode (accept iff a degree-t polynomial F
   fits >= n-t of the broadcast combinations);
2. **complaint round**: every player whose own combination did not match
   F broadcasts a complaint;
3. **resolution round**: the dealer broadcasts, for each complainer, the
   pair ``(f(x_i), g(x_i))``; everyone checks the pair against F
   (``f + r g`` must equal ``F(x_i)``), and the complainer adopts the
   published share.

After resolution, *every* honest player holds a share consistent with
one degree-t polynomial (an honest dealer's secret is unchanged; a
dealer that refuses or publishes inconsistent pairs is rejected).  The
price is that complained shares become public — exactly why the paper's
coin pipeline prefers the n-t criterion plus robust reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.fields.base import Element, Field
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.net.metrics import NetworkMetrics
from repro.net.transport import broadcast, unicast
from repro.sharing.shamir import ShamirScheme
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.common import filter_tag, valid_element
from repro.protocols.context import as_context


@dataclass(frozen=True)
class ComplaintVSSResult:
    """Outcome with complaint resolution."""

    accepted: bool
    #: this player's (possibly repaired) share of f
    share: Optional[Element]
    #: players whose shares were published during resolution
    complainers: Tuple[int, ...] = ()


def vss_complaints_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    dealer: int,
    alpha: Optional[Element],
    coin: CoinShare,
    g_poly=None,
    f_poly=None,
    tag: str = "cvss",
) -> Generator:
    """Protocol VSS + two broadcast rounds of complaint resolution.

    The dealer additionally passes its ``f_poly`` so it can answer
    complaints.  Returns :class:`ComplaintVSSResult`.
    """
    scheme = ShamirScheme(field, n, t)

    # --- Fig. 2, steps 1-3 -------------------------------------------------
    sends = []
    if me == dealer:
        if g_poly is None or f_poly is None:
            raise ValueError("dealer must supply f and g")
        sends = [
            unicast(j, (tag + "/g", g_poly(scheme.point(j))))
            for j in range(1, n + 1)
        ]
    inbox = yield sends
    beta = filter_tag(inbox, tag + "/g").get(dealer)
    if not valid_element(field, beta):
        beta = None

    r = yield from coin_expose(field, me, coin)

    sends = []
    nu = None
    if r is not None and alpha is not None and beta is not None:
        nu = field.add(alpha, field.mul(r, beta))
        sends = [broadcast((tag + "/nu", nu))]
    inbox = yield sends
    if r is None:
        return ComplaintVSSResult(False, None)
    votes = filter_tag(inbox, tag + "/nu")
    points = [
        (scheme.point(j), votes[j])
        for j in range(1, n + 1)
        if j in votes and valid_element(field, votes[j])
    ]

    combined = None
    if len(points) >= n - t:
        try:
            candidate, good = berlekamp_welch(field, points, t)
            if len(good) >= n - t:
                combined = candidate
        except DecodingError:
            combined = None

    # --- complaint round (broadcast #1) -------------------------------------
    my_complaint = (
        combined is not None
        and (nu is None or combined(scheme.point(me)) != nu)
    )
    sends = []
    if combined is not None and my_complaint:
        sends = [broadcast((tag + "/complain", 1))]
    inbox = yield sends
    complainers = tuple(
        sorted(
            src
            for src, body in filter_tag(inbox, tag + "/complain").items()
            if body == 1
        )
    )

    # --- resolution round (broadcast #2) -------------------------------------
    sends = []
    if me == dealer and combined is not None and complainers:
        published = tuple(
            (j, f_poly(scheme.point(j)), g_poly(scheme.point(j)))
            for j in complainers
        )
        sends = [broadcast((tag + "/resolve", published))]
    inbox = yield sends
    if combined is None:
        return ComplaintVSSResult(False, None, complainers)

    resolved: Dict[int, Tuple[Element, Element]] = {}
    body = filter_tag(inbox, tag + "/resolve").get(dealer)
    if isinstance(body, tuple):
        for item in body:
            if (
                isinstance(item, tuple)
                and len(item) == 3
                and isinstance(item[0], int)
                and item[0] in complainers
                and valid_element(field, item[1])
                and valid_element(field, item[2])
            ):
                resolved[item[0]] = (item[1], item[2])

    # every complaint must be answered consistently with F
    for j in complainers:
        if j not in resolved:
            return ComplaintVSSResult(False, None, complainers)
        f_j, g_j = resolved[j]
        if field.add(f_j, field.mul(r, g_j)) != combined(scheme.point(j)):
            return ComplaintVSSResult(False, None, complainers)

    share = alpha
    if me in complainers:
        share = resolved[me][0]
    return ComplaintVSSResult(True, share, complainers)


def run_vss_with_complaints(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    secret: Optional[Element] = None,
    seed: int = 0,
    cheat_shares: Optional[Dict[int, Element]] = None,
    dealer_answers: bool = True,
    faulty_programs: Optional[Dict[int, Generator]] = None,
) -> Tuple[Dict[int, ComplaintVSSResult], NetworkMetrics]:
    """Run the complaint-resolving VSS end to end (dealer = player 1).

    ``cheat_shares`` mis-deals up to t players (whose complaints the
    honest-polynomial dealer then repairs); ``dealer_answers=False``
    models a dealer that refuses resolution (everyone must reject).
    """
    from repro.poly.polynomial import Polynomial

    ctx = as_context(field, n, t, seed=seed)
    field, n, t, rng = ctx.field, ctx.n, ctx.t, ctx.rng
    scheme = ShamirScheme(field, n, t)
    if secret is None:
        secret = field.random(rng)
    f_poly, shares = scheme.deal(secret, rng)
    alphas = {s.player_id: s.value for s in shares}
    if cheat_shares:
        alphas.update(cheat_shares)
    g_poly = Polynomial.random(field, t, rng)
    _, coin_shares = make_dealer_coin(field, n, t, "cvss-challenge", rng)

    def silent_dealer_after_round3():
        # behaves honestly through the nu broadcast, then refuses to resolve
        gen = vss_complaints_program(
            field, n, t, 1, 1, alphas[1], coin_shares[1],
            g_poly=g_poly, f_poly=f_poly,
        )
        sends = next(gen)
        for _ in range(3):  # g-round, expose, nu
            inbox = yield sends
            sends = gen.send(inbox)
        yield sends  # complaint round output
        while True:
            yield []  # never resolves

    network = ctx.network()
    programs = {}
    faulty_programs = faulty_programs or {}
    for pid in range(1, n + 1):
        if pid in faulty_programs:
            if faulty_programs[pid] is not None:
                programs[pid] = faulty_programs[pid]
            continue
        if pid == 1 and not dealer_answers:
            programs[pid] = silent_dealer_after_round3()
            continue
        programs[pid] = vss_complaints_program(
            field, n, t, pid, 1, alphas[pid], coin_shares[pid],
            g_poly=g_poly if pid == 1 else None,
            f_poly=f_poly if pid == 1 else None,
        )
    honest = [
        pid for pid in programs
        if pid not in faulty_programs and (dealer_answers or pid != 1)
    ]
    outputs = network.run(programs, wait_for=honest)
    ctx.absorb(network.metrics)
    return outputs, network.metrics
