"""Protocol Coin-Expose (Fig. 6): reveal a secretly-held shared coin.

Every qualified holder sends its share of the coin's polynomial to all
players; everyone decodes with the Berlekamp-Welch decoder and takes
``F(0)`` (``F(0) mod 2`` for a binary coin).  One round, ``|S| * n``
point-to-point messages of size ``k``, one interpolation per player —
"it is equivalent in computation to the interpolation of the shares being
examined" (Section 3.1).

Robust acceptance rule
----------------------
The paper's Fig. 6 takes exactly 3t+1 senders.  Our senders *self-select*
(a holder abstains when its own shares failed verification — see
DESIGN.md Section 5), so the receiver accepts a decoded polynomial only if
it matches at least ``max(2t+1, N-t)`` of the ``N`` valid shares received.
Such a polynomial is unique and identical across honest receivers'
(possibly different) views, because any two qualifying polynomials agree
on at least t+1 honestly-sent (hence common) points.  This preserves
unanimity even when faulty senders equivocate.

Batched exposure
----------------
:func:`coin_expose_many` exposes M coins in the same single round.  Each
receiver reads all M coins' shares from its inbox in one pass
(:func:`~repro.protocols.common.filter_tags`), so a batch costs it
O(n·M) payload checks — not the O(n·M²) of one inbox scan per coin.  It
then decodes all M coins with one
:func:`~repro.poly.berlekamp_welch.berlekamp_welch_many` call
(:func:`decode_exposed_many`): t+1 candidate-building sweeps and one
evaluation sweep per coefficient, each as wide as the batch, instead of
M decodes whose kernels are only t+1 or n elements wide.  The field ops
are exactly those of M separate decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.fields.base import Element, Field
from repro.obs.phases import register_tag_phase
from repro.poly.berlekamp_welch import decode_quorums
from repro.net.transport import Send, multicast
from repro.protocols.common import filter_tags, valid_element

# every Coin-Expose message (seed challenges, leader coins, generated
# batches) is tagged "expose/<coin_id>"
register_tag_phase("expose", prefix="expose/")


@dataclass(frozen=True)
class CoinShare:
    """One player's local piece of a shared (sealed) k-ary coin.

    Attributes
    ----------
    coin_id:
        Globally unique identifier; doubles as the expose message tag, so
        all honest players must agree on it (they do: it is derived from
        common protocol state).
    senders:
        The qualified set whose members hold shares and send them at
        expose time (the trusted dealer's seed coins use all players; a
        Coin-Gen batch uses the agreed clique).
    t:
        Degree of the sharing polynomial = maximum faults tolerated.
    my_value:
        This player's share, or None when the player holds no (valid)
        share and must abstain.
    """

    coin_id: str
    senders: frozenset
    t: int
    my_value: Optional[Element] = None


def coin_expose(
    field: Field, me: int, coin: CoinShare
) -> Generator:
    """Sub-protocol generator: expose ``coin``; returns ``F(0)`` or None.

    Usable via ``yield from`` inside a larger player program.  Takes
    exactly one communication round.  Returns None (an unusable coin) only
    when decoding fails, which for a correctly generated coin happens with
    probability 0.
    """
    values = yield from coin_expose_many(field, me, [coin])
    return values[0]


def coin_expose_many(field: Field, me: int, coins) -> Generator:
    """Expose several coins in a single communication round.

    Returns a list of exposed values (None entries for failures).  Used by
    the ``shared_challenge=False`` ablation of Coin-Gen, where every
    Bit-Gen instance consumes its own challenge coin, and by
    ``SharedCoinSystem.expose_many``.  Every coin's shares are read from
    the inbox in one :func:`~repro.protocols.common.filter_tags` pass and
    decoded by one :func:`decode_exposed_many` call.
    """
    tags = ["expose/" + coin.coin_id for coin in coins]
    sends = []
    for coin, tag in zip(coins, tags):
        if me in coin.senders and coin.my_value is not None:
            sends.append(multicast((tag, coin.my_value)))
    inbox = yield sends

    shares = filter_tags(inbox, tags)
    # {senders: {src: evaluation point}} in sender order, built once per
    # distinct qualified set (a batch almost always has one)
    points_of: dict = {}
    point_sets = []
    for coin, tag in zip(coins, tags):
        qualified = points_of.get(coin.senders)
        if qualified is None:
            qualified = points_of[coin.senders] = {
                src: field.element_point(src) for src in sorted(coin.senders)
            }
        received = shares[tag]
        point_sets.append([
            (point, received[src])
            for src, point in qualified.items()
            if src in received and valid_element(field, received[src])
        ])
    values: list = [None] * len(coins)
    for t in {coin.t for coin in coins}:
        batch = [i for i, coin in enumerate(coins) if coin.t == t]
        decoded = decode_exposed_many(field, [point_sets[i] for i in batch], t)
        for i, value in zip(batch, decoded):
            values[i] = value
    return values


def decode_exposed(field: Field, points, t: int) -> Optional[Element]:
    """Robustly decode one coin's exposed shares; None when undecodable.

    The single-set spelling of :func:`decode_exposed_many`.
    """
    return decode_exposed_many(field, [points], t)[0]


def decode_exposed_many(field: Field, point_sets, t: int) -> list:
    """``F(0)`` of every coin's exposed shares (None when undecodable).

    A coin's polynomial is accepted only if it matches at least
    ``max(2t+1, N-t)`` of its ``N`` valid shares (the robust acceptance
    rule above).  All coins go through one
    :func:`~repro.poly.berlekamp_welch.berlekamp_welch_many` call: in the
    common no-fault case each candidate is an inversion-free cached
    barycentric build through the first t+1 shares, built and checked
    against the rest in kernels as wide as the batch.  The bootstrap
    source exposes many coins against the *same* qualified set, so every
    exposure after the first reuses the cached weights.
    """
    quorums = [
        max(2 * t + 1, len(points) - t) if t > 0 else len(points)
        for points in point_sets
    ]
    return [
        None if poly is None else poly(field.zero)
        for poly in decode_quorums(field, point_sets, t, quorums)
    ]


def coin_to_index(field: Field, value: Element, n: int) -> int:
    """Fig. 5 step 9: ``l = coin mod n``, mapping 0 to n (ids are 1-based)."""
    l = field.to_int(value) % n
    return n if l == 0 else l


def make_dealer_coin(
    field: Field,
    n: int,
    t: int,
    coin_id: str,
    rng,
):
    """A trusted-dealer seed coin (Rabin [17], used once to bootstrap).

    Returns ``(secret, {player_id: CoinShare})``.  The dealer samples a
    uniform field element, Shamir-shares it with degree ``t``, and every
    player becomes a qualified sender.  "In our approach the services of a
    trusted dealer would be used only once, and for a small number of
    coins" (Section 1.2).
    """
    from repro.sharing.shamir import ShamirScheme

    scheme = ShamirScheme(field, n, t)
    secret = field.random(rng)
    _, shares = scheme.deal(secret, rng)
    everyone = frozenset(range(1, n + 1))
    coin_shares = {
        share.player_id: CoinShare(coin_id, everyone, t, share.value)
        for share in shares
    }
    return secret, coin_shares
