"""VSS with complaint resolution (the paper's 'two rounds of broadcast')."""

import pytest

from repro.fields import GF2k
from repro.poly.lagrange import interpolate_at
from repro.protocols.vss_complaints import run_vss_with_complaints
from repro.sharing.shamir import ShamirScheme

F = GF2k(32)
N, T = 7, 2


class TestHonestDealer:
    def test_accept_no_complaints(self):
        outputs, _ = run_vss_with_complaints(F, N, T, seed=1)
        assert all(o.accepted for o in outputs.values())
        assert all(o.complainers == () for o in outputs.values())

    def test_all_shares_consistent_afterwards(self):
        """The remark's goal: ALL n players end with shares of one
        degree-t polynomial, even when t of them were mis-dealt."""
        scheme = ShamirScheme(F, N, T)
        outputs, _ = run_vss_with_complaints(
            F, N, T, secret=1234, seed=2,
            cheat_shares={3: 111, 6: 222},  # mis-dealt, dealer will repair
        )
        assert all(o.accepted for o in outputs.values())
        # repaired shares of players 3 and 6 now interpolate with others
        pts = [
            (scheme.point(pid), outputs[pid].share)
            for pid in (1, 3, 6)
        ]
        assert interpolate_at(F, pts, F.zero) == 1234

    def test_complainers_identified(self):
        outputs, _ = run_vss_with_complaints(
            F, N, T, seed=3, cheat_shares={4: 99}
        )
        assert all(o.accepted for o in outputs.values())
        assert all(o.complainers == (4,) for o in outputs.values())

    def test_secret_preserved(self):
        scheme = ShamirScheme(F, N, T)
        outputs, _ = run_vss_with_complaints(F, N, T, secret=777, seed=4)
        pts = [(scheme.point(pid), outputs[pid].share) for pid in (1, 2, 5)]
        assert interpolate_at(F, pts, F.zero) == 777


class TestBadDealer:
    def test_unanswered_complaints_reject(self):
        outputs, _ = run_vss_with_complaints(
            F, N, T, seed=5, cheat_shares={2: 1}, dealer_answers=False
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 1}
        assert not any(o.accepted for o in honest.values())

    def test_globally_bad_dealing_rejected(self):
        """More than t corrupted positions: no degree-t polynomial fits
        n-t combinations, so rejection happens before complaints."""
        outputs, _ = run_vss_with_complaints(
            F, N, T, seed=6, cheat_shares={2: 1, 3: 2, 4: 3}
        )
        assert not any(o.accepted for o in outputs.values())


class TestFalseComplaints:
    def test_honest_dealer_survives_false_complainer(self):
        """A faulty player complaining about a perfectly good share just
        gets its (correct) share published — no rejection."""
        from repro.net.transport import broadcast as bc

        def false_complainer():
            yield []          # g round
            yield []          # expose round
            yield []          # nu round (stays silent)
            yield [bc(("cvss/complain", 1))]
            yield []

        outputs, _ = run_vss_with_complaints(
            F, N, T, seed=7, faulty_programs={5: false_complainer()}
        )
        honest = {pid: o for pid, o in outputs.items() if pid != 5}
        assert all(o.accepted for o in honest.values())
        assert all(5 in o.complainers for o in honest.values())
