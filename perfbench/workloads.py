"""The three benchmark workloads, built only on the ``repro`` public API.

Each workload is closed loop with one caller in one process.  Its
constructor is the set-up (imports, field, context, trusted-dealer seed
or cell list) and is what ``setup_s`` times.  :meth:`step` runs one unit
of work — a refill cycle of tosses, one stretch plus its batched
exposure, or one campaign cell — times every operation the caller sees,
and checks every output.  ``fixed_units`` is the unit count whose work is
identical for a given seed (for the campaign, one pass over its cells);
deterministic counts and peak memory are taken after exactly that many
units, and a run is always a whole number of such passes.

Outputs are checked against an independent reconstruction made with
``repro.poly.lagrange.interpolate_at`` over a separate, unmetered field
instance, so checking adds nothing to the program's own op counters.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List

clock = time.perf_counter

N, T, K = 13, 2, 32


@dataclass
class Step:
    """What one unit of work produced."""

    latencies: List[float] = dataclass_field(default_factory=list)
    #: operations the program reported as failed or that failed a check
    failed: int = 0
    #: outputs the program returned as good that the check refuted
    wrong: int = 0
    #: coins handed to the caller, or cells judged
    items: int = 0
    #: one line per failed operation
    notes: List[str] = dataclass_field(default_factory=list)


def _in_span(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.span(name, fn, *args)


class _CoinChecker:
    """Reconstructs a coin at 0 from t+1 of its honest shares.

    The shares used rotate with the coin index, so across a run every
    holder's share takes part in some reconstruction.
    """

    def __init__(self, field):
        from repro.fields.gf2k import GF2k
        from repro.poly.lagrange import interpolate_at

        self.field = GF2k(field.k, modulus=field.modulus, backend="python")
        self.interpolate_at = interpolate_at
        self.count = 0

    def expected(self, coin, honest):
        holders = sorted(pid for pid in coin.holders() if pid in honest)
        start = self.count % len(holders)
        chosen = [holders[(start + i) % len(holders)] for i in range(coin.t + 1)]
        self.count += 1
        field = self.field
        points = [
            (field.element_point(pid), coin.shares[pid].my_value)
            for pid in chosen
        ]
        return self.interpolate_at(field, points, field.zero)


def _metric_counts(metrics, coins: int) -> Dict[str, int]:
    ops = metrics.total_ops()
    return {
        "coins": coins,
        "messages": metrics.paper_messages,
        "bits": metrics.bits,
        "adds": ops.adds,
        "muls": ops.muls,
        "invs": ops.invs,
    }


class Beacon:
    """Fig. 1's steady state: ``toss_element()`` one coin at a time."""

    name = "beacon"

    def __init__(self, seed: int, small: bool = False):
        from repro.core.bootstrap import BootstrapCoinSource
        from repro.fields.gf2k import GF2k

        self.field = GF2k(K)
        self.source = BootstrapCoinSource(
            self.field, N, T, batch_size=64, low_watermark=1, seed=seed,
        )
        # 16 refill cycles are ~1,100 tosses
        self.fixed_units = 2 if small else 16
        self.n = N
        self._tosses = 0

    def prepare(self):
        """Benchmark-side state built after the set-up timer stops."""
        from repro.core.coin import UnanimityError
        from repro.core.dprbg import GenerationError

        self._checker = _CoinChecker(self.field)
        self._errors = (UnanimityError, GenerationError)
        self._honest = set(self.source.system.honest_players())

    def step(self, tracer=None) -> Step:
        """One refill cycle: toss until the pool is empty again."""
        source, step = self.source, Step()
        while True:
            coin = source.pool[0] if source.pool else None
            epoch = source.epoch
            if tracer is not None:
                tracer.op = f"toss-{self._tosses}"
            failure = None
            start = clock()
            try:
                value = _in_span(tracer, "op.toss", source.toss_element)
            except self._errors as error:
                value, failure = None, error
            step.latencies.append(clock() - start)
            self._tosses += 1
            if coin is None and source.epoch > epoch:
                coin = source.batch_history[-1].coins[0]
            if value is None:
                step.failed += 1
                step.notes.append(f"toss {self._tosses - 1}: {failure!r}")
            elif coin is None or value != self._checker.expected(coin, self._honest):
                step.failed += 1
                step.wrong += 1
                step.notes.append(f"toss {self._tosses - 1}: wrong value")
            else:
                step.items += 1
            if not source.pool:
                return step

    def counts(self) -> Dict[str, int]:
        return _metric_counts(
            self.source.system.total_metrics, self.source.coins_generated
        )


class BatchExpose:
    """``DPRBG.stretch(M=256)`` then one batched ``expose_many``."""

    name = "batch_expose"

    def __init__(self, seed: int, small: bool = False):
        from repro.core.dprbg import DPRBG, SharedCoinSystem
        from repro.core.seed import TrustedDealer
        from repro.fields.gf2k import GF2k

        self.field = GF2k(K)
        self.system = SharedCoinSystem(self.field, N, T, seed=seed)
        self.dprbg = DPRBG(self.system)
        dealer = TrustedDealer(self.field, N, T, seed=seed + 1)
        self.seed_coins = dealer.deal_seed(self.dprbg.seed_requirement)
        self.M = 32 if small else 256
        self.fixed_units = 1 if small else 4
        self.n = N
        self._coins = 0
        self._stretches = 0
        self.stretch_s = 0.0

    def prepare(self):
        from repro.core.coin import UnanimityError
        from repro.core.dprbg import GenerationError

        self._checker = _CoinChecker(self.field)
        self._errors = (UnanimityError, GenerationError)
        self._honest = set(self.system.honest_players())

    def step(self, tracer=None) -> Step:
        step = Step()
        if tracer is not None:
            tracer.op = f"stretch-{self._stretches}"
        self._stretches += 1
        start = clock()
        try:
            result = _in_span(
                tracer, "op.stretch", self.dprbg.stretch, self.seed_coins, self.M
            )
            stretched = clock()
            values = _in_span(
                tracer, "op.expose", self.system.expose_many, result.coins
            )
        except self._errors as error:
            step.latencies.append(clock() - start)
            step.failed += 1
            step.notes.append(f"stretch {self._stretches - 1}: {error!r}")
            return step
        step.latencies.append(clock() - start)
        self.stretch_s += stretched - start
        self.seed_coins = result.next_seed
        self._coins += len(result.coins) + len(result.next_seed)
        wrong = sum(
            value != self._checker.expected(coin, self._honest)
            for coin, value in zip(result.coins, values)
        )
        if wrong:
            step.failed += 1
            step.wrong += wrong
            step.notes.append(
                f"stretch {self._stretches - 1}: {wrong} wrong values"
            )
        else:
            step.items += len(values)
        return step

    def counts(self) -> Dict[str, int]:
        return _metric_counts(self.system.total_metrics, self._coins)


#: the cell the replay oracle flags today (kept in every sample)
KNOWN_BAD = {
    "runtime": "lockstep", "scheduler": "random", "adversary": "bad_share",
    "corrupt": [7], "faults": ["duplicate:src=7,dst=1", "delay:src=7,by=1"],
    "seed": 0, "sched_seed": 1,
}


def _by_structure(cells):
    """Cells grouped by everything but their protocol and scheduler seeds."""
    from dataclasses import replace

    groups = {}
    for cell in cells:
        groups.setdefault(replace(cell, seed=0, sched_seed=0), []).append(cell)
    return [groups[key] for key in sorted(groups, key=lambda c: c.cell_id())]


def campaign_sample(seed: int, n_lockstep: int = 24, n_async: int = 16):
    """The campaign's cells: a fixed mix of cell structures, seeded cells.

    Which structures (runtime, scheduler, adversary, fault chain) take part,
    and how often, is one fixed draw from ``default_space()``, so every
    workload seed runs the same mix; ``seed`` picks the protocol and
    scheduler seeds of each cell.  The known-bad cell is always included.
    """
    from repro.campaign.space import Scenario, default_space

    known_bad = Scenario.from_dict(KNOWN_BAD)
    groups = _by_structure(default_space(runtime="lockstep").cells())
    lockstep = [group for group in groups if known_bad not in group]
    if len(lockstep) == len(groups):
        raise RuntimeError("the known-bad cell left default_space()")
    asynchronous = _by_structure(default_space(runtime="async").cells())
    fixed = random.Random(0)
    structures = fixed.sample(lockstep, n_lockstep - 1)
    extra = fixed.sample(range(len(asynchronous)), n_async % len(asynchronous))
    rng = random.Random(seed)
    sample = [known_bad] + [rng.choice(group) for group in structures]
    for index, group in enumerate(asynchronous):
        copies = n_async // len(asynchronous) + (index in extra)
        sample += rng.sample(group, copies)
    rng.shuffle(sample)
    return sample


class Campaign:
    """``run_cell`` over a seeded sample of ``default_space()``."""

    name = "campaign"

    def __init__(self, seed: int, small: bool = False):
        from repro.campaign import driver

        self.cells = campaign_sample(seed, *((2, 2) if small else (24, 16)))
        # one pass over the sample
        self.fixed_units = len(self.cells)
        self.driver = driver
        self.n = self.cells[0].n
        self._next = 0
        self.violated = 0
        self.errored = 0
        self.coins = 0

    def prepare(self):
        pass

    def step(self, tracer=None) -> Step:
        """One cell; the next call takes the next cell of the sample."""
        cell = self.cells[self._next % len(self.cells)]
        self._next += 1
        if tracer is not None:
            tracer.op = cell.cell_id()
        step = Step()
        start = clock()
        # looked up on the module so the traced run sees its wrapper
        outcome = _in_span(tracer, "op.cell", self.driver.run_cell, cell)
        step.latencies.append(clock() - start)
        self.coins += cell.M
        if outcome.status == "clean":
            step.items += 1
            return step
        step.failed += 1
        if outcome.status == "error":
            self.errored += 1
        else:
            self.violated += 1
        signatures = ",".join(v.signature for v in outcome.violations)
        step.notes.append(
            f"cell {cell.cell_id()} {outcome.status} {signatures}: "
            f"{cell.to_dict()}"
        )
        return step

    def counts(self) -> Dict[str, int]:
        return {
            "coins": self.coins,
            "violated": self.violated,
            "errored": self.errored,
        }


WORKLOADS = {cls.name: cls for cls in (Beacon, BatchExpose, Campaign)}
