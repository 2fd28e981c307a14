"""Spans around each layer's public entry points, for the traced run only.

A :class:`Tracer` replaces a fixed list of functions and methods of the
``repro`` packages with timing wrappers, runs the workload, and puts the
originals back.  Nothing here is imported by the program, and nothing is
installed in an untraced run.

A module-level function is patched wherever it is looked up: every
``repro`` module whose namespace holds the original object (because it
did ``from X import f``) gets the wrapper too.  Methods are patched on
their class.  Each span records its name, start, end, parent span and the
op id of the workload step that caused it (toss index, stretch index or
cell id).  Self time is a span's duration minus the time its child spans
cover, accumulated online so that no pass over the spans is needed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


# -- per-target counters ----------------------------------------------------
#
# A hook pair ``(before, after)``: ``before(args)`` runs just before the
# call and returns a token; ``after(tracer, args, result, token)`` adds to
# ``tracer.counts`` once the call has returned.  Hook time is charged to
# the tracer, not to the enclosing span.

def _run_before(args):
    metrics = args[0].metrics
    return metrics.paper_messages, metrics.bits, metrics.total_ops()


def _run_after(tracer, args, result, token):
    counts = tracer.counts
    messages, bits, ops = token
    metrics = args[0].metrics
    done = metrics.total_ops()
    counts["net.messages"] += metrics.paper_messages - messages
    counts["net.bits"] += metrics.bits - bits
    counts["fields.ops.adds"] += done.adds - ops.adds
    counts["fields.ops.muls"] += done.muls - ops.muls
    counts["fields.ops.invs"] += done.invs - ops.invs


def _filter_tag_after(tracer, args, result, token):
    # the same scan filter_tag makes: every payload up to the first match
    inbox, tag = args[0], args[1]
    scanned = 0
    for src, payloads in inbox.items():
        if not isinstance(src, int):
            continue
        for payload in payloads:
            scanned += 1
            if (isinstance(payload, tuple) and len(payload) == 2
                    and payload[0] == tag):
                break
    tracer.counts["protocols.filter_tag.payloads_scanned"] += scanned
    tracer.counts["protocols.filter_tag.matches"] += len(result)


def _encode_after(tracer, args, result, token):
    tracer.counts["net.codec.encode.bytes"] += len(result)


def _decode_after(tracer, args, result, token):
    tracer.counts["net.codec.decode.bytes"] += len(args[0])


def _kernel_after(tracer, args, result, token):
    tracer.counts["fields.kernel.elements"] += len(args[1])


def _rows_kernel_after(tracer, args, result, token):
    tracer.counts["fields.kernel.elements"] += len(args[1]) * len(args[2])


RUN = (_run_before, _run_after)
FILTER_TAG = (None, _filter_tag_after)
ENCODE = (None, _encode_after)
DECODE = (None, _decode_after)
KERNEL = (None, _kernel_after)
ROWS_KERNEL = (None, _rows_kernel_after)


def _cache_before(args):
    cache = args[0]
    return cache.hits, cache.misses


def _cache_after(tracer, args, result, token):
    # the InterpolationCache.stats() counters this lookup moved
    cache = args[0]
    tracer.counts["poly.interp_cache.hits"] += cache.hits - token[0]
    tracer.counts["poly.interp_cache.misses"] += cache.misses - token[1]


CACHE = (_cache_before, _cache_after)

#: (span name, module, attribute, hooks).  An attribute ``Class.method``
#: is patched on the class; a plain name in every ``repro`` module.
TARGETS = [
    ("core.stretch", "repro.core.dprbg", "DPRBG.stretch", None),
    ("core.expose", "repro.core.dprbg", "SharedCoinSystem.expose_many", None),
    ("net.lockstep_run", "repro.net.runtime", "ProtocolRuntime.run", RUN),
    ("net.async_run", "repro.net.async_runtime", "AsyncRuntime.run", RUN),
    ("net.codec.encode", "repro.net.codec", "encode", ENCODE),
    ("net.codec.decode", "repro.net.codec", "decode", DECODE),
    ("protocols.filter_tag", "repro.protocols.common", "filter_tag",
     FILTER_TAG),
    ("protocols.decode_exposed", "repro.protocols.coin_expose",
     "decode_exposed", None),
    ("poly.berlekamp_welch", "repro.poly.berlekamp_welch",
     "berlekamp_welch", None),
    ("poly.full_decode", "repro.poly.berlekamp_welch", "full_decode", None),
    # interpolation entry points that do not call one another
    ("poly.interp", "repro.poly.lagrange", "interpolate", None),
    ("poly.interp", "repro.poly.lagrange", "interpolate_at", None),
    ("poly.interp", "repro.poly.barycentric",
     "InterpolationCache.polynomial", CACHE),
    ("poly.interp", "repro.poly.barycentric",
     "InterpolationCache.eval_at", CACHE),
    ("poly.interp", "repro.poly.fast_eval", "fast_interpolate_coeffs", None),
    ("poly.evaluate_polys", "repro.poly.polynomial", "evaluate_polys", None),
    ("fields.kernel", "repro.fields.base", "Field.mul_many", KERNEL),
    ("fields.kernel", "repro.fields.base", "Field.dot", KERNEL),
    ("fields.kernel", "repro.fields.base", "Field.axpy_many", KERNEL),
    ("fields.kernel", "repro.fields.base", "Field.fma_many", KERNEL),
    ("fields.kernel", "repro.fields.base", "Field.dot_rows", ROWS_KERNEL),
    ("fields.kernel", "repro.fields.base", "Field.batch_inv", KERNEL),
    ("fields.construct", "repro.fields.gf2k", "GF2k.__init__", None),
    ("obs.flight.dumps", "repro.obs.flight", "FlightLog.dumps", None),
    ("obs.flight.loads", "repro.obs.flight", "FlightLog.loads", None),
    ("obs.flight.diff", "repro.obs.flight", "diff", None),
    ("obs.flight.replay", "repro.obs.flight", "replay", None),
    ("obs.forensics.analyze_log", "repro.obs.forensics", "analyze_log", None),
    ("campaign.run_cell", "repro.campaign.driver", "run_cell", None),
    ("campaign.oracle", "repro.campaign.oracle", "evaluate", None),
]


def import_targets(targets=TARGETS):
    """Import every traced module, so neither pass pays for it while timed."""
    for _name, module_name, _attr, _hooks in targets:
        importlib.import_module(module_name)


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.hook_s = 0.0        # time spent in counting hooks
        self.op = None           # id of the workload step in progress
        self._stack = []         # [span index, child seconds]
        self._undo = []          # callables restoring the originals

    # -- spans ---------------------------------------------------------------
    def wrap(self, name, fn, hooks=None):
        """``fn`` wrapped in a span named ``name``."""
        before, after = hooks or (None, None)
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook_start = clock()
                token = before(args)
                tracer._charge_hook(clock() - hook_start)
            else:
                token = None
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer, args, result, token)
                tracer._charge_hook(clock() - end)
            return result

        return traced

    def _charge_hook(self, seconds):
        self.hook_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a root span named ``name`` (one workload step)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching --------------------------------------------------------------
    def install(self, targets=TARGETS):
        for name, module_name, attr, hooks in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                self._patch_method(name, module, attr, hooks)
            else:
                self._patch_function(name, module, attr, hooks)

    def _patch_method(self, name, module, attr, hooks):
        class_name, method = attr.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__, hooks))
        else:
            patched = self.wrap(name, raw, hooks)
        setattr(owner, method, patched)
        self._undo.append(lambda: setattr(owner, method, raw))

    def _patch_function(self, name, module, attr, hooks):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hooks)
        for each in _repro_modules():
            for key, value in list(vars(each).items()):
                if value is original:
                    setattr(each, key, wrapper)

        def undo():
            # also catches modules imported after install that copied it
            for each in _repro_modules():
                for key, value in list(vars(each).items()):
                    if value is wrapper:
                        setattr(each, key, original)

        self._undo.append(undo)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- output ------------------------------------------------------------------
    def write_spans(self, path):
        """Write every span as one JSON line (gzip) and return the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
        return len(self.spans)
