"""Spans for the traced benchmark run, and the per-layer metrics made from them.

A span is (name, start, end, parent, op id).  Spans are opened around every
public call the benchmark makes (``Tracer.call``) and around the public
functions that one layer of ``betatiling`` calls in another, by replacing the
module attribute where the caller looks the function up (``patched``).  Only
the outermost span of a name counts: a call made while a span of the same
name is open (recursion, or a benchmark call that is also patched) opens no
span of its own.

A span's self time is its duration minus the durations of its direct
children; the layer of a span is the prefix of its name.
"""

from __future__ import annotations

import contextlib
import json
import time

LAYERS = ("numfield", "betamap", "tiling", "sofic")


class NullTracer:
    """The untraced run: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def set_op(self, op_id):
        pass


def _count_expand(word):
    return {"betamap.expand_steps": len(word.preperiod) + len(word.period)}


def _count_clouds(res):
    clouds, _ = res
    return {"tiling.cloud_points": sum(len(c) for c in clouds),
            "tiling.cloud_bytes": sum(c.nbytes for c in clouds)}


# Counts read off a span's result: span name -> result -> {count name: value}.
COUNTERS = {
    "betamap.expand": _count_expand,
    "tiling.periodic_points": lambda ps: {"tiling.periodic_points": len(ps)},
    "tiling.membership": lambda rep: {"tiling.membership_shift_k": rep.k},
    "tiling.clouds": _count_clouds,
    "sofic.automaton": lambda aut: {"sofic.automaton_states": aut.n_states},
    "sofic.difference_pairs": lambda res: {"sofic.candidate_pairs": len(res[0])},
    "sofic.transducer": lambda td: {"sofic.transducers_built": 1,
                                    "sofic.transducer_states": len(td.states)},
    "sofic.eigen_test": lambda _: {"sofic.eigen_tests": 1},
}


# All ``<span>_ms`` metrics are self times; this one says so in its name.
METRIC_NAMES = {"sofic.decide": "sofic.decide_self"}
# Counts of events, reported per span of another name rather than per event.
COUNT_PER = {"sofic.transducers_built": "sofic.decide", "sofic.eigen_tests": "sofic.decide"}


class Tracer:
    """Keeps spans and counts in memory; ``write`` stores them at the end."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = []         # (count name, value)
        self._stack = []
        self._open_names = set()
        self._op = "setup"

    def set_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args, **kwargs):
        if name in self._open_names:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(span)
        self._stack.append(idx)
        self._open_names.add(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._open_names.discard(name)
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.extend(counter(res).items())
        return res

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each (module, attribute, span name) by a traced wrapper."""
        saved = []
        try:
            for mod, attr, name in targets:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """Self time in seconds of every span, by index."""
        selft = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                selft[s[3]] -= s[2] - s[1]
        return selft

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer, op_seconds):
    """Per-layer metrics of a traced pass.

    ``<span>_ms`` is the mean self time per span, counts are means per span
    that produces them (or per span named in ``COUNT_PER``), ``share.<layer>_pct`` is the layer's share of the
    measured op time (spans opened during set-up excluded), and
    ``share.bench_pct`` the share spent outside every span.
    """
    selft = tracer.self_times()
    tot, calls = {}, {}
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(tracer.spans, selft):
        name = s[0]
        tot[name] = tot.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        if s[4] != "setup":
            layer_ms[name.split(".", 1)[0]] += st
    out = {}
    for name, secs in tot.items():
        out[f"{METRIC_NAMES.get(name, name)}_ms"] = 1000.0 * secs / calls[name]
    csum, cn = {}, {}
    for key, val in tracer.counts:
        csum[key] = csum.get(key, 0) + val
        cn[key] = cn.get(key, 0) + 1
    for key, val in csum.items():
        per = calls.get(COUNT_PER[key], 0) if key in COUNT_PER else cn[key]
        out[key] = val / per if per else 0.0
    # built transducers per candidate pair: below 1 when pairs share a machine
    pairs = csum.get("sofic.candidate_pairs", 0)
    out["sofic.transducer_reuse_ratio"] = (
        csum.get("sofic.transducers_built", 0) / pairs if pairs else 0.0)
    for layer, secs in layer_ms.items():
        out[f"share.{layer}_pct"] = 100.0 * secs / op_seconds if op_seconds else 0.0
    out["share.bench_pct"] = 100.0 - sum(out[f"share.{l}_pct"] for l in LAYERS)
    return out
