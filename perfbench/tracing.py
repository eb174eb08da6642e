"""Spans around splitkit's public functions, installed from outside.

Each wrapped function records a span (name, start, end, parent, request)
and its self time: the span's duration minus the time its child spans
cover.  Counters are taken at the same boundaries.  Spans stay in memory
(up to a cap) and are written out when the run ends; the aggregates are
kept for every call.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter


def _cells(args, result):
    return {"cells": (args[0].n + 1) ** 2}


def _lines(args, result):
    return {"lines": args[0].count("\n")}


def _partitions(args, result):
    return {"partitions": len(result)}


def _edit_set(args, result):
    # Membership tests: every sender-receiver pair, then every arc.
    part = args[1]
    return {"pairs_tested": part.k * part.l + len(args[0].arcs), "edits": result.size}


# (module, attribute, counters) for every function the benchmark wraps.
TARGETS = [
    ("cli", "run", None),
    ("cli", "parse_document", _lines),
    ("cli", "cmd_check", None),
    ("cli", "cmd_matrix", None),
    ("cli", "cmd_partitions", None),
    ("cli", "cmd_repair", None),
    ("sequences", "validate", None),
    ("sequences", "proper_order", None),
    ("sequences", "reorder", None),
    ("splittance", "splittance_matrix", _cells),
    ("splittance", "fulkerson_slack", None),
    ("splittance", "maximal_sequences", None),
    ("splittance", "is_digraphic", None),
    ("splittance", "is_split_sequence", None),
    ("splittance", "digraph_splittance", None),
    ("splittance", "split_partitions", _partitions),
    ("splittance", "induced_partition", None),
    ("splittance", "partition_measure", None),
    ("digraphs", "degree_sequence", None),
    ("digraphs", "edit_set", _edit_set),
    ("digraphs", "repair", None),
    ("undirected", "validate_degrees", None),
    ("undirected", "eg_slack", None),
    ("undirected", "splittance_sequence", None),
    ("undirected", "is_graphic", None),
    ("undirected", "undirected_splittance", None),
    ("undirected", "is_split_undirected", None),
    ("undirected", "corrected_durfee", None),
]


class Tracer:
    """Spans and per-request aggregates of the wrapped functions.

    One thread only: the open-span stack is shared by every wrapper.
    """

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list = []
        self.dropped = 0
        self._child: list[float] = []
        self._open: list[int] = []
        self.request = -1  # schedule index of the running request
        # (name, request) -> [calls, self seconds]
        self.stats: dict = defaultdict(lambda: [0, 0.0])
        # (name, request) -> {counter: total}
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._patched: list = []

    def wrap(self, name, fn, counters=None):
        def traced(*args, **kwargs):
            start = perf_counter()
            if len(self.spans) < self.span_cap:
                index = len(self.spans)
                self.spans.append(None)
            else:
                index = -1
                self.dropped += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            self._child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                if index >= 0:
                    self.spans[index] = (name, start, end, parent, self.request)
                stat = self.stats[name, self.request]
                stat[0] += 1
                stat[1] += end - start - child
            if counters is not None:
                bucket = self.counts[name, self.request]
                for key, value in counters(args, result).items():
                    bucket[key] += value
            return result

        return traced

    def install(self) -> None:
        """Patch a wrapper into every splitkit module that binds each target."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "splitkit" or key.startswith("splitkit.")]
        for module_name, attr, counters in TARGETS:
            original = getattr(sys.modules[f"splitkit.{module_name}"], attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        digraph = sys.modules["splitkit.digraphs"].Digraph
        self._patched.append((digraph, "__init__", digraph.__init__))
        digraph.__init__ = self.wrap("digraphs.Digraph", digraph.__init__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")

    # Aggregates, over the schedule indexes of the requests.

    def layers(self):
        return sorted({name for name, _ in self.stats})

    def total(self, name, requests=None):
        """(calls, self seconds, counters) of ``name`` summed over ``requests``
        (every request when None)."""
        calls, self_s, counts = 0, 0.0, defaultdict(int)
        for (n, req), (c, s) in self.stats.items():
            if n == name and (requests is None or req in requests):
                calls += c
                self_s += s
                for key, value in self.counts.get((n, req), {}).items():
                    counts[key] += value
        return calls, self_s, counts

    def slope(self, name, sizes) -> float:
        """Log-log slope of self time per call against request size, where
        ``sizes`` maps each request to its size.  0 when the layer ran at
        fewer than two sizes."""
        per_size = defaultdict(lambda: [0, 0.0])
        for (n, req), (calls, self_s) in self.stats.items():
            if n == name:
                per_size[sizes[req]][0] += calls
                per_size[sizes[req]][1] += self_s
        points = [(math.log(size), math.log(s / c))
                  for size, (c, s) in per_size.items() if size > 0 and c and s > 0]
        if len(points) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        if sxx == 0:
            return 0.0
        return sum((x - mx) * (y - my) for x, y in points) / sxx

    def report(self, labels, sizes, runs):
        """Per layer and size: calls, self seconds and counters.  Per request
        label: calls and self seconds per request of each layer.  ``labels``
        and ``sizes`` map each request to its label and size, ``runs``
        counts how often it ran."""
        by_size: dict = defaultdict(dict)
        for (name, req), (calls, self_s) in sorted(self.stats.items()):
            entry = by_size[name].setdefault(str(sizes[req]), {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            for key, value in self.counts.get((name, req), {}).items():
                entry[key] = entry.get(key, 0) + value
        by_label: dict = defaultdict(dict)
        for label in sorted(set(labels.values())):
            group = {req for req, lab in labels.items() if lab == label}
            count = sum(runs[req] for req in group)
            for name in self.layers():
                calls, self_s, _ = self.total(name, group)
                if calls:
                    by_label[label][name] = {
                        "calls_per_request": calls / count,
                        "self_s_per_request": self_s / count,
                    }
        return {"by_size": by_size, "by_label": by_label,
                "slopes": {name: self.slope(name, sizes) for name in self.layers()},
                "spans_kept": sum(1 for s in self.spans if s is not None),
                "spans_dropped": self.dropped}
