"""Span tracing of the library's public functions, from outside the package.

`Tracer.install()` wraps each function in `FUNCTIONS`, rebinding the name
in every `prefixcodes` module that holds it, and wraps
`CodeTree.__init__`.  Each call records a span (name, start, end,
parent span, op id) in flat arrays kept in memory; `uninstall()` puts
the originals back.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List

# (module, function, metric prefix); two parsers share one prefix.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_source_text", "cli.parse"),
    ("cli", "parse_code_text", "cli.parse"),
    ("core", "tree_from_code", "core.tree_from_code"),
    ("core", "code_from_tree", "core.code_from_tree"),
    ("core", "expected_length", "core.expected_length"),
    ("core", "kraft_sum", "core.kraft_sum"),
    ("huffman", "huffman_build", "huffman.huffman_build"),
    ("huffman", "huffman_enumerate", "huffman.huffman_enumerate"),
    ("huffman", "sibling_property", "huffman.sibling_property"),
    ("huffman", "sibling_property_exhaustive",
     "huffman.sibling_property_exhaustive"),
    ("analysis", "classify", "analysis.classify"),
    ("analysis", "strong_monotonicity_check",
     "analysis.strong_monotonicity_check"),
    ("oracle", "verify_theorems", "oracle.verify_theorems"),
    ("oracle", "optimal_set", "oracle.optimal_set"),
    ("oracle", "min_expected_length", "oracle.min_expected_length"),
    ("oracle", "enumerate_complete_trees", "oracle.enumerate_complete_trees"),
    ("swaps", "available_swaps", "swaps.available_swaps"),
    ("swaps", "node_swap", "swaps.node_swap"),
    ("swaps", "swap_closure", "swaps.swap_closure"),
    ("swaps", "swap_equivalent", "swaps.swap_equivalent"),
    ("swaps", "move_to_text", "swaps.move_to_text"),
    ("sync", "shortest_sync_string", "sync.shortest_sync_string"),
)
CODETREE = "core.CodeTree"
SPAN_NAMES = tuple(dict.fromkeys([CODETREE] + [f[2] for f in FUNCTIONS]))

# Counts taken at the span boundaries, beyond calls and self time.
COUNTS = (
    "huffman.huffman_enumerate.trees",
    "huffman.cap_exceeded",
    "analysis.strong_monotonicity_check.subsets",
    "oracle.enumerate_complete_trees.trees",
    "swaps.available_swaps.moves",
    "swaps.closure.states",
    "swaps.truncated",
    "sync.explored_subsets",
    "sync.subset_cap_exceeded",
)
RATIOS = (
    "analysis.classify.enum_useful_ratio",
    "swaps.new_state_ratio",
    "trace_overhead_ratio",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update((name, "count") for name in COUNTS)
    units.update((name, "ratio") for name in RATIOS)
    return units


_CAP_TREES = re.compile(r"^(\d+) distinct Huffman trees")


class Tracer:
    def __init__(self):
        self.span_names = list(SPAN_NAMES)
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.enum_trees: Dict[int, int] = {}   # span -> trees enumerated
        self.searches: List[set] = []          # labels seen per swap search
        self.search_swaps = 0                  # node_swap calls in searches
        self._restore: List[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import prefixcodes.core as core
        from prefixcodes import errors

        hooks = {
            "huffman.huffman_enumerate": (None, self._enum_done,
                                          self._enum_failed),
            "analysis.strong_monotonicity_check": (
                None, lambda idx, args, res: self._add(
                    "analysis.strong_monotonicity_check.subsets",
                    (1 << len(args[0])) - 1), None),
            "oracle.enumerate_complete_trees": (
                None, lambda idx, args, res: self._add(
                    "oracle.enumerate_complete_trees.trees", res.count), None),
            "swaps.available_swaps": (
                None, lambda idx, args, res: self._add(
                    "swaps.available_swaps.moves", len(res)), None),
            "swaps.node_swap": (None, self._swap_done, None),
            "swaps.swap_closure": (self._search_start, self._closure_done,
                                   self._search_failed),
            "swaps.swap_equivalent": (self._search_start, self._search_done,
                                      self._search_failed),
            "sync.shortest_sync_string": (
                None, lambda idx, args, res: self._add(
                    "sync.explored_subsets", res.explored_subsets),
                self._sync_failed),
        }
        self._errors = errors
        modules = [m for name, m in list(sys.modules.items())
                   if name == "prefixcodes" or name.startswith("prefixcodes.")]
        for module_name, fn_name, metric in FUNCTIONS:
            original = getattr(sys.modules["prefixcodes." + module_name],
                               fn_name)
            wrapper = self._wrap(original, metric, *hooks.get(
                metric, (None, None, None)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        init = core.CodeTree.__init__
        self._restore.append((core.CodeTree, "__init__", init))
        core.CodeTree.__init__ = self._wrap(init, CODETREE)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, metric, before=None, after=None, failed=None):
        nid = self.span_names.index(metric)
        stack, start, end = self.stack, self.start, self.end
        name, parent, op = self.name, self.parent, self.op

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if failed is not None:
                    failed(idx, args, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    # -- count hooks --------------------------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _enum_done(self, idx, args, result) -> None:
        self.enum_trees[idx] = len(result)
        self._add("huffman.huffman_enumerate.trees", len(result))

    def _enum_failed(self, idx, args, exc) -> None:
        if isinstance(exc, self._errors.CapExceeded):
            self._add("huffman.cap_exceeded", 1)
            match = _CAP_TREES.match(str(exc))
            trees = int(match.group(1)) if match else 0
            self.enum_trees[idx] = trees
            self._add("huffman.huffman_enumerate.trees", trees)

    def _search_start(self, args) -> None:
        self.searches.append({args[1].label})

    def _swap_done(self, idx, args, result) -> None:
        if self.searches:
            self.searches[-1].add(result.label)
            self.search_swaps += 1

    def _search_done(self, idx, args, result) -> None:
        self._add("swaps.closure.states", len(self.searches.pop()))

    def _closure_done(self, idx, args, result) -> None:
        self._search_done(idx, args, result)
        if result.truncated:
            self._add("swaps.truncated", 1)

    def _search_failed(self, idx, args, exc) -> None:
        self._search_done(idx, args, None)
        if isinstance(exc, self._errors.Truncated):
            self._add("swaps.truncated", 1)

    def _sync_failed(self, idx, args, exc) -> None:
        if isinstance(exc, self._errors.SubsetCapExceeded):
            self._add("sync.subset_cap_exceeded", 1)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        count = len(self.start)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Dict[str, float] = dict.fromkeys(self.span_names, 0.0)
        for i in range(count):
            key = self.span_names[self.name[i]]
            calls[key] += 1
            self_s[key] += self.end[i] - self.start[i] - covered[i]
        classify = self.span_names.index("analysis.classify")
        classify_trees = sum(trees for idx, trees in self.enum_trees.items()
                             if self._has_ancestor(idx, classify))
        values: Dict[str, float] = {}
        for key in self.span_names:
            values[key + ".calls"] = calls[key]
            values[key + ".self_s"] = self_s[key]
        for key in COUNTS:
            values[key] = self.counts[key]
        values["analysis.classify.enum_useful_ratio"] = (
            calls["analysis.classify"] / classify_trees
            if classify_trees else 0.0)
        values["swaps.new_state_ratio"] = (
            self.counts["swaps.closure.states"] / self.search_swaps
            if self.search_swaps else 0.0)
        values["trace_overhead_ratio"] = overhead_ratio
        return values

    def _has_ancestor(self, idx: int, name_id: int) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write(self, stem: Path) -> None:
        """Spans as raw arrays (`<stem>.<field>`) plus a JSON index."""
        fields = ("name", "parent", "op", "start", "end")
        for field_name in fields:
            with open("%s.%s" % (stem, field_name), "wb") as fh:
                getattr(self, field_name).tofile(fh)
        Path("%s.json" % stem).write_text(json.dumps({
            "spans": len(self.start),
            "names": self.span_names,
            "fields": {f: getattr(self, f).typecode for f in fields},
        }, indent=1))
