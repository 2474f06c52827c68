"""Span tracing for the benchmark's traced run.

Child side: `Tracer.install()` rebinds the public entry points of the six
polyloop modules (complexes, homology, series, spacealg, decomp, cli) to
wrappers that record spans (name, start, end, parent, counters) in memory.
Every module attribute and class attribute that holds an original function is
rebound, so calls through `from .spacealg import normalize` style imports are
traced too. `Tracer.dump()` writes the spans when the child exits.

Parent side: `layer_metrics()` turns the spans of one pass of jobs into
per-layer self times and counters. A layer's self time is its span duration
minus the time covered by its direct child spans.

A name listed below that the program no longer defines is skipped, so it reads
as 0 calls instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# span name -> (module, attribute paths). A call to a span that is already
# open (recursion, such as format_sexpr, or a constructor built from another
# constructor) folds into the outermost call.
WRAPPED = {
    "complexes.build": ("complexes", (
        "path_graph", "cycle_graph", "disjoint_points", "simplex", "book_graph",
        "planar_book", "glue", "from_facets", "from_json_obj",
    )),
    "complexes.full_subcomplex": ("complexes", ("SimplicialComplex.full_subcomplex",)),
    "complexes.is_flag": ("complexes", ("SimplicialComplex.is_flag",)),
    "homology.hochster_zk_betti": ("homology", ("hochster_zk_betti",)),
    "homology.reduced_betti": ("homology", ("reduced_betti",)),
    "homology.bareiss_rank": ("homology", ("bareiss_rank",)),
    "series.hilbert_sr": ("series", ("hilbert_sr",)),
    "series.koszul_loop_series": ("series", ("koszul_loop_series",)),
    "spacealg.normalize": ("spacealg", ("normalize",)),
    "spacealg.sphere_multiset_of": ("spacealg", ("sphere_multiset_of",)),
    "spacealg.poincare_series": ("spacealg", ("poincare_series",)),
    "spacealg.hilton_milnor": ("spacealg", ("hilton_milnor",)),
    "spacealg.format_sexpr": ("spacealg", ("format_sexpr",)),
    "spacealg.parse_sexpr": ("spacealg", ("parse_sexpr",)),
    "decomp.path_decompose": ("decomp", ("path_decompose",)),
    "decomp.dj_book_decompose": ("decomp", ("dj_book_decompose",)),
    "decomp.to_json_obj": ("decomp", ("DecompResult.to_json_obj",)),
    "cli.main": ("cli", ("main",)),
}

# Spans named trace.* record the tracer's own counting work: they are taken
# out of their parent's self time and belong to no layer.
COUNT_SPAN = "trace.count"


def tree_size(e) -> int:
    """Nodes of an expression tree, shared subtrees counted once per use."""
    sizes: dict[int, int] = {}

    def size(x) -> int:
        got = sizes.get(id(x))
        if got is not None:
            return got
        args = getattr(x, "args", None)
        if isinstance(args, tuple):
            kids = args
        elif hasattr(x, "arg"):
            kids = (x.arg,)
        elif hasattr(x, "left"):
            kids = (x.left, x.right)
        else:
            kids = ()
        total = 1
        for k in kids:
            total += size(k)
        sizes[id(x)] = total
        return total

    return size(e)


def _hochster_attrs(args, kwargs, result):
    jobs = kwargs.get("jobs", 1)
    return {"m": args[0].ground_size, "jobs": os.cpu_count() if jobs is None else jobs}


def _hilbert_attrs(args, kwargs, result):
    return {"n": args[1] if len(args) > 1 else kwargs["n"]}


def _normalize_attrs(args, kwargs, result):
    return {"nodes_in": tree_size(args[0]), "nodes_out": tree_size(result)}


def _format_attrs(args, kwargs, result):
    return {"bytes": len(result)}


def _parse_attrs(args, kwargs, result):
    return {"bytes": len(args[0])}


# Counters taken after a successful call. Node counting can be slow, so its
# time is recorded as a trace.count span.
ATTRS = {
    "homology.hochster_zk_betti": _hochster_attrs,
    "series.hilbert_sr": _hilbert_attrs,
    "spacealg.normalize": _normalize_attrs,
    "spacealg.format_sexpr": _format_attrs,
    "spacealg.parse_sexpr": _parse_attrs,
}


class Tracer:
    """Spans of one child process, kept in memory until dump()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # [name index, start ns, end ns, parent span index or -1, counters]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: dict[str, int] = {}

    def _name(self, name: str) -> int:
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn):
        name_idx = self._name(name)
        count_idx = self._name(COUNT_SPAN)
        attrs_of = ATTRS.get(name)
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_.get(name):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name_idx, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            open_[name] = 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_[name] = 0
            if attrs_of is not None:
                t0 = clock()
                try:
                    span[4] = attrs_of(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[4] = None
                spans.append([count_idx, t0, clock(), stack[-1] if stack else -1, None])
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped name in every loaded polyloop module."""
        replace: dict[int, object] = {}
        for name, (module, attrs) in WRAPPED.items():
            mod = sys.modules.get(f"polyloop.{module}")
            if mod is None:
                continue
            for path in attrs:
                owner, _, attr = path.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                original = getattr(holder, attr, None) if holder is not None else None
                if not callable(original):
                    continue
                wrapper = self.wrap(name, original)
                if owner:
                    setattr(holder, attr, wrapper)
                replace[id(original)] = (original, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "polyloop" or mod_name.startswith("polyloop.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "names": self.names, "spans": self.spans}, fh)


COUNTERS = (
    "homology.hochster_zk_betti.subsets",
    "homology.pool_s",
    "series.order_sum",
    "spacealg.normalize.nodes_in",
    "spacealg.normalize.nodes_out",
    "spacealg.format_sexpr.bytes",
    "spacealg.parse_sexpr.bytes",
)


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the dumped traces of its children.

    Each child dict holds the dump() fields plus "cache": "cold", "warm" or
    None, for hochster jobs run with --cache-dir.
    """
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    m: dict[str, float] = dict.fromkeys(COUNTERS, 0)

    def add(key: str, v: float) -> None:
        m[key] = m.get(key, 0) + v

    hits = misses = 0
    inproc_subsets = inproc_betti = 0
    for child in children:
        names, spans = child["names"], child["spans"]
        covered = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        hochster_seen = False
        for i, (ni, t0, t1, parent, attrs) in enumerate(spans):
            name = names[ni]
            if name.startswith("trace."):
                continue
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0) - covered[i]
            if name == "homology.hochster_zk_betti":
                hochster_seen = True
                if attrs:
                    add("homology.hochster_zk_betti.subsets", 1 << attrs["m"])
                    if attrs["jobs"] > 1:
                        add("homology.pool_s", (t1 - t0) / 1e9)
                    else:
                        inproc_subsets += 1 << attrs["m"]
            elif name == "homology.reduced_betti":
                p = parent
                while p >= 0 and names[spans[p][0]] != "homology.hochster_zk_betti":
                    p = spans[p][3]
                if p >= 0 and spans[p][4] and spans[p][4]["jobs"] <= 1:
                    inproc_betti += 1
            elif name == "series.hilbert_sr" and attrs:
                add("series.order_sum", attrs["n"])
            elif attrs and name in ("spacealg.normalize", "spacealg.format_sexpr",
                                    "spacealg.parse_sexpr"):
                for k, v in attrs.items():
                    add(f"{name}.{k}", v)
        if child.get("cache") is not None:
            if hochster_seen:
                misses += 1
            else:
                hits += 1
    for name in WRAPPED:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    m["cli.hochster_cache.hits"] = hits
    m["cli.hochster_cache.misses"] = misses
    m["homology.memo_hit_ratio"] = 1 - inproc_betti / inproc_subsets if inproc_subsets else 0.0
    return m
