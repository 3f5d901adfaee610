"""Outside-in span tracer for the `vsc` layers.

Wrappers are installed on the names that callers look up at call time, so
nothing in `src/vsc` changes.  Each wrapped call is a span; spans nest on a
stack, and a span's self time is its duration minus the time of the spans it
caused.  Spans are aggregated in memory per (parent span, span) edge as
[calls, inclusive seconds, self seconds] and written out once, when the
traced process ends, so memory stays flat however many kernel calls a run
makes.

Call sites whose work a metric needs separately get their own span names:
`residue_chain` is traced where `vsc.elliptic` and where `vsc.genus0` look it
up, and `graph_residue` spans also aggregate per graph family and degree.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# Graph class name -> family name, as `vsc.calabi_yau.FAMILIES` spells them.
FAMILY_OF_CLASS = {
    "StarGraph": "star",
    "LoopGraph": "loop",
    "ClusterStarGraph": "cluster",
    "PointGraph": "point",
}


class Tracer:
    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        # each open span: [name, seconds covered by its child spans]
        self.stack = [["root", 0.0]]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn as span `name`.

        before(args, kwargs) may return replacement (args, kwargs) and an
        extra span name for a sub-aggregate; after(result, args, kwargs,
        extra) records counters from the outcome.
        """
        stack, edges = self.stack, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = None
            if before is not None:
                args, kwargs, extra = before(args, kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                own = elapsed - frame[1]
                for key in ((parent[0], name), (parent[0], extra)):
                    if key[1] is None:
                        continue
                    edge = edges[key]
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += own
            if after is not None:
                after(result, args, kwargs, extra)
            return result

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)
        setattr(owner, attr, self.span(name, fn, before, after))

    def report(self) -> dict:
        return {
            "edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items())],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def install() -> Tracer:
    """Wrap every layer boundary the benchmark reports on; return the tracer."""
    import vsc.cache
    import vsc.calabi_yau
    import vsc.cli
    import vsc.elliptic
    import vsc.genus0
    import vsc.parallel
    import vsc.pipeline
    from vsc.poly import SparsePoly
    from vsc.ratfun import RatExpr
    from vsc.series import TruncatedSeries

    t = Tracer()
    counters, maxima = t.counters, t.maxima

    # -- poly
    def mul_after(result, args, kwargs, extra):
        a, b = args
        if isinstance(b, SparsePoly):
            counters["poly.mul_term_pairs"] += len(a.terms) * len(b.terms)
        if isinstance(result, SparsePoly) and len(result.terms) > maxima["poly.max_terms"]:
            maxima["poly.max_terms"] = len(result.terms)

    def divide_after(result, args, kwargs, extra):
        if result is not None:
            counters["poly.divide_exact"] += 1

    t.patch(SparsePoly, "__mul__", "poly.mul", after=mul_after)
    t.patch(SparsePoly, "shift_eps", "poly.shift_eps")
    t.patch(SparsePoly, "divide_exact_linear", "poly.divide", after=divide_after)

    # -- ratfun
    t.patch(RatExpr, "residue_at", "ratfun.residue_at")
    t.patch(RatExpr, "reduce", "ratfun.reduce")

    # -- chain, read through the public stats= argument of residue_chain
    def chain_before(args, kwargs):
        if len(args) < 4 and kwargs.get("stats") is None:
            kwargs = dict(kwargs, stats={})
        return args, kwargs, None

    def chain_after(result, args, kwargs, extra):
        stats = args[3] if len(args) >= 4 else kwargs["stats"]
        if stats is not None:
            counters["chain.leaves"] += stats.get("leaves", 0)
            counters["chain.pruned"] += stats.get("pruned", 0)

    for module, site in ((vsc.elliptic, "elliptic"), (vsc.genus0, "genus0")):
        t.patch(module, "residue_chain", f"chain.residue_chain@{site}",
                before=chain_before, after=chain_after)

    # -- elliptic
    def graph_before(args, kwargs):
        graph = args[2] if len(args) > 2 else kwargs["graph"]
        family = FAMILY_OF_CLASS.get(type(graph).__name__, type(graph).__name__)
        return args, kwargs, f"elliptic.graph_residue.{family}.d{graph.degree}"

    for module in (vsc.elliptic, vsc.calabi_yau):
        t.patch(module, "graph_residue", "elliptic.graph_residue", before=graph_before)
    t.patch(vsc.pipeline, "elliptic_constant", "elliptic.elliptic_constant")

    # -- genus0
    for module in (vsc.pipeline, vsc.calabi_yau):
        t.patch(module, "genus0_constant", "genus0.genus0_constant")

    # -- series
    t.patch(TruncatedSeries, "__mul__", "series.mul")
    for method in ("exp", "log", "inverse"):
        t.patch(TruncatedSeries, method, f"series.{method}")
    t.patch(vsc.pipeline, "substitute", "series.substitute")

    # -- pipeline
    for fn in ("gw_table", "mirror_corrections", "invert_corrections",
               "_genus1_b", "genus0_pair_series"):
        t.patch(vsc.pipeline, fn, f"pipeline.{fn.lstrip('_')}")
    t.patch(vsc.cli, "gw_table", "pipeline.gw_table")

    # -- calabi_yau
    def family_before(args, kwargs):
        family = args[2] if len(args) > 2 else kwargs["family"]
        return args, kwargs, f"calabi_yau.family_series.{family}"

    t.patch(vsc.calabi_yau, "family_series", "calabi_yau.family_series",
            before=family_before)
    t.patch(vsc.calabi_yau, "ltilde", "calabi_yau.ltilde")
    t.patch(vsc.calabi_yau, "cy_report", "calabi_yau.cy_report")

    # -- cache
    def get_after(result, args, kwargs, extra):
        counters["cache.hits" if result is not None else "cache.misses"] += 1

    t.patch(vsc.cache.ResidueCache, "get", "cache.get", after=get_after)
    t.patch(vsc.cache.ResidueCache, "put", "cache.put")

    # -- parallel
    def map_before(args, kwargs):
        items = list(args[1])
        counters["parallel.items"] += len(items)
        return (args[0], items, *args[2:]), kwargs, None

    for module in (vsc.elliptic, vsc.calabi_yau):
        t.patch(module, "parallel_map", "parallel.map", before=map_before)
    t.patch(vsc.parallel, "ProcessPoolExecutor", "parallel.pool")

    # -- cli
    t.patch(vsc.cli, "main", "cli.main")
    return t
