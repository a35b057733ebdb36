"""Span recorder for the traced run.

``Tracer.install`` wraps each named miplan function in every miplan module
namespace that holds it, so a call is traced wherever its caller looks the
name up, and the package's own code stays unchanged.  A span knows its
parent (the innermost traced call it runs under); a function's self time
is its duration minus the part covered by traced child spans.  Durations
are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

# (module, function) for every traced call, named by the package's modules.
TRACED = (
    ("quantiles", "t_quantile"),
    ("quantiles", "normal_quantile"),
    ("fmi", "gamma_ci"),
    ("pooling", "read_results_csv"),
    ("pooling", "pool"),
    ("planning", "recommend"),
    ("imputer", "fit_and_draw"),
    ("imputer", "impute_once"),
    ("imputer", "analyze_mean"),
    ("montecarlo", "gen_incomplete"),
    ("montecarlo", "run_two_stage"),
    ("montecarlo", "pool_replicates"),
    ("montecarlo", "empirical_cv"),
    ("montecarlo", "calibrate_gamma"),
    ("cli", "main"),
)

# Functions behind an lru_cache, whose hits the trace reports.
CACHED = ("quantiles.normal_quantile", "montecarlo.calibrate_gamma")

# Percentiles a tail may be reported at, highest first.  A percentile
# qualifies when at least ten calls lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def rebind(original, replacement) -> int:
    """Point every miplan module-level name bound to ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "miplan" or name.startswith("miplan.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Spans with parents, self time and counts for a set of functions."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.durations: dict[str, array] = {}
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.pool_m = 0
        self.pilot_sufficient = 0
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._originals: dict[str, object] = {}

    def install(self, package) -> None:
        for module_name, func_name in TRACED:
            module = getattr(package, module_name)
            name = f"{module_name}.{func_name}"
            original = getattr(module, func_name)
            self._originals[name] = original
            if name in CACHED:
                info = original.cache_info()
                self._cache_start[name] = (info.hits, info.misses)
            observe = {"pooling.pool": self._observe_pool,
                       "planning.recommend": self._observe_recommend}.get(name)
            if rebind(original, self._wrap(name, original, observe)) == 0:
                raise RuntimeError(f"traced function {name} is bound nowhere")

    def _observe_pool(self, result) -> None:
        self.pool_m += result.m

    def _observe_recommend(self, result) -> None:
        self.pilot_sufficient += bool(result.pilot_sufficient)

    def _wrap(self, name, fn, observe):
        stack = self._stack
        durations = self.durations.setdefault(name, array("d"))
        self_s = self.self_s
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                durations.append(elapsed)
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    edges[(stack[-1][0], name)] += 1
                else:
                    edges[("", name)] += 1
            if observe is not None:
                observe(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function calls, self time, p50 and tail latency, plus span edges."""
        functions = {}
        for name, durations in self.durations.items():
            ordered = sorted(durations)
            n = len(ordered)
            entry = {"calls": n, "self_s": self.self_s[name], "total_s": math.fsum(ordered),
                     "p50_us": percentile(ordered, 50.0) * 1e6 if n else 0.0,
                     "tail_pct": 0.0, "tail_us": 0.0}
            for p in TAIL_PERCENTILES:
                if n * (1.0 - p / 100.0) >= 10.0:
                    entry["tail_pct"] = p
                    entry["tail_us"] = percentile(ordered, p) * 1e6
                    break
            if name in CACHED:
                info = self._originals[name].cache_info()
                hits0, misses0 = self._cache_start[name]
                entry["cache_hits"] = info.hits - hits0
                entry["cache_misses"] = info.misses - misses0
            functions[name] = entry
        functions["pooling.pool"]["mean_m"] = (
            self.pool_m / functions["pooling.pool"]["calls"]
            if functions["pooling.pool"]["calls"] else 0.0
        )
        functions["planning.recommend"]["pilot_sufficient"] = self.pilot_sufficient
        edges = [{"parent": p or None, "child": c, "calls": k}
                 for (p, c), k in sorted(self.edges.items())]
        return {"functions": functions, "edges": edges}
