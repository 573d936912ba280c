"""Layer spans and counters recorded from outside the program.

The tracer replaces module attributes of cogrelay with wrappers, so the
program itself is untouched.  Each wrapper around a layer boundary
records a span ``(name, start, end, parent)``; spans stay in memory and
are written out by the caller when the run ends.  A span's self time is
its duration minus that of its direct children, and a layer's self time
is the sum over the spans named after it (``<layer>.<function>``).

Names are replaced where they are looked up at call time: ``cli`` binds
``rank_placement_probs`` by name and ``analytic`` binds its special
functions by name, so those are wrapped in ``cli`` and ``analytic``;
everything else is reached through a module attribute.

The wrappers cost time, and the program's layers would be charged for
it: a span's bookkeeping outside its clock reads lands in its parent's
self time, the forwarding call between them in its own.  ``calibrate``
times the wrappers on a function that does nothing, and
``layer_metrics`` takes that cost (and the measured time of the count
hooks) out of every span before it splits time into layers.
``trace.overhead_est_frac`` is that estimate as a share of the sweep;
what it misses (the wrappers' effect on caches and branch prediction)
is the gap to ``trace_overhead_frac``, measured as traced against
untraced sweeps.

Every count is computed, from argument shapes, results and call
counts, never measured: ``draws_computed`` and ``block_bytes_computed``
in particular are what the shapes imply, not what the allocator or the
caches did.  Counts repeat exactly between runs with the same seed.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "montecarlo", "model", "selection", "analytic", "specfun")
SPECFUN = ("exp_scaled_ei", "lower_incomplete_gamma", "upper_incomplete_gamma",
           "order_stat_coeff")
ANALYTIC_GROUPS = {
    "outage_probability": "outage",
    "outage_probability_imperfect": "outage",
    "asymptotic_outage_case1": "asymptote",
    "asymptotic_outage_case2": "asymptote",
    "outage_floor_imperfect": "asymptote",
    "average_throughput": "throughput",
}

class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # tracer work done inside a span's window, keyed by span index:
        # the time its children's count hooks took, and the number of
        # count-only calls made directly in it
        self.hook_s: defaultdict[int, float] = defaultdict(float)
        self.bare_calls: Counter = Counter()
        self._stack: list[int] = []

    def span(self, owner, attr: str, name: str, count=None):
        """Wrap ``owner.attr`` in a span; ``count(counts, arguments,
        result)`` runs after a successful call to add computed counts."""
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook_s, counts = self.hook_s, self.counts
        signature = inspect.signature(original) if count is not None else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                hook_start = clock()
                count(counts, signature.bind(*args, **kwargs).arguments, result)
                hook_s[parent] += clock() - hook_start
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str, raises=()):
        """Count calls (and raised ``raises`` exceptions) without a span."""
        original = getattr(owner, attr)
        counts, calls, raised = self.counts, name + ".calls", name + ".raised"
        stack, bare_calls = self._stack, self.bare_calls

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            bare_calls[stack[-1] if stack else -1] += 1
            try:
                return original(*args, **kwargs)
            except raises:
                counts[raised] += 1
                raise

        setattr(owner, attr, wrapper)


def _identity(x):
    return x


def calibrate(repeats: int = 20_000, rounds: int = 5) -> dict[str, float]:
    """Per-call cost of the wrappers, timed on a one-argument function
    that does nothing (the hottest wrapped functions take arguments, and
    passing them on through ``*args`` is part of the cost).

    ``span_s`` is what one span adds to its caller's time, ``inside_s``
    the part of it between the span's own clock reads (charged to the
    span itself), ``bare_s`` what one count-only call adds.  Each is the
    median over ``rounds`` loops of ``repeats`` calls, less the cost of
    calling the function unwrapped.
    """
    tracer = Tracer()
    target = types.SimpleNamespace(leaf=_identity, bare=_identity)
    tracer.span(target, "leaf", "calibrate.leaf")
    tracer.count_calls(target, "bare", "calibrate.bare")
    clock, loop = time.perf_counter, range(repeats)

    def per_call(function) -> float:
        start = clock()
        for _ in loop:
            function(0.5)
        return (clock() - start) / repeats

    rows = []
    for _ in range(rounds):
        tracer.spans.clear()
        raw = per_call(_identity)
        span = per_call(target.leaf)
        inside = sum(end - start for _, start, end, _ in tracer.spans) / repeats
        bare = per_call(target.bare)
        rows.append((span - raw, max(inside - raw, 0.0), bare - raw))
    span_s, inside_s, bare_s = (statistics.median(column) for column in zip(*rows))
    return {"span_s": span_s, "inside_s": min(inside_s, span_s), "bare_s": bare_s}


def _count_montecarlo(counts, arguments, result, block):
    trials = arguments["trials"]
    counts["montecarlo.trials"] += trials
    counts["montecarlo.blocks"] += -(-trials // block)


def _count_draws(counts, arguments, result):
    # three links (hop 1, hop 2, interference), m exponentials per gain;
    # the estimated-channel sampler requires m == 1
    counts["model.draws_computed"] += (3 * arguments["topology"].nakagami_m
                                       * result.hop1.size)


def _count_assign(counts, arguments, result):
    trials, num_users, num_relays = arguments["gammas"].shape
    counts["selection.assign_trials"] += trials
    if arguments["scheme"] != "maxmin":
        return
    maps = math.perm(num_relays, num_users)
    # maxmin_assign_batch holds vals and sorted_vals (trials, maps, users)
    # float64 plus the alive mask (bool) and the masked column (float64)
    block_bytes = trials * maps * (16 * num_users + 9)
    counts["selection.maps_per_trial"] = max(counts["selection.maps_per_trial"], maps)
    counts["selection.block_bytes_computed"] = max(
        counts["selection.block_bytes_computed"], block_bytes)


def _count_rank_placement(counts, arguments, result):
    mn = arguments["num_users"] * arguments["num_relays"]
    counts["selection.rank_placement_matrices"] += (
        result.trials if result.trials else math.factorial(mn))


def install(tracer: Tracer, cli, montecarlo, model, selection, analytic):
    """Wrap every layer boundary that ``cli.run_sweep`` crosses."""
    tracer.span(cli, "load_config", "cli.load_config")
    tracer.span(cli, "run_sweep", "cli.run_sweep")
    tracer.span(cli, "rank_placement_probs", "selection.rank_placement_probs",
                _count_rank_placement)
    for attr in ("estimate_outage", "estimate_throughput"):
        tracer.span(montecarlo, attr, f"montecarlo.{attr}",
                    lambda c, a, r: _count_montecarlo(c, a, r, montecarlo.BLOCK))
    for attr in ("sample_realization", "sample_estimated_realization"):
        tracer.span(model, attr, f"model.{attr}", _count_draws)
    for attr in ("snr_matrix", "snr_matrix_imperfect"):
        tracer.span(model, attr, f"model.{attr}")
    tracer.span(selection, "assign_batch", "selection.assign_batch", _count_assign)
    for attr in ANALYTIC_GROUPS:
        tracer.span(analytic, attr, f"analytic.{attr}")
    for attr in SPECFUN:
        tracer.span(analytic, attr, f"specfun.{attr}")
    tracer.count_calls(analytic, "h_integral", "analytic.h_integral")
    tracer.count_calls(analytic, "cdf_kth_largest", "analytic.cdf_kth_largest",
                       raises=analytic.CancellationError)


def tracer_time(tracer: Tracer, cost: dict[str, float]) -> list[float]:
    """Estimated tracer time inside each span's window: its own share of
    the wrapper, the whole cost of each child span, and the count hooks
    and count-only calls made in it."""
    spans = tracer.spans
    inside = [cost["inside_s"]] * len(spans)
    for index, seconds in tracer.hook_s.items():
        if index >= 0:
            inside[index] += seconds
    for index, calls in tracer.bare_calls.items():
        if index >= 0:
            inside[index] += calls * cost["bare_s"]
    outside = cost["span_s"] - cost["inside_s"]
    # a child's index is larger than its parent's, so each span is
    # complete before it is added to its parent
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][3]
        if parent >= 0:
            inside[parent] += outside + inside[index]
    return inside


def layer_metrics(tracer: Tracer, sweep_s: float, cost: dict[str, float]) -> dict[str, float]:
    """Per-layer times of one traced sweep, less the tracer's own
    estimated cost, plus the computed counts."""
    spans, counts = tracer.spans, tracer.counts
    duration = [end - start - overhead
                for (_, start, end, _), overhead in zip(spans, tracer_time(tracer, cost))]
    own = duration[:]
    for (_, _, _, parent), seconds in zip(spans, duration):
        if parent >= 0:
            own[parent] -= seconds
    by_name: defaultdict[str, float] = defaultdict(float)
    wall: defaultdict[str, float] = defaultdict(float)
    assign_rank = 0.0
    for (name, _, _, parent), seconds, self_s in zip(spans, duration, own):
        by_name[name] += self_s
        wall[name] += seconds
        if name == "selection.assign_batch" and parent >= 0 \
                and spans[parent][0] == "selection.rank_placement_probs":
            assign_rank += self_s
    layer = defaultdict(float)
    for name, self_s in by_name.items():
        if name != "cli.load_config":
            layer[name.split(".")[0]] += self_s
    # every span but load_config, which runs before the sweep, is in it
    tracer_s = ((len(spans) - 1) * cost["span_s"] + sum(tracer.hook_s.values())
                + sum(tracer.bare_calls.values()) * cost["bare_s"])
    mc_wall = wall["montecarlo.estimate_outage"] + wall["montecarlo.estimate_throughput"]
    calls = Counter(name for name, _, _, _ in spans)
    group_calls = Counter()
    for attr, group in ANALYTIC_GROUPS.items():
        group_calls[group] += calls[f"analytic.{attr}"]
    metrics = {
        "cli.load_config_s": wall["cli.load_config"],
        "cli.self_s": layer["cli"],
        "montecarlo.self_s": layer["montecarlo"],
        "montecarlo.trials": counts["montecarlo.trials"],
        "montecarlo.blocks": counts["montecarlo.blocks"],
        "montecarlo.trials_per_s": counts["montecarlo.trials"] / mc_wall,
        "model.self_s": layer["model"],
        "model.sample_s": (by_name["model.sample_realization"]
                           + by_name["model.sample_estimated_realization"]),
        "model.snr_s": (by_name["model.snr_matrix"]
                        + by_name["model.snr_matrix_imperfect"]),
        "model.draws_computed": counts["model.draws_computed"],
        "selection.self_s": layer["selection"],
        "selection.rank_placement_s": wall["selection.rank_placement_probs"],
        "selection.rank_placement_matrices": counts["selection.rank_placement_matrices"],
        "selection.assign_s": by_name["selection.assign_batch"],
        "selection.assign_mc_s": by_name["selection.assign_batch"] - assign_rank,
        "selection.assign_rank_s": assign_rank,
        "selection.assign_trials": counts["selection.assign_trials"],
        "selection.maps_per_trial": counts["selection.maps_per_trial"],
        "selection.block_bytes_computed": counts["selection.block_bytes_computed"],
        "analytic.self_s": layer["analytic"],
        "analytic.outage_calls": group_calls["outage"],
        "analytic.asymptote_calls": group_calls["asymptote"],
        "analytic.throughput_calls": group_calls["throughput"],
        "analytic.h_integral_calls": counts["analytic.h_integral.calls"],
        "analytic.kth_largest_calls": counts["analytic.cdf_kth_largest.calls"],
        "analytic.cancellation_errors": counts["analytic.cdf_kth_largest.raised"],
        "specfun.s": layer["specfun"],
        "specfun.calls": sum(calls[f"specfun.{f}"] for f in SPECFUN),
    }
    for function in SPECFUN:
        metrics[f"specfun.{function}.calls"] = calls[f"specfun.{function}"]
    metrics["trace.sweep_s"] = sweep_s
    metrics["trace.coverage_frac"] = sum(layer[x] for x in LAYERS) / (sweep_s - tracer_s)
    metrics["trace.spans"] = len(spans)
    metrics["trace.span_cost_ns"] = cost["span_s"] * 1e9
    metrics["trace.overhead_est_frac"] = tracer_s / (sweep_s - tracer_s)
    return metrics


COUNT_METRICS = (
    "montecarlo.trials", "montecarlo.blocks", "model.draws_computed",
    "selection.rank_placement_matrices", "selection.assign_trials",
    "selection.maps_per_trial", "selection.block_bytes_computed",
    "analytic.outage_calls", "analytic.asymptote_calls",
    "analytic.throughput_calls", "analytic.h_integral_calls",
    "analytic.kth_largest_calls", "analytic.cancellation_errors",
    "specfun.calls", "trace.spans",
) + tuple(f"specfun.{f}.calls" for f in SPECFUN)
