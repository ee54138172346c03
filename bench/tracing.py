"""Per-layer tracing by wrapping public ``cliquesep`` functions at run time.

Installing the tracer replaces each target function, in every
``cliquesep`` module that holds a reference to it, by a wrapper that
counts calls and truthy results and, for targets whose time is
reported, adds up inclusive time. No source file is edited, and removing
the tracer restores the originals. A target that a refactor has removed
is reported as absent, and every metric derived from it reads 0.

A wrapper costs a fraction of a microsecond per call, and some targets
are called millions of times inside others (``is_decomposition`` inside
``check_property``, ``log_potential`` inside ``log_density_unnorm``,
``is_decomposable`` inside ``propose_edge_flip``). Each wrapper kind's
cost per call is calibrated on a trivial function when the tracer is
installed, and the cost of the wrappers called inside a timed call is
taken off its time. Two figures are taken from the untraced run
instead, where nothing inside them is wrapped: the cold and warm
``check_property`` times (only ``check_property`` itself is wrapped
there, and it is called twice per unit), the CLI command times, which
the workload takes itself, and the chain time per step that
``sampler.loop_self_us_per_step`` starts from.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import sys
from statistics import median

#: (module, attribute, timed) of each wrapped function; methods as
#: ``Class.name``. Targets whose time no metric reports are only counted.
TARGETS = (
    ("graphs", "is_decomposable", True),
    ("graphs", "clique_separators", True),
    ("graphs", "pluperfect_order", True),
    ("graphs", "enumerate_decomposable", True),
    ("graphs", "count_decomposable", True),
    ("graphs", "is_decomposition", False),
    ("laws", "log_density_unnorm", True),
    ("laws", "PotentialTable.log_potential", False),
    ("laws", "normalize_by_enumeration", True),
    ("laws", "density_from_json", True),
    ("markov", "check_property", True),
    ("markov", "fit_csf_from_density", True),
    ("sampler", "propose_edge_flip", True),
    ("sampler", "initial_state", False),
    ("posterior", "BernoulliDirichletScore.log_marginal", True),
)

#: The one target wrapped in untraced runs.
UNTRACED_TARGETS = (("markov", "check_property", True),)

#: Results kept for inspection after the run (chain states carry the
#: step and accept counters).
_KEEP_RESULTS = {"sampler.initial_state"}

#: (pair, graph) decompositions in the seed's decomposition index, by n;
#: recounted by brute force in the benchmark's tests.
INDEX_ROWS = {6: 277_942}

#: Commands the workloads time through ``cli.run_command``.
COMMAND_LABELS = ("check_pass", "check_fail", "fit", "posterior", "count")

#: Every per-layer metric: (name, unit, better).
LAYER_METRICS = (
    ("graphs.is_decomposable.calls", "count", "lower"),
    ("graphs.is_decomposable.us_per_call", "us", "lower"),
    ("graphs.clique_separators.calls", "count", "lower"),
    ("graphs.clique_separators.us_per_call", "us", "lower"),
    ("graphs.pluperfect_order.calls", "count", "lower"),
    ("graphs.pluperfect_order.us_per_call", "us", "lower"),
    ("graphs.enumerate_decomposable.graphs_per_s", "1/s", "higher"),
    ("graphs.count_decomposable.s", "s", "lower"),
    ("graphs.is_decomposition.calls", "count", "lower"),
    ("graphs.is_decomposition.true", "count", "lower"),
    ("laws.log_density_unnorm.calls", "count", "lower"),
    ("laws.log_density_unnorm.us_per_call", "us", "lower"),
    ("laws.log_potential.calls", "count", "lower"),
    ("laws.normalize_by_enumeration.s", "s", "lower"),
    ("laws.density_from_json.s", "s", "lower"),
    ("markov.check_property.cold_s", "s", "lower"),
    ("markov.check_property.warm_s", "s", "lower"),
    ("markov.index_rows_per_s", "1/s", "higher"),
    ("markov.fit_csf_from_density.s", "s", "lower"),
    ("sampler.propose_edge_flip.us_per_call", "us", "lower"),
    ("sampler.decomposable_ratio", "ratio", "higher"),
    ("sampler.accept_ratio", "ratio", "higher"),
    ("sampler.memo_miss_ratio", "ratio", "lower"),
    ("sampler.loop_self_us_per_step", "us", "lower"),
    ("posterior.log_marginal.calls", "count", "lower"),
    ("posterior.log_marginal.s", "s", "lower"),
    *((f"cli.run_command.{label}.s", "s", "lower") for label in COMMAND_LABELS),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("trace.absent", "count", "lower"),
)


class Stat:
    __slots__ = ("calls", "seconds", "truthy", "items", "firsts", "results")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.truthy = 0
        self.items = 0
        self.firsts: list[float] = []
        self.results: list = []


def _wrap(fn, stat: Stat, tracer: "Tracer", timed: bool, keep: bool):
    """A wrapper that counts calls and truthy results of ``fn``; when
    ``timed``, it also adds up ``fn``'s inclusive time less the cost of
    the wrappers called inside it. Each call adds the wrapper's own cost
    to ``tracer.overhead``."""
    clock = tracer.clock
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                before = tracer.overhead
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    stat.seconds += clock() - t0 - (tracer.overhead - before)
                    return
                stat.seconds += clock() - t0 - (tracer.overhead - before)
                tracer.overhead += tracer.cost["generator"]
                stat.items += 1
                yield item
    elif timed:
        def wrapper(*args, **kwargs):
            before = tracer.overhead
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0 - (tracer.overhead - before)
            tracer.overhead += tracer.cost["timed"]
            stat.calls += 1
            stat.seconds += dt
            if result:
                stat.truthy += 1
            if len(stat.firsts) < 2:
                stat.firsts.append(dt)
            return result
    else:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.overhead += tracer.cost["counted"]
            stat.calls += 1
            if result:
                stat.truthy += 1
            if keep:
                stat.results.append(result)
            return result
    wrapper.__wrapped__ = fn
    return wrapper


def _trivial(x):
    return x


def _trivial_items(x):
    yield from range(x)


#: Calls per calibration sample, and samples per wrapper kind.
_CALIBRATION_CALLS = 20_000
_CALIBRATION_SAMPLES = 5


class Tracer:
    """Wraps ``targets`` while installed; ``stats`` maps ``module.name``
    to its :class:`Stat`."""

    def __init__(self, clock, targets=TARGETS):
        self.clock = clock
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        #: Seconds spent in wrappers since installation, by the calibrated costs.
        self.overhead = 0.0
        self.cost = {"timed": 0.0, "counted": 0.0, "generator": 0.0}
        self._undo: list[tuple[object, str, object]] = []

    def calibrate(self) -> None:
        """Set each wrapper kind's cost per call: the median sample of
        wrapped calls of a one-argument function less that of bare ones."""
        def per_call(batch) -> float:
            samples = []
            for _ in range(_CALIBRATION_SAMPLES):
                t0 = self.clock()
                batch()
                samples.append(self.clock() - t0)
            return median(samples) / _CALIBRATION_CALLS

        def calls(fn):
            def batch():
                for i in range(_CALIBRATION_CALLS):
                    fn(i)
            return batch

        def items(gen):
            return lambda: collections.deque(gen(_CALIBRATION_CALLS), 0)

        bare_call = per_call(calls(_trivial))
        bare_item = per_call(items(_trivial_items))
        for kind, timed in (("timed", True), ("counted", False)):
            wrapper = _wrap(_trivial, Stat(), self, timed, False)
            self.cost[kind] = max(0.0, per_call(calls(wrapper)) - bare_call)
        wrapper = _wrap(_trivial_items, Stat(), self, True, False)
        self.cost["generator"] = max(0.0, per_call(items(wrapper)) - bare_item)
        self.overhead = 0.0

    def install(self) -> None:
        for mod, qual, timed in self.targets:
            module = importlib.import_module(f"cliquesep.{mod}")
            *owners, attr = qual.split(".")
            owner = module
            for name in owners:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None)
            key = f"{mod}.{attr}"
            if not callable(fn):
                self.absent.append(key)
                continue
            stat = self.stats[key] = Stat()
            wrapper = _wrap(fn, stat, self, timed, key in _KEEP_RESULTS)
            if owners:
                holders = [owner]
            else:
                holders = [m for name, m in sys.modules.items()
                           if name == "cliquesep" or name.startswith("cliquesep.")]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, name, fn))
                        setattr(holder, name, wrapper)

    def remove(self) -> None:
        while self._undo:
            holder, name, fn = self._undo.pop()
            setattr(holder, name, fn)

    def scale(self, factor: float) -> None:
        """Scale every recorded time by a speed scale factor."""
        for stat in self.stats.values():
            stat.seconds *= factor
            stat.firsts = [t * factor for t in stat.firsts]

    def check_property_s(self) -> list[float]:
        """Times of the first two ``check_property`` calls: cold, then warm."""
        stat = self.stats.get("markov.check_property")
        return stat.firsts if stat else []

    def layer_metrics(self, n: int, untraced: dict) -> dict[str, float]:
        """Per-layer metrics, without ``trace_overhead_ratio``. ``untraced``
        holds figures of the untraced run: ``check_property_s``,
        ``command_s`` (median seconds of each CLI command the workload
        times) and ``s_per_item``, the unit time per work item (per step
        on a chain)."""
        empty = Stat()
        st = lambda key: self.stats.get(key, empty)  # noqa: E731

        def us_per_call(key):
            s = st(key)
            return 1e6 * s.seconds / s.calls if s.calls else 0.0

        m = {}
        for key in ("graphs.is_decomposable", "graphs.clique_separators", "graphs.pluperfect_order",
                    "laws.log_density_unnorm"):
            m[f"{key}.calls"] = st(key).calls
            m[f"{key}.us_per_call"] = us_per_call(key)
        enum = st("graphs.enumerate_decomposable")
        m["graphs.enumerate_decomposable.graphs_per_s"] = enum.items / enum.seconds if enum.seconds else 0.0
        m["graphs.count_decomposable.s"] = st("graphs.count_decomposable").seconds
        m["graphs.is_decomposition.calls"] = st("graphs.is_decomposition").calls
        m["graphs.is_decomposition.true"] = st("graphs.is_decomposition").truthy
        m["laws.log_potential.calls"] = st("laws.log_potential").calls
        m["laws.normalize_by_enumeration.s"] = st("laws.normalize_by_enumeration").seconds
        m["laws.density_from_json.s"] = st("laws.density_from_json").seconds

        firsts = untraced["check_property_s"]
        cold = firsts[0] if firsts else 0.0
        warm = firsts[1] if len(firsts) > 1 else 0.0
        m["markov.check_property.cold_s"] = cold
        m["markov.check_property.warm_s"] = warm
        rows = INDEX_ROWS.get(n, 0)
        m["markov.index_rows_per_s"] = rows / (cold - warm) if rows and warm and cold > warm else 0.0
        m["markov.fit_csf_from_density.s"] = st("markov.fit_csf_from_density").seconds

        propose = st("sampler.propose_edge_flip")
        scoring = st("laws.log_density_unnorm")
        states = st("sampler.initial_state").results
        steps = sum(s.step_count for s in states)
        accepted = sum(s.accept_count for s in states)
        m["sampler.propose_edge_flip.us_per_call"] = us_per_call("sampler.propose_edge_flip")
        m["sampler.decomposable_ratio"] = propose.truthy / propose.calls if propose.calls else 0.0
        m["sampler.accept_ratio"] = accepted / steps if steps else 0.0
        # initial_state scores its graph once per chain; that is not a memo miss.
        misses = scoring.calls - len(states)
        m["sampler.memo_miss_ratio"] = misses / propose.truthy if steps and propose.truthy else 0.0
        self_s = untraced["s_per_item"] - (propose.seconds + scoring.seconds) / steps if steps else 0.0
        m["sampler.loop_self_us_per_step"] = 1e6 * self_s

        m["posterior.log_marginal.calls"] = st("posterior.log_marginal").calls
        m["posterior.log_marginal.s"] = st("posterior.log_marginal").seconds
        for label in COMMAND_LABELS:
            m[f"cli.run_command.{label}.s"] = untraced["command_s"].get(label, 0.0)
        m["trace.absent"] = len(self.absent)
        return m
