"""Outside-in span tracer for the closurelab benchmark.

The program has no tracer of its own, so this module records spans from
the benchmark's side: it replaces public closurelab functions and methods
with timing wrappers for the length of a traced phase.  A name imported
with ``from .spectral import wht`` is bound separately in every importing
module, so each wrapper is installed in every ``closurelab.*`` namespace
that holds the original object.  Functions look their globals up at call
time, so calls inside the library go through the wrappers too.

A span's self time is its duration minus the full cost of its child
wrappers (their duration plus their own bookkeeping), so tracer overhead
lands on the root experiment span and not on any layer.  Counters are
computed at the same boundaries, from the arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

INT64_FAST_LIMIT = 2**62  # the int64 fast-path guard used in spectral and closure
KEEP_SPANS = 4000  # raw spans written to the trace file; the rest are only aggregated


class Patches:
    """Replace an object in every closurelab namespace; undo in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_function(self, original, replacement) -> None:
        found = False
        for name, module in list(sys.modules.items()):
            if not (name == "closurelab" or name.startswith("closurelab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not bound in any closurelab module")

    def replace_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# counters computed at the boundary: (counts, args, kwargs, result, self_s)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_rref(counts, args, kwargs, result, self_s):
    counts["gf2.rref.vectors"] += len(_arg(args, kwargs, 0, "vectors"))


def _materialize_vectors(args, kwargs):
    """rref accepts any iterable; a list keeps the vector count observable."""
    if args:
        return (list(args[0]),) + tuple(args[1:]), kwargs
    return args, dict(kwargs, vectors=list(kwargs["vectors"]))


def _count_wht(counts, args, kwargs, result, self_s):
    import numpy as np

    n = result.n
    band = "small" if n <= 8 else "large" if n >= 12 else None
    if band:
        counts[f"spectral.wht.{band}.calls"] += 1
        counts[f"spectral.wht.{band}.self_s"] += self_s
        counts[f"spectral.wht.{band}.points"] += 1 << n
    counts["spectral.wht.points"] += 1 << n
    # the guard in spectral._exact_sum_of_squares: size * max|f|^2 < 2^62
    fmax = int(np.max(np.abs(np.asarray(_arg(args, kwargs, 0, "f"), dtype=np.int64)), initial=0))
    counts["spectral.path_calls"] += 1
    if (1 << n) * fmax * fmax >= INT64_FAST_LIMIT:
        counts["spectral.wht.bigint_calls"] += 1


def _count_spectral_closedness(counts, args, kwargs, result, self_s):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    # spectral._weighted_square_sum: 2^n * |A|^2 * max(total, 1) < 2^62
    counts["spectral.path_calls"] += 1
    if (1 << a.n) * a.size**2 * max(b.total, 1) >= INT64_FAST_LIMIT:
        counts["spectral.spectral_closedness.bigint_calls"] += 1


def _count_mixed_energy(counts, args, kwargs, result, self_s):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    # closure._exact_square_product_sum: 2^n * |A|^2 * max(total^2, 1) < 2^62
    counts["spectral.path_calls"] += 1
    if (1 << a.n) * a.size**2 * max(b.total**2, 1) >= INT64_FAST_LIMIT:
        counts["closure.mixed_energy.bigint_calls"] += 1


def _count_bogolyubov(counts, args, kwargs, result, self_s):
    counts["spectral.bogolyubov.checked_elements"] += 1 << result.dim


def _count_pairs(counts, args, kwargs, result, self_s):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    counts["closure.closedness_exact.pairs"] += a.size * b.support_size


def _count_sampled(counts, args, kwargs, result, self_s):
    counts["closure.closedness_sampled.samples"] += _arg(args, kwargs, 3, "samples")


def _count_gathers(counts, args, kwargs, result, self_s):
    reach = args[0]
    counts["forcing.SumsetReach.init.gathers"] += reach.depth * len(reach.generators)


def _count_pipeline(counts, args, kwargs, result, self_s):
    counts["forcing.pipeline.runs"] += 1
    counts["forcing.pipeline.centers"] += len(result.centers)
    counts["forcing.pipeline.agreement_set"] += len(result.agreement_set)
    if result.measured["containment_dim"] < result.shape.total:
        counts["forcing.pipeline.nonvacuous"] += 1


def _count_u_samples(counts, args, kwargs, result, self_s):
    counts["hamming.compatibility_fraction.samples"] += _arg(args, kwargs, 2, "u_samples")


def _count_draws(counts, args, kwargs, result, self_s):
    counts["hamming.sampler.draws"] += _arg(args, kwargs, 1, "count")


def _count_bytes(counts, args, kwargs, result, self_s):
    counts["cli.emit.bytes"] += len(result)


# (span name, module, attribute or "Class.method", counter, argument preparation)
SPANS = [
    ("gf2.rref", "gf2", "rref", _count_rref, _materialize_vectors),
    ("gf2.complement", "gf2", "Subspace.complement", None, None),
    ("spectral.wht", "spectral", "wht", _count_wht, None),
    ("spectral.mu_hat", "spectral", "mu_hat", None, None),
    ("spectral.bogolyubov", "spectral", "bogolyubov", _count_bogolyubov, None),
    ("spectral.spectral_closedness", "spectral", "spectral_closedness",
     _count_spectral_closedness, None),
    ("closure.closedness_exact", "closure", "closedness_exact", _count_pairs, None),
    ("closure.closedness_sampled", "closure", "closedness_sampled", _count_sampled, None),
    ("closure.mixed_energy", "closure", "mixed_energy", _count_mixed_energy, None),
    ("closure.triangle_compose", "closure", "triangle_compose", None, None),
    ("forcing.SumsetReach.init", "forcing", "SumsetReach.__init__", _count_gathers, None),
    ("forcing.SumsetReach.witness", "forcing", "SumsetReach.witness", None, None),
    ("forcing.rank_reach", "forcing", "rank_reach", None, None),
    ("forcing.find_structure_matrix", "forcing", "find_structure_matrix", None, None),
    ("forcing.find_system", "forcing", "find_system", None, None),
    ("forcing.matrix_pipeline", "forcing", "matrix_pipeline", _count_pipeline, None),
    ("tensor.sum_of_blowups", "tensor", "sum_of_blowups", None, None),
    ("tensor.simple_set.member", "tensor", "SimpleSet.member", None, None),
    ("hamming.compatibility_fraction", "hamming", "compatibility_fraction",
     _count_u_samples, None),
    ("hamming.scenarios", "hamming", "counterexample_scenarios", None, None),
    ("confidence.radius", "confidence", "hoeffding_radius", None, None),
    ("confidence.radius", "confidence", "chernoff_radius", None, None),
    ("cli.run", "cli", "run", None, None),
    ("cli.emit", "cli", "emit", _count_bytes, None),
    ("cli.build", "cli", "build_groupset", None, None),
    ("cli.build", "cli", "build_multiset", None, None),
]

# generators: only the yielded items are counted; a span per item would cost
# more than the work it measures
GENERATOR_COUNTERS = [
    ("gf2.enumerate.elements", "gf2", "Subspace.enumerate"),
    ("gf2.all_subspaces.yielded", "gf2", "all_subspaces"),
]

# factories whose returned sampling callables get a span of their own
SAMPLER_FACTORIES = [
    ("hamming.sampler", "hamming", "layer_sampler"),
    ("hamming.sampler", "hamming", "fixed_weight_sampler"),
]

# every span name, in the order first listed above
SPAN_NAMES = list(dict.fromkeys(entry[0] for entry in SPANS + SAMPLER_FACTORIES))

# counters and ratios: (name, unit, better)
_COUNTER_METRICS = [
    ("gf2.rref.vectors", "count", "lower"),
    ("gf2.all_subspaces.yielded", "count", "lower"),
    ("gf2.enumerate.elements", "count", "lower"),
    ("spectral.wht.points", "count", "lower"),
    ("spectral.wht.small.calls", "count", "lower"),
    ("spectral.wht.small.self_s", "s", "lower"),
    ("spectral.wht.small.points", "count", "lower"),
    ("spectral.wht.large.calls", "count", "lower"),
    ("spectral.wht.large.self_s", "s", "lower"),
    ("spectral.wht.large.points", "count", "lower"),
    ("spectral.wht.bigint_calls", "count", "lower"),
    ("spectral.bogolyubov.checked_elements", "count", "lower"),
    ("spectral.spectral_closedness.bigint_calls", "count", "lower"),
    ("closure.mixed_energy.bigint_calls", "count", "lower"),
    ("spectral.path_calls", "count", "lower"),
    ("spectral.int64_ratio", "ratio", "higher"),
    ("closure.closedness_exact.pairs", "count", "lower"),
    ("closure.closedness_sampled.samples", "count", "lower"),
    ("forcing.SumsetReach.init.gathers", "count", "lower"),
    ("forcing.pipeline.runs", "count", "higher"),
    ("forcing.pipeline.centers", "count", "lower"),
    ("forcing.pipeline.agreement_set", "count", "lower"),
    ("forcing.pipeline.nonvacuous", "count", "higher"),
    ("forcing.pipeline.nonvacuous_ratio", "ratio", "higher"),
    ("hamming.compatibility_fraction.samples", "count", "lower"),
    ("hamming.sampler.draws", "count", "lower"),
    ("confidence.estimates", "count", "higher"),
    ("confidence.covered", "count", "higher"),
    ("confidence.covered_ratio", "ratio", "higher"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("trace.experiments", "count", "higher"),
    ("trace.untraced_experiments_per_s", "1/s", "higher"),
    ("trace.traced_experiments_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# every per-layer metric a traced run reports, in BENCHMARK.json order
PER_LAYER = [
    (f"{span}.{field}", unit, "lower")
    for span in SPAN_NAMES
    for field, unit in (("calls", "count"), ("self_s", "s"))
] + _COUNTER_METRICS


class Tracer:
    """Spans and counters for one traced phase.

    Spans are aggregated per name as they close; the raw spans of the first
    ``KEEP_SPANS`` closings are kept for the trace file.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._request = 0
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def _close(self, name, span_id, parent, start, end, child_s):
        duration = end - start
        self_s = duration - child_s
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += self_s
        if len(self.spans) < KEEP_SPANS:
            self.spans.append({
                "id": span_id, "parent": parent, "request": self._request,
                "name": name, "start": start, "end": end, "self_s": self_s,
            })
        return self_s

    def call(self, name, fn, args, kwargs, counter=None, prepare=None):
        t0 = time.perf_counter()
        if prepare is not None:
            args, kwargs = prepare(args, kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        self_s = self._close(name, span_id, parent, start, end, frame[1])
        if counter is not None:
            counter(self.counts, args, kwargs, result, self_s)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - t0
        return result

    def root(self, name, fn):
        """Run one request (an experiment or a set-up) as a root span."""
        self._request += 1
        return self.call(name, fn, (), {})

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, counter, prepare):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter, prepare)

        return traced

    def _count_items(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def _sampler_factory(self, name, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._wrap(name, factory(*args, **kwargs), _count_draws, None)

        return make

    def _install(self, module_name, target, make):
        module = sys.modules[f"closurelab.{module_name}"]
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name)
            self._patches.replace_method(cls, attr, make(cls.__dict__[attr]))
        else:
            original = getattr(module, target)
            self._patches.replace_function(original, make(original))

    def install(self) -> None:
        for name, module, target, counter, prepare in SPANS:
            self._install(module, target,
                          lambda fn, n=name, c=counter, p=prepare: self._wrap(n, fn, c, p))
        for name, module, target in GENERATOR_COUNTERS:
            self._install(module, target, lambda fn, n=name: self._count_items(n, fn))
        for name, module, target in SAMPLER_FACTORIES:
            self._install(module, target, lambda fn, n=name: self._sampler_factory(n, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- reporting ---------------------------------------------------------

    def metrics(self, outcomes: Counter, experiments: int, untraced_eps: float,
                traced_eps: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for span in SPAN_NAMES:
            values[f"{span}.calls"] = self.calls[span]
            values[f"{span}.self_s"] = self.self_s[span]
        counts = self.counts + outcomes
        for name, unit, _ in _COUNTER_METRICS:
            values[name] = float(counts[name]) if unit == "s" else counts[name]
        bigint = (counts["spectral.wht.bigint_calls"]
                  + counts["spectral.spectral_closedness.bigint_calls"]
                  + counts["closure.mixed_energy.bigint_calls"])
        values["spectral.int64_ratio"] = _ratio(counts["spectral.path_calls"] - bigint,
                                                counts["spectral.path_calls"])
        values["forcing.pipeline.nonvacuous_ratio"] = _ratio(
            counts["forcing.pipeline.nonvacuous"], counts["forcing.pipeline.runs"])
        values["confidence.covered_ratio"] = _ratio(
            counts["confidence.covered"], counts["confidence.estimates"])
        values["trace.experiments"] = experiments
        values["trace.untraced_experiments_per_s"] = untraced_eps
        values["trace.traced_experiments_per_s"] = traced_eps
        values["trace.overhead_ratio"] = _ratio(untraced_eps - traced_eps, untraced_eps)
        return values

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregate": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counts.items())),
        }


def _ratio(part: float, base: float) -> float:
    """A ratio whose base is reported beside it; 0 when nothing was attempted."""
    return part / base if base else 0.0
