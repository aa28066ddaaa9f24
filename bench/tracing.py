"""In-memory span tracer that times the ttamen layers from outside the package.

``traced(tracer)`` swaps the public names that ``ttamen.amen`` looks up at
call time (and the problem builders the workloads call through the
``ttamen`` package) for wrappers that record one span per call, and puts
every original back on exit, also when the traced code raises.  Nothing
under ``src/`` is edited.

Span names are layer names: ``problems.*`` and ``tt.quantize`` during set-up,
``tt.*`` for the TT algebra the solver calls, ``amen.*`` for the solver's own
steps, and ``amen.solve`` for the root span the benchmark opens around each
solve.  A layer's self time is its span time minus the time of the spans it
caused, so the self times of one solve add up to its traced wall time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import ttamen
import ttamen.amen as amen

# layers whose self times make up the global residual check
RESIDUAL_CHECK = ("tt.add", "tt.matvec", "tt.norm", "tt.round")


class Tracer:
    """Spans as ``[name, start, end, parent index, solve index]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.solve_index = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.solve_index])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` adds counts."""

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def note_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "solve": i}
            for n, s, e, p, i in self.spans
        ]


class _IterativeSolvers:
    """Stand-in for ``scipy.sparse.linalg`` inside ``ttamen.amen``: traced cg/gmres."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer
        self.cg = tracer.wrap(self._counting(real.cg), "amen.local_cg")
        self.gmres = tracer.wrap(self._counting(real.gmres), "amen.local_gmres")

    def _counting(self, solver):
        real, counts = self._real, self._tracer.counts

        def call(op, b, *args, **kwargs):
            def matvec(v):
                counts["amen.local_matvecs"] += 1
                return op.matvec(v)

            counted = real.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return solver(counted, b, *args, **kwargs)

        return call

    def __getattr__(self, name):
        return getattr(self._real, name)


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every name the tracer wraps."""
    counts = tracer.counts

    def after_round(args, out):
        tracer.note_max("tt.round_in_rank_max", max(args[0].ranks))

    def after_direct(args, out):
        counts["amen.local_lstsq_fallbacks"] += int(bool(out[1].get("fallback")))

    def after_enrich(args, out):
        counts["amen.enrich_calls"] += 1
        counts["amen.enrich_width"] += int(out[1].get("width", 0))

    def method(cls, name, span, after=None):
        return (cls, name, tracer.wrap(cls.__dict__[name], span, after))

    def function(owner, name, span, after=None):
        return (owner, name, tracer.wrap(getattr(owner, name), span, after))

    return [
        function(ttamen, "build_poisson", "problems.build"),
        function(ttamen, "build_cme_operator", "problems.build"),
        function(ttamen, "build_initial_state", "problems.build"),
        function(ttamen, "build_time_system", "problems.build"),
        function(ttamen, "qtt_quantize", "tt.quantize"),
        function(amen, "orthogonalize", "tt.orthogonalize"),
        function(amen, "tt_add", "tt.add"),
        function(amen, "tt_matvec", "tt.matvec"),
        function(amen, "tt_norm", "tt.norm"),
        function(amen, "tt_round", "tt.round", after_round),
        function(amen, "build_environments", "amen.env"),
        method(amen.SweepState, "advance_left", "amen.env"),
        function(amen, "solve_local", "amen.local_direct", after_direct),
        (amen, "spla", _IterativeSolvers(amen.spla, tracer)),
        method(amen.EnrichmentState, "prepare_sweep", "amen.enrich"),
        method(amen.EnrichmentState, "enrich", "amen.enrich", after_enrich),
        method(amen.EnrichmentState, "advance", "amen.enrich"),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Route the wrapped names through ``tracer``; restore them on exit."""
    saved = []
    try:
        for owner, name, replacement in _patches(tracer):
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, solves: int, setups: int) -> dict[str, float]:
    """Per-layer figures: times and counts per solve, set-up times per set-up."""
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts
    n = max(solves, 1)
    enrich_calls = counts["amen.enrich_calls"]
    return {
        "problems.build_s": self_s["problems.build"] / max(setups, 1),
        "tt.quantize_s": self_s["tt.quantize"] / max(setups, 1),
        "tt.residual_check_s": sum(self_s[k] for k in RESIDUAL_CHECK) / n,
        "tt.round_s": self_s["tt.round"] / n,
        "tt.round_calls": calls["tt.round"] / n,
        "tt.round_in_rank_max": tracer.maxima.get("tt.round_in_rank_max", 0),
        "tt.orthogonalize_s": self_s["tt.orthogonalize"] / n,
        "tt.orthogonalize_calls": calls["tt.orthogonalize"] / n,
        "amen.env_s": self_s["amen.env"] / n,
        "amen.env_calls": calls["amen.env"] / n,
        "amen.local_direct_s": self_s["amen.local_direct"] / n,
        "amen.local_direct_calls": calls["amen.local_direct"] / n,
        "amen.local_lstsq_fallbacks": counts["amen.local_lstsq_fallbacks"] / n,
        "amen.local_iter_s": (self_s["amen.local_cg"] + self_s["amen.local_gmres"]) / n,
        "amen.local_cg_calls": calls["amen.local_cg"] / n,
        "amen.local_gmres_calls": calls["amen.local_gmres"] / n,
        "amen.local_matvecs": counts["amen.local_matvecs"] / n,
        "amen.enrich_s": self_s["amen.enrich"] / n,
        "amen.enrich_calls": enrich_calls / n,
        "amen.enrich_width_mean": counts["amen.enrich_width"] / enrich_calls
        if enrich_calls
        else 0.0,
        "amen.self_s": self_s["amen.solve"] / n,
    }
