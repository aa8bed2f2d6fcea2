"""An outside tracer: spans around the public functions of robustreg.

Spans are kept in memory as (name, start, end, parent, trial, attrs), with
integer nanosecond clock readings so that self times are exact, and written
out when the run ends.  Nothing inside ``src/`` is touched: each
function is replaced, for the length of one traced trial, by a wrapper on
the module attribute its caller looks it up through.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    trial: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trial = -1

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        sp = Span(name, time.perf_counter_ns(), parent=parent, trial=self.trial, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(span, args, result)`` records counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, result)
                return result
        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its direct children cover, in ns."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            own[sp.parent] -= sp.end - sp.start
    return own


def _set(**values):
    def record(sp, args, result):
        for key, get in values.items():
            sp.attrs[key] = get(args, result)
    return record


# (module, attribute, span name, counts recorded from args and result).
# Each attribute is the one the caller resolves at call time: pipelines
# imports greedy_cover, medboost, ... by name, medboost and mw_boost call
# their draw loops through their own module, and the oracle imports
# fat_shattering from dimensions inside each call.
PATCHES = [
    ("robustreg.harness", "gen_instance", "harness.gen_instance", None),
    ("robustreg.pipelines", "inflate", "core.inflate",
     _set(points=lambda a, r: len(r))),
    ("robustreg.pipelines", "empirical_error", "core.empirical_error", None),
    ("robustreg.dimensions", "fat_shattering", "dimensions.fat_shattering", None),
    ("robustreg.pipelines", "greedy_cover", "dimensions.greedy_cover",
     _set(points=lambda a, r: len(a[0]), centers=lambda a, r: len(r[0]))),
    ("robustreg.pipelines", "build_pool", "pipelines.build_pool", None),
    ("robustreg.pipelines", "dual_embed", "pipelines.dual_embed", None),
    ("robustreg.pipelines", "agnostic_regression", "pipelines.agnostic_regression", None),
    ("robustreg.pipelines", "agnostic_eta_learn", "pipelines.agnostic_eta_learn",
     _set(status=lambda a, r: r.status)),
    ("robustreg.pipelines", "improper_learn", "pipelines.improper_learn", None),
    ("robustreg.pipelines", "proper_learn", "pipelines.proper_learn", None),
    ("robustreg.pipelines", "medboost", "boosting.medboost",
     _set(rounds=lambda a, r: len(r))),
    ("robustreg.boosting", "find_weak_learner", "boosting.find_weak_learner", None),
    ("robustreg.pipelines", "mw_boost", "mw.mw_boost",
     _set(rounds=lambda a, r: len(r))),
    ("robustreg.mw", "find_strong_learner", "mw.find_strong_learner", None),
    ("robustreg.pipelines", "sparsify", "sparsify.sparsify",
     _set(members_out=lambda a, r: len(r))),
    ("robustreg.pipelines", "compress", "compression.compress",
     _set(size=lambda a, r: r.size)),
    ("robustreg.pipelines", "reconstruct", "compression.reconstruct",
     _set(refits=lambda a, r: len(a[0].groups))),
]

ORACLE_METHODS = [("rerm", "oracles.rerm"), ("max_fit_subset", "oracles.max_fit_subset")]


@contextlib.contextmanager
def patched(tracer: Tracer, modules: dict, only=None):
    """Install the wrappers of PATCHES (or the names in ``only``), undo on exit."""
    saved = []
    try:
        for mod_name, attr, name, on_result in PATCHES:
            if only is not None and name not in only:
                continue
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, on_result))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def trace_oracle(tracer: Tracer, oracle) -> None:
    """Shadow the oracle's methods on this instance with traced wrappers."""
    for attr, name in ORACLE_METHODS:
        setattr(oracle, attr, tracer.wrap(name, getattr(oracle, attr)))
