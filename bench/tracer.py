"""Span-recording wrappers installed on nlsa_lab at run time.

Nothing under src/ knows about tracing: `install` replaces every public
function of the six layer modules (and the public methods of the classes they
define, plus the non-generated constructors) with a wrapper that records a
span, and rebinds each copy of the name that other modules imported with
`from .x import y`.  `uninstall` puts every original object back.

A span is (name, start, end, parent, thread, cpu_start, cpu_end, extra), with
CPU times from the span's own thread.
Spans stay in memory; `summarize` turns them into per-name totals and self
times once the traced command has returned.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

LAYERS = ("cli", "oscillatory", "spectral", "norms", "picard", "estimates")

# Names whose individual span durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"oscillatory.run_probe"})


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else len(value)


def _direct_extra(args, kwargs, result):
    if isinstance(result, dict) and "n_nodes" in result:
        return {
            "nodes": result["n_nodes"],
            "below_floor": int(abs(result["value"]) <= result["floor"]),
        }
    return None


def _contour_extra(args, kwargs, result):
    if isinstance(result, dict) and "n_nodes" in result:
        return {"nodes": result["n_nodes"]}
    return None


def _sweep_extra(args, kwargs, result):
    return {
        "samples": result.sample_count,
        "discarded": result.discarded,
        "drift": result.drift,
    }


def _picard_extra(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "ratio": report.ratio}


# Work counts read at layer boundaries, keyed by span name.
EXTRAS = {
    "oscillatory.PhiProfile.eval_real": lambda a, k, r: {"points": _size(a[1])},
    "oscillatory.PhiProfile.eval_shifted": lambda a, k, r: {"points": _size(a[1])},
    "oscillatory.osc_integral_direct": _direct_extra,
    "oscillatory.osc_integral_contour": _contour_extra,
    "spectral.eta": lambda a, k, r: {"points": _size(a[0])},
    "spectral.apply_multiplier": lambda a, k, r: {"points": a[0].values.size},
    "picard.picard_iterate": _picard_extra,
    **{
        f"estimates.{name}": _sweep_extra
        for name in (
            "check_smoothing", "check_sup_embedding", "check_commutator",
            "check_leibniz_band", "check_chain_rules", "check_leibniz_two_sided",
        )
    },
}


class Tracer:
    """Collects spans from every thread; one instance per traced process."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.spans: list = []
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._patches: list = []

    def wrap(self, name: str, func):
        extra_fn = EXTRAS.get(name)
        spans = self.spans
        local = self._local
        clock, cpu_clock = self._clock, self._cpu_clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), None, stack[-1] if stack else None,
                    threading.get_ident(), cpu_clock(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[6] = cpu_clock()
            if extra_fn is not None:
                span[7] = extra_fn(args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, package) -> int:
        """Wrap the layer modules of `package`; returns the attributes patched."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)
        owners = [package, *modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patch(owner, attr, obj, replaced[id(obj)][1])
        return len(self._patches)

    def _install_class(self, layer: str, cls) -> None:
        if issubclass(cls, BaseException) or hasattr(cls, "__members__"):
            return
        generated_init = hasattr(cls, "__dataclass_fields__")
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not generated_init):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, obj, self.wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, obj, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr, obj, staticmethod(self.wrap(name, obj.__func__)))

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> list:
        """Restore every patched attribute; returns those left unrestored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches.clear()
        return left


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def adopt_orphans(spans, main_thread) -> list:
    """Parent index of every span.

    A root span on a worker thread (a pool task) is given, as parent, the
    innermost main-thread span whose interval contains it: that is the span
    which waited for it.
    """
    parents = [span[3] for span in spans]
    main = [i for i, span in enumerate(spans) if span[4] == main_thread]
    for i, span in enumerate(spans):
        if span[3] is not None or span[4] == main_thread:
            continue
        best = None
        for j in main:
            if spans[j][1] <= span[1] and span[2] <= spans[j][2]:
                if best is None or spans[j][1] >= spans[best][1]:
                    best = j
        parents[i] = best
    return parents


def self_times(spans, main_thread=None) -> list:
    """(self wall, self cpu) per span: duration minus what its children cover.

    CPU self time subtracts the children's CPU time on the same thread only.
    """
    parents = adopt_orphans(spans, main_thread) if main_thread is not None else [
        span[3] for span in spans
    ]
    children: dict = {}
    for i, parent in enumerate(parents):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        kids = children.get(i, ())
        wall = (span[2] - span[1]) - covered((spans[k][1], spans[k][2]) for k in kids)
        cpu = (span[6] - span[5]) - sum(
            spans[k][6] - spans[k][5] for k in kids if spans[k][4] == span[4]
        )
        out.append((wall, cpu))
    return out


def summarize(spans, main_thread=None) -> dict:
    """Per-name count, inclusive time, self time, self CPU and summed extras."""
    selfs = self_times(spans, main_thread)
    table: dict = {}
    for span, (self_wall, self_cpu) in zip(spans, selfs):
        entry = table.setdefault(span[0], {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "cpu_self_s": 0.0, "extra": {},
        })
        entry["count"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += self_wall
        entry["cpu_self_s"] += self_cpu
        if span[0] in KEEP_DURATIONS:
            entry.setdefault("durations", []).append(span[2] - span[1])
        for key, value in (span[7] or {}).items():
            merge_extra(entry["extra"], key, value)
    return table


def merge_extra(extras: dict, key: str, value) -> None:
    """Margins (drift, ratio) keep their largest value; counts add up."""
    if key in ("drift", "ratio"):
        extras[key] = max(extras.get(key, 0.0), value)
    else:
        extras[key] = extras.get(key, 0) + value
