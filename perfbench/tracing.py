"""Spans around the public functions of each gitgr layer, installed from outside.

A traced request child calls :meth:`Tracer.install` before it runs.  Every
public function of a layer module is replaced, in every gitgr module that
holds it, by a wrapper that records a span: name, start, end, parent span
and whether it raised.  Generator functions and ``weyl.bruhat_leq`` are
only counted, since a generator's body runs interleaved with its consumer
and ``bruhat_leq`` runs millions of times.  The items a ``RESULT_COUNTS``
function returns or yields are counted either way.  Spans stay in memory
until the request ends, then go to the parent in one piece.
"""

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "weyl", "semistability", "quotient", "cohomology", "reps", "plucker")

#: Called without a span; each call adds one to the named count.
COUNT_ONLY = {"weyl.bruhat_leq": "weyl.bruhat_tests"}
#: Items in the returned list or iterator are added to the named count.
RESULT_COUNTS = {"semistability.all_subsets": "semistability.subsets",
                 "semistability.enumerate_A": "semistability.pairs"}
#: Items in the first argument are added to the named count.
ARGUMENT_COUNTS = {"plucker.rank_of_polys": "plucker.rank_rows"}


def _counted(items, counts, key):
    for item in items:
        counts[key] += 1
        yield item


def _count_result(result, counts, key):
    """Add the items of a returned list to ``counts[key]``, or count them as
    a returned iterator is consumed."""
    if isinstance(result, (list, tuple)):
        counts[key] += len(result)
        return result
    return _counted(result, counts, key)


class Tracer:
    """Span and count recorder for one request."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1, raised]
        self.counts = Counter()
        self.current = -1

    def wrap(self, name: str, fn):
        counts = self.counts
        result_key = RESULT_COUNTS.get(name)
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            key = COUNT_ONLY.get(name, name.split(".")[0] + ".unspanned_calls")

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                return _count_result(result, counts, result_key) if result_key else result
            return counter

        spans, clock = self.spans, time.perf_counter_ns
        argument_key = ARGUMENT_COUNTS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if argument_key and args:
                items = list(args[0])
                counts[argument_key] += len(items)
                args = (items,) + args[1:]
            parent = self.current
            record = [name, 0, 0, parent, False]
            self.current = len(spans)
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = clock()
                self.current = parent
            return _count_result(result, counts, result_key) if result_key else result
        return span

    def install(self, package) -> int:
        """Wrap every layer's public functions; return how many were wrapped.

        A layer or a counted target that no longer exists is skipped, and
        its counts stay at zero.
        """
        prefix = package.__name__ + "."
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(prefix + layer)
            if module is None:
                continue
            names = getattr(module, "__all__", None) or [
                name for name in vars(module) if not name.startswith("_")]
            for attr in names:
                fn = getattr(module, attr, None)
                if (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        modules = [package] + [m for name, m in list(sys.modules.items())
                               if name.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return len(wrappers)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover (ns)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counts) -> Counter:
    """Per-layer totals of one request's spans and counts.

    ``<layer>.calls`` counts calls of the layer's public functions, nested
    ones included; ``<layer>.errors`` counts exceptions that leave the
    layer; ``reps.calibrations`` and ``reps.calibration_attempts`` count
    calibrate_descent calls and the decompose_sections calls inside them.
    """
    totals = Counter()
    layers = [name.split(".", 1)[0] for name, *_ in spans]
    for (name, _, _, parent, raised), layer, own in zip(spans, layers, self_times(spans)):
        totals[layer + ".calls"] += 1
        totals[layer + ".self_ns"] += own
        if raised and (parent < 0 or layers[parent] != layer):
            totals[layer + ".errors"] += 1
        if name == "reps.invariant_hilbert":
            totals["reps.hilbert_calls"] += 1
        elif name == "reps.calibrate_descent":
            totals["reps.calibrations"] += 1
        elif name == "reps.decompose_sections":
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != "reps.calibrate_descent":
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                totals["reps.calibration_attempts"] += 1
    for key, value in counts.items():
        if key.endswith(".unspanned_calls"):
            totals[key.split(".")[0] + ".calls"] += value
        else:
            totals[key] += value
    return totals
