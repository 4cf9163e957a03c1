"""Per-layer self time for one sieve run, taken from the benchmark's side.

`install` replaces public functions of `primegen` at the module attribute
each caller looks up (``from .streams import s_minus`` binds the name in the
caller's module, so the wrapper goes there) with wrappers that time every
resume of the iterator they return, or every call for the queue methods.
Per layer the tracer keeps totals only -- resumes, self time, and how many
wrapped resumes and calls ran nested inside -- because a run makes millions
of resumes.

Self time is a resume's duration minus the durations of the wrapped resumes
nested inside it. The wrapper's own cost lands partly inside the measured
interval (charged to the layer itself) and partly outside it (charged to
the enclosing layer); `calibrate` measures both parts on trivial iterators
and functions in the same process, and `Tracer.report` subtracts them,
scaled to the cost the traced run actually added over an untraced one.
"""

import time
from itertools import repeat

LAYERS = (
    "streams.fold",
    "streams.merge",
    "streams.diff",
    "streams.fixpoint",
    "streams.roll",
    "wheels",
    "hamming",
    "pq.heap",
    "pq.loop",
    "sieves.knot",
)
"""Layer names; `pq.heap` counts method calls, the others iterator resumes."""

_clock = time.perf_counter_ns


class Tracer:
    """Per-layer totals, and the counts of the resume currently running.

    ``totals[layer]`` is [own resumes, self ns, nested wrapped resumes,
    nested calls].
    """

    def __init__(self):
        # the running resume's [ns in nested wrapped resumes, nested resumes,
        # nested calls]; each wrapper saves the enclosing values in locals,
        # so tracing allocates no container that would wake the collector
        self.acc = [0, 0, 0]
        self.totals = {}

    def _totals(self, layer):
        return self.totals.setdefault(layer, [0, 0, 0, 0])

    def iterator(self, layer, it):
        """`it`, with every resume charged to `layer`."""
        return _resumes(iter(it).__next__, self._totals(layer), self.acc)

    def function(self, layer, fn):
        """`fn`, with every call charged to `layer`."""
        tot = self._totals(layer)
        acc = self.acc

        def traced(*args):
            outer_ns, outer_resumes, outer_calls = acc
            acc[0] = acc[1] = acc[2] = 0
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                d = _clock() - t0
                tot[0] += 1
                tot[1] += d - acc[0]
                tot[2] += acc[1]
                tot[3] += acc[2]
                acc[0] = outer_ns + d
                acc[1] = outer_resumes
                acc[2] = outer_calls + 1

        return traced

    def generator_function(self, layer, fn):
        """`fn` returning an iterator whose resumes are charged to `layer`."""

        def traced(*args, **kwargs):
            return self.iterator(layer, fn(*args, **kwargs))

        return traced

    def report(self, cost, wall_ns, untraced_ns):
        """Per-layer totals with the wrapper cost removed.

        `cost` is `calibrate`'s result, `wall_ns` the traced run's wall time
        and `untraced_ns` the same run's without wrappers, in this process.
        A wrapper costs more amid a sieve's live generators than on a
        trivial iterator, so the calibrated costs are scaled by one factor
        until what they remove is the whole difference between the two
        walls. Returns the layers, each {"resumes", "self_ns"} with "root"
        for the time no wrapped layer covers, and the unscaled calibrated
        cost in ns.
        """
        rows = dict(self.totals)
        child_ns, nested_resumes, nested_calls = self.acc
        rows["root"] = [0, wall_ns - child_ns, nested_resumes, nested_calls]

        def calibrated(layer, row):
            own = cost["call_in"] if layer == "pq.heap" else cost["resume_in"]
            return own * row[0] + cost["resume_out"] * row[2] + cost["call_out"] * row[3]

        removed = {layer: calibrated(layer, row) for layer, row in rows.items()}
        total = sum(removed.values())
        scale = (wall_ns - untraced_ns) / total if total else 0.0
        out = {layer: {"resumes": row[0], "self_ns": row[1] - scale * removed[layer]}
               for layer, row in rows.items()}
        return out, total


_END = object()


def _resumes(nxt, tot, acc):
    # a generator, not a class with __next__: resuming a suspended generator
    # from C costs less than calling a Python-level __next__
    while True:
        outer_ns, outer_resumes, outer_calls = acc
        acc[0] = acc[1] = acc[2] = 0
        t0 = _clock()
        try:
            value = nxt()
        except StopIteration:
            value = _END
        d = _clock() - t0
        tot[0] += 1
        tot[1] += d - acc[0]
        tot[2] += acc[1]
        tot[3] += acc[2]
        acc[0] = outer_ns + d
        acc[1] = outer_resumes + 1
        acc[2] = outer_calls
        if value is _END:
            return
        yield value


def _noop(self, key, value):
    return key


def _bare_loop(k):
    t0 = _clock()
    for _ in repeat(None, k):
        pass
    return _clock() - t0


def _drain(it):
    t0 = _clock()
    for _ in it:
        pass
    return _clock() - t0


def _resume_loop(nxt, k):
    t0 = _clock()
    for _ in repeat(None, k):
        nxt()
    return _clock() - t0


def _call_loop(fn, k):
    t0 = _clock()
    for _ in repeat(None, k):
        fn(None, 1, 2)
    return _clock() - t0


def calibrate(k=100_000, repeats=7):
    """Wrapper cost per resume and per call, in ns, split by where it lands.

    ``resume_in``/``call_in`` is the part inside the measured interval
    beyond the wrapped work itself, charged to the layer; ``resume_out``/
    ``call_out`` the part the enclosing layer sees. Loops of `k` resumes of
    a C iterator (`itertools.repeat`) and `k` calls of a trivial
    three-argument function run plain and wrapped; each figure is a median
    over `repeats` trials.
    """
    trials = {key: [] for key in ("bare", "resume", "call", "resume_traced",
                                  "resume_self", "call_traced", "call_self")}
    for _ in range(repeats):
        trials["bare"].append(_bare_loop(k))
        trials["resume"].append(_resume_loop(repeat(None).__next__, k))
        trials["call"].append(_call_loop(_noop, k))
        tracer = Tracer()
        trials["resume_traced"].append(_drain(tracer.iterator("cal", repeat(None, k))))
        trials["resume_self"].append(tracer.totals["cal"][1])
        tracer = Tracer()
        trials["call_traced"].append(_call_loop(tracer.function("cal", _noop), k))
        trials["call_self"].append(tracer.totals["cal"][1])
    m = {key: _median(values) / k for key, values in trials.items()}
    out = {}
    for kind in ("resume", "call"):
        # traced loop = loop + outside part + inside part + work;
        # self = inside part + work; plain loop = loop + work
        out[kind + "_in"] = m[kind + "_self"] - (m[kind] - m["bare"])
        out[kind + "_out"] = m[kind + "_traced"] - m[kind + "_self"] - m["bare"]
    return out


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


def install(tracer):
    """Wrap every layer boundary of the imported `primegen` in `tracer`.

    Wrapping happens at the attribute each caller looks up: `fold_union_p`
    only in `sieves`, so its nested levels, which call the unwrapped name
    inside `streams`, all count as fold. `pq.heap` wraps method calls, the
    other layers the iterators their functions return.
    """
    from primegen import hamming, pq, sieves, streams, wheels

    sites = (
        ("streams.fold", sieves, ("fold_union_p",)),
        ("streams.merge", hamming, ("d_union",)),
        ("streams.diff", sieves, ("minus", "s_minus")),
        ("streams.diff", pq, ("s_minus",)),
        ("streams.roll", sieves, ("scaled", "spin")),
        ("streams.roll", hamming, ("scaled",)),
        ("streams.roll", pq, ("scaled",)),
        ("wheels", sieves, ("cyc", "next_wheel_deltas", "s4_stream")),
        ("wheels", wheels, ("s4_from",)),
        ("wheels", pq, ("cyc", "next_wheel_deltas", "s4_stream")),
        ("hamming", sieves, ("composites_of_primes",)),
        ("streams.fixpoint", streams.StreamFixpoint, ("reader",)),
    )
    sites += tuple(("pq.heap", pq.CompositePQ, (name,)) for name in (
        "__bool__", "insert", "min_key", "min_item", "replace_min"))
    for layer, owner, names in sites:
        # a site the package no longer has is skipped: its layer reads lower
        # until the benchmark is updated, and outputs are still checked
        for name in (name for name in names if hasattr(owner, name)):
            wrap = tracer.function if layer == "pq.heap" else tracer.generator_function
            setattr(owner, name, wrap(layer, getattr(owner, name)))

    fix_stream = sieves.fix_stream

    def traced_fix_stream(producer, counters=None):
        return fix_stream(
            lambda h: tracer.iterator("sieves.knot", producer(h)), counters)

    sieves.fix_stream = traced_fix_stream

