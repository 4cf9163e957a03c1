"""One benchmark operation: a fresh interpreter delivers one variant's first n primes.

    python3 sievebench/child.py MODE VARIANT N
    python3 sievebench/child.py start

MODE is one of
  time      the plain run: sieve wall time and peak RSS growth
  trace     a plain run, then one with every layer boundary wrapped (tracer.py)
  counters  the run with `RunCounters.with_tally()` passed in
  mem       the run under `tracemalloc`, live memory grouped by source file
VARIANT is a key of `primegen.ALL_VARIANTS`, or `module:function` for a
factory importable from the child's `sys.path` (the benchmark's tests use
that to inject a wrong variant). The last line of standard output is one
JSON object; the parent compares its digest with the oracle's. `start`
only reports when its imports are done: the parent's reference for how
fast this machine runs at the moment.
"""

import hashlib
import json
import sys
import time
from array import array
from importlib import import_module
from itertools import islice
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MEM_FILES = ("streams", "wheels", "hamming", "pq", "sieves")


class MissingSource(RuntimeError):
    """The checkout holds no `src/primegen` to benchmark."""


def load_primegen():
    """Import `primegen` from this checkout's `src`, never from elsewhere."""
    init = SRC / "primegen" / "__init__.py"
    if not init.is_file():
        raise MissingSource("no %s" % init)
    sys.path.insert(0, str(SRC))
    import primegen

    if Path(primegen.__file__).resolve() != init.resolve():
        raise MissingSource("primegen imported from %s" % primegen.__file__)
    return primegen


def digest(primes):
    """Digest of a prime prefix held in an array('q')."""
    return hashlib.sha256(primes.tobytes()).hexdigest()


def resolve(primegen, spec):
    """(factory, family) for a variant key or a `module:function` spec."""
    if ":" in spec:
        module, name = spec.split(":")
        return getattr(import_module(module), name), "test"
    variant = primegen.ALL_VARIANTS[spec]
    return variant.factory, variant.family


def _rss_kib():
    """(current, peak) RSS of this process image, in KiB.

    Read from /proc rather than `getrusage`: after exec, `ru_maxrss` keeps
    the high-water mark of the parent that forked this child, while VmHWM
    covers this image alone.
    """
    fields = {}
    with open("/proc/self/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0])
    return fields["VmRSS"], fields["VmHWM"]


def _sieve(gen, n):
    # the whole prefix is consumed inside the timed region, by C code
    primes = array("q")
    t0 = time.perf_counter_ns()
    primes.extend(islice(gen, n))
    return primes, time.perf_counter_ns() - t0


def run_time(primegen, spec, n):
    factory, _ = resolve(primegen, spec)
    gen = factory()
    # CLOCK_MONOTONIC is shared by every process on Linux, so the parent
    # subtracts its spawn time from this
    ready = time.monotonic()
    base, _ = _rss_kib()
    primes, wall_ns = _sieve(gen, n)
    _, peak = _rss_kib()
    return primes, {"ready": ready, "wall_ns": wall_ns, "rss_growth_kib": peak - base}


def run_trace(primegen, spec, n):
    import gc

    import tracer

    factory, family = resolve(primegen, spec)
    _, untraced_ns = _sieve(factory(), n)
    gc.collect()
    cost = tracer.calibrate()
    t = tracer.Tracer()
    tracer.install(t)
    # the factories look their helpers up at call time, so this run is wrapped
    gen = factory()
    if family == "pq":
        gen = t.iterator("pq.loop", gen)
    primes, wall_ns = _sieve(gen, n)
    layers, calibrated_ns = t.report(cost, wall_ns, untraced_ns)
    return primes, {"wall_ns": wall_ns, "untraced_ns": untraced_ns, "cost": cost,
                    "calibrated_ns": calibrated_ns, "layers": layers}


def run_counters(primegen, spec, n):
    counters = primegen.RunCounters.with_tally()
    factory, _ = resolve(primegen, spec)
    primes, _ = _sieve(factory(counters=counters), n)
    return primes, {
        "composites": counters.composites,
        "distinct": len(counters.tally),
        "comparisons": counters.comparisons,
        "peak_buffer": counters.peak_buffer,
        "pq_size": counters.pq_size,
    }


def run_mem(primegen, spec, n):
    import tracemalloc

    factory, _ = resolve(primegen, spec)
    tracemalloc.start()
    gen = factory()
    primes, _ = _sieve(gen, n)
    snapshot = tracemalloc.take_snapshot()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    live = dict.fromkeys(MEM_FILES, 0)
    for stat in snapshot.statistics("filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent.name == "primegen" and path.stem in live:
            live[path.stem] += stat.size
    return primes, {"live_bytes": live, "peak_bytes": peak}


MODES = {"time": run_time, "trace": run_trace, "counters": run_counters, "mem": run_mem}


def main(argv):
    if argv == ["start"]:
        # the reference child: the same interpreter start and imports as an
        # operation, without primegen
        print(json.dumps({"ready": time.monotonic()}))
        return
    mode, spec, n = argv[0], argv[1], int(argv[2])
    primegen = load_primegen()
    primes, out = MODES[mode](primegen, spec, n)
    out["count"] = len(primes)
    out["digest"] = digest(primes)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
