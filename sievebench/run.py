"""The repository benchmark: how fast, and with how much retained memory,
each sieve form delivers its first n primes.

    python3 sievebench/run.py --workload bird --seed 1 --seconds 25 --trace 0

One operation is one variant producing its first n primes in a fresh child
interpreter (child.py), so every variant starts from a clean heap and its
peak RSS is its own. Operations run one at a time from this single parent:
a closed loop with one client. The seed picks n (2^16 plus up to 255) and
the order of the variants in each round; rounds repeat until `--seconds`
have passed. Every prefix is checked against `primegen.oracle`. A
reference child that only starts runs before each operation; its median
start scales the reported times (see REF_START_S).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
rounds, then one traced, one counted and one `tracemalloc` pass per
variant, and prints the per-layer metrics. The last line of standard
output is one JSON object; op and round spans go to `.bench_out/`.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import child
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"

N_BASE = 1 << 16
N_JITTER = 256
AUX_SHIFT = 2  # the counted and tracemalloc passes sieve n >> AUX_SHIFT primes
OP_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # operations not started by then fail, so a run ends well within 180 s
MIB = 1 << 20
REF_START_S = 0.05
"""Spawn-to-ready time of the reference child (`child.py start`) on the
reference machine. On a shared host the machine's speed drifts by a
fifth or more within minutes, and a bare interpreter start slows with it,
so throughputs are multiplied and set-up times divided by the run's median
reference start over REF_START_S: figures read as on a machine where the
reference child starts in 50 ms."""

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "bird": ("bs", "bs4"),
    "euler": ("w", "w4", "es", "es4"),
    "hamming": ("h", "h4"),
    "queue": ("on", "on4", "wpq", "wpq4"),
}
VARIANTS = tuple(key for keys in WORKLOADS.values() for key in keys)

END_TO_END = {"primes_per_s": "1/s", "sieve_rss_mib": "MiB", "setup_s": "s"}


def _per_layer_units():
    units = {}
    for layer in LAYERS:
        if layer == "pq.heap":
            units.update({"pq.heap.self_share": "share", "pq.heap.calls_per_prime": "calls/prime",
                          "pq.heap.ns_per_call": "ns"})
        else:
            units.update({layer + ".self_share": "share", layer + ".resumes_per_prime": "resumes/prime",
                          layer + ".ns_per_resume": "ns"})
    units.update({
        "reference.start_s": "s",
        "unscaled.primes_per_s": "1/s",
        "unscaled.setup_s": "s",
        "trace.overhead": "x",
        "trace.cost_scale": "x",
        "trace.resume_cost_ns": "ns",
        "counters.generated_per_composite": "ratio",
        "counters.comparisons_per_prime": "cmp/prime",
        "counters.peak_buffer": "count",
        "counters.pq_size": "count",
    })
    for name in child.MEM_FILES:
        units["mem.%s_mib" % name] = "MiB"
    units["mem.traced_peak_mib"] = "MiB"
    for key in VARIANTS:
        units["variant.%s.primes_per_s" % key] = "1/s"
        units["variant.%s.sieve_rss_mib" % key] = "MiB"
    return units


PER_LAYER = _per_layer_units()


class Run:
    """One benchmark run: the operations made, their spans and their checks."""

    def __init__(self, expected):
        self.expected = expected  # n -> oracle digest
        self.t0 = time.monotonic()
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.ref_starts = []

    def begin(self, kind, name, parent=None, **fields):
        """Open a span; spans are numbered in the order they start."""
        span = {"id": len(self.spans), "parent": parent, "kind": kind, "name": name,
                "start": time.monotonic() - self.t0, **fields}
        self.spans.append(span)
        return span

    def end(self, span, **fields):
        span.update(fields, end=time.monotonic() - self.t0)

    def reference(self, parent):
        """Time one reference child from spawn to ready."""
        span = self.begin("ref", "start", parent)
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "start"],
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        self.ref_starts.append(json.loads(proc.stdout)["ready"] - start)
        self.end(span, start_s=self.ref_starts[-1])

    def slowdown(self):
        """The run's median reference start over the reference machine's."""
        return statistics.median(self.ref_starts) / REF_START_S

    def op(self, mode, spec, n, parent):
        """Run one child; its result dict, or None when the operation failed."""
        self.attempted += 1
        span = self.begin("op", spec, parent, mode=mode, n=n)
        start = time.monotonic()
        timeout = min(OP_TIMEOUT_S, self.t0 + RUN_LIMIT_S - start)
        out, error = None, "run time limit reached"
        if timeout > 0:
            cmd = [sys.executable, str(HERE / "child.py"), mode, spec, str(n)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
                out = _last_json(proc.stdout) if proc.returncode == 0 else None
                error = None if out else "exit %d: %s" % (proc.returncode, proc.stderr[-400:])
            except subprocess.TimeoutExpired:
                error = "timeout after %.0f s" % timeout
        if out and (out["count"] != n or out["digest"] != self.expected[n]):
            out, error = None, "prefix of %d primes differs from the oracle" % n
        if out:
            out["spawn"] = start
            span.update((k, out[k]) for k in ("wall_ns", "rss_growth_kib") if k in out)
            if "ready" in out:
                span["setup_s"] = out["ready"] - start
        else:
            self.failed += 1
        self.end(span, error=error)
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def timed_rounds(run, variants, n, seconds, rng):
    """Plain rounds over `variants` until `seconds` pass; one round at least.

    Returns the list of rounds, each {variant: child result or None}.
    """
    rounds = []
    deadline = run.t0 + seconds
    while not rounds or time.monotonic() < deadline:
        span = run.begin("round", "round %d" % len(rounds))
        results = {}
        for v in rng.sample(variants, len(variants)):
            run.reference(span["id"])
            results[v] = run.op("time", v, n, span["id"])
        rounds.append(results)
        run.end(span)
    return rounds


def unscaled(rounds):
    """Primes over sieving time, both summed over the run; the mean over
    variants of each variant's median RSS growth; the median set-up time."""
    ok = [out for results in rounds for out in results.values() if out is not None]
    if not ok:
        return dict.fromkeys(END_TO_END, 0.0)
    growth = {}
    for results in rounds:
        for v, out in results.items():
            if out is not None:
                growth.setdefault(v, []).append(out["rss_growth_kib"])
    return {
        "primes_per_s": sum(out["count"] for out in ok) * 1e9 / sum(out["wall_ns"] for out in ok),
        "sieve_rss_mib": statistics.fmean(map(statistics.median, growth.values())) / 1024,
        "setup_s": statistics.median(out["ready"] - out["spawn"] for out in ok),
    }


def end_to_end(run, rounds):
    """`unscaled`, with the times scaled to the reference machine."""
    metrics = unscaled(rounds)
    metrics["primes_per_s"] *= run.slowdown()
    metrics["setup_s"] /= run.slowdown()
    return metrics


def per_layer(run, variants, n, rounds, root_id):
    """The traced, counted and tracemalloc passes, one child per variant each."""
    walls = {v: _median([r[v]["wall_ns"] for r in rounds if r[v] is not None]) for v in variants}
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    raw = unscaled(rounds)
    metrics.update({"reference.start_s": statistics.median(run.ref_starts),
                    "unscaled.primes_per_s": raw["primes_per_s"], "unscaled.setup_s": raw["setup_s"]})
    for v in variants:
        ok = [r[v] for r in rounds if r[v] is not None]
        if ok:
            metrics["variant.%s.primes_per_s" % v] = n * 1e9 / walls[v] * run.slowdown()
            metrics["variant.%s.sieve_rss_mib" % v] = _median([o["rss_growth_kib"] for o in ok]) / 1024

    traced = [out for out in (run.op("trace", v, n, root_id) for v in variants) if out is not None]
    untraced_ns = sum(out["untraced_ns"] for out in traced)
    primes = n * len(variants)
    if traced and untraced_ns:
        for layer in LAYERS:
            resumes = sum(out["layers"].get(layer, {"resumes": 0})["resumes"] for out in traced)
            self_ns = sum(out["layers"].get(layer, {"self_ns": 0})["self_ns"] for out in traced)
            count, per = ("calls_per_prime", "ns_per_call") if layer == "pq.heap" else (
                "resumes_per_prime", "ns_per_resume")
            metrics[layer + ".self_share"] = self_ns / untraced_ns
            metrics["%s.%s" % (layer, count)] = resumes / primes
            metrics["%s.%s" % (layer, per)] = self_ns / resumes if resumes else 0.0
        traced_ns = sum(out["wall_ns"] for out in traced)
        calibrated_ns = sum(out["calibrated_ns"] for out in traced)
        metrics["trace.overhead"] = traced_ns / untraced_ns
        metrics["trace.cost_scale"] = (traced_ns - untraced_ns) / calibrated_ns if calibrated_ns else 0.0
        metrics["trace.resume_cost_ns"] = _median(
            [out["cost"]["resume_in"] + out["cost"]["resume_out"] for out in traced])

    aux_n = n >> AUX_SHIFT
    counted = [out for out in (run.op("counters", v, aux_n, root_id) for v in variants) if out is not None]
    if counted:
        distinct = sum(out["distinct"] for out in counted)
        metrics["counters.generated_per_composite"] = (
            sum(out["composites"] for out in counted) / distinct if distinct else 0.0)
        metrics["counters.comparisons_per_prime"] = (
            sum(out["comparisons"] for out in counted) / (aux_n * len(counted)))
        metrics["counters.peak_buffer"] = max(out["peak_buffer"] for out in counted)
        metrics["counters.pq_size"] = max(out["pq_size"] for out in counted)

    traced_mem = [out for out in (run.op("mem", v, aux_n, root_id) for v in variants) if out is not None]
    if traced_mem:
        for name in child.MEM_FILES:
            metrics["mem.%s_mib" % name] = statistics.fmean(
                out["live_bytes"][name] for out in traced_mem) / MIB
        metrics["mem.traced_peak_mib"] = statistics.fmean(out["peak_bytes"] for out in traced_mem) / MIB
    return metrics


def check_variants(primegen, variants):
    """Refuse a workload naming a variant `primegen` no longer has."""
    unknown = [v for v in variants if ":" not in v and v not in primegen.ALL_VARIANTS]
    if unknown:
        raise SystemExit("unknown variants %s; primegen has %s" % (
            ", ".join(unknown), ", ".join(sorted(primegen.ALL_VARIANTS))))


def run(workload, seed, seconds, trace, variants=None, n=None, out_dir=OUT_DIR):
    """One benchmark run; returns the result object printed as the last line.

    `variants` and `n` default to the workload's variants and the seeded
    prefix length; the benchmark's tests override them.
    """
    primegen = child.load_primegen()
    from primegen import oracle

    variants = tuple(variants or WORKLOADS[workload])
    check_variants(primegen, variants)
    rng = random.Random(seed)
    jitter = rng.randrange(N_JITTER)
    n = n or N_BASE + jitter
    primes = array("q", oracle.first_primes(n))
    expected = {n: child.digest(primes), n >> AUX_SHIFT: child.digest(primes[: n >> AUX_SHIFT])}

    run_ = Run(expected)
    rounds = timed_rounds(run_, variants, n, seconds, rng)
    if trace:
        span = run_.begin("passes", "trace, counters, mem")
        metrics = per_layer(run_, variants, n, rounds, span["id"])
        run_.end(span)
    else:
        metrics = end_to_end(run_, rounds)
    units = PER_LAYER if trace else END_TO_END
    run_.write_spans(Path(out_dir) / ("%s-seed%d-trace%d.jsonl" % (workload, seed, trace)))
    return {
        "correct": run_.failed == 0,
        "attempted": run_.attempted,
        "failed": run_.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except child.MissingSource as exc:
        sys.exit("sievebench: cannot benchmark this checkout: %s" % exc)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
