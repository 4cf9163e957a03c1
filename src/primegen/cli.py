"""`primegen`: generate, verify, and benchmark the sieve family.

Subcommands and the options each reads:
  nth     --algo A --n N
          print the n-th prime of one variant
  list    --algo A (--n N | --bound B)
          print the first n primes, or all primes up to a bound
  count   --algo A --bound B
          print how many primes lie at or below a bound
  stats   --algo A --bound B
          instrumented counters for one variant as a JSON line
  verify  [--algo A,B,...] [--n 100000] [--bound 10000]
          run the cross-checks (variant vs oracle, wheel identities,
          erased/survivor induction, exactly-once tallies, queue shape)
  bench   [--algo A,B,...] [--exponents 14..16] [--format md|csv|json]
          [--repeats 5] [--timeout 60] [--paper-format]
          desk-scale timing table at n = 2^e for each exponent e

A variant name ending in 4 (es4, w4, ...) is the 210-wheel form.

Exit codes: 0 ok, 1 usage (or stdout closed early, as by `| head`),
2 resource/cap exceeded, 3 verification failed.

Benchmark cells run uninstrumented so wall times are honest; `stats`
reports the counters.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import astuple, dataclass
from math import gcd, isqrt

from . import ALL_VARIANTS, oracle
from .sieves import VariantCapExceeded
from .streams import RunCounters, StreamError, StreamOverflow, take
from .wheels import Wheel, next_wheel1, wheel_from_primes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

CSV_COLUMNS = ("variant", "n", "p_n", "wall_ns")

#: column order of the stream-programs table and the queue-programs table
TABLE1_ORDER = ("td", "bs", "bs4", "h", "w", "es", "h4", "w4", "es4")
TABLE3_ORDER = ("on", "wpq", "epq", "on4", "wpq4", "epq4")

EULER_VARIANTS = ("h", "w", "es", "h4", "w4", "es4", "naive-w", "epq",
                  "wpq", "epq4", "wpq4")
CAPPED_LIMIT = 2_000


class UsageError(Exception):
    pass


class CellTimeout(Exception):
    pass


class CheckFailure(Exception):
    pass


@dataclass
class RunStats:
    """One measured run of one variant."""

    variant: str
    n: int
    nth_prime: int
    wall_ns: int


@dataclass
class BenchReport:
    rows: list
    timeouts: set
    environment: str
    repeats: int


def resolve_variant(name):
    name = name.strip().lower()
    if name not in ALL_VARIANTS:
        raise UsageError(
            "unknown variant %r (choose from %s)"
            % (name, ", ".join(sorted(ALL_VARIANTS))))
    return ALL_VARIANTS[name]


def run_to_nth(variant, n, counters=None, timeout_s=None):
    """Pull the first n primes; cooperative timeout between pulls."""
    if n < 1:
        raise UsageError("--n must be >= 1")
    gen = variant.factory(counters=counters)
    started = time.perf_counter_ns()
    deadline = None
    if timeout_s is not None:
        deadline = started + int(timeout_s * 1e9)
    got = 0
    value = None
    while got < n:
        chunk = min(2048, n - got)
        block = take(gen, chunk)
        if len(block) < chunk:
            raise StreamError("%s ended after %d primes" % (variant.label,
                                                            got + len(block)))
        got += chunk
        value = block[-1]
        if deadline is not None and time.perf_counter_ns() > deadline:
            raise CellTimeout(variant.name)
    wall = time.perf_counter_ns() - started
    if counters is not None:
        counters.pulls += got
    return RunStats(variant=variant.label, n=n, nth_prime=value, wall_ns=wall)


def primes_up_to_bound(variant, bound, counters=None):
    """All primes <= bound from one variant."""
    out = []
    for p in variant.factory(counters=counters):
        if p > bound:
            break
        out.append(p)
    if counters is not None:
        counters.pulls += len(out)
    return out


def paper_time(ns):
    """minute'second^tenth, the compact table format (91.3s -> 1'31^3)."""
    tenths = round(ns / 1e8)
    minutes, rest = divmod(tenths, 600)
    seconds, tenth = divmod(rest, 10)
    if minutes:
        return "%d'%02d^%d" % (minutes, seconds, tenth)
    return "%d^%d" % (seconds, tenth)


def _format_cell(ns, paper):
    if ns is None:
        return "-"
    if paper:
        return paper_time(ns)
    return "%.1f" % (ns / 1e6)


# ---------------------------------------------------------------------------
# commands


def cmd_nth(args):
    variant = resolve_variant(args.algo)
    stats = run_to_nth(variant, args.n)
    print(stats.nth_prime)
    return EXIT_OK


def cmd_list(args):
    variant = resolve_variant(args.algo)
    if args.n is None and args.bound is None:
        raise UsageError("list needs --n or --bound")
    if args.n is not None and args.bound is not None:
        raise UsageError("list takes --n or --bound, not both")
    if args.n is not None:
        if args.n < 0:
            raise UsageError("--n must be >= 0")
        values = take(variant.factory(), args.n)
        if len(values) < args.n:
            raise StreamError("variant ended early")
    else:
        values = primes_up_to_bound(variant, args.bound)
    sys.stdout.write("\n".join(map(str, values)))
    if values:
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_count(args):
    variant = resolve_variant(args.algo)
    print(len(primes_up_to_bound(variant, args.bound)))
    return EXIT_OK


def cmd_stats(args):
    variant = resolve_variant(args.algo)
    counters = RunCounters.with_tally()
    started = time.perf_counter_ns()
    primes = primes_up_to_bound(variant, args.bound, counters)
    wall = time.perf_counter_ns() - started
    in_bound = {v: c for v, c in counters.tally.items() if v <= args.bound}
    record = {
        "variant": variant.label,
        "bound": args.bound,
        "n": len(primes),
        "nth_prime": primes[-1] if primes else None,
        "wall_ns": wall,
        "composites": sum(in_bound.values()),
        "distinct_composites": len(in_bound),
        "comparisons": counters.comparisons,
        "pulls": counters.pulls,
        "peak_buffer": counters.peak_buffer,
    }
    print(json.dumps(record, sort_keys=False))
    return EXIT_OK


def _parse_exponents(text):
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError
            exponents = list(range(lo, hi + 1))
        else:
            exponents = [int(part) for part in text.split(",") if part]
        if min(exponents, default=0) < 0:
            raise ValueError
        return exponents
    except ValueError:
        raise UsageError("bad exponent spec %r (use e.g. 14..18 or 14,16)"
                         % text) from None


def _variant_list(args, default):
    if args.algo is None:
        names = list(default)
    else:
        names = [s.strip().lower() for s in args.algo.split(",")]
        if not any(names):
            raise UsageError("empty variant list")
    return [resolve_variant(name) for name in names]


def run_bench(variants, ns, repeats, timeout_s):
    """One warm-up plus `repeats` timed runs per (variant, n) cell."""
    rows = []
    timeouts = set()

    def run_cell(variant, n):
        walls = []
        for attempt in range(repeats + 1):
            try:
                stats = run_to_nth(variant, n, timeout_s=timeout_s)
            except (CellTimeout, VariantCapExceeded, StreamOverflow,
                    RecursionError):
                timeouts.add((variant.name, n))
                return None
            if attempt:           # first run is the warm-up
                walls.append(stats.wall_ns)
        median = int(statistics.median(walls))
        return RunStats(variant=variant.label, n=n,
                        nth_prime=stats.nth_prime, wall_ns=median)

    for variant in variants:
        for n in ns:
            cell = run_cell(variant, n)
            if cell is not None:
                rows.append(cell)
    env = "%s / Python %s" % (platform.platform(), platform.python_version())
    return BenchReport(rows=rows, timeouts=timeouts, environment=env,
                       repeats=repeats)


def _bench_order(variants):
    order = [*TABLE1_ORDER, *TABLE3_ORDER]
    extra = [v.name for v in variants if v.name not in order]
    ranked = [name for name in order if name in {v.name for v in variants}]
    return ranked + extra


def format_bench(report, variants, ns, fmt, paper=False):
    by_cell = {(r.variant, r.n): r for r in report.rows}
    names = _bench_order(variants)
    labels = {v.name: v.label for v in variants}
    if fmt == "json":
        payload = {
            "environment": report.environment,
            "repeats": report.repeats,
            "rows": [dict(zip(CSV_COLUMNS, astuple(r))) for r in report.rows],
            "timeouts": sorted(list(t) for t in report.timeouts),
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for n in ns:
            for name in names:
                row = by_cell.get((labels[name], n))
                if row is None:
                    lines.append("%s,%d,,-" % (labels[name], n))
                else:
                    lines.append(",".join(str(c) for c in astuple(row)))
        return "\n".join(lines) + "\n"
    # markdown pivot shaped like the results tables
    head = ["n"] + [labels[name] for name in names]
    lines = ["<!-- %s; median of %d runs, ms%s -->"
             % (report.environment, report.repeats,
                " (paper format)" if paper else "")]
    lines.append("| " + " | ".join(head) + " |")
    lines.append("|" + "---|" * len(head))
    for n in ns:
        cells = [str(n)]
        for name in names:
            row = by_cell.get((labels[name], n))
            cells.append(_format_cell(None if row is None else row.wall_ns,
                                      paper))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def cmd_bench(args):
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    variants = _variant_list(args, default=[*TABLE1_ORDER, *TABLE3_ORDER])
    ns = [1 << e for e in _parse_exponents(args.exponents)]
    report = run_bench(variants, ns, repeats=args.repeats,
                       timeout_s=args.timeout)
    sys.stdout.write(format_bench(report, variants, ns, args.format,
                                  paper=args.paper_format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check_variant_against_oracle(variant, n):
    limit = n if variant.cap is None else min(n, CAPPED_LIMIT)
    expected = oracle.first_primes(limit)
    got = take(variant.factory(), limit)
    if got != expected:
        for i, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                raise CheckFailure(
                    "%s diverges from the oracle at index %d: %d != %d"
                    % (variant.label, i, a, b))
        raise CheckFailure("%s produced %d primes, wanted %d"
                           % (variant.label, len(got), limit))
    return "first %d primes match the oracle" % limit


def _check_wheels():
    primes = oracle.first_primes(9)
    w = Wheel((1,), 0)
    for k in range(1, 8):
        w = next_wheel1(w, primes[k - 1])
        scratch = wheel_from_primes(primes[:k], primes[k])
        if w.deltas != scratch.deltas:
            raise CheckFailure("incremental w_%d != from-scratch wheel" % k)
        if sum(w.deltas) != oracle.primorial(k):
            raise CheckFailure("sum(w_%d) is not the %d-th primorial" % (k, k))
        if len(w.deltas) != oracle.totient(oracle.primorial(k)):
            raise CheckFailure("len(w_%d) is not phi(primorial)" % k)
    return "incremental = from-scratch for w_1..w_7, sums and lengths agree"


def _check_euler_sets(bound):
    from .sieves import _erasing

    # ES's own levels, for as many of the first 10 primes as the bound holds
    primes = [p for p in oracle.first_primes(10) if p <= bound]
    level = _erasing(False, None)
    for k, p in enumerate(primes, start=1):
        erased = level(p)
        sets = oracle.euler_sets_brute_force(k, bound)
        sets.check_invariants()
        want = sorted(sets.erased[k - 1])
        got = []
        for v in erased:
            if v > bound:
                break
            got.append(v)
        if got != want:
            raise CheckFailure("erased stream at round %d != oracle" % k)
    return "erased streams match the set induction for %d rounds" % len(primes)


def _check_single_generation(variant, bound):
    counters = RunCounters.with_tally()
    primes_up_to_bound(variant, bound, counters)
    composites = oracle.composites_up_to(bound)
    if variant.wheel == 4:
        # the wheel leaves out every multiple of 2, 3, 5 and 7 up front
        composites = [v for v in composites if gcd(v, 210) == 1]
    tally = {v: c for v, c in counters.tally.items() if v <= bound}
    if sorted(tally) != composites:
        raise CheckFailure("%s generated a different composite set below %d"
                           % (variant.label, bound))
    bad = [v for v, c in tally.items() if c != 1]
    if bad:
        raise CheckFailure("%s generated %d twice" % (variant.label, min(bad)))
    return "every %scomposite below %d generated exactly once" % (
        "210-coprime " if variant.wheel == 4 else "", bound)


def _check_pq_shape(variant, n):
    counters = RunCounters()
    stats = run_to_nth(variant, n, counters=counters)
    expect = len(oracle.primes_up_to(isqrt(stats.nth_prime)))
    if variant.wheel:
        expect -= 4
    if abs(counters.pq_size - expect) > 1:
        raise CheckFailure(
            "%s queue holds %d entries after p_%d, expected about %d"
            % (variant.label, counters.pq_size, n, expect))
    if counters.pop_inversions:
        raise CheckFailure("%s popped keys out of order" % variant.label)
    return "queue size %d ~ pi(sqrt(p_n)) and pops weakly increasing" % (
        counters.pq_size)


def run_verify(variants, n, bound, out=None):
    out = out or sys.stdout
    checks = []
    for variant in variants:
        checks.append(("%s/oracle" % variant.name,
                       lambda v=variant: _check_variant_against_oracle(v, n)))
    checks.append(("wheels", _check_wheels))
    checks.append(("euler-sets", lambda: _check_euler_sets(bound)))
    for variant in variants:
        if variant.name in EULER_VARIANTS:
            checks.append(
                ("%s/exactly-once" % variant.name,
                 lambda v=variant: _check_single_generation(v, bound)))
        if variant.family == "pq":
            checks.append(("%s/queue" % variant.name,
                           lambda v=variant: _check_pq_shape(v, min(n, 10_000))))
    failures = 0
    for name, check in checks:
        try:
            detail = check()
        except CheckFailure as exc:
            failures += 1
            out.write("FAIL %-22s %s\n" % (name, exc))
        except Exception as exc:
            failures += 1
            out.write("FAIL %-22s crashed: %s: %s\n"
                      % (name, type(exc).__name__, exc))
        else:
            out.write("PASS %-22s %s\n" % (name, detail))
    return failures


def cmd_verify(args):
    variants = _variant_list(args, default=list(ALL_VARIANTS))
    failures = run_verify(variants, args.n, args.bound)
    if failures:
        print("%d check(s) failed" % failures, file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="primegen", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, algo_list=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if algo_list:
            p.add_argument("--algo", help="comma list of variant names")
        else:
            p.add_argument("--algo", required=True, help="variant name")
        return p

    p = command("nth", cmd_nth, "print the n-th prime")
    p.add_argument("--n", type=int, required=True)

    p = command("list", cmd_list, "print the first n primes, or up to a bound")
    p.add_argument("--n", type=int)
    p.add_argument("--bound", type=int)

    p = command("count", cmd_count, "count primes up to a bound")
    p.add_argument("--bound", type=int, required=True)

    p = command("stats", cmd_stats, "instrumented counters as JSON")
    p.add_argument("--bound", type=int, required=True)

    p = command("verify", cmd_verify, "run the verification suite",
                algo_list=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--bound", type=int, default=10_000)

    p = command("bench", cmd_bench, "desk-scale timing table", algo_list=True)
    p.add_argument("--exponents", default="14..16",
                   help="powers of two to target, e.g. 16..20 or 14,18")
    p.add_argument("--format", choices=("csv", "md", "json"), default="md")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-run cell timeout in seconds")
    p.add_argument("--paper-format", action="store_true",
                   help="print cells as minute'second^tenth")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at shutdown has nowhere to fail (see the SIGPIPE note in the
        # `signal` module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (VariantCapExceeded, StreamOverflow, OverflowError,
            RecursionError, MemoryError, CellTimeout) as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except StreamError as exc:
        print("stream error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
