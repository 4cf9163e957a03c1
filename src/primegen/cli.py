"""`primegen`: generate, verify, and benchmark the sieve family.

Subcommands and the options each reads:
  nth     --algo A --n N
          print the n-th prime of one variant
  list    --algo A (--n N | --bound B)
          print the first n primes, or all primes up to a bound
  count   --algo A --bound B
          print how many primes lie at or below a bound
  stats   --algo A --bound B
          one counted run to B as a JSON line: variant, bound, n and
          nth_prime of the primes <= B, wall_ns, composites (births <= B;
          TD and NAIVE_EULER count none, so theirs read 0),
          distinct_composites, comparisons and peak_buffer
  verify  [--algo A,B,...] [--n 100000] [--bound 10000]
          run the cross-checks (variant vs oracle, wheel identities,
          erased/survivor induction, exactly-once tallies, queue shape)
  bench   [--algo A,B,...] [--exponents 14..16]
          [--format md|csv|json|paper] [--repeats 5] [--timeout 60]
          desk-scale timing table at n = 2^e for each exponent e, by
          default of every variant of the two tables, in table order,
          uncounted so that the wall times are honest
  layers  [--format md|csv|json] [--repeats 5]
          ns per element pulled into the stream kernel's merge step,
          difference step and fold, each over fixed synthetic input,
          and per key entering O'N's heap step sieving to 2^19

A variant name ending in 4 (es4, w4, ...) is the 210-wheel form.

Every option is checked and converted as it is parsed, so bad input is a
usage error before any run: variant names must be known, --n >= 1 (`list`
>= 0), `verify` --bound >= 2, --repeats >= 1, `bench` --timeout positive
and finite, and its exponents at least one, none negative.

Exit codes: 0 ok, 1 usage (or stdout closed early, as by `| head`),
2 resource/cap exceeded, 3 verification failed.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter, deque
from itertools import count, islice, takewhile
from math import gcd, inf, isqrt

from . import ALL_VARIANTS, oracle
from .pq import _queued
from .sieves import VariantCapExceeded, _erasing, _multiples
from .streams import (RunCounters, StreamError, StreamOverflow, d_union,
                      fold_union_p, s_minus, take)
from .wheels import Wheel, next_wheel1, wheel_from_primes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

#: what one row of `bench` and of `layers` holds, in order
CSV_COLUMNS = ("variant", "n", "p_n", "wall_ns")
LAYER_COLUMNS = ("layer", "elements", "ns_per_element")

#: column order of the stream-programs table, then the queue-programs table
TABLE_ORDER = ("td", "bs", "bs4", "h", "w", "es", "h4", "w4", "es4",
               "on", "wpq", "epq", "on4", "wpq4", "epq4")

EULER_VARIANTS = ("h", "w", "es", "h4", "w4", "es4", "epq", "wpq", "epq4",
                  "wpq4")


class UsageError(Exception):
    pass


class CellTimeout(Exception):
    pass


class CheckFailure(Exception):
    pass


def resolve_variant(name):
    name = name.strip().lower()
    if name not in ALL_VARIANTS:
        raise UsageError(
            "unknown variant %r (choose from %s)"
            % (name, ", ".join(sorted(ALL_VARIANTS))))
    return ALL_VARIANTS[name]


def run_to_nth(variant, n, counters=None, timeout_s=None):
    """(n-th prime, wall ns) from pulling the first n primes; cooperative
    timeout between pulls."""
    gen = variant.factory(counters=counters)
    started = time.perf_counter_ns()
    deadline = None if timeout_s is None else started + int(timeout_s * 1e9)
    got, value = 0, None
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
    return value, time.perf_counter_ns() - started


def primes_up_to_bound(variant, bound, counters=None):
    """All primes <= bound from one variant. The run also pulls the first
    prime past the bound, so `counters` count the work up to it."""
    return list(takewhile(bound.__ge__, variant.factory(counters=counters)))


def paper_time(ns):
    """minute'second^tenth, the compact table format (91.3s -> 1'31^3)."""
    tenths = round(ns / 1e8)
    minutes, rest = divmod(tenths, 600)
    seconds, tenth = divmod(rest, 10)
    if minutes:
        return "%d'%02d^%d" % (minutes, seconds, tenth)
    return "%d^%d" % (seconds, tenth)


def median_wall(run, repeats):
    """(last value, median wall ns) of `repeats` calls of `run()`, each
    returning (value, wall ns), after one warm-up call."""
    run()
    values, walls = zip(*(run() for _ in range(repeats)))
    return values[-1], statistics.median(walls)


def format_rows(fmt, columns, doc, key):
    """`doc[key]`, rows of `columns`, as csv under a header line; or, for
    json, `doc` with those rows as objects."""
    rows = doc[key]
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n"
                       for row in [columns, *rows])
    return json.dumps({**doc, key: [dict(zip(columns, row)) for row in rows]},
                      indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def tallied_run(variant, bound):
    """(primes <= bound, wall ns, counters, {composite <= bound: times
    generated}) from one run counted with a composite tally."""
    counters = RunCounters(tally=Counter())
    started = time.perf_counter_ns()
    primes = primes_up_to_bound(variant, bound, counters)
    wall = time.perf_counter_ns() - started
    return primes, wall, counters, {v: c for v, c in counters.tally.items()
                                    if v <= bound}


def cmd_nth(args):
    print(run_to_nth(args.algo, args.n)[0])
    return EXIT_OK


def cmd_list(args):
    if args.n is None and args.bound is None:
        raise UsageError("list needs --n or --bound")
    if args.n is not None and args.bound is not None:
        raise UsageError("list takes --n or --bound, not both")
    if args.n is not None:
        values = take(args.algo.factory(), args.n)
        if len(values) < args.n:
            raise StreamError("variant ended early")
    else:
        values = primes_up_to_bound(args.algo, args.bound)
    sys.stdout.write("".join("%d\n" % v for v in values))
    return EXIT_OK


def cmd_count(args):
    print(len(primes_up_to_bound(args.algo, args.bound)))
    return EXIT_OK


def cmd_stats(args):
    primes, wall, counters, in_bound = tallied_run(args.algo, args.bound)
    record = {
        "variant": args.algo.label,
        "bound": args.bound,
        "n": len(primes),
        "nth_prime": primes[-1] if primes else None,
        "wall_ns": wall,
        "composites": sum(in_bound.values()),
        "distinct_composites": len(in_bound),
        "comparisons": counters.comparisons,
        "peak_buffer": counters.peak_buffer,
    }
    print(json.dumps(record, sort_keys=False))
    return EXIT_OK


def run_bench(variants, ns, repeats, timeout_s):
    """One warm-up plus `repeats` timed runs per (variant, n) cell: a
    `CSV_COLUMNS` row per cell, n by n and variants in the given order,
    with the median wall, or with ("", "-") if the cell timed out or hit
    a limit."""
    rows = []
    for n in ns:
        for variant in variants:
            try:
                p_n, wall = median_wall(
                    lambda: run_to_nth(variant, n, timeout_s=timeout_s),
                    repeats)
            except (CellTimeout, VariantCapExceeded, StreamOverflow,
                    RecursionError):
                rows.append((variant.label, n, "", "-"))
            else:
                rows.append((variant.label, n, p_n, int(wall)))
    return rows


def _environment():
    return "%s / Python %s" % (platform.platform(), platform.python_version())


def format_bench(rows, labels, ns, repeats, fmt):
    """`run_bench`'s rows for the variants `labels`: csv lists every cell,
    json the finished cells as rows and the others as timeouts, and md
    (or paper, with cells as minute'second^tenth) pivots them into one line
    per n, shaped like the results tables."""
    env = _environment()
    if fmt in ("csv", "json"):
        return format_rows(fmt, CSV_COLUMNS, {
            "environment": env, "repeats": repeats,
            "rows": [row for row in rows if fmt == "csv" or row[3] != "-"],
            "timeouts": [list(row[:2]) for row in rows if row[3] == "-"]},
            "rows")
    show = paper_time if fmt == "paper" else (lambda w: "%.1f" % (w / 1e6))
    cells = iter(["-" if wall == "-" else show(wall) for *_, wall in rows])
    head = ["n", *labels]
    lines = ["<!-- %s; median of %d runs, ms%s -->"
             % (env, repeats, " (paper format)" if fmt == "paper" else ""),
             "| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    lines += ["| %d | %s |" % (n, " | ".join(islice(cells, len(labels))))
              for n in ns]
    return "\n".join(lines) + "\n"


def cmd_bench(args):
    # table order first, then the other variants as given
    rank = {name: i for i, name in enumerate(TABLE_ORDER)}
    variants = sorted(args.algo, key=lambda v: rank.get(v.name, len(rank)))
    ns = [1 << e for e in args.exponents]
    rows = run_bench(variants, ns, args.repeats, args.timeout)
    sys.stdout.write(format_bench(rows, [v.label for v in variants], ns,
                                  args.repeats, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# layer benchmark

_LAYER_N = 1 << 16
_FOLD_LEVELS = 64
_HEAP_BOUND = 1 << 19

#: each kernel layer over fixed input: `make(counters)` builds a fresh
#: stream, and its elements are those the named counter counts: for the
#: stream layers `comparisons`, one per element pulled into a merge or
#: difference loop, for the heap `composites`, one per key entering it
LAYERS = (
    ("merge", "comparisons", lambda c: d_union(
        range(0, 2 * _LAYER_N, 2), range(1, 2 * _LAYER_N, 2), c)),
    ("difference", "comparisons", lambda c: s_minus(
        range(2 * _LAYER_N), range(0, 2 * _LAYER_N, 2), c)),
    # the residues mod k as k levels: an element of the i-th crosses about
    # 2*log2(i) fold nodes, and each crossing counts
    ("fold", "comparisons", lambda c: fold_union_p(
        (iter(range(i, _LAYER_N, _FOLD_LEVELS))
         for i in range(_FOLD_LEVELS, 2 * _FOLD_LEVELS)), True, c)),
    # O'N's queue driver over count(2), Bird's levels keyed by the oracle's
    # primes from 3 up to twice the bound's root, past the first prime whose
    # square the bound never reaches
    ("heap", "composites", lambda c: takewhile(_HEAP_BOUND.__gt__, _queued(
        count(2), iter(oracle.primes_up_to(2 * isqrt(_HEAP_BOUND))[1:]),
        _multiples(False), c))),
)


def cmd_layers(args):
    sys.stdout.write(format_layers(run_layers(args.repeats), args.format))
    return EXIT_OK


def run_layers(repeats):
    """`LAYER_COLUMNS` rows: the median over `repeats` uninstrumented drains
    of each layer's stream, after one warm-up, over the elements one
    counted drain counts."""
    rows = []
    for name, counted, make in LAYERS:
        counters = RunCounters()
        deque(make(counters), maxlen=0)

        def drain():
            stream = make(None)
            started = time.perf_counter_ns()
            deque(stream, maxlen=0)
            return None, time.perf_counter_ns() - started

        _, wall = median_wall(drain, repeats)
        elements = getattr(counters, counted)
        rows.append((name, elements, round(wall / elements, 1)))
    return rows


def format_layers(rows, fmt):
    env = _environment()
    if fmt != "md":
        return format_rows(fmt, LAYER_COLUMNS,
                           {"environment": env, "layers": rows}, "layers")
    lines = ["<!-- %s -->" % env, "| layer | elements | ns/element |",
             "|---|---|---|"]
    lines += ["| %s | %d | %.1f |" % row for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify


def _check_variant_against_oracle(variant, n):
    limit = n if variant.cap is None else min(n, variant.cap)
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
    # ES's own levels, for as many of the first 10 primes as the bound holds
    primes = [p for p in oracle.first_primes(10) if p <= bound]
    sets = oracle.euler_sets_brute_force(len(primes), bound)
    sets.check_invariants()
    level = _erasing(False, None)
    for k, p in enumerate(primes, start=1):
        erased = list(takewhile(bound.__ge__, level(p)))
        if erased != sorted(sets.erased[k - 1]):
            raise CheckFailure("erased stream at round %d != oracle" % k)
    return "erased streams match the set induction for %d rounds" % len(primes)


def _check_single_generation(variant, bound):
    tally = tallied_run(variant, bound)[3]
    composites = oracle.composites_up_to(bound)
    if variant.wheel == 4:
        # the wheel leaves out every multiple of 2, 3, 5 and 7 up front
        composites = [v for v in composites if gcd(v, 210) == 1]
    if sorted(tally) != composites:
        raise CheckFailure("%s generated a different composite set up to %d"
                           % (variant.label, bound))
    bad = [v for v, c in tally.items() if c != 1]
    if bad:
        raise CheckFailure("%s generated %d twice" % (variant.label, min(bad)))
    return "%d %scomposites up to %d, each generated exactly once" % (
        len(composites), "210-coprime " if variant.wheel == 4 else "", bound)


def _check_pq_shape(variant, n):
    counters = RunCounters()
    p_n, _ = run_to_nth(variant, n, counters=counters)
    # one entry per base prime whose square the candidates have reached,
    # from the first prime past the wheel's
    first = 11 if variant.wheel else 2
    expect = sum(p >= first for p in oracle.primes_up_to(isqrt(p_n)))
    if counters.pq_size != expect:
        raise CheckFailure(
            "%s queue holds %d entries after p_%d, expected %d"
            % (variant.label, counters.pq_size, n, expect))
    return "queue holds the %d primes from %d to sqrt(p_n)" % (expect, first)


def run_verify(variants, n, bound):
    checks = [("%s/oracle" % v.name,
               lambda v=v: _check_variant_against_oracle(v, n))
              for v in variants]
    checks += [("wheels", _check_wheels),
               ("euler-sets", lambda: _check_euler_sets(bound))]
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
            print("FAIL %-22s %s" % (name, exc))
        except Exception as exc:
            failures += 1
            print("FAIL %-22s crashed: %s: %s"
                  % (name, type(exc).__name__, exc))
        else:
            print("PASS %-22s %s" % (name, detail))
    return failures


def cmd_verify(args):
    failures = run_verify(args.algo, args.n, args.bound)
    if failures:
        print("%d check(s) failed" % failures, file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def checked(convert, ok, message):
    """An argparse type: `convert(text)` if `ok` holds of it, else a usage
    error; named for `convert`, as in "invalid int value: 'x'"."""
    def check(text):
        if not ok(convert(text)):
            raise UsageError(message)
        return convert(text)
    check.__name__ = convert.__name__
    return check


def at_least(low, flag):
    return checked(int, low.__le__, "%s must be >= %d" % (flag, low))


def variant_list(text):
    """A comma list of variant names as distinct `Variant`s, in order."""
    names = [s.strip().lower() for s in text.split(",")]
    if not any(names):
        raise UsageError("empty variant list")
    return [resolve_variant(name) for name in dict.fromkeys(names)]


def _parse_exponents(text):
    """Distinct exponents >= 0, in order, from "lo..hi" or a comma list."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        exponents = (range(int(lo), int(hi) + 1) if dots else
                     dict.fromkeys(map(int, filter(None, text.split(",")))))
    except ValueError:
        exponents = ()
    if min(exponents, default=-1) < 0:
        raise UsageError("bad exponent spec %r (use e.g. 14..18 or 14,16)"
                         % text)
    return list(exponents)


def build_parser():
    parser = _Parser(prog="primegen", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, variants=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if variants is None:
            p.add_argument("--algo", type=resolve_variant, required=True,
                           help="variant name")
        else:
            p.add_argument("--algo", type=variant_list, default=variants,
                           help="comma list of variant names")
        return p

    p = command("nth", cmd_nth, "print the n-th prime")
    p.add_argument("--n", type=at_least(1, "--n"), required=True)

    p = command("list", cmd_list, "print the first n primes, or up to a bound")
    p.add_argument("--n", type=at_least(0, "--n"))
    p.add_argument("--bound", type=int)

    p = command("count", cmd_count, "count primes up to a bound")
    p.add_argument("--bound", type=int, required=True)

    p = command("stats", cmd_stats, "instrumented counters as JSON")
    p.add_argument("--bound", type=int, required=True)

    p = command("verify", cmd_verify, "run the verification suite",
                variants=list(ALL_VARIANTS.values()))
    p.add_argument("--n", type=at_least(1, "--n"), default=100_000)
    p.add_argument("--bound", type=at_least(2, "--bound"), default=10_000)

    p = command("bench", cmd_bench, "desk-scale timing table",
                variants=[ALL_VARIANTS[name] for name in TABLE_ORDER])
    p.add_argument("--exponents", type=_parse_exponents, default="14..16",
                   help="powers of two to target, e.g. 16..20 or 14,18 "
                        "(default 14..16)")
    p.add_argument("--format", choices=("csv", "md", "json", "paper"),
                   default="md", help="paper: md as minute'second^tenth")
    p.add_argument("--repeats", type=at_least(1, "--repeats"), default=5)
    p.add_argument("--timeout", default=60.0, type=checked(
        float, lambda s: 0 < s < inf, "--timeout must be positive and finite"
        " (seconds)"), help="per-run cell timeout in seconds (default 60)")

    p = sub.add_parser("layers", help="kernel layer timing table")
    p.set_defaults(fn=cmd_layers)
    p.add_argument("--format", choices=("csv", "md", "json"), default="md")
    p.add_argument("--repeats", type=at_least(1, "--repeats"), default=5)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
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
    except (VariantCapExceeded, OverflowError,
            RecursionError, MemoryError, CellTimeout) as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except StreamError as exc:
        print("stream error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
