"""Stream-based prime generators.

Every constructor returns an iterator over the (identical) prime sequence;
they differ only in how the composites being crossed off are generated:

  trial_division   divisibility tests against earlier primes (baseline)
  naive_euler      nested stream complementations (memory explodes)
  bird_sieve       candidates minus a union of multiples streams; each
                   composite appears once per distinct prime factor
  wheel_euler      Euler crossing-off with incrementally grown wheels
  es_euler         Euler crossing-off by the erased/survivor induction
  primes_h         Euler crossing-off via Hamming-number recursion

The *_w4 forms mount the precomputed 210-wheel (`wheels.mount`): they
yield 2, 3, 5, 7 and 11 up front, sieve s_4 and skip the first four
crossing-off rounds. All variants share one stream kernel and one optional
instrumentation, so measured differences reflect structure, not plumbing.

The fold sieves (bird, W and ES) run on one driver,
`_folded`, as the queue sieves run on `pq._postponed`. Both take the same
contract: `level(p)` returns base prime p's composites from p*p on, and is
called once per base prime in increasing order; a level that needs state
across primes closes over it (W's `WheelChain`, ES's survivors). `_folded`
merges the levels with `fold_union_p`, disjoint for the Euler forms, and
takes them from the candidates with `s_minus`: each lies among them. The
fold is a skewed tree (see `fold_union_p`): a composite from the k-th level
crosses about 2*log2(k) merge frames, not the k of a linear fold, so no fold
sieve raises the recursion limit. A level is built only once the composites
pass the head of the level built last, so the fold holds at most
pi(sqrt(v)) + 1 levels when it reaches v. The base primes come from a
second, uncounted instance of the same sieve, which only has to reach the
square root of the outer candidates (the "double primes feed",
https://wiki.haskell.org/Prime_numbers): no prime memo is kept.

Only H ties sharing knots (`fix_stream`), two of them: its primes and its
composites C. Its level for x reads the primes up to v/x, half the range
when x = 2, so an inner instance would redo most of the outer one's work.
H takes its one reader of the prime knot before its first prime goes out,
past the mounted primes but the last, which keeps its composites inside
the candidates; the Hamming levels split that reader with `tee`. C is one
more knot, a tree fold of the levels, each reading C back through a gcd
filter (see `hamming`), so H too leaves the recursion limit alone. No
sieve raises it: `naive_euler`, which nests a frame per prime, is capped
below it instead.

Each family defines its level once, for its fold and its queue form
(`pq`): Bird's and O'Neill's `_multiples`, W's and WPQ's `_rolling`, and
ES's and EPQ's `_erasing`, one survivor induction (`es_step`). Level p of
`_erasing` reads the earlier levels' survivors only up to v/p, behind the
reader that feeds the next level, so a pull seldom crosses more than a
few of the nested differences, and neither driver raises the recursion
limit for them. Each level tees the survivors it reads, apart from the
first two: the first level's three readers mount the candidates afresh,
and the second's re-derive the first level's survivors, so neither holds
a window of them. `_folded` and `pq._postponed` bound what they emit
(`bounded`), not the levels.
"""

from dataclasses import dataclass
from itertools import accumulate, chain, count, cycle, islice, repeat, tee
from operator import mul

from .hamming import composites_of_primes
from .streams import (
    StreamError,
    births,
    bounded,
    fix_stream,
    fold_union_p,
    minus,
    s_minus,
    scaled,
)
from .wheels import WheelChain, mount, s4_gaps, wheel4

# `naive_euler` nests one frame per prime, two when counted: at the default
# recursion limit of 1,000, its chain reaches 997 primes, or 499 counted
# (CPython 3.11), so this cap leaves the caller 200 frames or more
NAIVE_EULER_CAP = 400


class VariantCapExceeded(StreamError):
    """A deliberately capped variant was pulled past its configured cap."""


def trial_division(counters=None):
    """Primes by trial division against prior primes up to the square root."""
    yield 2
    found = []
    append = found.append
    for n in count(3, 2):
        for p in found:
            if p * p > n:
                append(n)
                yield n
                break
            if n % p == 0:
                break
        else:
            append(n)
            yield n


def naive_euler(cap=NAIVE_EULER_CAP, counters=None):
    """Nested stream complementations: survivors minus p times survivors.

    Each round stacks another `minus` filter, so both time and retained
    memory blow up, and pulls are capped: asking for prime cap+1 raises
    `VariantCapExceeded`. A pull crosses the whole filter chain, one
    stack frame per discovered prime (each round's `minus`; its `scaled`
    reads back what that `minus` has already pulled), and one more with
    `counters`, which count what each `minus` pulls. The default cap keeps
    the chain under the default recursion limit, which it leaves alone.
    """
    cs = count(2)
    for _ in range(cap):
        a, b = tee(cs)
        # endless: every round leaves the primes past p in the stream
        p = next(a)
        yield p
        cs = minus(a, scaled(p, b), counters)
    raise VariantCapExceeded("naive_euler is capped at %d primes" % cap)


def _folded(w4, level, disjoint, counters, sieve):
    """The mounted candidates minus the union of `level(p)` over the base
    primes p from the last mounted one, fed by the uncounted `sieve()`."""
    mounted, _, cand = mount(w4)
    next(cand)  # the last mounted prime, put out with the mounted ones
    levels = (births(level(p), counters)
              for p in _feed(sieve, len(mounted) - 1))
    sifted = s_minus(cand, fold_union_p(levels, disjoint, counters), counters)
    return chain(mounted, bounded(sifted))


def _feed(sieve, start):
    # the base primes from index `start` of an instance made on the first pull
    yield from islice(sieve(), start, None)


def bird_sieve(counters=None):
    """Candidates minus the union of every prime's multiples stream."""
    return _folded(False, _multiples(False), False, counters, bird_sieve)


def bird_sieve_w4(counters=None):
    """Bird's sieve on the 210-wheel: multiples of p start at p*p and step
    through the coprime survivors, so the first four Euler rounds come for
    free and composites with a factor below 11 are never formed."""
    return _folded(True, _multiples(True), False, counters, bird_sieve_w4)


def _multiples(w4):
    # Bird's and O'Neill's level: p's multiples from p*p, on the wheel p
    # times the survivors from p, summed in C over one int per gap size
    if not w4:
        return lambda p: count(p * p, p)
    sizes = set(wheel4().deltas)

    def level(p):
        step = {d: p * d for d in sizes}
        return accumulate(cycle([step[d] for d in s4_gaps(p)]), initial=p * p)

    return level


def wheel_euler(counters=None):
    """Euler's sieve driven by incrementally grown wheels (sieve W)."""
    return _folded(False, _rolling(False, counters), True, counters,
                   wheel_euler)


def wheel_euler_w4(counters=None):
    """Sieve W started from (w_4, s_4), skipping its first four rounds."""
    return _folded(True, _rolling(True, counters), True, counters,
                   wheel_euler_w4)


def _rolling(w4, counters):
    # W's level: p*p plus the running sums of the current wheel's gaps,
    # scaled by p
    turn = WheelChain(mount(w4)[1], counters).turn
    return lambda p: accumulate(map(mul, repeat(p), turn(p)), initial=p * p)


def es_euler(counters=None):
    """Euler's sieve by the erased/survivor induction (sieve ES)."""
    return _folded(False, _erasing(False, counters), True, counters, es_euler)


def es_euler_w4(counters=None):
    """Sieve ES with candidates and survivors seeded from s_4."""
    return _folded(True, _erasing(True, counters), True, counters,
                   es_euler_w4)


def _erasing(w4, counters):
    """ES's level: p times the survivors of the levels before it.

    The first level's survivors are the candidates themselves, mounted
    afresh for each of its readers, and the second level's are the first
    level's difference, re-run for each of its readers (`_rederived`), so
    neither level holds a `tee` window. The first would hold every
    candidate between the filter's reader, near v/6 on the bare form, and
    the erased set's, near v/2; the second every odd number from about
    v/15 to v/3. Of the second level's readers only the erased one, the
    furthest ahead, counts its re-run, so `counters` see the pulls a `tee`
    would make. Each later level tees the survivors it reads.
    """
    survivors = None

    def level(p):
        nonlocal survivors
        if survivors is None:
            candidates = _Reiterable(lambda: mount(w4)[2])
            erased, survivors = _rederived(p, candidates, counters)
        else:
            erased, survivors = es_step(p, survivors, counters)
        return erased

    return level


def _rederived(p, candidates, counters):
    # `es_step` over re-iterable candidates, with re-iterable survivors: the
    # first `iter()` of them is the counted copy, and each later one re-runs
    # the difference uncounted
    erased, counted = es_step(p, candidates, counters)
    copies = chain([counted], iter(lambda: es_step(p, candidates)[1], None))
    return erased, _Reiterable(copies.__next__)


class _Reiterable:
    # a re-iterable stream: each `iter()` returns a fresh copy, `fresh()`
    __slots__ = ("fresh",)

    def __init__(self, fresh):
        self.fresh = fresh

    def __iter__(self):
        return self.fresh()


def es_step(p, survivors, counters=None):
    """One induction level: the erased set and the next survivor stream.

    Consuming prime p_k with `survivors` generating the previous round's
    leftovers from p_k on, returns (p_k times the survivors, the leftovers
    past p_k with that erased set removed). Three readers of the survivors
    feed both: the filter scales its own copy again rather than share the
    erased stream. From an iterator they are one three-reader `tee`, which
    holds only survivor ints that already exist, over one window, where a
    tee of the products would hold fresh product ints as well. From a
    re-iterable, such as ES's candidates or its first level's survivors,
    each reader is its own `iter()`, taken erased reader first, and nothing
    is held. The erased reader runs furthest ahead: it reaches v/p_k, the
    other two at most v/p_{k+1}. So when only its copy is counted, as in
    ES's first level's survivors, `counters` see what a tee would pull.
    """
    src = iter(survivors)
    if src is survivors:
        src, fil, nxt = tee(survivors, 3)
    else:
        fil, nxt = iter(survivors), iter(survivors)
    if next(nxt, None) is None:
        raise StreamError("cannot erase from an empty survivor stream")
    return scaled(p, src), s_minus(nxt, scaled(p, fil), counters)


def primes_h(counters=None):
    """Euler's sieve via the Hamming-number recursion (sieve H)."""
    return _knotted(False, counters)


def primes_h4(counters=None):
    """Sieve H over the prime suffix from 11, sieving s_4."""
    return _knotted(True, counters)


def _knotted(w4, counters):
    # H's knot: the candidates minus the composites of its own primes
    mounted, _, cand = mount(w4)

    def knot(h):
        primes = h.reader(len(mounted) - 1)
        yield from mounted
        next(cand)  # the last mounted prime, already out
        comp = composites_of_primes(primes, counters)
        yield from s_minus(cand, comp, counters)

    return fix_stream(knot, counters)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Variant:
    """A named prime generator: `factory(counters=None)` -> iterator."""

    name: str
    label: str
    family: str
    wheel: int
    factory: object
    cap: int = None


STREAM_VARIANTS = {
    v.name: v
    for v in (
        Variant("td", "TD", "stream", 0, trial_division),
        Variant("naive-euler", "NAIVE_EULER", "stream", 0, naive_euler,
                NAIVE_EULER_CAP),
        Variant("bs", "BS", "stream", 0, bird_sieve),
        Variant("bs4", "BS4", "stream", 4, bird_sieve_w4),
        Variant("h", "H", "stream", 0, primes_h),
        Variant("h4", "H4", "stream", 4, primes_h4),
        Variant("w", "W", "stream", 0, wheel_euler),
        Variant("w4", "W4", "stream", 4, wheel_euler_w4),
        Variant("es", "ES", "stream", 0, es_euler),
        Variant("es4", "ES4", "stream", 4, es_euler_w4),
    )
}
