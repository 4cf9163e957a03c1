"""Stream-based prime generators.

Every constructor returns an iterator over the (identical) prime sequence;
they differ only in how the composites being crossed off are generated:

  trial_division   divisibility tests against earlier primes (baseline)
  turner_sieve     nested remainder filters (the "unfaithful" sieve)
  naive_euler      nested stream complementations (memory explodes)
  bird_sieve       candidates minus a union of multiples streams; each
                   composite appears once per distinct prime factor
  naive_wheel_euler  Euler crossing-off with every wheel re-derived by
                   trial division (pedagogical)
  wheel_euler      Euler crossing-off with incrementally grown wheels
  es_euler         Euler crossing-off by the erased/survivor induction
  primes_h         Euler crossing-off via Hamming-number recursion

The *_w4 forms mount the precomputed 210-wheel: candidates start at s_4
and the first four crossing-off rounds are skipped, which for the Hamming
and survivor forms is also what keeps the subset precondition of
`s_minus` intact. All variants share the same stream kernel and the same
optional instrumentation so measured differences reflect structure, not
plumbing.

The fold sieves (bird, wheel, ES and naive wheel) read their base primes
from a second, uncounted instance of the same sieve, created on the first
pull, as the queue sieves in `pq` do (the "double primes feed" of the
postponed sieve, https://wiki.haskell.org/Prime_numbers). It only has to
reach the square root of the outer candidates, so no prime memo is kept.
Only `primes_h`/`primes_h4` tie a sharing knot (`fix_stream`): H's level
for x reads the primes up to v/x, half the range when x = 2, so an inner
instance would redo most of the outer one's work. H takes its one reader
of that knot before its first prime goes out; the Hamming levels split
that reader with `tee`, one copy per level, and every level is a knot of
its own (see `hamming`). W and W4 grow their wheels in one `WheelChain`
per instance (see `wheels`).
"""

from dataclasses import dataclass
from itertools import count, islice, tee

from .hamming import composites_of_primes
from .streams import (
    StreamError,
    births,
    count_from,
    ensure_recursion_room,
    fix_stream,
    fold_union_p,
    minus,
    s_minus,
    scaled,
    spin,
)
from .wheels import WheelChain, coprime_gaps, s4_stream, wheel4

DEFAULT_CAP = 10_000


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


def turner_sieve(cap=DEFAULT_CAP, counters=None):
    """Nested remainder filters; every candidate runs the whole gauntlet.

    (More than) quadratic in practice, so pulls are capped: asking for
    prime cap+1 raises `VariantCapExceeded`.
    """
    filters = []
    emitted = 0
    for n in count(2):
        for p in filters:
            if n % p == 0:
                break
        else:
            if emitted >= cap:
                raise VariantCapExceeded(
                    "turner_sieve is capped at %d primes" % cap)
            emitted += 1
            filters.append(n)
            yield n


def naive_euler(cap=DEFAULT_CAP, counters=None):
    """Nested stream complementations: survivors minus p times survivors.

    Each round stacks another `minus` filter, so both time and retained
    memory blow up; capped like `turner_sieve`. The filter chain costs a
    stack frame per discovered prime on every pull, so very deep caps are
    bounded by the interpreter stack.
    """
    ensure_recursion_room(cap + 2_000)
    cs = count_from(2)
    for _ in range(cap):
        a, b = tee(cs)
        # endless: every round leaves the primes past p in the stream
        p = next(a)
        yield p
        cs = minus(a, scaled(p, b), counters)
    raise VariantCapExceeded("naive_euler is capped at %d primes" % cap)


def bird_sieve(counters=None):
    """Candidates minus the union of every prime's multiples stream."""
    levels = (
        births(scaled(p, count_from(p)), counters) for p in bird_sieve())
    yield 2
    yield from minus(
        count_from(3), fold_union_p(levels, False, counters), counters)


def bird_sieve_w4(counters=None):
    """Bird's sieve on the 210-wheel: multiples of p start at p*p and step
    through the coprime survivors, so the first four Euler rounds come for
    free and composites with a factor below 11 are never formed."""
    levels = (
        births(_coprime_multiples(p), counters)
        for p in islice(bird_sieve_w4(), 4, None))
    yield from (2, 3, 5, 7, 11)
    yield from s_minus(_ts4(), fold_union_p(levels, False, counters), counters)


def _coprime_multiples(p):
    # p * (p : S_4 past p)
    from .wheels import s4_from

    return scaled(p, s4_from(p))


def _ts4():
    cand = s4_stream()
    next(cand)  # spin yields its start first, without reading a gap
    return cand


def naive_wheel_euler(counters=None):
    """Euler's sieve with every wheel rebuilt from scratch, per prime.

    Kept as a baseline: each level re-derives its wheel by trial division
    against the primes before it; the levels share one growing prefix of
    those primes, so only the wheel is rebuilt per level.
    """
    yield 2
    comp = fold_union_p(
        _naive_wheel_levels(naive_wheel_euler(), counters), True, counters)
    yield from s_minus(count_from(3), comp, counters)


def _naive_wheel_levels(ps, counters):
    prefix = []
    for p in ps:
        # coprime_gaps reads its prefix lazily: hand it this level's copy
        gaps = coprime_gaps(tuple(prefix), p)
        yield births(scaled(p, spin(gaps, p)), counters)
        prefix.append(p)


def wheel_euler(counters=None):
    """Euler's sieve driven by incrementally grown wheels (sieve W)."""
    yield 2
    levels = _wheel_levels(wheel_euler(), WheelChain((1,), counters), counters)
    comp = fold_union_p(levels, True, counters)
    yield from s_minus(count_from(3), comp, counters)


def wheel_euler_w4(counters=None):
    """Sieve W started from (w_4, s_4), skipping its first four rounds."""
    yield from (2, 3, 5, 7, 11)
    levels = _wheel_levels(islice(wheel_euler_w4(), 4, None),
                           WheelChain(wheel4(), counters), counters)
    comp = fold_union_p(levels, True, counters)
    yield from s_minus(_ts4(), comp, counters)


def _wheel_levels(ps, wheels, counters):
    for p in ps:
        yield births(scaled(p, spin(wheels.turn(p), p)), counters)


def es_euler(counters=None):
    """Euler's sieve by the erased/survivor induction (sieve ES)."""
    yield 2
    levels = _es_levels(es_euler(), count_from(2), counters)
    comp = fold_union_p(levels, True, counters)
    yield from s_minus(count_from(3), comp, counters)


def es_euler_w4(counters=None):
    """Sieve ES with candidates and survivors seeded from s_4."""
    yield from (2, 3, 5, 7, 11)
    levels = _es_levels(islice(es_euler_w4(), 4, None), s4_stream(), counters)
    comp = fold_union_p(levels, True, counters)
    yield from s_minus(_ts4(), comp, counters)


def es_step(p, survivors, counters=None):
    """One induction level: the erased set and the next survivor stream.

    Consuming prime p_k with `survivors` generating the previous round's
    leftovers from p_k on, returns (p_k times the survivors, the leftovers
    past p_k with that erased set removed).
    """
    src, nxt = tee(survivors)
    erased_out, erased_filter = tee(scaled(p, src))
    if next(nxt, None) is None:
        raise StreamError("cannot erase from an empty survivor stream")
    return erased_out, s_minus(nxt, erased_filter, counters)


def _es_levels(ps, survivors, counters):
    for p in ps:
        erased, survivors = es_step(p, survivors, counters)
        yield births(erased, counters)


def primes_h(counters=None):
    """Euler's sieve via the Hamming-number recursion (sieve H)."""

    def knot(h):
        primes = h.reader()
        yield 2
        comp = composites_of_primes(primes, counters)
        yield from s_minus(count_from(3), comp, counters)

    return fix_stream(knot, counters)


def primes_h4(counters=None):
    """Sieve H over the prime suffix past 7, sieving s_4.

    Dropping the mounted primes from the generator list is required, not
    just faster: the composites must stay inside the candidate stream for
    `s_minus` to be sound.
    """

    def knot(h):
        primes = h.reader()
        yield from (2, 3, 5, 7, 11)
        comp = composites_of_primes(primes, counters, start=4)
        yield from s_minus(_ts4(), comp, counters)

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
        Variant("turner", "TURNER", "stream", 0, turner_sieve, DEFAULT_CAP),
        Variant("naive-euler", "NAIVE_EULER", "stream", 0, naive_euler, DEFAULT_CAP),
        Variant("bs", "BS", "stream", 0, bird_sieve),
        Variant("bs4", "BS4", "stream", 4, bird_sieve_w4),
        Variant("h", "H", "stream", 0, primes_h),
        Variant("h4", "H4", "stream", 4, primes_h4),
        Variant("naive-w", "NAIVE_W", "stream", 0, naive_wheel_euler),
        Variant("w", "W", "stream", 0, wheel_euler),
        Variant("w4", "W4", "stream", 4, wheel_euler_w4),
        Variant("es", "ES", "stream", 0, es_euler),
        Variant("es4", "ES4", "stream", 4, es_euler_w4),
    )
}
