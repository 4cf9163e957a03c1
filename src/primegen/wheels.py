"""Wheel construction: from scratch and incrementally.

A wheel w_k is the finite sequence of gaps between consecutive naturals
coprime to the first k primes; rolling it from p_{k+1} (`spin(circ(w), p)`)
enumerates every number not divisible by any of those primes. Wheels are
built either by a trial-division scan over one circumference
(`wheel_from_primes`) or incrementally from the previous wheel
(`next_wheel`): concatenate p copies of the rotated wheel, then merge the
gaps that land on multiples of p.

Eager `Wheel` values are for small k (the circumference is the primorial
and the length is its totient, both of which explode); inside sieves the
next wheel is produced lazily as a delta stream (`next_wheel_deltas`) so
only the consumed prefix is ever computed.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, islice

from .streams import (StreamError, StreamFixpoint, StreamOverflow, U64_MAX, circ,
                      replay, spin)


@dataclass(frozen=True)
class Wheel:
    """Gap sequence of w_k; `index` is k (None when built from a bare list)."""

    deltas: tuple
    index: int = None

    def __iter__(self):
        return iter(self.deltas)

    def __len__(self):
        return len(self.deltas)

    @property
    def circumference(self):
        return sum(self.deltas)


def wheel_from_primes(primes_prefix, p):
    """w_k from scratch: scan the window (p, p + primorial] for coprimes.

    `primes_prefix` must be exactly the first k primes and p the next one.
    """
    prefix = tuple(primes_prefix)
    circumference = 1
    for q in prefix:
        circumference *= q
        if circumference > U64_MAX // (p + 1):
            raise StreamOverflow(
                "wheel window for %d primes exceeds 64 bits" % len(prefix))
    deltas = []
    prev = p
    for n in range(p + 1, p + circumference + 1):
        if all(n % q for q in prefix):
            deltas.append(n - prev)
            prev = n
    return Wheel(tuple(deltas), len(prefix))


def _merge_multiple_gaps(deltas, start, p):
    """Fold together consecutive gaps whose landing point is a multiple of p.

    `deltas` is the rotated wheel repeated p times; `start` the number the
    new wheel will be rolled from. The final gap closes the circumference
    and is emitted as-is (its landing point is never a multiple of p).
    """
    it = iter(deltas)
    pos = start
    try:
        w = next(it)
    except StopIteration:
        raise StreamError("cannot merge an empty wheel") from None
    for nxt in it:
        if (pos + w) % p == 0:
            w += nxt
        else:
            yield w
            pos += w
            w = nxt
    yield w


def _rotated_copies(shared, p):
    # p copies of the wheel with its first gap moved to the end; nothing
    # at all for an empty wheel
    for _ in range(p):
        r = shared.reader()
        for head in r:
            break
        else:
            return
        yield from r
        yield head


def next_wheel_deltas(shared, p, np=None):
    """Gap stream of the next wheel, produced lazily.

    `shared` replays the deltas of w_{k-1} as rolled from p = p_k; the
    result is w_k as rolled from np = p_{k+1} (defaulting to p plus the
    first gap, which is always the next prime). Nothing is pulled from
    `shared` until the result itself is pulled: wheels deep in a sieve's
    chain stay dormant, which keeps the demand cascade shallow.
    """
    start = np
    if start is None:
        start = _FROM_HEAD
    return _next_wheel_gaps(shared, p, start)


_FROM_HEAD = object()


def _next_wheel_gaps(shared, p, start):
    if start is _FROM_HEAD:
        for head in shared.reader():
            break
        else:
            raise StreamError("cannot merge an empty wheel")
        start = p + head
    yield from _merge_multiple_gaps(_rotated_copies(shared, p), start, p)


def next_wheel(w, p, np):
    """w_k from w_{k-1} = `w`, eagerly. An empty wheel yields w_0 = [1]."""
    deltas = tuple(w)
    if not deltas:
        return Wheel((1,), 0)
    index = w.index + 1 if isinstance(w, Wheel) and w.index is not None else None
    rotated = deltas[1:] + deltas[:1]
    return Wheel(tuple(_merge_multiple_gaps(rotated * p, np, p)), index)


def next_wheel1(w, p):
    """`next_wheel` with the next prime taken as p plus the first gap."""
    deltas = tuple(w)
    if not deltas:
        raise ValueError("next_wheel1 needs a non-empty wheel")
    return next_wheel(w, p, p + deltas[0])


@lru_cache(maxsize=1)
def wheel4():
    """w_4, built once by iterating next_wheel1 from w_0."""
    w = Wheel((1,), 0)
    for p in (2, 3, 5, 7):
        w = next_wheel1(w, p)
    return w


def s4_stream():
    """s_4 = spin(circ(w_4), 11): all numbers >= 11 coprime to 2*3*5*7."""
    return spin(circ(wheel4()), 11)


def precomputed_w4():
    """(w_4, s_4) as mounted on the sieves."""
    return wheel4(), s4_stream()


@lru_cache(maxsize=1)
def _w4_offsets():
    # residue mod 210 -> index of the gap that leaves that position
    offsets = {}
    pos = 11
    for i, d in enumerate(wheel4().deltas):
        offsets[pos % 210] = i
        pos += d
    return offsets


def s4_from(value):
    """The suffix of the coprime-to-210 numbers starting at `value`.

    `value` must itself be coprime to 210; the wheel is resumed at the
    matching phase instead of being respun from 11.
    """
    try:
        i = _w4_offsets()[value % 210]
    except KeyError:
        raise ValueError("%d shares a factor with 210" % value) from None
    deltas = wheel4().deltas
    return spin(islice(cycle(deltas), i, None), value)


def coprime_gaps(primes_prefix, start):
    """Endless gap scan: trial division against `primes_prefix` from `start`.

    Semantically circ(w_k) rolled from `start`, but re-derived by scanning,
    which is what the naive wheel sieve does for every prime.
    """
    prefix = tuple(primes_prefix)
    prev = start
    n = start + 1
    while True:
        for q in prefix:
            if n % q == 0:
                break
        else:
            yield n - prev
            prev = n
        n += 1


def shared_deltas(wheel_or_iterable, counters=None):
    """Wrap a gap sequence for shared, replayable consumption in sieves."""
    if isinstance(wheel_or_iterable, StreamFixpoint):
        return wheel_or_iterable
    return replay(iter(tuple(wheel_or_iterable)), counters)


def cyc(shared):
    """circ over a shared delta stream; after the first pass it hands the
    replay to a C-level cycle, which keeps the one copy of the wheel."""
    r = shared.reader()
    got = False
    for d in r:
        got = True
        yield d
    if not got:
        raise ValueError("cannot roll an empty wheel")
    yield from cycle(shared.reader())
