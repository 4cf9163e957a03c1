"""Wheel construction: from scratch and incrementally.

A wheel w_k is the finite sequence of gaps between consecutive naturals
coprime to the first k primes; rolling it from p_{k+1} (`WheelChain.turn`)
enumerates every number not divisible by any of those primes. Wheels are
built either by a trial-division scan over one circumference
(`wheel_from_primes`) or incrementally from the previous wheel
(`next_wheel`): concatenate p copies of the rotated wheel, then merge the
gaps that land on multiples of p.

Eager `next_wheel` and a sieve instance's lazy `WheelChain` run the same
merge step. Eager `Wheel` values are for small k (the circumference is the
primorial and the length its totient, both of which explode); a chain
computes only the prefix of each wheel that is read, and holds it in an
`array('H')`, two bytes a gap. A gap of w_k read below 2^64 is at most the
largest gap between primes there, 1,550: the wheel steps between the
numbers with no prime factor up to p_k, and from p_{k+1} on, where it is
read, every prime is one of them.

`mount(w4)` is the one place a sieve learns how it is mounted: bare, or
on the precomputed 210-wheel w_4 with the candidates s_4. `s4_gaps(v)`
is one turn of w_4 from its phase at v, for the wheeled multiples of
Bird's and O'Neill's levels.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, cycle

from .streams import StreamError, StreamOverflow, U64_MAX


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


def _merge_step(src, length, p, start):
    """The gaps of the wheel left by rolling `src` past p, from `start`.

    p turns of `src` (`length` gaps each), begun at its second gap, with
    each gap that lands on a multiple of p merged into the next. While `src`
    lacks a gap the step needs, it yields None; it reads on once the gap is in.
    """
    pos = start
    w = None
    for i in range(1, p * length + 1):
        i %= length
        while len(src) <= i:
            yield None
        if w is None:
            w = src[i]
        elif (pos + w) % p:
            yield w
            pos += w
            w = src[i]
        else:
            w += src[i]
    if w is None:
        raise StreamError("cannot merge an empty wheel")
    yield w


class WheelChain:
    """The wheels of one sieve instance, each grown from the one before.

    `turn(p)`, called once per base prime in increasing order, rolls the
    current wheel from p, endlessly. Each call after the first opens the
    next wheel: the last one rolled past the prime before p. Opening
    computes nothing; a wheel's gap list grows as it is read, by one flat
    loop over the merge steps (`_grow`), so a read crosses no frame per
    earlier wheel. Each list is an `array('H')`: no gap of a sieve's wheels
    comes near 2^16 (see the module docstring), and a hand-built chain whose
    gap does raises `StreamOverflow`. Once its list is whole, a wheel rolls
    on in `cycle`, which copies it at eight bytes a gap; only whole wheels
    are copied, and they are small beside the growing ones. A turn of a
    one-gap wheel then makes no iterator. With `counters`, every gap
    entering a list, the base wheel's included, counts as buffered.
    """

    __slots__ = ("_gaps", "_steps", "_length", "_prime", "_counters")

    def __init__(self, base, counters=None):
        base = tuple(base)
        self._gaps = [array("H")]
        self._steps = [iter(base)]
        self._length = len(base)
        self._prime = None
        self._counters = counters

    def turn(self, p):
        """The current wheel's gaps, endlessly, for rolling from the prime p."""
        if self._prime is not None:
            self._steps.append(_merge_step(
                self._gaps[-1], self._length, self._prime, p))
            self._gaps.append(array("H"))
            self._length *= self._prime - 1
        self._prime = p
        return self._roll(len(self._gaps) - 1)

    def _roll(self, k):
        gaps = self._gaps[k]
        i = 0
        while i < len(gaps) or self._grow(k):
            yield gaps[i]
            i += 1
        if not gaps:
            raise StreamError("cannot roll an empty wheel")
        yield from cycle(gaps)

    def _grow(self, k):
        # Append wheel k's next gap, or return False once it is whole. A
        # step that lacks a gap of the wheel below yields None, and that
        # wheel grows first: the steps waiting are always k down to j.
        gaps, steps, counters = self._gaps, self._steps, self._counters
        j = k
        while True:
            gap = next(steps[j], 0)
            if gap is None:
                j -= 1
                continue
            if not gap:
                return False
            try:
                gaps[j].append(gap)
            except OverflowError:
                raise StreamOverflow(
                    "wheel gap %d does not fit in 16 bits" % gap) from None
            if counters is not None:
                counters.note_buffered()
            if j == k:
                return True
            j += 1


def next_wheel(w, p, np):
    """w_k from w_{k-1} = `w`, eagerly. An empty wheel yields w_0 = [1]."""
    deltas = tuple(w)
    if not deltas:
        return Wheel((1,), 0)
    index = w.index + 1 if isinstance(w, Wheel) and w.index is not None else None
    return Wheel(tuple(_merge_step(deltas, len(deltas), p, np)), index)


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
    """s_4: all numbers >= 11 coprime to 2*3*5*7, w_4 rolled from 11."""
    return accumulate(cycle(wheel4().deltas), initial=11)


def mount(w4):
    """(primes, wheel, candidates) of a sieve, bare or on the 210-wheel.

    The primes are those the sieve yields before it sieves, the wheel is
    the one its `WheelChain` starts from, and the candidates run endlessly
    from the last mounted prime on.
    """
    if w4:
        return (2, 3, 5, 7, 11), wheel4(), s4_stream()
    return (2,), (1,), count(2)


@lru_cache(maxsize=1)
def _w4_offsets():
    # residue mod 210 -> index of the gap that leaves that position
    positions = accumulate(wheel4().deltas[:-1], initial=11)
    return {pos % 210: i for i, pos in enumerate(positions)}


def s4_gaps(value):
    """One turn of w_4's gaps from `value`, which must be coprime to 210."""
    try:
        i = _w4_offsets()[value % 210]
    except KeyError:
        raise ValueError("%d shares a factor with 210" % value) from None
    deltas = wheel4().deltas
    return deltas[i:] + deltas[:i]
