"""Priority-queue sieves: the faithful incremental Eratosthenes and the
two Euler-style variants that replace its multiples generators.

All three run on one postponed driver (O'Neill, "The Genuine Sieve of
Eratosthenes", JFP 2009, with Will Ness's postponement). The queue maps
each base prime's next composite (the key) to the iterator of that
prime's later composites. A candidate is prime unless it equals the
minimum key; when it does, every entry with that key advances in place.

Base primes are postponed: the driver holds the next base prime p and
inserts its entry, with first key p*p, only when the candidates reach
p*p. The following base prime then comes from a second, uncounted
instance of the same sieve, created at that point and sieving only up to
the square root of the first; it in turn feeds from a third, and so on.
Primes above the square root of the candidates leave no state behind, so
the queue holds about pi(sqrt(n)) entries while sieving to n, and the
queue state is O(pi(sqrt(n))), apart from WPQ's wheels and EPQ's
survivor windows. All three flavours count a prime's first key p*p in
`RunCounters` when the candidates reach p*p; the inner instances count
nothing. The driver is mounted like the fold sieves (`wheels.mount`) and
takes the same contract: `multiples(p)` returns p's composites from p*p
on, and the driver drops that head, which is the entry's first key.

Three flavours of entry, each run from p*p:
  oneill  values p*p, p*p + p, p*p + 2p, ... (with w4: p times the
          coprime survivors from p); composites with several prime
          factors are reached once per factor
  epq     ES's levels (`sieves._erasing`): p times the survivors of the
          earlier levels, which the later levels read with that set
          removed; disjoint, so every composite enters the queue once
  wpq     the same sets as the rolling wheel's gaps scaled by p and
          summed from p*p; O(1) state per entry plus one wheel per base
          prime, grown lazily in the instance's `WheelChain`
"""

import heapq
from itertools import accumulate, count, cycle, islice

from .sieves import Variant, _erasing
from .streams import scaled
from .wheels import WheelChain, _w4_offsets, mount, wheel4


class CompositePQ:
    """Min-heap of base-prime entries, each keyed by its next composite.

    An entry is [key, p, keys]: `keys` iterates p's composites after
    `key` in increasing order. Ties on the key break on p, which is
    distinct, so the iterators are never compared.
    """

    __slots__ = ("_heap", "_counters")

    def __init__(self, counters=None):
        self._heap = []
        self._counters = counters

    def __len__(self):
        return len(self._heap)

    def insert(self, p, keys):
        """Add base prime p at key p*p; `keys` yields its later composites."""
        key = p * p
        heapq.heappush(self._heap, [key, p, keys])
        c = self._counters
        if c is not None:
            c.born(key)
            c.pq_size = len(self._heap)

    def cross_off(self, c):
        """Advance every entry keyed c; True when there was one.

        Keys are always candidates, so none is ever below `c`.
        """
        heap = self._heap
        if not heap or heap[0][0] != c:
            return False
        counters = self._counters
        while True:
            entry = heap[0]
            entry[0] = key = next(entry[2])
            heapq.heapreplace(heap, entry)
            if counters is not None:
                counters.note_pop(c)
                counters.born(key)
            if heap[0][0] != c:
                return True


def _postponed(w4, multiples, counters, sieve):
    """The candidate loop shared by every queue sieve.

    `multiples(p)` returns base prime p's composites from p*p on; it is
    called in increasing order of p, from the last mounted prime on.
    `sieve()` makes the uncounted instance that feeds the later ones.
    """
    pq = CompositePQ(counters)
    insert, cross_off = pq.insert, pq.cross_off
    mounted, _, cand = mount(w4)
    yield from mounted
    p = next(cand)  # the last mounted prime, already out
    q = p * p
    feed = None
    for c in cand:
        if c < q:
            if not cross_off(c):
                yield c
            continue
        keys = multiples(p)
        next(keys)  # p*p, the entry's first key
        insert(p, keys)
        cross_off(c)
        if feed is None:
            # the inner instance repeats the primes up to p first
            feed = islice(sieve(), len(mounted), None)
        p = next(feed)  # an instance of an endless sieve
        q = p * p


def oneill_sieve(w4=False, counters=None):
    """The faithful incremental Sieve of Eratosthenes.

    Base prime p's entry holds the multiples of p from p*p: steps of p, or
    p times the wheel survivors from p when mounted on w_4.
    """
    if w4:
        offsets = _w4_offsets()
        deltas = wheel4().deltas
        sizes = set(deltas)

        def multiples(p):
            # resume the wheel at p's phase; one int per scaled gap size
            i = offsets[p % 210]
            step = {d: p * d for d in sizes}
            gaps = [step[d] for d in deltas[i:] + deltas[:i]]
            return accumulate(cycle(gaps), initial=p * p)
    else:

        def multiples(p):
            return count(p * p, p)

    return _postponed(w4, multiples, counters, lambda: oneill_sieve(w4))


def epq_sieve(w4=False, counters=None):
    """Sieve ES on a priority queue: entries are ES's levels.

    Base prime p's entry is the erased set p * survivors, from p*p on,
    and the next base prime's entry reads the survivors past p with that
    set removed: the same `sieves._erasing` induction the stream ES folds.
    """
    return _postponed(w4, _erasing(w4, counters), counters,
                      lambda: epq_sieve(w4))


def wpq_sieve(w4=False, counters=None):
    """Sieve W on a priority queue: entries sum the rolling wheel's gaps.

    Base prime p's keys are p*p plus the running sums of the current
    wheel's gaps scaled by p; the next base prime gets the wheel after
    it, this one rolled past p.
    """
    wheels = WheelChain(mount(w4)[1], counters)

    def multiples(p):
        return accumulate(scaled(p, wheels.turn(p)), initial=p * p)

    return _postponed(w4, multiples, counters, lambda: wpq_sieve(w4))


PQ_VARIANTS = {
    v.name: v
    for v in (
        Variant("on", "O'N", "pq", 0, lambda counters=None: oneill_sieve(False, counters)),
        Variant("on4", "O'N4", "pq", 4, lambda counters=None: oneill_sieve(True, counters)),
        Variant("epq", "EPQ", "pq", 0, lambda counters=None: epq_sieve(False, counters)),
        Variant("epq4", "EPQ4", "pq", 4, lambda counters=None: epq_sieve(True, counters)),
        Variant("wpq", "WPQ", "pq", 0, lambda counters=None: wpq_sieve(False, counters)),
        Variant("wpq4", "WPQ4", "pq", 4, lambda counters=None: wpq_sieve(True, counters)),
    )
}
