"""Priority-queue sieves: the faithful incremental Eratosthenes, and EPQ
and WPQ, which key Euler levels instead of its multiples.

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
survivor windows. Every entry counts its first key p*p in `RunCounters`
when the candidates reach p*p; the inner instances count nothing.

The driver is mounted like the fold sieves (`wheels.mount`) and keys
their levels (`sieves`): `multiples(p)` returns p's composites from p*p
on, and the driver drops that head, the entry's first key. O'N keys
Bird's `_multiples`, which reach a composite once per prime factor; WPQ
keys W's `_rolling` and EPQ ES's `_erasing`, which are disjoint, so every
composite enters the queue once. What the loop emits is `bounded`.
"""

import heapq
from itertools import chain

from .sieves import Variant, _erasing, _feed, _multiples, _rolling
from .streams import bounded
from .wheels import mount


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
    """The mounted candidates that no entry keys, shared by every queue
    sieve: `multiples(p)` is called in increasing order of p, from the
    last mounted prime on, and `sieve()` makes the uncounted instance that
    feeds the later ones."""
    mounted, _, cand = mount(w4)
    feed = _feed(sieve, len(mounted))
    return chain(mounted, bounded(_queued(cand, feed, multiples, counters)))


def _queued(cand, feed, multiples, counters):
    pq = CompositePQ(counters)
    insert, cross_off = pq.insert, pq.cross_off
    p = next(cand)  # the last mounted prime, already out
    q = p * p
    for c in cand:
        if c < q:
            if not cross_off(c):
                yield c
            continue
        keys = multiples(p)
        next(keys)  # p*p, the entry's first key
        insert(p, keys)
        cross_off(c)
        p = next(feed)  # an instance of an endless sieve
        q = p * p


def oneill_sieve(w4=False, counters=None):
    """The faithful incremental Sieve of Eratosthenes: entries are Bird's
    levels (`sieves._multiples`), the multiples of p from p*p."""
    return _postponed(w4, _multiples(w4), counters, lambda: oneill_sieve(w4))


def epq_sieve(w4=False, counters=None):
    """Sieve ES on a priority queue: entries are ES's levels, the erased
    sets of the survivor induction the stream ES folds (`sieves._erasing`)."""
    return _postponed(w4, _erasing(w4, counters), counters,
                      lambda: epq_sieve(w4))


def wpq_sieve(w4=False, counters=None):
    """Sieve W on a priority queue: entries are W's levels, the rolling
    wheel's gaps scaled by p and summed from p*p (`sieves._rolling`)."""
    return _postponed(w4, _rolling(w4, counters), counters,
                      lambda: wpq_sieve(w4))


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
