"""Priority-queue sieves: the faithful incremental Eratosthenes, and EPQ
and WPQ, which key Euler levels instead of its multiples.

All three run on one postponed driver (O'Neill, "The Genuine Sieve of
Eratosthenes", JFP 2009, with Will Ness's postponement). The queue maps
each base prime's next composite (the key) to the iterator of that
prime's later composites. A candidate is prime unless it equals the
minimum key; when it does, every entry with that key advances. The heap
holds each entry as one int, its key above an index field just wide
enough for the entries so far (`CompositePQ`), and the driver's own loop
does the heap step. While key and field fit in 30 bits, as they do up to
about 2**21, every item is a one-digit CPython int, so the step builds
and compares one-digit ints. A candidate below both the least key and
the next square costs one int comparison and no Python call; one equal
to the least key `heapreplace`s every entry keyed by it.

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

    Entry i is the int `key << shift | i` in `heap`, and `keys[i]` iterates
    its later keys in increasing order. Every heap comparison is one int
    comparison; ties on a key break on i, the insertion order, which is
    increasing p. `shift` is the fewest bits that hold the largest index,
    so an item stays one 30-bit digit as long as its key allows. When an
    insert needs one bit more, every item is repacked in place; the map
    is strictly increasing, so the heap stays ordered without a heapify.
    The step that advances entries lives in the driver's loop (`_queued`),
    which reads `shift` again after each insert.
    """

    __slots__ = ("heap", "keys", "shift")

    def __init__(self):
        self.heap = []
        self.keys = []
        self.shift = 0

    def __len__(self):
        return len(self.heap)

    def insert(self, p, keys):
        """Add base prime p at key p*p; `keys` yields its later composites."""
        i, s = len(self.keys), self.shift
        if i >> s:
            mask = (1 << s) - 1
            self.heap[:] = [it >> s << s + 1 | it & mask for it in self.heap]
            self.shift = s = s + 1
        heapq.heappush(self.heap, p * p << s | i)
        self.keys.append(keys)


def _postponed(w4, multiples, counters, sieve):
    """The mounted candidates that no entry keys, shared by every queue
    sieve: `multiples(p)` is called in increasing order of p, from the
    last mounted prime on, and `sieve()` makes the uncounted instance that
    feeds the later ones."""
    mounted, _, cand = mount(w4)
    feed = _feed(sieve, len(mounted))
    return chain(mounted, bounded(_queued(cand, feed, multiples, counters)))


def _queued(cand, feed, multiples, counters):
    # `due` is the least key or the next square q, whichever is smaller: a
    # candidate below it is prime after one comparison, and one equal to it
    # is composite. Keys are candidates, so none is ever below c. The first
    # candidate at or past `due` is q, so `shift` is set before it is read.
    pq = CompositePQ()
    heap, keys = pq.heap, pq.keys
    replace = heapq.heapreplace
    p = next(cand)  # the last mounted prime, already out
    q = due = p * p
    for c in cand:
        if c < due:
            yield c
            continue
        if c == q:
            entry = multiples(p)
            next(entry)  # p*p, the entry's first key
            pq.insert(p, entry)
            shift = pq.shift
            mask = (1 << shift) - 1
            if counters is not None:
                counters.born(q)
                counters.pq_size = len(pq)
            p = next(feed)  # an instance of an endless sieve
            q = p * p
        # advance every entry keyed c: the items below (c + 1) << shift
        top = (c + 1) << shift
        item = heap[0]
        while item < top:
            i = item & mask
            key = next(keys[i])
            replace(heap, key << shift | i)
            if counters is not None:
                counters.note_pop(c)
                counters.born(key)
            item = heap[0]
        due = item >> shift
        if q < due:
            due = q


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
