"""Generalized Hamming numbers, each generated exactly once.

The driving identity: the composites of a prime set P (the products of
two or more of its primes) split, for the least p in P, into p times P's
closure (P and its composites) and the composites of P without p. Those
two parts are disjoint, so merging them with `d_union` produces every
element exactly once -- unlike the textbook three-way merge, which
rebuilds a number once per ordered factorization.

`composites_of_primes` is that recursion, the one the H sieve needs. The
multiplicative closure of the generators, `hamming_stream`, is the
generators `d_union` their composites: disjoint again, for primes.

Each level, one per generator x, is a `fix_stream` knot: it reads its own
output back, scaled by x, through a tee copy taken when the level starts.
That copy trails the level's output v at v/x, so the level holds only
(v/x, v]. Levels open only as the squares come due, so only the
generators up to about the square root of the output have one. A level
takes x from one iterator and reads the generators above x too, so it
splits the iterator with `tee`, keeping one copy and handing the other
to the next level.
"""

from itertools import chain, islice, tee

from .streams import U64_MAX, births, d_union, fix_stream, scaled


def hamming_stream(gens, counters=None):
    """Increasing multiplicative closure of `gens`, without 1.

    `gens` must be strictly increasing (primes for the exactly-once
    guarantee); it may be unbounded -- the recursion over the tail is
    only built on first demand.
    """
    own, products = tee(gens)
    return d_union(births(own, counters),
                   composites_of_primes(products, counters), counters)


def composites_of_primes(ps, counters=None, start=0):
    """C(P): every product of two or more primes from `ps`, in order.

    `ps` is the prime stream, and `start` the index of the first prime
    used. The primes may still be under construction, as in H, where `ps`
    is a reader of H's own knot: levels read only the primes up to v/2.
    """
    return _composites_level(islice(ps, start, None), counters)


def _composites_level(primes, counters):
    def knot(h):
        x = next(primes, None)
        if x is None:
            return iter(())
        xx = x * x
        if xx > U64_MAX:
            raise OverflowError("%d**2 exceeds 64 bits" % x)
        # the primes above x must rejoin x's own composites before scaling,
        # since the recursive call strips them from its output
        above, later = tee(primes)
        grown = births(
            scaled(x, d_union(above, h.reader(), counters)), counters)
        rest = _composites_level(later, counters)
        if counters is not None:
            counters.born(xx)
        return chain([xx], d_union(grown, rest, counters))

    return fix_stream(knot, counters)


def classic_hamming3(counters=None):
    """The textbook three-merge 5-smooth stream, including 1.

    Kept as a comparator: the classic scheme rebuilds each value once per
    ordered factorization (30 arrives six ways). Materializing those
    duplicates is combinatorially hopeless for deep values, so the merge
    carries a path count per value instead; the instrumented tally counts
    every rebuild the scheme would perform.
    """

    def times(m, products):
        for v, paths in products:
            if counters is not None:
                counters.born(m * v, paths)
            yield m * v, paths

    def knot(h):
        # the three readers are taken now, before (1, 1) goes out
        merged = _weighted_merge(
            times(2, h.reader()),
            _weighted_merge(times(3, h.reader()), times(5, h.reader())))
        return chain([(1, 1)], merged)

    for v, _ in fix_stream(knot, counters):
        yield v


def _weighted_merge(xs, ys):
    # merge of (value, paths) streams; equal values pool their paths. Once
    # one side ends the other is passed through.
    nx = xs.__next__
    ny = ys.__next__
    try:
        x, kx = nx()
    except StopIteration:
        yield from ys
        return
    try:
        y, ky = ny()
    except StopIteration:
        yield x, kx
        yield from xs
        return
    while True:
        if x < y:
            yield x, kx
            try:
                x, kx = nx()
            except StopIteration:
                yield y, ky
                yield from ys
                return
        elif y < x:
            yield y, ky
            try:
                y, ky = ny()
            except StopIteration:
                yield x, kx
                yield from xs
                return
        else:
            yield x, kx + ky
            try:
                x, kx = nx()
            except StopIteration:
                yield from ys
                return
            try:
                y, ky = ny()
            except StopIteration:
                yield x, kx
                yield from xs
                return
