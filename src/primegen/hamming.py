"""Generalized Hamming numbers, each generated exactly once.

The driving identity: the multiplicative closure of a generator set P
splits, for any p in P, into p times the closure and the closure of the
remaining generators. With prime generators those two parts are disjoint,
so merging them with `d_union` produces every element exactly once --
unlike the textbook three-way merge, which rebuilds a number once per
ordered factorization.

`composites_of_primes` is the variant the H sieve needs: the generators
themselves are left out of the output but re-inserted internally before
multiplying, so the composites of a prime suffix come out in order, once
each.

Each level, one per generator x, is a `fix_stream` knot: it reads its own
output back, scaled by x, through a tee copy taken when the level starts.
That copy trails the level's output v at v/x, so the level holds only
(v/x, v]. The generators themselves sit in a `replay` list memo, because
level k starts late and reads them from index k.
"""

from itertools import chain

from .streams import StreamFixpoint, U64_MAX, births, d_union, fix_stream, replay, scaled


def hamming_stream(gens, counters=None):
    """Increasing multiplicative closure of `gens`, without 1.

    `gens` must be strictly increasing (primes for the exactly-once
    guarantee); it may be unbounded -- the recursion over the tail is
    only built on first demand.
    """
    shared = gens if isinstance(gens, StreamFixpoint) else replay(iter(gens))
    return _hamming_level(shared, 0, counters)


def _hamming_level(gens, k, counters):
    def knot(h):
        x = next(gens.reader(k), None)
        if x is None:
            return iter(())
        own = births(scaled(x, h.reader()), counters)
        rest = _hamming_level(gens, k + 1, counters)
        if counters is not None:
            counters.born(x)
        return chain([x], d_union(own, rest, counters))

    return fix_stream(knot, counters)


def composites_of_primes(ps, counters=None, start=0):
    """C(P): every product of two or more primes from `ps`, in order.

    `ps` is the prime stream (or a `StreamFixpoint` replaying it), and
    `start` the index of the first prime used. The primes may still be
    under construction, as in H, where `ps` is a reader of H's own knot:
    levels read only the primes up to v/2.
    """
    shared = ps if isinstance(ps, StreamFixpoint) else replay(iter(ps))
    return _composites_level(shared, start, counters)


def _composites_level(primes, k, counters):
    def knot(h):
        x = next(primes.reader(k), None)
        if x is None:
            return iter(())
        xx = x * x
        if xx > U64_MAX:
            raise OverflowError("%d**2 exceeds 64 bits" % x)
        # the primes above x must rejoin x's own composites before scaling,
        # since the recursive call strips them from its output
        grown = births(
            scaled(x, d_union(primes.reader(k + 1), h.reader(), counters)),
            counters,
        )
        rest = _composites_level(primes, k + 1, counters)
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
