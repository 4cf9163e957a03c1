"""Generalized Hamming numbers, each generated exactly once.

The driving identity: a composite of a prime set P (a product of two or
more of its primes) is x times a member of the closure Cl(P>=x) of P's
primes from x on, for x its least prime factor. So the composites C(P)
are the disjoint union over x in P of the levels x*Cl(P>=x): x*x, then x
times P's primes after x `d_union` the composites with least prime factor
at least x. Each element is generated exactly once -- unlike the textbook
three-way merge, which rebuilds a number once per ordered factorization.

`composites_of_primes`, the recursion the H sieve needs, ties C(P) as one
`fix_stream` knot: a disjoint `fold_union_p` tree of the levels, so a
composite whose least factor is P's k-th prime crosses about 2*log2(k)
merge frames. Level x reads C back through a C-level filter, gcd(c, m) ==
1 with m the product of P's primes below x, so composites carry no tag.
The filter passes C's elements below x*x by one comparison, not a gcd
(`dropwhile` on both its readers): such an element has two or more prime
factors from P, so one of them is below x, and the gcd would reject it.
Neither the skip, the filter nor the scaling adds a Python frame
(`comparisons` counts none of them). A level opens only when its square
comes due, and puts the square out before it reads C, so the knot is
productive: once x*c is out, the next composite the level needs is at
most x*c. Level x reads C from x*x up to v/x while the knot is at v. Its
two readers, the filter's data and selector, are copies of the previous
level's selector, which has read no further than the previous square; a
reader kept from C's start would pin C and rescan it from its beginning.
Copies are taken with `__copy__`, since `tee(t)` of a tee object hands t
itself back as its first copy, and two levels would advance one iterator.

The multiplicative closure of the generators, `hamming_stream`, is the
generators `d_union` their composites: disjoint again, for primes.
"""

from itertools import chain, compress, dropwhile, repeat, takewhile, tee
from math import gcd
from operator import eq, mul

from .streams import (U64_MAX, StreamOverflow, births, d_union, fix_stream,
                      fold_union_p)


def hamming_stream(gens, counters=None):
    """Increasing multiplicative closure of `gens`, without 1.

    `gens` must be strictly increasing (primes for the exactly-once
    guarantee); it may be unbounded -- a generator's level is only built
    once its square comes due.
    """
    own, products = tee(gens)
    return d_union(births(own, counters),
                   composites_of_primes(products, counters), counters)


def composites_of_primes(ps, counters=None):
    """C(P): every product of two or more primes from `ps`, in order.

    `ps` is the prime stream. The primes may still be under construction,
    as in H, where `ps` is a reader of H's own knot: levels read only the
    primes up to v/2.
    """
    primes = iter(ps)
    return fix_stream(
        lambda c: fold_union_p(_levels(primes, c.reader(), counters), True,
                               counters),
        counters)


def _levels(primes, selector, counters):
    # level x for each x in P, reading C through copies of `selector`
    below = 1  # the product of P's primes below x
    while True:
        x = next(primes, None)
        if x is None:
            return
        xx = x * x
        if xx > U64_MAX:
            raise StreamOverflow("%d**2 exceeds 64 bits" % x)
        above, primes = tee(primes)
        data, selector = selector.__copy__(), selector.__copy__()
        coprime = map(eq, map(gcd, dropwhile(xx.__gt__, selector),
                              repeat(below)), repeat(1))
        rough = compress(dropwhile(xx.__gt__, data), coprime)
        below *= x
        grown = map(mul, repeat(x), d_union(above, rough, counters))
        yield births(chain((xx,), takewhile(U64_MAX.__ge__, grown),
                           _overflow(x)), counters)


def _overflow(x):
    # reached only once a level's next element has passed 2**64-1
    raise StreamOverflow("%d times a composite exceeds 64 bits" % x)
    yield
