"""Lazy ordered-stream kernel.

Streams are plain Python iterators of weakly increasing 64-bit naturals,
pulled one element at a time. This module provides the merge/difference
combinators the sieves are built from (one merge loop and one difference
loop serve them all), a productivity-preserving tree fold over a stream of
streams, and two ways to share a stream between readers, of which the
sieves use only the first:
  * `fix_stream` ties a self-referential definition ("primes defined in
    terms of primes") on an `itertools.tee`. Its readers are taken while
    the producer starts, replay in C, and the tee frees each element once
    every reader has passed it;
  * `replay`/`StreamFixpoint` keep a list memo that never evicts, so a
    reader may be created at any time and start at any index.

Conventions:
  * inputs to `d_union`/`s_minus`/`minus` must be strictly increasing;
  * `d_union` additionally requires disjoint inputs and `s_minus` requires
    the second stream to be a subset of the first -- asserts guard both
    preconditions, and under -O a violation gives the `union`/`minus`
    output;
  * elements are unsigned 64-bit; growing past 2**64-1 raises
    `StreamOverflow` rather than wrapping. The fold and queue sieves check
    it on the primes they emit (`bounded`), H on its levels, and `scaled`
    on its own elements. `StreamOverflow` is also an `OverflowError`.

Nothing here touches interpreter-global state. A fold is about 2*log2(k)
frames deep over k streams, and a knot's readers replay in C without a
frame of their own, so no combinator raises the recursion limit.
"""
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, takewhile, tee

U64_MAX = (1 << 64) - 1

class StreamError(Exception):
    """Base class for stream-kernel failures."""


class StreamOverflow(StreamError, OverflowError):
    """A stream element left the unsigned 64-bit range."""


class NonProductiveStream(StreamError):
    """A fixpoint demanded elements it has not produced yet."""


@dataclass
class RunCounters:
    """Optional instrumentation shared by one sieve instance.

    `composites` counts generation events (a value entering a composites
    stream, or a key entering a priority queue); `comparisons` counts
    elements pulled into a merge or difference loop (in a fold, once per
    tree node an element crosses: about 2*log2(k) for the k-th level);
    `pulls` counts primes delivered;
    `buffered`/`peak_buffer` count the elements H's two `fix_stream`
    knots produce (its primes and its composites) and the gaps entering
    the gap lists of W's and WPQ's `WheelChain`, its base wheel's included. A
    knot frees what all its readers have passed, so the count is of
    produced elements, not of live ones; it never decreases. The fold
    sieves keep no prime memo, so theirs covers wheels only. `tally` and
    `popped`, when enabled, record per-value multiplicities.

    Every sieve's counters cover the outer instance only: the inner
    instances that feed the fold and queue sieves their base primes run
    uncounted. A queue sieve's first key for prime p is p*p; it enters the
    queue, and is counted, when the candidates reach p*p, not when p is
    found.
    """

    composites: int = 0
    comparisons: int = 0
    pulls: int = 0
    buffered: int = 0
    peak_buffer: int = 0
    pq_size: int = 0
    pop_inversions: int = 0
    tally: Counter = None
    popped: Counter = None
    _last_popped: int = field(default=-1, repr=False)

    @classmethod
    def with_tally(cls):
        return cls(tally=Counter(), popped=Counter())

    def born(self, value, times=1):
        self.composites += times
        if self.tally is not None:
            self.tally[value] += times

    def note_buffered(self):
        self.buffered += 1
        if self.buffered > self.peak_buffer:
            self.peak_buffer = self.buffered

    def note_pop(self, key):
        if key < self._last_popped:
            self.pop_inversions += 1
        self._last_popped = key
        if self.popped is not None:
            self.popped[key] += 1


def take(stream, n):
    """Materialize the first n elements."""
    return list(islice(stream, n))


def scaled(factor, source):
    """Each source element multiplied by `factor`, overflow-checked."""
    limit = U64_MAX // factor
    for v in source:
        if v > limit:
            raise StreamOverflow("%d * %d exceeds 64 bits" % (factor, v))
        yield factor * v


def bounded(source):
    """`source` while its elements fit in 64 bits: one past U64_MAX raises
    `StreamOverflow` instead, and the stream ends with the source. The test
    is one C-level `takewhile` call per element, with no Python frame."""
    ended = []
    fits = takewhile(U64_MAX.__ge__, chain(source, _stop(ended, True)))
    return chain(fits, _stop(ended, False))


def _stop(ended, at_end):
    # mark the source's end; after `takewhile`, no mark means past U64_MAX
    if at_end:
        ended.append(True)
    elif not ended:
        raise StreamOverflow("a stream element exceeds 64 bits")
    return
    yield


def births(source, counters):
    """Tally every element of `source` as one generation event."""
    if counters is None:
        return source
    return _counted(source, counters)


def _counted(source, counters):
    born = counters.born
    for v in source:
        born(v)
        yield v


# ---------------------------------------------------------------------------
# merge / difference combinators
#
# One merge loop and one difference loop serve every combinator. A
# precondition flag is read only on the arm that valid input never takes,
# so `d_union` and `s_minus` make the comparisons `union` and `minus` make,
# and under -O a broken precondition gives the union or minus output.
#
# Every loop advances an input by `for x in xs: break`, with `else:` for its
# end: one element per pull still, but through C-level FOR_ITER, so no node
# holds a bound `__next__` method-wrapper or calls one per element.


def union(xs, ys, counters=None):
    """Strictly increasing merge of two strictly increasing streams.

    Shared values are emitted once. Finite inputs are handled: once one
    side ends the other is passed through.
    """
    return _merge(*_inputs(xs, ys, counters), False)


def d_union(xs, ys, counters=None):
    """Merge of *disjoint* strictly increasing streams.

    A shared element trips an `assert`; under -O it is emitted once, as
    `union` would emit it.
    """
    return _merge(*_inputs(xs, ys, counters), True)


def _inputs(xs, ys, counters):
    if counters is None:
        return iter(xs), iter(ys)
    return _pulled(xs, counters), _pulled(ys, counters)


def _pulled(source, counters):
    # one `comparisons` tick per element handed to a merge or difference loop
    for v in source:
        counters.comparisons += 1
        yield v


def _merge(xs, ys, disjoint, fold=None, span=0):
    if fold is None:
        for x in xs:
            break
        else:
            yield from ys
            return
        for y in ys:
            break
        else:
            yield x
            yield from xs
            return
    else:
        # a fold node over `span` leaves: a balanced group of them, or, when
        # span is negative, the spine of groups of -span, -2*span, ... leaves
        left = -span if span < 0 else span >> 1
        right = 2 * span if span < 0 else left
        x, xs = fold.grow(left)
        if x is None:
            return
        # the right side is built only once the left's next element passes
        # the head of the level forced last: every unforced level starts
        # above that head, so until then the left alone is due
        while True:
            yield x
            for x in xs:
                break
            else:
                y, ys = fold.grow(right)
                if y is not None:
                    yield y
                    yield from ys
                return
            if x > fold.last:
                break
        y, ys = fold.grow(right)
        if y is None:
            yield x
            yield from xs
            return
    while True:
        if x < y:
            yield x
            for x in xs:
                break
            else:
                yield y
                yield from ys
                return
        elif y < x:
            yield y
            for y in ys:
                break
            else:
                yield x
                yield from xs
                return
        else:
            assert not disjoint, "disjoint merge: both inputs contain %d" % x
            yield x
            for x in xs:
                break
            else:
                yield from ys
                return
            for y in ys:
                break
            else:
                yield x
                yield from xs
                return


def minus(xs, ys, counters=None):
    """Ordered set difference xs \\ ys of strictly increasing streams."""
    return _diff(*_inputs(xs, ys, counters), False)


def s_minus(xs, ys, counters=None):
    """Difference for the special case elements(ys) ⊆ elements(xs).

    Whenever heads differ, x < y must hold; an element of ys missing from
    xs trips an `assert`, and under -O it is skipped, as `minus` would.
    """
    return _diff(*_inputs(xs, ys, counters), True)


def _diff(xs, ys, subset):
    for x in xs:
        break
    else:
        return
    for y in ys:
        break
    else:
        yield x
        yield from xs
        return
    while True:
        if x == y:
            for x in xs:
                break
            else:
                return
            for y in ys:
                break
            else:
                yield x
                yield from xs
                return
        elif x < y:
            yield x
            for x in xs:
                break
            else:
                return
        else:
            assert not subset, "s_minus: ys is not a subset of xs (saw %d > %d)" % (x, y)
            for y in ys:
                break
            else:
                yield x
                yield from xs
                return


# ---------------------------------------------------------------------------
# productive fold over a stream of streams


def fold_union_p(streams, disjoint=False, counters=None):
    """Head-first `union` (or `d_union`) of a stream of streams.

    The inner streams must be strictly increasing with strictly increasing
    heads; empty ones are skipped. The fold is a skewed tree of `_merge`
    nodes (the "tree-merging" sieve, https://wiki.haskell.org/Prime_numbers):
    a spine takes the inner streams in groups of 1, 2, 4, ..., and each group
    is a balanced tree whose leaves are the inner streams themselves. An
    element of the k-th inner stream crosses about 2*log2(k) suspended
    frames on its way out, where a linear right fold would make it cross k;
    each element is still merged at every node it crosses.

    Every node emits its left side's head before its right side exists, and
    builds the right side only once the left's next element passes the head
    of the inner stream forced last, above which every unforced stream
    starts. So pulling elements up to a value v forces only the inner
    streams whose heads may be due -- for Bird-style multiples, at most
    pi(sqrt(v)) + 1 of them -- as the linear fold does.
    """
    return _merge(None, None, disjoint, _Fold(streams, disjoint, counters), -1)


class _Fold:
    # what the nodes of one fold share: the inner streams not yet forced,
    # and the head of the one forced last
    __slots__ = ("levels", "last", "disjoint", "counters")

    def __init__(self, streams, disjoint, counters):
        streams = map(iter, streams)
        if counters is not None:
            streams = (_pulled(s, counters) for s in streams)
        self.levels = streams
        self.last = None
        self.disjoint = disjoint
        self.counters = counters

    def grow(self, span):
        """(head, rest) of a new subtree over `span` leaves, whose head is
        None if the inner streams have run out. A leaf is the next
        non-empty inner stream itself."""
        if span == 1:
            for xs in self.levels:
                x = next(xs, None)
                if x is not None:
                    self.last = x
                    return x, xs
            return None, None
        xs = _merge(None, None, self.disjoint, self, span)
        if self.counters is not None:
            xs = _pulled(xs, self.counters)
        return next(xs, None), xs


# ---------------------------------------------------------------------------
# fixpoints and shared replay


class StreamFixpoint:
    """A growable memoized stream with any number of replaying readers.

    `producer` receives the fixpoint itself and returns the stream that
    defines the buffered sequence. Every reader replays the memoized
    prefix before demanding new elements, so all readers observe the
    identical sequence, however late they are created.

    Producing element n may consume only elements already in the buffer.
    A re-entrant demand for an unproduced element raises
    `NonProductiveStream` instead of hanging. The buffer grows without
    eviction; a self-referential stream that needs eviction is a
    `fix_stream` knot.
    """

    __slots__ = ("_buf", "_producer", "_source", "_filling", "_done", "_counters")

    def __init__(self, producer, counters=None):
        self._buf = []
        self._producer = producer
        self._source = None
        self._filling = False
        self._done = False
        self._counters = counters

    def _fill(self, n):
        buf = self._buf
        while len(buf) <= n:
            if self._done:
                return False
            if self._filling:
                raise NonProductiveStream(
                    "non-productive definition: element %d demanded while "
                    "producing element %d" % (n, len(buf)))
            self._filling = True
            try:
                if self._source is None:
                    self._source = iter(self._producer(self))
                try:
                    value = next(self._source)
                except StopIteration:
                    self._done = True
                    return False
            finally:
                self._filling = False
            buf.append(value)
            if self._counters is not None:
                self._counters.note_buffered()
        return True

    def reader(self, skip=0):
        """A fresh stream replaying the sequence, optionally from index `skip`."""
        buf = self._buf
        fill = self._fill
        i = skip
        while True:
            if i >= len(buf) and not fill(i):
                return
            yield buf[i]
            i += 1

    def __iter__(self):
        return self.reader()


class _Knot:
    # the handle a `fix_stream` producer reads its own output through
    __slots__ = ("_origin",)

    def reader(self, skip=0):
        """A copy of the stream from its start, or from index `skip`."""
        if self._origin is None:
            raise StreamError(
                "a knot's readers must be taken before its first element "
                "is delivered")
        copy = self._origin.__copy__()
        return islice(copy, skip, None) if skip else copy


def fix_stream(producer, counters=None):
    """The unique stream s with s = producer(handle-replaying-s).

    The stream is an `itertools.tee`, so readers replay it in C. The
    producer must take every reader it needs (`handle.reader(skip)`)
    before the first element is delivered; the handle then lets go of the
    stream's start, the tee frees each element once every reader has
    passed it, and a later `reader()` raises `StreamError`; a reader
    taken without `skip` is a tee object, whose `__copy__` starts where it
    stands, at any time. Producing element n may consume only elements
    0..n-1: a re-entrant demand raises `NonProductiveStream`. A pull
    crosses only the producer's frames, so the knot leaves the recursion
    limit alone. With `counters`, each produced element counts as
    buffered, whether or not it is still held.
    """
    handle = _Knot()

    def source():
        try:
            for value in producer(handle):
                handle._origin = None
                if counters is not None:
                    counters.note_buffered()
                yield value
        except RuntimeError as exc:
            if str(exc) != "cannot re-enter the tee iterator":
                raise
            raise NonProductiveStream(
                "non-productive definition: an element was demanded while "
                "it was being produced") from exc

    (handle._origin,) = tee(source(), 1)
    return handle._origin.__copy__()


def replay(iterable, counters=None):
    """Share one underlying iterator between several readers."""
    it = iter(iterable)
    return StreamFixpoint(lambda handle: it, counters)
