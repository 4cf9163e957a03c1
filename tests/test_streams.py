import random
import textwrap
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from primegen import oracle
from primegen.hamming import composites_of_primes
from primegen.streams import (
    NonProductiveStream,
    RunCounters,
    StreamError,
    StreamFixpoint,
    StreamOverflow,
    U64_MAX,
    bounded,
    d_union,
    fix_stream,
    fold_union_p,
    minus,
    replay,
    s_minus,
    scaled,
    take,
    union,
)

sorted_sets = st.sets(st.integers(min_value=0, max_value=400), max_size=60).map(sorted)


def test_union_merges_multiples():
    got = take(union(count(2, 2), count(3, 3)), 8)
    assert got == [2, 3, 4, 6, 8, 9, 10, 12]


def test_union_idempotent():
    xs = [1, 4, 9, 16, 25]
    assert list(union(iter(xs), iter(xs))) == xs


def test_union_three_way_below_30():
    merged = union(union(count(2, 2), count(3, 3)), count(5, 5))
    got = [v for v in islice(merged, 40) if v <= 30]
    want = sorted(set(range(2, 31, 2)) | set(range(3, 31, 3)) | set(range(5, 31, 5)))
    assert got == want
    assert len(got) == 22
    assert got.count(30) == 1


@given(sorted_sets, sorted_sets)
def test_union_is_set_union(a, b):
    assert list(union(iter(a), iter(b))) == sorted(set(a) | set(b))


@given(sorted_sets, sorted_sets)
def test_minus_is_set_difference(a, b):
    assert list(minus(iter(a), iter(b))) == sorted(set(a) - set(b))


@given(sorted_sets, sorted_sets)
def test_d_union_matches_union_on_disjoint(a, b):
    b = [x for x in b if x not in set(a)]
    assert list(d_union(iter(a), iter(b))) == list(union(iter(a), iter(b)))


@given(sorted_sets, st.randoms())
def test_s_minus_matches_minus_on_subsets(a, rng):
    b = sorted(rng.sample(a, rng.randint(0, len(a))))
    assert list(s_minus(iter(a), iter(b))) == list(minus(iter(a), iter(b)))


def test_d_union_examples():
    assert list(d_union(iter([4, 8, 16]), iter([9, 27]))) == [4, 8, 9, 16, 27]
    assert list(d_union(iter([4, 8, 16]), iter([]))) == [4, 8, 16]


def test_d_union_erased_sets_prefix():
    sets = oracle.euler_sets_brute_force(2, 50)
    merged = d_union(iter(sorted(sets.erased[0])), iter(sorted(sets.erased[1])))
    assert take(merged, 9) == [4, 6, 8, 9, 10, 12, 14, 15, 16]


def test_d_union_asserts_on_shared_element():
    with pytest.raises(AssertionError):
        list(d_union(iter([1, 5]), iter([5, 7])))


def test_s_minus_examples():
    assert list(s_minus(iter([2, 3, 4, 5, 6]), iter([4, 6]))) == [2, 3, 5]
    assert list(s_minus(iter([2, 3, 4]), iter([]))) == [2, 3, 4]


def test_s_minus_asserts_on_non_subset():
    with pytest.raises(AssertionError):
        list(s_minus(iter([5, 6]), iter([3])))


def test_minus_examples():
    assert list(minus(iter(range(2, 11)), iter([3, 6, 9]))) == [2, 4, 5, 7, 8, 10]
    assert list(minus(iter([2, 9]), iter([]))) == [2, 9]


class _Poison:
    """Iterator that fails the test if pulled."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("productive head inspected its right argument")


def test_union_p_emits_head_before_touching_right():
    for disjoint in (False, True):
        stream = fold_union_p((iter([4, 6, 8]), _Poison()), disjoint)
        assert next(stream) == 4


def test_d_union_p_single_then_rest():
    for disjoint in (False, True):
        stream = fold_union_p((iter([3]), iter([5, 7])), disjoint)
        assert list(stream) == [3, 5, 7]


# the ids name the head-first unions of two streams, plain and disjoint
@pytest.mark.parametrize("disjoint", [False, True], ids=["union_p", "d_union_p"])
@pytest.mark.parametrize("ys", [[], [1], [1, 3]])
def test_head_first_union_of_empty_passes_right_through(disjoint, ys):
    assert list(fold_union_p((iter([]), iter(ys)), disjoint)) == ys


def test_scaled_overflow_is_an_error():
    with pytest.raises(StreamOverflow):
        list(scaled(3, iter([1, U64_MAX // 2])))


def test_square_past_64_bits_is_a_stream_error():
    # H's levels square their prime first; a caller that catches the
    # kernel's errors catches that overflow too
    with pytest.raises(StreamError, match="exceeds 64 bits"):
        take(composites_of_primes(iter([2**32 + 15])), 1)


def test_bounded_raises_past_64_bits():
    stream = bounded(count(U64_MAX - 1))
    assert take(stream, 2) == [U64_MAX - 1, U64_MAX]
    with pytest.raises(StreamOverflow):
        next(stream)
    with pytest.raises(StreamOverflow):
        list(bounded(iter([U64_MAX, U64_MAX + 1])))


def test_bounded_ends_with_its_source():
    assert list(bounded(iter([]))) == []
    assert list(bounded(iter([1, U64_MAX]))) == [1, U64_MAX]


def test_fold_union_p_three_streams():
    streams = iter([iter([4, 8, 16]), iter([9, 27]), iter([25])])
    got = list(fold_union_p(streams))
    assert got == sorted({4, 8, 16, 9, 27, 25})


def test_fold_union_p_single_stream():
    assert list(fold_union_p(iter([iter([3, 5, 9])]))) == [3, 5, 9]


def test_fold_union_p_takes_iterables_without_counters():
    streams = iter([range(4, 9, 2), range(9, 20, 3)])
    assert take(fold_union_p(streams), 5) == [4, 6, 8, 9, 12]


def test_fold_union_p_bird_composites_each_once():
    primes = oracle.primes_up_to(30)
    streams = iter(scaled(p, count(p)) for p in primes)
    got = [v for v in take(fold_union_p(streams), 60) if v <= 30]
    assert got == oracle.composites_up_to(30)


class _ForceCounter:
    def __init__(self, streams):
        self._streams = iter(streams)
        self.forced = 0

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self._streams)
        self.forced += 1
        return value


def test_fold_union_p_productivity_bound(primes10k):
    # pull elements one by one, checking the forcing bound as we go
    counter = _ForceCounter(scaled(p, count(p)) for p in primes10k)
    fold = fold_union_p(counter)
    for _ in range(20_000):
        value = next(fold)
        bound = len(oracle.primes_up_to(int(value ** 0.5))) + 1
        assert counter.forced <= bound


@st.composite
def fold_inputs(draw, disjoint):
    # up to 40 finite streams with strictly increasing heads, empty ones
    # mixed in; the non-disjoint ones share values past their heads
    k = draw(st.integers(0, 40))
    owner = draw(st.dictionaries(st.integers(0, 600), st.integers(0, 39),
                                 max_size=200))
    parts = [sorted(v for v, i in owner.items() if i == j) for j in range(k)]
    streams = sorted((p for p in parts if p), key=lambda p: p[0])
    if not disjoint:
        rng = draw(st.randoms())
        streams = [sorted(set(p) | {v for v in owner if v > p[0]
                                    and rng.random() < 0.2})
                   for p in streams]
    for _ in range(k - len(streams)):
        streams.insert(draw(st.integers(0, len(streams))), [])
    return streams


@pytest.mark.parametrize("disjoint", [False, True])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_union_p_on_finite_and_empty_streams(disjoint, data):
    streams = data.draw(fold_inputs(disjoint))
    plain = list(fold_union_p((iter(s) for s in streams), disjoint))
    counted = list(fold_union_p((iter(s) for s in streams), disjoint,
                                RunCounters()))
    assert plain == sorted(set().union(*streams))
    assert counted == plain


def test_fold_union_p_merges_each_element_about_log_k_times():
    # a linear fold would merge the k-th stream's element k times: about
    # k/2 comparisons per output here
    k = 2**10
    counters = RunCounters()
    out = list(fold_union_p((iter([i]) for i in range(k)), False, counters))
    assert out == list(range(k))
    assert counters.comparisons / k <= 4 * 10


def test_fold_union_p_depth_fits_a_low_recursion_limit():
    script = textwrap.dedent("""
        import sys
        from primegen.streams import fold_union_p
        sys.setrecursionlimit(100)
        out = list(fold_union_p(iter(range(i, 50_000, 5_000))
                                for i in range(5_000)))
        assert out == list(range(50_000))
        assert sys.getrecursionlimit() == 100
    """)
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_monotone_outputs_at_scale():
    rng = random.Random(7)
    a = sorted(random.Random(1).sample(range(10**7), 10_000))
    b = sorted(rng.sample(range(10**7), 10_000))
    a_set = set(a)
    shared = sorted(a_set & set(b))
    disjoint_b = [x for x in b if x not in a_set]
    for stream in (
        union(iter(a), iter(b)),
        d_union(iter(a), iter(disjoint_b)),
        minus(iter(a), iter(b)),
        s_minus(iter(a), iter(shared)),
    ):
        out = list(stream)
        assert all(x < y for x, y in zip(out, out[1:]))


def test_instrumented_paths_match_fast_paths():
    a = sorted(random.Random(3).sample(range(5000), 800))
    b = sorted(random.Random(4).sample(range(5000), 800))
    shared = sorted(set(a) & set(b))
    disjoint_b = [x for x in b if x not in set(a)]

    def multiples():
        return iter([iter(range(p * p, 5000, p)) for p in (2, 3, 5, 7, 11, 13)])

    def parts():
        return iter([iter(a[i::4]) for i in range(4)])

    fold_counters, minus_counters = RunCounters(), RunCounters()
    for fast, slow in (
        (union(iter(a), iter(b)), union(iter(a), iter(b), RunCounters())),
        (minus(iter(a), iter(b)), minus(iter(a), iter(b), minus_counters)),
        (d_union(iter(a), iter(disjoint_b)),
         d_union(iter(a), iter(disjoint_b), RunCounters())),
        (s_minus(iter(a), iter(shared)),
         s_minus(iter(a), iter(shared), RunCounters())),
        (fold_union_p(multiples()),
         fold_union_p(multiples(), False, fold_counters)),
        (fold_union_p(parts(), True),
         fold_union_p(parts(), True, RunCounters())),
    ):
        assert list(fast) == list(slow)
    assert fold_counters.comparisons > 0 and minus_counters.comparisons > 0


def test_instrumented_comparisons_counted():
    counters = RunCounters()
    list(union(iter([1, 3]), iter([2, 4]), counters))
    assert counters.comparisons > 0


def test_broken_preconditions_under_optimize_give_union_and_minus_output():
    # -O strips the precondition asserts; the combinators must then behave
    # like `union`/`minus`, counted or not
    script = textwrap.dedent("""
        from primegen.streams import RunCounters, d_union, fold_union_p, s_minus
        for counters in (None, RunCounters()):
            print(list(s_minus(iter([2, 5, 6]), iter([3, 5]), counters)))
            print(list(d_union(iter([1, 5]), iter([5, 7]), counters)))
            print(list(fold_union_p(iter([iter([4, 6]), iter([6, 9])]),
                                    True, counters)))
    """)
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[2, 6]", "[1, 5, 7]", "[4, 6, 9]"] * 2


# ---------------------------------------------------------------------------
# fixpoints


def test_fix_stream_constant_producer():
    stream = fix_stream(lambda h: iter([7, 8, 9]))
    assert list(stream) == [7, 8, 9]


def test_fix_stream_self_demand_raises():
    stream = fix_stream(lambda h: h.reader())
    with pytest.raises(NonProductiveStream):
        next(stream)


def test_fix_stream_self_demanding_level_raises():
    # a Hamming level that scales its own output from element 0 on
    stream = fix_stream(lambda h: scaled(2, h.reader()))
    with pytest.raises(NonProductiveStream):
        next(stream)


def test_fix_stream_late_reader_is_an_error():
    handles = []

    def producer(h):
        handles.append(h)
        return count(0)

    stream = fix_stream(producer)
    assert next(stream) == 0
    with pytest.raises(StreamError):
        handles[0].reader()
    assert take(stream, 3) == [1, 2, 3]


def test_fix_stream_readers_may_skip():
    # s(n) = s(n-2) + s(n-1) + 2, read through two copies of s
    def producer(h):
        back2 = h.reader()
        back1 = h.reader(1)
        yield 0
        yield 2
        for a, b in zip(back2, back1):
            yield a + b + 2

    assert take(fix_stream(producer), 6) == [0, 2, 4, 8, 14, 24]


def test_fix_stream_bird_primes():
    def knot(h):
        composites = fold_union_p(scaled(p, count(p)) for p in h.reader())
        yield 2
        yield from minus(count(3), composites)

    assert take(fix_stream(knot), 25) == oracle.first_primes(25)


def test_fixpoint_readers_identical():
    fp = StreamFixpoint(lambda h: count(5, 3))
    a = fp.reader()
    b = fp.reader()
    assert take(a, 50) == take(b, 50)
    c = fp.reader()
    assert take(c, 50) == take(fp.reader(), 50)


def test_fixpoint_reader_skip():
    fp = StreamFixpoint(lambda h: count(0))
    assert take(fp.reader(skip=4), 3) == [4, 5, 6]


def test_fixpoint_buffer_high_water():
    counters = RunCounters()
    fp = StreamFixpoint(lambda h: count(0), counters)
    take(fp.reader(), 100)
    take(fp.reader(), 50)  # replay only
    assert counters.peak_buffer == 100


def test_replay_shares_one_iterator():
    source = count(10)
    shared = replay(source)
    assert take(shared.reader(), 3) == [10, 11, 12]
    assert take(shared.reader(), 5) == [10, 11, 12, 13, 14]
    assert next(source) == 15  # underlying iterator advanced exactly once


class _CountedPulls:
    """An iterator over `values` that counts the calls to its `__next__`,
    the one that finds it ended included."""

    def __init__(self, values):
        self._it = iter(values)
        self.pulls = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.pulls += 1
        return next(self._it)


PULLERS = {
    "union": union,
    "d_union": d_union,
    "minus": minus,
    "s_minus": s_minus,
    "fold_union_p": fold_union_p,
    "fold_union_p/disjoint": lambda levels: fold_union_p(levels, True),
}

# (combinator, inputs, trace): each trace row is an output element and the
# pulls made of every input once it is out; the last row, None, holds them
# once the output has ended. A fold's inputs are its inner streams, and the
# first count is of the stream of them. Every merge and difference step
# pulls one element, and an ended input is found ended once.
PULL_TRACES = [
    ("union", ([], []),
     [(None, 1, 1)]),
    ("union", ([], [1, 2]),
     [(1, 1, 1), (2, 1, 2), (None, 1, 3)]),
    ("union", ([1, 2], []),
     [(1, 1, 1), (2, 2, 1), (None, 3, 1)]),
    ("union", ([1, 3, 5], [2, 4, 6]),
     [(1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 3, 2), (5, 3, 3), (6, 4, 3),
      (None, 4, 4)]),
    ("union", ([1, 2], [3, 5, 7]),
     [(1, 1, 1), (2, 2, 1), (3, 3, 1), (5, 3, 2), (7, 3, 3), (None, 3, 4)]),
    ("union", ([4, 6, 8, 10], [5, 7]),
     [(4, 1, 1), (5, 2, 1), (6, 2, 2), (7, 3, 2), (8, 3, 3), (10, 4, 3),
      (None, 5, 3)]),
    ("union", ([1, 3, 5], [1, 3, 4, 9]),
     [(1, 1, 1), (3, 2, 2), (4, 3, 3), (5, 3, 4), (9, 4, 4), (None, 4, 5)]),
    ("union", ([2, 4, 6], [2, 4, 6]),
     [(2, 1, 1), (4, 2, 2), (6, 3, 3), (None, 4, 4)]),
    ("d_union", ([], []),
     [(None, 1, 1)]),
    ("d_union", ([], [1, 2]),
     [(1, 1, 1), (2, 1, 2), (None, 1, 3)]),
    ("d_union", ([1, 2], []),
     [(1, 1, 1), (2, 2, 1), (None, 3, 1)]),
    ("d_union", ([1, 3, 5], [2, 4, 6]),
     [(1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 3, 2), (5, 3, 3), (6, 4, 3),
      (None, 4, 4)]),
    ("d_union", ([1, 2], [3, 5, 7]),
     [(1, 1, 1), (2, 2, 1), (3, 3, 1), (5, 3, 2), (7, 3, 3), (None, 3, 4)]),
    ("d_union", ([4, 6, 8, 10], [5, 7]),
     [(4, 1, 1), (5, 2, 1), (6, 2, 2), (7, 3, 2), (8, 3, 3), (10, 4, 3),
      (None, 5, 3)]),
    ("minus", ([], []),
     [(None, 1, 0)]),
    ("minus", ([], [1]),
     [(None, 1, 0)]),
    ("minus", ([1, 2], []),
     [(1, 1, 1), (2, 2, 1), (None, 3, 1)]),
    ("minus", ([1, 2, 3, 4, 5], [2, 4]),
     [(1, 1, 1), (3, 3, 2), (5, 5, 3), (None, 6, 3)]),
    ("minus", ([1, 2, 3], [1, 2, 3]),
     [(None, 4, 3)]),
    ("minus", ([3, 5, 7, 9], [3]),
     [(5, 2, 2), (7, 3, 2), (9, 4, 2), (None, 5, 2)]),
    ("minus", ([2, 4, 6], [1, 3, 4, 8]),
     [(2, 1, 2), (6, 3, 4), (None, 4, 4)]),
    ("minus", ([1, 2], [0, 5, 7]),
     [(1, 1, 2), (2, 2, 2), (None, 3, 2)]),
    ("s_minus", ([], []),
     [(None, 1, 0)]),
    ("s_minus", ([], [1]),
     [(None, 1, 0)]),
    ("s_minus", ([1, 2], []),
     [(1, 1, 1), (2, 2, 1), (None, 3, 1)]),
    ("s_minus", ([1, 2, 3, 4, 5], [2, 4]),
     [(1, 1, 1), (3, 3, 2), (5, 5, 3), (None, 6, 3)]),
    ("s_minus", ([1, 2, 3], [1, 2, 3]),
     [(None, 4, 3)]),
    ("s_minus", ([3, 5, 7, 9], [3]),
     [(5, 2, 2), (7, 3, 2), (9, 4, 2), (None, 5, 2)]),
    ("fold_union_p", [],
     [(None, 1)]),
    ("fold_union_p/disjoint", [[]],
     [(None, 2, 1)]),
    ("fold_union_p", [[], []],
     [(None, 3, 1, 1)]),
    ("fold_union_p", [[4, 6, 8, 10, 12], [9, 12, 15], [], [25, 30], [49]],
     [(4, 1, 1, 0, 0, 0, 0), (6, 2, 2, 1, 0, 0, 0), (8, 2, 3, 1, 0, 0, 0),
      (9, 2, 4, 1, 0, 0, 0), (10, 4, 4, 2, 1, 1, 0), (12, 4, 5, 2, 1, 1, 0),
      (15, 4, 6, 3, 1, 1, 0), (25, 4, 6, 4, 1, 1, 0), (30, 5, 6, 4, 1, 2, 1),
      (49, 5, 6, 4, 1, 3, 1), (None, 8, 6, 4, 1, 3, 2)]),
    ("fold_union_p/disjoint",
     [[2, 3], [5, 7, 11], [13], [17, 19, 23, 29], [31], [37, 41]],
     [(2, 1, 1, 0, 0, 0, 0, 0), (3, 2, 2, 1, 0, 0, 0, 0),
      (5, 2, 3, 1, 0, 0, 0, 0), (7, 3, 3, 2, 1, 0, 0, 0),
      (11, 3, 3, 3, 1, 0, 0, 0), (13, 3, 3, 4, 1, 0, 0, 0),
      (17, 4, 3, 4, 2, 1, 0, 0), (19, 5, 3, 4, 2, 2, 1, 0),
      (23, 5, 3, 4, 2, 3, 1, 0), (29, 5, 3, 4, 2, 4, 1, 0),
      (31, 5, 3, 4, 2, 5, 1, 0), (37, 6, 3, 4, 2, 5, 2, 1),
      (41, 8, 3, 4, 2, 5, 2, 2), (None, 8, 3, 4, 2, 5, 2, 3)]),
]


@pytest.mark.parametrize(
    "name, inputs, trace", PULL_TRACES,
    ids=["%s-%d" % (case[0], i) for i, case in enumerate(PULL_TRACES)])
def test_combinators_pull_one_element_per_step(name, inputs, trace):
    sources = [_CountedPulls(values) for values in inputs]
    if name.startswith("fold"):
        sources.insert(0, _CountedPulls(list(sources)))
        out = PULLERS[name](sources[0])
    else:
        out = PULLERS[name](*sources)
    got = [(v, *(s.pulls for s in sources)) for v in out]
    assert got + [(None, *(s.pulls for s in sources))] == trace
