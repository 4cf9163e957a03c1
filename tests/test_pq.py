import heapq
from collections import Counter
from itertools import count, takewhile
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from primegen import ALL_VARIANTS, cli, oracle
from primegen.pq import (PQ_VARIANTS, CompositePQ, _queued, epq_sieve,
                         oneill_sieve, wpq_sieve)
from primegen.sieves import _multiples, es_euler, wheel_euler_w4
from primegen.streams import RunCounters, take


def test_oneill_advances_every_entry_tied_on_a_key():
    counters = RunCounters.with_tally()
    assert take(oneill_sieve(False, counters), 6)[-1] == 13
    assert counters.popped[12] == 2  # the entries of 2 and 3
    assert counters.tally[12] == 2
    assert counters.pop_inversions == 0


def test_queue_counts_each_square_when_it_is_inserted():
    counters = RunCounters.with_tally()
    gen = oneill_sieve(False, counters)
    assert take(gen, 4) == [2, 3, 5, 7]
    assert sorted(counters.tally) == [4, 6, 8]  # 9 is not reached yet
    assert counters.pq_size == 1
    assert next(gen) == 11
    assert counters.tally[9] == 1 and counters.pq_size == 2
    assert counters.popped[9] == 1  # its entry advances at once


@pytest.mark.parametrize("sieve", [epq_sieve, wpq_sieve])
def test_euler_pq_pops_each_key_once(sieve):
    bound = 20_000
    counters = RunCounters.with_tally()
    for p in sieve(False, counters):
        if p > bound:
            break
    popped = {k: c for k, c in counters.popped.items() if k <= bound}
    assert sorted(popped) == oracle.composites_up_to(bound)
    assert set(popped.values()) == {1}
    assert counters.pop_inversions == 0


def test_packed_heap_items_order_keys_past_63_bits():
    # the driver over synthetic input: base "primes" whose squares and keys
    # pass 2**63, two entries tied on a key, and candidates no entry keys
    p1, p2 = 2**32 + 15, 2**32 + 17
    tie, last = p2 * p2 + 2**40, p2 * p2 + 2**41
    advanced = []

    def multiples(p):
        for key in (p * p, tie, last + p):
            yield key
            advanced.append((p, key))

    cand = iter([p1, p1 * p1, p1 * p1 + 1, p2 * p2, tie - 1, tie, last])
    counters = RunCounters.with_tally()
    out = list(_queued(cand, iter([p2, 2**40]), multiples, counters))
    assert out == [p1 * p1 + 1, tie - 1, last]
    assert advanced == [(p1, p1 * p1), (p2, p2 * p2), (p1, tie), (p2, tie)]
    assert counters.popped[tie] == 2
    assert counters.pq_size == 2
    assert counters.pop_inversions == 0


def test_repacked_heap_pops_by_key_then_insertion_order():
    # 40 entries widen the index field at 1, 2, 4, ..., 32 entries; keys
    # repeat, so entries tied on a key straddle each repack
    ps = [7, 3, 5, 3, 2, 7, 5, 2, 3, 7] * 4
    pq = CompositePQ()
    for p in ps:
        pq.insert(p, iter(()))
    assert pq.shift == 6 and len(pq) == len(ps)
    mask = (1 << pq.shift) - 1
    got = [heapq.heappop(pq.heap) for _ in ps]
    assert [(it >> pq.shift, it & mask) for it in got] == sorted(
        (p * p, i) for i, p in enumerate(ps))


def test_oneill_heap_items_fit_one_digit_at_the_benchmark_scale():
    # O'N's driver sieving to v = 823,000 holds the 155 base primes up to
    # 907; every item, its key above its index, stays below 2**30
    v = 823_000
    gen = _queued(count(2), iter(oracle.primes_up_to(1000)[1:]),
                  _multiples(False), None)
    assert list(takewhile(v.__gt__, gen))[-1] == oracle.primes_up_to(v)[-1]
    heap = gen.gi_frame.f_locals["heap"]
    assert len(heap) == len(oracle.primes_up_to(907)) == 155
    assert max(heap) < 1 << 30


@pytest.mark.parametrize("w4", [False, True])
def test_oneill_matches_oracle(w4, primes10k):
    assert take(oneill_sieve(w4), 10_000) == primes10k


@pytest.mark.parametrize("w4", [False, True])
def test_epq_matches_oracle(w4, primes10k):
    assert take(epq_sieve(w4), 10_000) == primes10k


@pytest.mark.parametrize("w4", [False, True])
def test_wpq_matches_oracle(w4, primes10k):
    assert take(wpq_sieve(w4), 10_000) == primes10k


def test_epq_equals_stream_es(primes10k):
    assert take(epq_sieve(False), 10_000) == take(es_euler(), 10_000)


def test_wpq4_equals_stream_w4(primes10k):
    assert take(wpq_sieve(True), 10_000) == take(wheel_euler_w4(), 10_000)


def test_oneill_key_entries_match_bird_multiplicity():
    tally = cli.tallied_run(PQ_VARIANTS["on"], 2_000)[3]
    assert sorted(tally) == oracle.composites_up_to(2_000)
    for c, times in tally.items():
        assert times == oracle.bird_multiplicity(c)
    assert tally[120] == 3


@pytest.mark.parametrize("name", ["epq", "wpq"])
def test_euler_pq_keys_enter_once(name):
    tally = cli.tallied_run(PQ_VARIANTS[name], 20_000)[3]
    assert sorted(tally) == oracle.composites_up_to(20_000)
    assert set(tally.values()) == {1}


@pytest.mark.parametrize("fold,queue", [
    ("bs", "on"), ("bs4", "on4"), ("w", "wpq"), ("w4", "wpq4"),
    ("es", "epq"), ("es4", "epq4"),
])
def test_fold_and_queue_forms_generate_the_same_composites(fold, queue):
    # one level per family: its fold and its queue form generate the same
    # composites, as often each
    bound = 20_000
    tallies = [cli.tallied_run(ALL_VARIANTS[name], bound)[3]
               for name in (fold, queue)]
    assert tallies[0] == tallies[1]
    wheel = PQ_VARIANTS[queue].wheel
    assert sorted(tallies[0]) == [c for c in oracle.composites_up_to(bound)
                                  if not wheel or gcd(c, 210) == 1]


def test_epq_first_key_and_continuation():
    counters = RunCounters.with_tally()
    take(epq_sieve(False, counters), 5)
    keys = sorted(counters.tally)
    assert keys[0] == 4
    assert keys[:3] == [4, 6, 8]


def test_wpq4_first_key():
    counters = RunCounters.with_tally()
    gen = wpq_sieve(True, counters)
    take(gen, 6)  # up to 13: 11 is found, its entry waits for 121
    assert not counters.tally
    for p in gen:
        if p > 121:
            break
    assert min(counters.tally) == 121


def test_epq_wpq_pop_identical_key_multisets():
    bound = 100_000
    popped = []
    for sieve in (epq_sieve, wpq_sieve):
        counters = RunCounters.with_tally()
        for p in sieve(False, counters):
            if p > bound:
                break
        popped.append(Counter({k: c for k, c in counters.popped.items()
                               if k <= bound}))
    assert popped[0] == popped[1]


@pytest.mark.parametrize("name", sorted(PQ_VARIANTS))
def test_queue_shape_and_pop_order(name):
    # the exact entry count `verify` checks: one per base prime up to
    # sqrt(p_n), past the wheel's
    cli._check_pq_shape(PQ_VARIANTS[name], 10_000)


# prefixes that end just past the squares where the postponed feed is first
# created and advanced: 4 and 9 plain, 121 and 169 on the wheel
@given(n=st.integers(1, 3000))
@example(n=3)
@example(n=5)
@example(n=31)
@example(n=40)
@settings(max_examples=40, deadline=None)
def test_every_queue_variant_matches_oracle_prefix(n):
    expect = oracle.first_primes(n)
    for name, variant in PQ_VARIANTS.items():
        counters = RunCounters()
        assert take(variant.factory(counters=counters), n) == expect, name
        assert counters.pop_inversions == 0, name


@pytest.mark.parametrize("name", ["on", "on4"])
def test_oneill_queue_state_grows_slowly(name):
    small, large = (traced_peak(name, n) for n in (2**12, 2**14))
    assert large <= 2.5 * small


@pytest.mark.parametrize("name", ["wpq", "wpq4", "epq", "epq4"])
def test_euler_queue_state_stays_small(name):
    assert traced_peak(name, 2**14) < 4 * 2**20
