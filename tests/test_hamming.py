from itertools import islice, takewhile
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegen import hamming, oracle
from primegen.hamming import composites_of_primes, hamming_stream
from primegen.streams import RunCounters, StreamOverflow, take


def test_hamming_235_prefix():
    got = take(hamming_stream([2, 3, 5]), 13)
    assert got == [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20]


def test_hamming_empty():
    assert list(hamming_stream([])) == []


def test_hamming_single_generator():
    assert take(hamming_stream([7]), 4) == [7, 49, 343, 2401]


def test_hamming_matches_scan_oracle():
    for gens in ([2, 3, 5], [2, 7], [3, 5, 11], [11]):
        want = oracle.smooth_up_to(gens, 100_000)
        got = []
        for v in hamming_stream(gens):
            if v > 100_000:
                break
            got.append(v)
        assert got == want


def test_hamming_first_10k_match_heap_oracle():
    want = oracle.first_smooth([2, 3, 5], 10_000)
    assert take(hamming_stream([2, 3, 5]), 10_000) == want


def test_hamming_generates_each_value_once():
    counters = RunCounters.with_tally()
    take(hamming_stream([2, 3, 5], counters), 5_000)
    assert all(c == 1 for c in counters.tally.values())


def test_hamming_over_prime_stream():
    primes = oracle.first_primes(200)
    got = take(hamming_stream(iter(primes)), 60)
    assert got == oracle.smooth_up_to(primes, got[-1])


def test_hamming_over_many_generators_opens_few_levels():
    # the closure of the primes up to 27449 is every number from 2 to it;
    # only the generators up to its square root open a level
    primes = oracle.first_primes(3000)
    assert take(hamming_stream(iter(primes)), 27448) == list(range(2, 27450))


def test_composites_of_primes_complement(composites100k):
    primes = oracle.first_primes(100)
    got = []
    for v in composites_of_primes(iter(primes)):
        if v > 100:
            break
        got.append(v)
    assert got == [c for c in composites100k if c <= 100]


def test_composites_of_prime_suffix():
    primes = oracle.first_primes(60)
    got = take(composites_of_primes(iter(primes[4:])), 6)
    assert got == [121, 143, 169, 187, 209, 221]


def test_composites_of_single_prime():
    assert take(composites_of_primes(iter([2])), 4) == [4, 8, 16, 32]


def test_composites_generated_once_below_bound():
    counters = RunCounters.with_tally()
    primes = oracle.first_primes(2000)
    bound = 10_000
    for v in composites_of_primes(iter(primes), counters):
        if v > bound:
            break
    tally = {v: c for v, c in counters.tally.items() if v <= bound}
    assert sorted(tally) == oracle.composites_up_to(bound)
    assert set(tally.values()) == {1}


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(oracle.first_primes(40)), min_size=1, max_size=8))
def test_composites_of_any_prime_set_match_the_scan(gens):
    # the sets skip primes, so a gcd filter whose modulus were the product
    # of the first primes, not of P's own primes below x, would fail here
    gens = sorted(gens)
    bound = 20_000
    counters = RunCounters.with_tally()
    got = list(takewhile(bound.__ge__, composites_of_primes(iter(gens), counters)))
    assert got == [v for v in oracle.smooth_up_to(gens, bound) if v not in gens]
    assert all(counters.tally[v] == 1 for v in got)


def test_composites_past_64_bits_raise_stream_overflow():
    # 4294967291**2 fits in 64 bits, its cube does not
    with pytest.raises(StreamOverflow):
        take(composites_of_primes(iter([4294967291])), 3)


def test_generator_with_square_past_64_bits_is_an_overflow_error():
    with pytest.raises(OverflowError):
        take(composites_of_primes(iter([2**32 + 15])), 1)


def test_levels_never_filter_below_their_square(monkeypatch):
    # an element of C below x*x has a prime factor below x, so the gcd
    # filter of level x must never be asked about one; the second set skips
    # primes, as the hypothesis test's sets do
    for gens in oracle.first_primes(100), [3, 7, 11, 13, 29, 31, 37, 61]:
        level = {}  # the product of the generators below x -> x
        below = 1
        for x in gens:
            level[below] = x
            below *= x
        scans = []

        def spy(c, below):
            scans.append(c >= level[below] ** 2)
            return gcd(c, below)

        monkeypatch.setattr(hamming, "gcd", spy)
        bound = 200_000
        got = list(takewhile(bound.__ge__, composites_of_primes(iter(gens))))
        assert got == [v for v in oracle.smooth_up_to(gens, bound)
                       if v not in gens]
        assert scans and all(scans)
