from math import gcd

import pytest

from primegen import oracle
from primegen.streams import StreamError, StreamOverflow, replay, spin, take
from primegen.wheels import (
    Wheel,
    coprime_gaps,
    cyc,
    next_wheel,
    next_wheel1,
    next_wheel_deltas,
    precomputed_w4,
    s4_from,
    s4_stream,
    shared_deltas,
    wheel_from_primes,
    wheel4,
)


def test_wheel_zero_from_scratch():
    w = wheel_from_primes([], 2)
    assert w.deltas == (1,)
    assert w.index == 0


def test_wheel_two_from_scratch():
    assert wheel_from_primes([2, 3], 5).deltas == (2, 4)


def test_wheel_four_from_scratch():
    w = wheel_from_primes([2, 3, 5, 7], 11)
    assert len(w.deltas) == 48
    assert sum(w.deltas) == 210
    assert w.deltas[0] == 2


def test_wheel_window_overflow():
    primes = oracle.first_primes(16)
    with pytest.raises(StreamOverflow):
        wheel_from_primes(primes, 59)


def test_next_wheel_paper_example():
    assert next_wheel(Wheel((2, 4), 2), 5, 7).deltas == (4, 2, 4, 2, 4, 6, 2, 6)


def test_next_wheel_empty_is_wheel_zero():
    assert next_wheel(Wheel((), None), 5, 7).deltas == (1,)


@pytest.mark.parametrize("np", [None, 3])
def test_next_wheel_deltas_of_empty_wheel_is_an_error(np):
    with pytest.raises(StreamError, match="empty wheel"):
        next(next_wheel_deltas(replay(iter(())), 2, np))


def test_next_wheel_from_wheel_zero():
    assert next_wheel(Wheel((1,), 0), 2, 3).deltas == (2,)


def test_next_wheel1_matches_from_scratch():
    assert next_wheel1(Wheel((2, 4), 2), 5).deltas == (4, 2, 4, 2, 4, 6, 2, 6)
    assert next_wheel1(Wheel((2,), 1), 3).deltas == wheel_from_primes([2, 3], 5).deltas
    w3 = next_wheel1(Wheel((2, 4), 2), 5)
    w4_ = next_wheel1(w3, 7)
    assert w4_.deltas == wheel_from_primes([2, 3, 5, 7], 11).deltas


def test_next_wheel1_needs_a_gap():
    with pytest.raises(ValueError):
        next_wheel1(Wheel((), None), 2)


def test_incremental_chain_matches_scratch_up_to_seven():
    primes = oracle.first_primes(9)
    w = Wheel((1,), 0)
    for k in range(1, 8):
        w = next_wheel1(w, primes[k - 1])
        assert w.index == k
        scratch = wheel_from_primes(primes[:k], primes[k])
        assert w.deltas == scratch.deltas
        assert sum(w.deltas) == oracle.primorial(k)
        assert len(w.deltas) == oracle.totient(oracle.primorial(k))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_spin_enumerates_coprime_survivors(k):
    primes = oracle.first_primes(k + 1)
    prefix, p = primes[:k], primes[k]
    w = wheel_from_primes(prefix, p)
    circumference = oracle.primorial(k)
    bound = 100_000
    got = []
    for v in spin(cyc(shared_deltas(w)), p):
        if v > bound:
            break
        got.append(v)
    want = [n for n in range(p, bound + 1) if gcd(n, circumference) == 1]
    assert got == want


def test_precomputed_w4():
    w, s4 = precomputed_w4()
    assert len(w.deltas) == 48 and sum(w.deltas) == 210
    assert take(s4, 27) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                            59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103,
                            107, 109, 113, 121]
    density = 1 - len(w.deltas) / sum(w.deltas)
    assert abs(density - 0.77) < 0.01


def test_w4_is_cached_object():
    assert wheel4() is wheel4()


def test_s4_from_resumes_phase():
    tail = take(s4_from(13), 6)
    assert tail == [13, 17, 19, 23, 29, 31]
    assert take(s4_from(121), 3) == [121, 127, 131]
    with pytest.raises(ValueError):
        s4_from(14)


def test_coprime_gaps_match_wheel():
    w = wheel_from_primes([2, 3, 5], 7)
    scanned = take(coprime_gaps((2, 3, 5), 7), 16)
    assert tuple(scanned[:8]) == w.deltas
    assert tuple(scanned[8:]) == w.deltas  # scan keeps rolling past one turn


def test_next_wheel_deltas_lazy_and_correct():
    shared = shared_deltas((2, 4))
    lazy = next_wheel_deltas(shared, 5)
    assert list(lazy) == [4, 2, 4, 2, 4, 6, 2, 6]


def test_next_wheel_deltas_nothing_pulled_until_demand():
    pulls = []

    def noisy():
        for d in (2, 4):
            pulls.append(d)
            yield d

    shared = replay(noisy())
    lazy = next_wheel_deltas(shared, 5)
    assert pulls == []
    assert next(lazy) == 4
    assert pulls != []


def test_cyc_replays_small_wheels():
    shared = shared_deltas((2, 4))
    assert take(cyc(shared), 7) == [2, 4, 2, 4, 2, 4, 2]
