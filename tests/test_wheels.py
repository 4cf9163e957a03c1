from itertools import accumulate, count, cycle, pairwise
from math import gcd

import pytest

from primegen import oracle
from primegen.streams import RunCounters, StreamError, StreamOverflow, take
from primegen.wheels import (
    Wheel,
    WheelChain,
    mount,
    next_wheel,
    next_wheel1,
    s4_gaps,
    s4_stream,
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
    wheels = WheelChain(())
    rolled = wheels.turn(2)
    if np is None:
        with pytest.raises(StreamError, match="cannot roll an empty wheel"):
            next(rolled)
    else:
        with pytest.raises(StreamError, match="cannot merge an empty wheel"):
            next(wheels.turn(np))


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
    for v in accumulate(cycle(w), initial=p):
        if v > bound:
            break
        got.append(v)
    want = [n for n in range(p, bound + 1) if gcd(n, circumference) == 1]
    assert got == want


def test_precomputed_w4():
    w, s4 = wheel4(), s4_stream()
    assert len(w.deltas) == 48 and sum(w.deltas) == 210
    assert take(s4, 27) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                            59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103,
                            107, 109, 113, 121]
    density = 1 - len(w.deltas) / sum(w.deltas)
    assert abs(density - 0.77) < 0.01


def test_mount_bare_and_on_the_wheel():
    primes, wheel, cand = mount(False)
    assert primes == (2,) and sum(wheel) == 1
    assert take(cand, 3) == [2, 3, 4]
    primes, wheel, cand = mount(True)
    assert primes == (2, 3, 5, 7, 11) and sum(wheel) == 210
    assert take(cand, 3) == [11, 13, 17]


def test_w4_is_cached_object():
    assert wheel4() is wheel4()


def test_s4_gaps_resume_the_phase():
    # w_4 resumed at the phase of its start, as the wheeled multiples step
    assert take(accumulate(cycle(s4_gaps(13)), initial=13), 6) == [
        13, 17, 19, 23, 29, 31]
    assert take(accumulate(cycle(s4_gaps(121)), initial=121), 3) == [
        121, 127, 131]
    with pytest.raises(ValueError):
        s4_gaps(14)


def test_wheel_chain_matches_eager_wheels_up_to_seven():
    primes = oracle.first_primes(8)
    wheels = WheelChain((1,))
    rolls = [wheels.turn(p) for p in primes]
    eager = [Wheel((1,), 0)]
    for p in primes[:-1]:
        eager.append(next_wheel1(eager[-1], p))
    # the deepest wheel first, so one read grows every wheel below it
    for k in range(7, 0, -1):
        deltas = eager[k].deltas
        assert take(rolls[k], 2 * len(deltas)) == list(deltas * 2)


def test_wheel_chain_matches_scan_from_eight_to_eleven():
    primes = oracle.first_primes(12)
    wheels = WheelChain(wheel4())
    rolls = [wheels.turn(p) for p in primes[4:]]
    for k in range(11, 7, -1):
        scan = _scanned_gaps(primes[:k], primes[k])
        assert take(rolls[k - 4], 3000) == take(scan, 3000)


def _scanned_gaps(prefix, start):
    # the gaps between the numbers from `start` with no factor in `prefix`,
    # found by trial division
    kept = (n for n in count(start) if all(n % q for q in prefix))
    return (b - a for a, b in pairwise(kept))


def test_wheel_chain_opens_wheels_unread():
    counters = RunCounters()
    wheels = WheelChain((2, 4), counters)
    wheels.turn(5)
    lazy = wheels.turn(7)
    assert counters.buffered == 0
    assert next(lazy) == 4
    # both gaps of the base wheel, then the first of the next
    assert counters.buffered == 3


def test_next_wheel_deltas_lazy_and_correct():
    wheels = WheelChain((2, 4))
    wheels.turn(5)
    lazy = wheels.turn(7)
    assert take(lazy, 10) == [4, 2, 4, 2, 4, 6, 2, 6, 4, 2]


def test_wheel_chain_gap_past_16_bits_overflows():
    # gaps live in 2-byte arrays; a merged gap past 65,535 raises, never wraps
    wheels = WheelChain((40_000, 40_000))
    assert take(wheels.turn(3), 3) == [40_000, 40_000, 40_000]
    with pytest.raises(StreamOverflow):
        next(wheels.turn(5))
    with pytest.raises(StreamOverflow):
        next(WheelChain((65_536,)).turn(3))
    assert next(WheelChain((65_535,)).turn(3)) == 65_535


def test_cyc_replays_small_wheels():
    wheels = WheelChain((2, 4))
    assert take(wheels.turn(5), 7) == [2, 4, 2, 4, 2, 4, 2]
