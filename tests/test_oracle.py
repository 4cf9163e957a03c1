import pytest

from primegen import oracle


def test_primes_up_to_small():
    assert oracle.primes_up_to(10) == [2, 3, 5, 7]
    assert oracle.primes_up_to(2) == [2]
    assert oracle.primes_up_to(1) == []


def test_prime_count_million():
    assert len(oracle.primes_up_to(10**6)) == 78498


def test_first_primes_consistent():
    ps = oracle.first_primes(1000)
    assert len(ps) == 1000
    assert ps[:5] == [2, 3, 5, 7, 11]
    assert ps[-1] == 7919
    assert oracle.primes_up_to(ps[-1]) == ps


def test_euler_sets_level_one():
    sets = oracle.euler_sets_brute_force(1, 20)
    assert sets.erased[0] == {4, 6, 8, 10, 12, 14, 16, 18, 20}
    sets.check_invariants()


def test_euler_sets_level_two():
    sets = oracle.euler_sets_brute_force(2, 30)
    assert sets.erased[1] == {9, 15, 21, 27}
    assert sets.survivors == {2, 3, 5, 7, 11, 13, 17, 19, 23, 25, 29}
    sets.check_invariants()


def test_euler_sets_level_zero():
    sets = oracle.euler_sets_brute_force(0, 50)
    assert sets.erased == []
    assert sets.survivors == set(range(2, 51))


@pytest.mark.parametrize("k,bound", [(1, 50), (3, 200), (5, 1000), (8, 5000)])
def test_euler_sets_two_definitions_agree(k, bound):
    direct = oracle.euler_sets_brute_force(k, bound)
    inductive = oracle.euler_sets_inductive(k, bound)
    assert direct.erased == inductive.erased
    assert direct.survivors == inductive.survivors
    direct.check_invariants()


def test_erased_union_is_small_factor_composites():
    k, bound = 4, 2000
    sets = oracle.euler_sets_brute_force(k, bound)
    union = set().union(*sets.erased)
    pk = oracle.first_primes(k)[-1]
    want = {
        n for n in oracle.composites_up_to(bound)
        if min(p for p in oracle.primes_up_to(n) if n % p == 0) <= pk
    }
    assert union == want


def test_bird_multiplicity():
    assert oracle.bird_multiplicity(120) == 3
    assert oracle.bird_multiplicity(4) == 1
    assert oracle.bird_multiplicity(12) == 2
    with pytest.raises(ValueError):
        oracle.bird_multiplicity(13)
    with pytest.raises(ValueError):
        oracle.bird_multiplicity(3)


def test_primorial_and_totient():
    assert oracle.primorial(0) == 1
    assert oracle.primorial(4) == 210
    assert oracle.totient(210) == 48
    assert oracle.totient(1) == 1
    with pytest.raises(OverflowError):
        oracle.primorial(16)


def test_smooth_oracles_agree():
    scan = oracle.smooth_up_to([2, 3, 5], 500)
    heap = oracle.first_smooth([2, 3, 5], len(scan))
    assert scan == heap
    assert scan[:8] == [2, 3, 4, 5, 6, 8, 9, 10]
