import sys
import textwrap
from itertools import count, islice, tee

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python
from primegen import ALL_VARIANTS, oracle
from primegen.sieves import (
    STREAM_VARIANTS,
    VariantCapExceeded,
    _Reiterable,
    _rederived,
    bird_sieve,
    bird_sieve_w4,
    es_euler,
    es_euler_w4,
    es_step,
    naive_euler,
    primes_h,
    primes_h4,
    trial_division,
    wheel_euler,
    wheel_euler_w4,
)
from primegen.pq import PQ_VARIANTS
from primegen.streams import RunCounters, StreamError, take
from primegen.wheels import mount
from test_pq import _traced_peak


def test_trial_division_examples():
    primes = take(trial_division(), 100)
    assert (primes[0], primes[5], primes[99]) == (2, 13, 541)


def test_naive_euler_matches_oracle(primes10k):
    cap = STREAM_VARIANTS["naive-euler"].cap
    assert take(naive_euler(), cap) == primes10k[:cap]


def test_naive_euler_cap_is_an_error():
    gen = naive_euler(cap=40)
    take(gen, 40)
    with pytest.raises(VariantCapExceeded):
        next(gen)


def test_naive_euler_reaches_its_default_cap():
    # one frame per prime: the whole cap must fit, with the caller's stack,
    # under the default recursion limit of a fresh interpreter
    script = textwrap.dedent("""
        from primegen import oracle
        from primegen.sieves import STREAM_VARIANTS, VariantCapExceeded
        from primegen.streams import take
        variant = STREAM_VARIANTS["naive-euler"]
        gen = variant.factory()
        assert take(gen, variant.cap) == oracle.first_primes(variant.cap)
        try:
            next(gen)
        except VariantCapExceeded:
            print("capped at", variant.cap)
    """)
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["capped", "at", "400"]


def test_naive_euler_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    assert list(islice(naive_euler(), 10)) == oracle.first_primes(10)
    assert sys.getrecursionlimit() == limit


def test_no_variant_touches_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("a sieve set the recursion limit to %d" % limit)

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    for name, variant in ALL_VARIANTS.items():
        n = min(variant.cap or 1000, 1000)
        assert take(variant.factory(), n) == oracle.first_primes(n), name


def test_bird_sieve_first_10k(primes10k):
    assert take(bird_sieve(), 10_000) == primes10k


def test_bird_multiplicities_match_oracle():
    bound = 2_000
    counters = RunCounters.with_tally()
    for p in bird_sieve(counters):
        if p > bound:
            break
    tally = {v: c for v, c in counters.tally.items() if v <= bound}
    assert sorted(tally) == oracle.composites_up_to(bound)
    for c, times in tally.items():
        assert times == oracle.bird_multiplicity(c)
    assert tally[120] == 3
    assert tally[12] == 2


def test_bird_w4_multiplicities_match_bruteforce():
    bound = 20_000
    counters = RunCounters.with_tally()
    for p in bird_sieve_w4(counters):
        if p > bound:
            break
    tally = {v: c for v, c in counters.tally.items() if v <= bound}
    survivors = {n for n in range(11, bound + 1)
                 if n % 2 and n % 3 and n % 5 and n % 7}
    composites = [c for c in oracle.composites_up_to(bound) if c in survivors]
    assert sorted(tally) == composites
    primes = oracle.primes_up_to(bound)
    for c in composites:
        want = sum(1 for p in primes
                   if p >= 11 and c % p == 0 and c // p >= p and c // p in survivors)
        assert tally[c] == want


def test_wheel_euler_first_10k(primes10k):
    assert take(wheel_euler(), 10_000) == primes10k


def test_es_euler_first_10k(primes10k):
    assert take(es_euler(), 10_000) == primes10k


def test_primes_h_first_10k(primes10k):
    assert take(primes_h(), 10_000) == primes10k


@pytest.mark.parametrize(
    "plain,mounted",
    [
        (bird_sieve, bird_sieve_w4),
        (primes_h, primes_h4),
        (wheel_euler, wheel_euler_w4),
        (es_euler, es_euler_w4),
    ],
)
def test_mounted_wheel_is_identity_on_output(plain, mounted, primes10k):
    assert take(mounted(), 10_000) == take(plain(), 10_000) == primes10k


def test_es_step_streams_match_set_induction():
    bound = 2_000
    primes = oracle.first_primes(4)
    survivors = count(2)
    for k, p in enumerate(primes, start=1):
        erased, survivors = es_step(p, survivors)
        sets = oracle.euler_sets_brute_force(k, bound)
        got = []
        for v in erased:
            if v > bound:
                break
            got.append(v)
        assert got == sorted(sets.erased[k - 1])


def test_es_step_on_empty_survivors_is_an_error():
    with pytest.raises(StreamError, match="empty survivor stream"):
        es_step(2, iter([]))


@given(bound=st.integers(29, 1_500), fresh_at=st.integers(1, 10))
@example(bound=29, fresh_at=1)
@settings(max_examples=25, deadline=None)
def test_es_step_on_a_reiterable_matches_the_tee_and_the_sets(bound, fresh_at):
    # one induction tees every level; the other hands level `fresh_at` its
    # survivors as a list, which es_step reads afresh for each reader
    teed, fresh = iter(range(2, bound + 1)), iter(range(2, bound + 1))
    for k, p in enumerate(oracle.first_primes(10), start=1):
        if k == fresh_at:
            fresh = list(fresh)
        erased_teed, teed = es_step(p, teed)
        erased_fresh, fresh = es_step(p, fresh)
        want = sorted(oracle.euler_sets_brute_force(k, bound).erased[k - 1])
        assert [v for v in erased_fresh if v <= bound] == want
        assert [v for v in erased_teed if v <= bound] == want


@pytest.mark.parametrize("survivors", [
    [],
    _Reiterable(lambda: iter(())),
    _rederived(2, [2], None)[1],  # the candidates [2] leave no survivors
], ids=["list", "reiterable", "rederived"])
def test_es_step_on_empty_reiterable_survivors_is_an_error(survivors):
    with pytest.raises(StreamError, match="empty survivor stream"):
        es_step(3, survivors)


@pytest.mark.parametrize("w4", [False, True], ids=["bare", "w4"])
def test_first_level_survivors_rederive_the_teed_stream(w4):
    # every iter() of ES's first-level survivors reads as a reader of the
    # tee the second level used to hold over them; only the first is counted
    mounted, _, candidates = mount(w4)
    p = mounted[-1]
    counters = RunCounters()
    _, survivors = _rederived(p, _Reiterable(lambda: mount(w4)[2]), counters)
    counted = take(iter(survivors), 3_000)
    pulled = counters.comparisons
    copies = [counted] + [take(iter(survivors), 3_000) for _ in range(3)]
    teed = tee(es_step(p, candidates)[1], 4)
    assert copies == [take(t, 3_000) for t in teed]
    assert pulled > 0 and counters.comparisons == pulled
    if not w4:
        assert counted == list(range(3, 6_002, 2))


def test_es_erased_heads():
    survivors = count(2)
    erased1, survivors = es_step(2, survivors)
    assert take(erased1, 4) == [4, 6, 8, 10]
    erased2, survivors = es_step(3, survivors)
    assert take(erased2, 4) == [9, 15, 21, 27]


def test_wheel_euler_single_generation():
    bound = 20_000
    counters = RunCounters.with_tally()
    for p in wheel_euler(counters):
        if p > bound:
            break
    tally = {v: c for v, c in counters.tally.items() if v <= bound}
    assert sorted(tally) == oracle.composites_up_to(bound)
    assert set(tally.values()) == {1}


def test_registry_names():
    assert set(STREAM_VARIANTS) == {
        "td", "naive-euler", "bs", "bs4", "h", "h4", "w", "w4", "es", "es4",
    }
    for variant in STREAM_VARIANTS.values():
        assert take(variant.factory(), 5) == [2, 3, 5, 7, 11]


@given(st.integers(min_value=1, max_value=1500))
@example(1)
@example(1500)
@settings(max_examples=12, deadline=None)
def test_every_stream_variant_matches_oracle_prefix(n):
    for name, variant in STREAM_VARIANTS.items():
        m = min(n, variant.cap or n)
        assert take(variant.factory(), m) == oracle.first_primes(m), name


@pytest.mark.parametrize("name", ["bs", "bs4"])
def test_fold_sieve_state_grows_slowly(name):
    # base primes come from an inner instance, so no prime memo grows like n
    small, large = (_traced_peak(STREAM_VARIANTS[name], n) for n in (2**12, 2**14))
    assert large <= 2.5 * small


@pytest.mark.parametrize("name", ["w", "w4"])
def test_wheel_sieve_state_stays_small(name):
    assert _traced_peak(STREAM_VARIANTS[name], 2**14) < 0.7 * 2**20


@pytest.mark.parametrize("name, mib", [("es", 4.5), ("es4", 1)])
def test_survivor_induction_tees_the_survivors_once(name, mib):
    # one window of survivors per level, no window of erased products
    assert _traced_peak(STREAM_VARIANTS[name], 2**14) < mib * 2**20


@pytest.mark.parametrize("variant", [
    STREAM_VARIANTS["w"], STREAM_VARIANTS["w4"],
    PQ_VARIANTS["wpq"], PQ_VARIANTS["wpq4"],
], ids=lambda v: v.name)
def test_wheel_chain_holds_each_wheel_once(variant):
    # one gap list per wheel, rolled in place: no replay memo and no
    # cycle's copy of it beside the list
    assert _traced_peak(variant, 2**14) < 0.34 * 2**20


@pytest.mark.parametrize("variant", [
    STREAM_VARIANTS["es"], PQ_VARIANTS["epq"],
], ids=lambda v: v.name)
def test_survivor_induction_holds_no_window_of_candidates(variant):
    # the first level mounts the candidates afresh for each of its readers
    assert _traced_peak(variant, 2**14) < 2 * 2**20


def test_survivor_induction_peak_stays_within_a_ratio_of_w():
    # no tee window over the first two levels' survivors; a ratio, since
    # the bytes themselves move between CPython versions
    es, w = (_traced_peak(STREAM_VARIANTS[name], 2**14) for name in ("es", "w"))
    assert es < 6.5 * w


@pytest.mark.parametrize("variant", [
    STREAM_VARIANTS["w"], STREAM_VARIANTS["w4"],
    PQ_VARIANTS["wpq"], PQ_VARIANTS["wpq4"],
], ids=lambda v: v.name)
def test_wheel_chain_packs_its_gaps(variant):
    # two bytes a gap, where a list slot takes eight
    assert _traced_peak(variant, 2**14) < 0.22 * 2**20


@pytest.mark.parametrize("factory, figures", [
    (primes_h, (204828, 204828, 1179643, 224737)),
    (primes_h4, (31460, 31460, 297348, 51373)),
])
def test_hamming_sieve_counters_at_20000_primes(factory, figures):
    # composites, distinct composites, comparisons and peak_buffer do not
    # depend on how H's knots share their output
    counters = RunCounters.with_tally()
    take(factory(counters), 20_000)
    assert (counters.composites, len(counters.tally), counters.comparisons,
            counters.peak_buffer) == figures


@pytest.mark.parametrize("name, mib", [("h", 9.5), ("h4", 4.6)])
def test_hamming_sieve_frees_what_every_reader_passed(name, mib):
    # level x reads its own output back from v/x, so it holds (v/x, v]
    assert _traced_peak(STREAM_VARIANTS[name], 2**14) < mib * 2**20


@pytest.mark.parametrize(
    "name", [name for name, v in ALL_VARIANTS.items() if v.cap is None])
def test_variant_survives_a_low_caller_recursion_limit(name):
    # no uncapped sieve raises the limit, not even for its deepest folds:
    # the tree fold is about 2*log2(k) frames deep, and H's C is one knot, a
    # tree fold of the Hamming levels, so no H level nests a frame per base
    # prime
    script = textwrap.dedent("""
        import sys
        from primegen import ALL_VARIANTS, oracle
        from primegen.streams import take
        sys.setrecursionlimit(100)
        got = take(ALL_VARIANTS[%r].factory(), 20_000)
        assert got == oracle.first_primes(20_000)
        assert sys.getrecursionlimit() == 100
    """ % name)
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
