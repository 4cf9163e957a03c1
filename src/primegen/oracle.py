"""Independent brute-force references for tests and verification.

Everything here is deliberately naive (array sieves and divisibility
filters); no sieve module imports this one. That independence is the
point: these functions are the second route every fast path is checked
against.
"""

import heapq
from dataclasses import dataclass
from math import isqrt

_MEMORY_CAP = 1 << 28  # refuse array sieves needing more than ~256M flags


def primes_up_to(n):
    """All primes <= n, by boolean-array sieve."""
    if n < 2:
        return []
    if n > _MEMORY_CAP:
        raise ValueError("bound %d exceeds the oracle memory cap" % n)
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if flags[i]]


def first_primes(n):
    """The first n primes."""
    if n < 1:
        return []
    bound = 16
    if n >= 6:
        # p_n < n (ln n + ln ln n) for n >= 6
        from math import log

        bound = int(n * (log(n) + log(log(n)))) + 10
    while True:
        ps = primes_up_to(bound)
        if len(ps) >= n:
            return ps[:n]
        bound *= 2


def composites_up_to(n):
    """All composite numbers in [2..n]."""
    prime = set(primes_up_to(n))
    return [i for i in range(2, n + 1) if i not in prime]


@dataclass
class EulerSets:
    """Finite materialization of (E_1..E_k, S_k) below a bound."""

    k: int
    bound: int
    erased: list  # k sets, erased[i] is E_{i+1} restricted to [2..bound]
    survivors: set  # S_k restricted to [2..bound]

    def check_invariants(self):
        """Erased sets are pairwise disjoint and, with S_k, cover [2..bound]."""
        seen = set()
        for es in self.erased:
            if seen & es:
                raise AssertionError("erased sets are not pairwise disjoint")
            seen |= es
        if seen & self.survivors:
            raise AssertionError("survivors overlap an erased set")
        if seen | self.survivors != set(range(2, self.bound + 1)):
            raise AssertionError("erased sets plus survivors do not cover [2..bound]")


def euler_sets_brute_force(k, bound):
    """E_1..E_k and S_k below `bound`, by direct divisibility filters.

    E_i is the set of naturals divisible by the i-th prime but by no
    smaller prime; S_k is what is left of [2..bound] after k rounds.
    """
    ps = primes_up_to(max(bound, 2))[:k] if k else []
    if k and len(ps) < k:
        raise ValueError("bound %d holds fewer than %d primes" % (bound, k))
    erased = []
    for i, p in enumerate(ps):
        smaller = ps[:i]
        erased.append(
            {
                n
                for n in range(2, bound + 1)
                if n % p == 0 and n != p and all(n % q for q in smaller)
            }
        )
    survivors = {
        n for n in range(2, bound + 1) if all(n % p for p in ps) or n in ps
    }
    return EulerSets(k=k, bound=bound, erased=erased, survivors=survivors)


def euler_sets_inductive(k, bound):
    """The same sets built by the inductive step S' = S \\ p*S-suffix.

    A second, independent construction used to cross-check the direct
    one. E_{i} is p_i times the part of S_{i-1} at or beyond p_i.
    """
    survivors = set(range(2, bound + 1))
    ps = primes_up_to(max(bound, 2))[:k] if k else []
    if k and len(ps) < k:
        raise ValueError("bound %d holds fewer than %d primes" % (bound, k))
    erased = []
    for p in ps:
        e = {p * s for s in survivors if s >= p and p * s <= bound}
        erased.append(e)
        survivors -= e
    return EulerSets(k=k, bound=bound, erased=erased, survivors=survivors)


def bird_multiplicity(c):
    """How many times Bird's sieve generates the composite c.

    One generation per prime p dividing c whose multiples stream has
    started by c, i.e. with c/p >= p.
    """
    if c < 4:
        raise ValueError("%d is not composite" % c)
    ps = primes_up_to(isqrt(c))
    if all(c % p for p in ps):
        raise ValueError("%d is prime" % c)
    return sum(1 for p in ps if c % p == 0 and c // p >= p)


def primorial(k):
    """Product of the first k primes (k <= 15 fits 64 bits)."""
    if k > 15:
        raise OverflowError("primorial(%d) exceeds 64 bits" % k)
    out = 1
    for p in first_primes(k):
        out *= p
    return out


def totient(n):
    """Euler's phi, by trial factorization."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def smooth_up_to(gens, bound):
    """All n in [2..bound] whose prime factors all lie in `gens`."""
    gens = list(gens)
    out = []
    for n in range(2, bound + 1):
        m = n
        for g in gens:
            while m % g == 0:
                m //= g
        if m == 1:
            out.append(n)
    return out


def first_smooth(gens, n):
    """The first n generalized Hamming numbers of `gens`, excluding 1.

    Heap-based enumeration; independent of the stream solutions.
    """
    gens = sorted(set(gens))
    if not gens or n < 1:
        return []
    heap = list(gens)
    heapq.heapify(heap)
    seen = set(heap)
    out = []
    while len(out) < n:
        v = heapq.heappop(heap)
        out.append(v)
        for g in gens:
            w = g * v
            if w not in seen:
                seen.add(w)
                heapq.heappush(heap, w)
    return out
