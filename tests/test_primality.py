import collections
import random
from fractions import Fraction

import pytest

from randlab import primality
from randlab.natnum import decompose_two_power
from randlab.primality import (
    COMPOSITE,
    MAX_ROUNDS,
    PROBABLY_PRIME,
    PrimelessIntervalError,
    is_probable_prime,
    random_prime_in,
    witness_density,
)
from randlab.rng import SplitMix64


def sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i < limit:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        i += 1
    return flags


def strong_round(n, x):
    """One strong round of odd n >= 3 at base x in (1, n)."""
    k, q = decompose_two_power(n)
    return primality._strong_round(n, k, q, x)


def test_single_round_examples():
    assert strong_round(7, 2) is True
    assert strong_round(561, 2) is False  # witness for smallest Carmichael
    # x = n-1 always passes: (n-1)^q = n-1 for odd q
    assert strong_round(1729, 1728) is True


def test_no_false_negatives_exhaustive_small_primes():
    # Every base must pass for every prime: the condition is necessary.
    flags = sieve(10**4)
    for p in range(3, 10**4, 2):
        if not flags[p]:
            continue
        for x in range(2, p):
            assert strong_round(p, x) is True


def test_verdict_examples():
    v = is_probable_prime(561, 10, SplitMix64(42))
    assert v.answer == COMPOSITE
    v = is_probable_prime(1729, 10, SplitMix64(0))
    assert v.answer == COMPOSITE
    assert is_probable_prime(2, 5, SplitMix64(0)).answer == PROBABLY_PRIME
    assert is_probable_prime(0, 5, SplitMix64(0)).answer == COMPOSITE
    assert is_probable_prime(1, 5, SplitMix64(0)).answer == COMPOSITE


def test_verdict_error_bound_exact():
    for rounds in (1, 3, 10):
        v = is_probable_prime(97, rounds, SplitMix64(1))
        assert v.error_bound == Fraction(1, 4**rounds)
        assert v.error_bound <= Fraction(1, 4**v.rounds_used)


def test_verdict_rejects_zero_rounds():
    for rounds in (0, MAX_ROUNDS + 1):
        with pytest.raises(ValueError):
            is_probable_prime(97, rounds, SplitMix64(0))
        with pytest.raises(ValueError):
            random_prime_in(90, 100, rounds, SplitMix64(0))


def test_verdict_deterministic_replay():
    for n in (561, 1729, 99991, 10**9 + 7):
        a = is_probable_prime(n, 10, SplitMix64(5))
        b = is_probable_prime(n, 10, SplitMix64(5))
        assert a == b


def test_agreement_with_sieve_below_10k():
    flags = sieve(10**4)
    for n in range(10**4):
        verdict = is_probable_prime(n, 20, SplitMix64(0))
        assert verdict.is_probably_prime == bool(flags[n]), n


def test_witness_density_examples():
    assert witness_density(9) == Fraction(1, 7)  # only x = 8 passes
    assert witness_density(15) == Fraction(1, 13)
    d561 = witness_density(561)
    assert d561 == Fraction(9, 559)
    assert d561 < Fraction(1, 4)


def per_base_density(n):
    """witness_density by the definition: one strong round on every base in (1, n)."""
    k, q = decompose_two_power(n)
    return Fraction(sum(primality._strong_round(n, k, q, x) for x in range(2, n)), n - 2)


def test_witness_density_matches_per_base_scan():
    # Every odd composite below 5000: the values criterion 1 bounds by 1/4.
    flags = sieve(5000)
    composites = [n for n in range(9, 5000, 2) if not flags[n]]
    assert len(composites) == 1831
    composites += [
        # Carmichael numbers past 5000
        6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
        3**12, 7**6, 997**2,  # prime powers
        255255, 996503, 999999,  # n = 3 mod 4, so k = 1 (999999 = 3**3 * 7 * 11 * 13 * 37)
        9801, 9999, 10001, 10195, 10197,  # the range bench's bulk workload draws from
    ]
    for n in composites:
        assert witness_density(n) == per_base_density(n), n


def test_witness_density_validates():
    with pytest.raises(ValueError):
        witness_density(13)  # prime
    assert sieve(primality.WITNESS_SCAN_LIMIT + 1).rindex(1) == 999_983
    with pytest.raises(ValueError, match="n must be composite"):
        witness_density(999_983)  # the largest prime under the cap
    with pytest.raises(ValueError):
        witness_density(8)  # even
    with pytest.raises(ValueError):
        witness_density(7)  # too small
    with pytest.raises(ValueError):
        witness_density(10**6 + 1)  # over the scan guard


def test_random_prime_in_forced_value():
    assert random_prime_in(8, 12, 20, SplitMix64(0)) == 11


def test_random_prime_in_contract():
    rng = SplitMix64(31337)
    for _ in range(5):
        p = random_prime_in(10**9, 2 * 10**9, 24, rng)
        assert 10**9 < p < 2 * 10**9
        assert is_probable_prime(p, 64, SplitMix64(1)).is_probably_prime


def test_random_prime_in_primeless_interval():
    # (24, 28) contains only 25, 26, 27: all composite by trial division.
    with pytest.raises(PrimelessIntervalError):
        random_prime_in(24, 28, 20, SplitMix64(0))


def test_random_prime_in_small_primeless_span_draws_nothing():
    for lo, hi in ((24, 28), (1327, 1361), (4294967231, 4294967279)):
        rng = SplitMix64(7)
        with pytest.raises(PrimelessIntervalError):
            random_prime_in(lo, hi, 20, rng)
        assert rng.state == SplitMix64(7).state


def test_random_prime_in_small_primeless_span_above_2_32_draws_nothing():
    # 8589934757 and 8589934807 are consecutive primes, as are 2**64 - 59 and
    # 2**64 + 13: their gaps are checked exactly, with no draw, up to 2**64.
    for lo, hi in ((8589934757, 8589934807), (2**64 - 59, 2**64)):
        rng = SplitMix64(7)
        with pytest.raises(PrimelessIntervalError, match="an exact test finds none"):
            random_prime_in(lo, hi, 16, rng)
        assert rng.state == SplitMix64(7).state


def test_random_prime_in_wide_primeless_span_gives_up_after_draw_limit(monkeypatch):
    # 31397 and 31469 are consecutive primes: 71 composites, too many to
    # enumerate up front, so the search draws until the limit.
    monkeypatch.setattr(primality, "PRIME_SEARCH_LIMIT", 50)
    rng = SplitMix64(7)
    with pytest.raises(PrimelessIntervalError, match="after 50 draws"):
        random_prime_in(31397, 31469, 20, rng)
    assert rng.state != SplitMix64(7).state


def reference_is_probable_prime(n, rounds, rng):
    """The strong test round by round: one uniform_natural_in draw and one
    strong round per round."""
    if n < 2 or (n % 2 == 0 and n != 2):
        return False, 0
    if n <= 3:
        return True, 0
    for used in range(1, rounds + 1):
        if not strong_round(n, rng.uniform_natural_in(1, n)):
            return False, used
    return True, rounds


SMALL_ODD_PRIMES = [p for p in range(3, 200, 2) if sieve(200)[p]]


# The first twelve primes.  As strong-test bases they decide every n below
# 3.18 * 10**23, and so below 2**64 (Sorenson & Webster, Math. Comp. 86, 2017).
FIRST_TWELVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def reference_is_prime_below_2_64(n):
    """Exact for n < 2**64: trial division by the first twelve primes, then
    a strong round at each of them as a base, written out with pow."""
    if n < 2:
        return False
    for p in FIRST_TWELVE_PRIMES:
        if n % p == 0:
            return n == p
    q, k = n - 1, 0
    while q % 2 == 0:
        q, k = q // 2, k + 1
    for a in FIRST_TWELVE_PRIMES:
        y = pow(a, q, n)
        if y in (1, n - 1):
            continue
        for _ in range(k - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def reference_random_prime_in(lo, hi, rounds, rng):
    """Candidate loop made of public pieces: one uniform_below index per
    candidate, over the odd integers of (lo, hi) in order and then 2 when it
    lies inside.  Below 2**64 a candidate is decided by an exact test with
    no draw; from 2**64 up it gets one is_probable_prime call unless it has
    an odd prime factor below 200."""
    first = lo + 1 if lo % 2 == 0 else lo + 2
    odds = (hi - first + 1) // 2
    while True:
        i = rng.uniform_below(odds + (lo < 2 < hi))
        candidate = first + 2 * i if i < odds else 2
        if candidate < 2**64:
            if reference_is_prime_below_2_64(candidate):
                return candidate
        elif (not any(candidate % p == 0 for p in SMALL_ODD_PRIMES)
                and is_probable_prime(candidate, rounds, rng).is_probably_prime):
            return candidate


def test_is_probable_prime_matches_reference_draws():
    for n in list(range(40)) + [561, 1729, 2047, 3215031751, 2**61 - 1, 2**64 + 13,
                                (2**64 - 59) * (2**61 - 1)]:
        for seed in range(8):
            for rounds in (6, 16, 20):
                rng, ref = SplitMix64(seed), SplitMix64(seed)
                verdict = is_probable_prime(n, rounds, rng)
                assert (verdict.is_probably_prime, verdict.rounds_used) == \
                    reference_is_probable_prime(n, rounds, ref), (n, seed, rounds)
                assert rng.state == ref.state


def reference_first_witness_round(n, rounds, rng):
    """The all-random-bases round loop, written out: one base per round."""
    k, q = decompose_two_power(n)
    draw = rng.sampler(n - 2)
    for used in range(1, rounds + 1):
        if not primality._strong_round(n, k, q, 2 + draw()):
            return used
    return 0


# 4759123141 passes bases 2, 7 and 61, so it needs the 2**64 tier.
FIXED_BASE_CASES = [7, 61, 3215031751, 4759123141, 3825123056546413051,
                    2**61 - 1, 2**64 - 59, 2**64 + 13]


def test_first_witness_round_matches_all_random_reference():
    gen = random.Random(13)
    cases = list(range(5, 2 * 10**4 + 1, 2)) + FIXED_BASE_CASES
    cases += [gen.randrange(10**9 + 1, 2 * 10**9, 2) for _ in range(2000)]
    cases += [gen.randrange(2**32 + 1, 2**64, 2) for _ in range(2000)]
    for n in cases:
        for rounds in (1, 2, 4, 5, 8, 9, 16, 20):
            rng, ref = SplitMix64(n + rounds), SplitMix64(n + rounds)
            assert primality._first_witness_round(n, rounds, rng) == \
                reference_first_witness_round(n, rounds, ref), (n, rounds)
            assert rng.state == ref.state, (n, rounds)


def test_first_witness_round_catches_pseudoprimes_to_fixed_bases():
    # A strong pseudoprime to every base of the smaller tier passes those
    # bases, so only the 2**64 tier can settle it; with round 1 passing it
    # must still be reported composite.
    n = 4759123141
    k, q = decompose_two_power(n)
    assert all(primality._strong_round(n, k, q, a) for a in (2, 7, 61))
    for seed in range(200):
        assert primality._first_witness_round(n, 16, SplitMix64(seed)) > 0


def test_is_prime_exact_matches_sieve_below_10_6():
    flags = sieve(10**6)
    assert [n for n in range(10**6) if primality._is_prime_exact(n)] == \
        [n for n in range(10**6) if flags[n]]
    # The base-2 strong pseudoprimes below 10**6, found by scan, are composite.
    spsp2 = [n for n in range(5, 10**6, 2)
             if not flags[n] and strong_round(n, 2)]
    assert spsp2[:3] == [2047, 3277, 4033]
    assert not any(map(primality._is_prime_exact, spsp2))


def test_is_prime_exact_above_the_small_tier():
    composites = [4759123141, 3825123056546413051, 2**64 - 1,
                  (2**32 - 5) * (2**32 - 17), 3215031751 * 5]
    primes = [4759123129, 4759123151, 2**61 - 1, 2**63 - 25, 2**64 - 59]
    assert not any(map(primality._is_prime_exact, composites))
    assert all(map(primality._is_prime_exact, primes))


@pytest.mark.parametrize("lo, span", [
    (0, 3), (1, 4), (0, 10), (2, 2), (3, 2), (10**9, 10**9), (2**40, 2**20),
    (10**20, 2**64 - 1), (10**20, 2**64), (10**20, 2**64 + 1), (2**64, 2**64 - 1),
])
def test_random_prime_in_matches_reference_draws(lo, span):
    hi = lo + span + 1  # the open interval (lo, hi) holds ``span`` integers
    for seed in range(6):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for rounds in (1, 8):
            assert random_prime_in(lo, hi, rounds, rng) == \
                reference_random_prime_in(lo, hi, rounds, ref)
            assert rng.state == ref.state


def test_random_prime_in_sieve_keeps_every_prime(monkeypatch):
    # With the span pre-check off and one candidate allowed, the one-integer
    # interval (n - 1, n + 1) gives n back exactly when n is prime, and an
    # odd composite with a factor below 200 costs its candidate draw only.
    monkeypatch.setattr(primality, "SMALL_SPAN", 0)
    monkeypatch.setattr(primality, "PRIME_SEARCH_LIMIT", 1)
    flags = sieve(2 * 10**5)
    for n in range(2 * 10**5):
        rng = SplitMix64(n)
        try:
            found = random_prime_in(n - 1, n + 1, 8, rng) == n
        except PrimelessIntervalError:
            found = False
        assert found == bool(flags[n]), n
        if n % 2 and n > 3 and not flags[n] and any(n % p == 0 for p in SMALL_ODD_PRIMES):
            ref = SplitMix64(n)
            ref.uniform_natural_in(n - 1, n + 1)
            assert rng.state == ref.state, n


def test_reference_is_prime_below_2_64_matches_sieve_and_known_cases():
    flags = sieve(10**5)
    assert [n for n in range(10**5) if reference_is_prime_below_2_64(n)] == \
        [n for n in range(10**5) if flags[n]]
    assert all(map(reference_is_prime_below_2_64, [4759123129, 2**61 - 1, 2**64 - 59]))
    assert not any(map(reference_is_prime_below_2_64, [3215031751, 4759123141,
                                                       3825123056546413051, 2**64 - 1]))


@pytest.mark.parametrize("lo, hi, draws", [(0, 30, 20000), (10**9, 10**9 + 300, 10000)])
def test_random_prime_in_is_uniform_over_the_primes(lo, hi, draws):
    # (0, 30) holds 2, the one even candidate, and nine odd primes; the
    # window above 10**9 holds 16 primes among 150 odd candidates.
    primes = [n for n in range(lo + 1, hi) if reference_is_prime_below_2_64(n)]
    counts = collections.Counter(random_prime_in(lo, hi, 16, SplitMix64(seed))
                                 for seed in range(draws))
    assert set(counts) == set(primes)
    # Each count is binomial; a uniform draw leaves five standard deviations
    # of its mean with probability below 6 * 10**-7 per prime.
    mean = draws / len(primes)
    sd = (mean * (1 - 1 / len(primes))) ** 0.5
    for p in primes:
        assert abs(counts[p] - mean) <= 5 * sd, (p, counts[p], mean, sd)


# (prime before, composite, prime after): a strong pseudoprime to the bases
# 2, 3, 5 and 7 (151 * 751 * 28351), the Carmichael number 211 * 421 * 631
# and a strong pseudoprime to the first nine prime bases.  Only the first
# has a factor below 200.
PSEUDOPRIME_GAPS = [
    (3215031749, 3215031751, 3215031767),
    (56052343, 56052361, 56052379),
    (3825123056546412979, 3825123056546413051, 3825123056546413057),
]


@pytest.mark.parametrize("before, composite, after", PSEUDOPRIME_GAPS)
def test_random_prime_in_at_one_round_never_returns_a_composite_below_2_64(before, composite,
                                                                           after):
    # One random round passes each composite for hundreds of these seeds,
    # but below 2**64 a candidate is decided exactly, whatever ``rounds``.
    seeds = range(2000)
    assert sum(is_probable_prime(composite, 1, SplitMix64(s)).is_probably_prime
               for s in seeds) > 200
    drawn = {random_prime_in(before - 1, after + 1, 1, SplitMix64(s)) for s in seeds}
    assert drawn == {before, after}


def test_random_prime_in_even_one_integer_interval_draws_nothing():
    for lo in (3, 2**64 - 1, 2**70 - 1, 2**primality.MAX_PRIME_BITS - 3):
        rng = SplitMix64(7)
        with pytest.raises(PrimelessIntervalError):
            random_prime_in(lo, lo + 2, 1, rng)
        assert rng.state == SplitMix64(7).state


def test_random_prime_in_one_prime_interval_below_1000():
    flags = sieve(1000)
    for p in range(1000):
        if flags[p]:
            assert random_prime_in(p - 1, p + 1, 8, SplitMix64(p)) == p


def test_random_prime_in_prime_width_cap_is_inclusive():
    top = 2**primality.MAX_PRIME_BITS  # 2**256 - 189 is the largest prime below it
    assert random_prime_in(top - 190, top, 8, SplitMix64(0)) == top - 189


def test_is_probable_prime_refuses_n_past_width_cap_before_drawing():
    rng = SplitMix64(3)
    for n in (2**primality.MAX_TARGET_BITS, 2**primality.MAX_TARGET_BITS + 1, 2**16384 - 1):
        with pytest.raises(ValueError, match="^n must be at most 4096 bits$"):
            is_probable_prime(n, 1, rng)
    assert rng.state == 3


def test_is_probable_prime_width_cap_is_inclusive():
    n = 2**primality.MAX_TARGET_BITS - 1  # divisible by 3
    rng = SplitMix64(3)
    verdict = is_probable_prime(n, 1, rng)
    assert verdict.answer == COMPOSITE and verdict.rounds_used == 1
    assert rng.state != 3


def test_random_prime_in_validates():
    with pytest.raises(ValueError):
        random_prime_in(10, 10, 5, SplitMix64(0))
    with pytest.raises(ValueError, match="hi must be at most 2\\*\\*256"):
        random_prime_in(10, 2**primality.MAX_PRIME_BITS + 1, 5, SplitMix64(0))
    with pytest.raises(ValueError):
        random_prime_in(8, 12, 0, SplitMix64(0))
