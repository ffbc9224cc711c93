"""Probabilistic primality testing and random prime generation.

The core test takes odd n = 2**k * q + 1 (q odd) and a base x, computes
y = x**q mod n, accepts immediately if y == 1, then squares y up to k times:
seeing n-1 accepts, seeing 1 without having seen n-1 first rejects.  A "no"
is always correct; a "yes" on composite n happens for fewer than a quarter
of the bases, so independent repetitions drive the error below any target.

Below 2**64 a fixed set of bases decides primality exactly (2, 7, 61 below
4,759,123,141, Jaeschke 1993; seven bases below 2**64, Sinclair 2011).  The
random-base test uses them only to skip work: once its first random round
passes, n is settled with those bases, and a prime then still makes the
remaining random-base draws, which it would pass anyway, so the draws, round
counts and results are those of the all-random test.

Random prime generation draws its candidates from the odd integers of the
interval (and 2, when the interval holds it) and sieves each with one gcd
against the product of the odd primes below 200, the standard
trial-division step (Menezes et al., Handbook of Applied Cryptography, 4.4):
about four in five odd candidates have such a factor and are skipped at the
cost of that gcd.  Below 2**64 a candidate that survives is decided by the
fixed bases, with no draw, so there the search is Las Vegas: the prime it
returns is certain and only the number of candidates drawn is random.  From
2**64 up each survivor gets random-base rounds, and the search is Monte
Carlo: a composite passes them with probability below 4**-rounds.

The witness density of an odd composite n is counted exactly, not by testing
every base (Rabin, J. Number Theory 12, 1980; Monier, Theoret. Comput. Sci.
12, 1980).  A liar x has x**m = +-1 mod n for some m, so it is a unit; by the
Chinese remainder theorem it is one unit mod each prime power p**e exactly
dividing n, and each of those unit groups is cyclic of order
phi = p**(e-1) * (p - 1).  There x**m = 1 has gcd(m, phi) solutions, and
x**m = -1 as many when v2(m) < v2(phi), else none.  So with n - 1 = 2**k * q
the liars number prod gcd(q, phi) (x**q = 1) plus, for each i < k with
i < v2(phi) for every factor, prod gcd(2**i * q, phi) (x**(2**i * q) = -1).
Trial division up to sqrt(n) finds the factors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .natnum import decompose_two_power
from .rng import SplitMix64

PROBABLY_PRIME = "probably-prime"
COMPOSITE = "composite"

# Largest n witness_density takes.  Its count is exact, from n's factorization
# by trial division up to sqrt(n); the cap keeps that a desk-scale loop.
WITNESS_SCAN_LIMIT = 10**6

# Give up drawing random candidates after this many composite rejections.
PRIME_SEARCH_LIMIT = 10**6

# Most rounds per test (error bound 4**-128 = 2**-256).  The bound is an exact
# Fraction that grows by two bits a round, so the count must be capped.
MAX_ROUNDS = 128

# Widest n that is_probable_prime tests and factor's methods take as N, in
# bits: every round is a power modulo n, a factoring method's checks and
# stage-1 products grow with N, and factors are reported in decimal, which
# Python refuses past 4,300 digits.
MAX_TARGET_BITS = 4096

# Widest prime random_prime_in draws (a 128-round fingerprint verify takes
# about 1 s at 256 bits, 7 s at 512).
MAX_PRIME_BITS = 256

# Open intervals of at most this many integers below 2**64 are checked for a
# prime with _is_prime_exact before any draw.
SMALL_SPAN = 64

# (bound, bases): an odd n >= 3 below bound that passes a strong round at
# every base (reduced mod n, skipped where n divides it) is prime.
_EXACT_BASES = (
    (4_759_123_141, (2, 7, 61)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)


class PrimelessIntervalError(RuntimeError):
    """Raised when random prime search finds no prime in its interval."""


class PrimalityVerdict(NamedTuple):
    answer: str  # PROBABLY_PRIME or COMPOSITE
    rounds_used: int
    error_bound: Fraction  # false-positive bound: 4**-(requested rounds)

    @property
    def is_probably_prime(self) -> bool:
        return self.answer == PROBABLY_PRIME


def _strong_round(n: int, k: int, q: int, x: int) -> bool:
    """One strong round for odd n with n - 1 = 2**k * q, at base x in (1, n).

    True ("yes": n passed, consistent with prime) or False ("no": x
    witnesses that n is composite).
    """
    y = pow(x, q, n)
    if y == 1:
        return True
    for _ in range(k):
        if y == n - 1:
            return True
        if y == 1:
            return False
        y = y * y % n
    return False


def check_rounds(name: str, rounds: int) -> None:
    """ValueError naming ``name`` unless 1 <= rounds <= MAX_ROUNDS."""
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError("%s must be in [1, %d]" % (name, MAX_ROUNDS))


def check_prime_interval(lo: int, hi: int) -> None:
    """ValueError unless (lo, hi) is nonempty and hi <= 2**MAX_PRIME_BITS."""
    if hi > 1 << MAX_PRIME_BITS:
        raise ValueError("hi must be at most 2**%d" % MAX_PRIME_BITS)
    if hi <= lo + 1:
        # hi is capped by now but lo is not: a wider lo is named by its width.
        shown = "%d" % lo if lo <= 1 << MAX_PRIME_BITS else "a %d-bit lo" % lo.bit_length()
        raise ValueError("open interval (%s, %d) is empty" % (shown, hi))


def is_probable_prime(n: int, rounds: int, rng: SplitMix64) -> PrimalityVerdict:
    """Run up to ``rounds`` (at most MAX_ROUNDS) random-base rounds on n,
    which must be at most MAX_TARGET_BITS wide.

    Composite answers are exact and returned at the first witnessing round;
    probably-prime means every round passed, which for composite n has
    probability below 4**-rounds.
    """
    check_rounds("rounds", rounds)
    if n.bit_length() > MAX_TARGET_BITS:
        raise ValueError("n must be at most %d bits" % MAX_TARGET_BITS)
    bound = Fraction(1, 4**rounds)
    if n < 5 or n % 2 == 0:  # decided without a draw: only 2 and 3 are prime
        return PrimalityVerdict(PROBABLY_PRIME if n in (2, 3) else COMPOSITE, 0, bound)
    used = _first_witness_round(n, rounds, rng)
    return PrimalityVerdict(COMPOSITE if used else PROBABLY_PRIME, used or rounds, bound)


def _first_witness_round(n: int, rounds: int, rng: SplitMix64) -> int:
    """Run up to ``rounds`` rounds on odd n >= 5, each with a base drawn
    uniformly from (1, n); return the number of the first round whose base
    witnesses that n is composite, or 0 if every round passes.

    Below 2**64, once round 1 passes, n's fixed bases (when fewer than the
    rounds left) settle it: a prime makes the remaining draws and returns 0.
    """
    k, q = decompose_two_power(n)
    draw = rng.sampler(n - 2)
    if not _strong_round(n, k, q, 2 + draw()):
        return 1
    bases = _exact_bases(n)
    if bases is not None and len(bases) < rounds - 1 and _passes_bases(n, k, q, bases):
        # n is prime, so every later round passes: make its draws, skip its pow.
        for _ in range(rounds - 1):
            draw()
        return 0
    for used in range(2, rounds + 1):
        if not _strong_round(n, k, q, 2 + draw()):
            return used
    return 0


def _exact_bases(n: int) -> tuple[int, ...] | None:
    """The bases of n's tier in _EXACT_BASES, or None at 2**64 and above."""
    for bound, bases in _EXACT_BASES:
        if n < bound:
            return bases
    return None


def _passes_bases(n: int, k: int, q: int, bases: tuple[int, ...]) -> bool:
    """Strong rounds on odd n - 1 = 2**k * q at each base mod n but 0."""
    return all(_strong_round(n, k, q, a % n) for a in bases if a % n)


def _is_prime_exact(n: int) -> bool:
    """Whether 0 <= n < 2**64 is prime: small factors first, then the fixed
    bases of n's tier."""
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    if n < 2:
        return False
    k, q = decompose_two_power(n)
    return _passes_bases(n, k, q, _exact_bases(n))


# The 45 odd primes below 200 and their product; random_prime_in skips an odd
# candidate that shares a factor with _SIEVE, unless it is one of them.
_SIEVE_PRIMES = frozenset(p for p in range(3, 200, 2) if _is_prime_exact(p))
_SIEVE = math.prod(_SIEVE_PRIMES)


def witness_density(n: int) -> Fraction:
    """Fraction of bases x in (1, n) on which the single-round test says yes.

    Counted exactly from n's prime-power factors (see the module docstring),
    equal to testing all n-2 bases; n must be an odd composite with
    9 <= n <= WITNESS_SCAN_LIMIT = 10**6.  For primes the notion of a
    false-positive rate is undefined (every base passes), so they are
    rejected.
    """
    if n < 9 or n % 2 == 0:
        raise ValueError("n must be odd and >= 9")
    if n > WITNESS_SCAN_LIMIT:
        raise ValueError("n too large for witness density (limit %d)" % WITNESS_SCAN_LIMIT)
    phis = _unit_group_orders(n)
    if phis == [n - 1]:  # n is its own one prime factor
        raise ValueError("n must be composite")
    k, q = decompose_two_power(n)
    nu = min((phi & -phi).bit_length() - 1 for phi in phis)  # least v2(phi)
    liars = sum(math.prod(math.gcd(q << i, phi) for phi in phis) for i in range(min(k, nu)))
    liars += math.prod(math.gcd(q, phi) for phi in phis)
    # Bases 0 and 1 are outside (1, n): 0 is no unit, 1 is a liar.
    return Fraction(liars - 1, n - 2)


def _unit_group_orders(n: int) -> list[int]:
    """phi(p**e) = p**(e-1) * (p - 1) for each prime power p**e exactly
    dividing odd n > 1, by trial division."""
    orders = []
    p = 3
    while p * p <= n:
        if n % p == 0:
            power = 1
            while n % p == 0:
                n //= p
                power *= p
            orders.append(power // p * (p - 1))
        p += 2
    if n > 1:
        orders.append(n - 1)
    return orders


def random_prime_in(lo: int, hi: int, rounds: int, rng: SplitMix64) -> int:
    """Draw uniformly from the odd integers of (lo, hi), and 2 if it lies
    inside, until a prime appears; below 2**64 it is certain, from 2**64 up
    probable.

    ``hi`` is at most 2**MAX_PRIME_BITS.  Raises PrimelessIntervalError,
    without a draw, when the interval holds no candidate, or when it spans
    at most SMALL_SPAN integers below 2**64 and an exact test finds no prime
    there; otherwise after PRIME_SEARCH_LIMIT = 10**6 candidate draws
    without a prime, sieved ones included, which for any interval actually
    containing primes is overwhelmingly unlikely.  A candidate with an odd
    prime factor below 200, other than itself, is skipped without further
    work.  Every other candidate below 2**64 is decided exactly with no draw
    (``rounds`` has no effect there); one of 2**64 or more gets up to
    ``rounds`` (at most MAX_ROUNDS) random-base rounds.  The result is
    uniform over the primes (from 2**64 up, the probable primes) of the
    interval.
    """
    check_rounds("rounds", rounds)
    check_prime_interval(lo, hi)
    first = (lo + 1) | 1  # the least odd integer above lo
    odds = (hi - first + 1) // 2
    span = odds + (lo < 2 < hi)  # index ``odds`` stands for 2
    if not span:
        raise PrimelessIntervalError("no prime in (%d, %d): its one integer is even" % (lo, hi))
    if (hi - lo - 1 <= SMALL_SPAN and hi <= 2**64
            and not any(map(_is_prime_exact, range(lo + 1, hi)))):
        raise PrimelessIntervalError("no probable prime in (%d, %d): an exact test finds none" % (lo, hi))
    draw = rng.sampler(span)
    for _ in range(PRIME_SEARCH_LIMIT):
        i = draw()
        n = first + 2 * i if i < odds else 2
        # A factor in _SIEVE makes n composite unless it is that factor.
        if ((math.gcd(n, _SIEVE) == 1 or n in _SIEVE_PRIMES)
                and (_is_prime_exact(n) if n < 1 << 64 else not _first_witness_round(n, rounds, rng))):
            return n
    raise PrimelessIntervalError(
        "no probable prime in (%d, %d) after %d draws" % (lo, hi, PRIME_SEARCH_LIMIT)
    )
