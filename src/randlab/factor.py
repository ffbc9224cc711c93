"""Always-correct randomized factoring: Pollard p-1 and ECM stage 1.

Both methods find a prime factor p of N when a group of order close to p is
smooth.  Pollard p-1 uses the fixed multiplicative group mod p (order p-1);
the elliptic-curve method re-rolls the group itself by drawing random curves
y^2 = x^3 + ax + b, whose point-group orders scatter across the Hasse
interval around p, until a smooth one turns up.  Failure of modular
inversion during curve arithmetic is the success event: the blocking divisor
is a factor of N.  Returned divisors are re-verified by exact division, so
answers are always correct and only the runtime is random.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .natnum import NotInvertible, mod_inverse
from .primality import is_probable_prime
from .rng import SplitMix64

# Bases tried by pollard_pm1, in order.  Base 2 alone is blind to inputs
# where every prime factor has the same power-of-two order (Fermat numbers:
# ord_p(2) = 2^(k+1) for all p | F_k, so gcd collapses to N); the later
# bases break those ties.
PM1_BASES = (2, 3, 5, 7)

# Rounds for the compositeness precondition checks.
_VALIDATION_ROUNDS = 16
_VALIDATION_SEED = 0x5EED

# Largest smoothness bound (p-1 bound, ECM b1): the sieve takes a byte per
# integer up to it, and the stage-1 exponent about 1.44 bits.
MAX_BOUND = 10**6
# Most ECM curves in one call; each costs a stage-1 scalar multiplication.
MAX_CURVES = 10**4


@dataclass(frozen=True)
class CurvePoint:
    x: int
    y: int
    at_infinity: bool = False


INFINITY = CurvePoint(0, 0, at_infinity=True)


@dataclass(frozen=True)
class FactorOutcome:
    divisor: int | None  # None means the search budget was exhausted
    trials: int  # bases tried (p-1) or curves tried (ECM)
    smoothness_bound: int

    @property
    def found(self) -> bool:
        return self.divisor is not None


def _check_bound(name: str, bound: int) -> None:
    if not 2 <= bound <= MAX_BOUND:
        raise ValueError("%s must be in [2, %d]" % (name, MAX_BOUND))


def _sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(2, limit + 1) if flags[i]]


def smooth_exponent(bound: int) -> int:
    """Product of all prime powers r**e <= bound; annihilates smooth orders."""
    _check_bound("bound", bound)
    M = 1
    for r in _sieve_primes(bound):
        pw = r
        while pw * r <= bound:
            pw *= r
        M *= pw
    return M


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n (Newton on integers)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_power(n: int) -> bool:
    """True iff n = m**k for some m and k >= 2."""
    if n < 4:
        return False
    for k in _sieve_primes(n.bit_length()):
        r = _iroot(n, k)
        if r**k == n:
            return True
    return False


def _check_target(N: int, require_coprime_6: bool = False) -> None:
    if N % 2 == 0 or N <= 3:
        raise ValueError("N must be odd and > 3")
    if require_coprime_6 and N % 3 == 0:
        raise ValueError("N must be coprime to 6")
    if is_perfect_power(N):
        raise ValueError("N must not be a perfect power")
    if is_probable_prime(N, _VALIDATION_ROUNDS, SplitMix64(_VALIDATION_SEED)).is_probably_prime:
        raise ValueError("N is probably prime; nothing to factor")


def _verified(divisor: int, N: int) -> int:
    # Las Vegas contract: never report an unchecked divisor.
    if not 1 < divisor < N or N % divisor != 0:
        raise RuntimeError("internal error: bogus divisor %d for %d" % (divisor, N))
    return divisor


def pollard_pm1(N: int, bound: int) -> FactorOutcome:
    """Pollard's p-1 method at smoothness bound ``bound``.

    Raises a base b to the product of prime powers <= bound and takes
    gcd(b**M - 1, N).  When the gcd collapses to N itself (all prime factors
    of N share a smooth order for this base) the next base in PM1_BASES is
    tried; a gcd of 1 means the bound is too small and the search reports
    exhaustion.
    """
    _check_bound("bound", bound)
    _check_target(N)
    M = smooth_exponent(bound)
    for trials, base in enumerate(PM1_BASES, start=1):
        a = pow(base, M, N)
        d = gcd((a - 1) % N, N)
        if 1 < d < N:
            return FactorOutcome(_verified(d, N), trials, bound)
        if d == 1:
            return FactorOutcome(None, trials, bound)
        # d == N: this base cannot separate the factors; try the next.
    return FactorOutcome(None, len(PM1_BASES), bound)


def curve_add(P: CurvePoint, Q: CurvePoint, a: int, N: int) -> CurvePoint:
    """Chord-tangent addition on y^2 = x^3 + ax + b mod N.

    Over composite N this is only a pseudo-group: the slope denominator may
    be non-invertible, in which case NotInvertible escapes carrying a
    divisor of N -- the factoring event.
    """
    if P.at_infinity:
        return Q
    if Q.at_infinity:
        return P
    if P.x == Q.x and (P.y + Q.y) % N == 0:
        return INFINITY
    if P.x == Q.x and P.y == Q.y:
        num = (3 * P.x * P.x + a) % N
        den = (2 * P.y) % N
    else:
        num = (Q.y - P.y) % N
        den = (Q.x - P.x) % N
    slope = num * mod_inverse(den, N) % N
    x3 = (slope * slope - P.x - Q.x) % N
    y3 = (slope * (P.x - x3) - P.y) % N
    return CurvePoint(x3, y3)


def _scalar_mul(P: CurvePoint, k: int, a: int, N: int) -> CurvePoint:
    R = INFINITY
    for i in range(k.bit_length() - 1, -1, -1):
        R = curve_add(R, R, a, N)
        if (k >> i) & 1:
            R = curve_add(R, P, a, N)
    return R


def ecm_stage1(N: int, b1: int, max_curves: int, rng: SplitMix64) -> FactorOutcome:
    """Stage-1 elliptic curve method: random curves, smoothness bound b1.

    Each curve draws a random point and coefficient a, derives b so the
    point lies on the curve, and multiplies the point by the product of
    prime powers <= b1.  An inversion failure with divisor strictly between
    1 and N ends the search; a full collapse (divisor N) just discards the
    curve.
    """
    _check_bound("b1", b1)
    if not 1 <= max_curves <= MAX_CURVES:
        raise ValueError("curves must be in [1, %d]" % MAX_CURVES)
    _check_target(N, require_coprime_6=True)
    M = smooth_exponent(b1)
    for curve in range(1, max_curves + 1):
        x0 = rng.uniform_below(N)
        y0 = rng.uniform_below(N)
        a = rng.uniform_below(N)
        b = (y0 * y0 - x0 * x0 * x0 - a * x0) % N
        disc = gcd((4 * a * a * a + 27 * b * b) % N, N)
        if disc == N:
            continue  # singular against every factor; useless curve
        if disc > 1:
            return FactorOutcome(_verified(disc, N), curve, b1)
        try:
            _scalar_mul(CurvePoint(x0, y0), M, a, N)
        except NotInvertible as blocked:
            if blocked.divisor == N:
                continue  # order smooth for all factors at once; re-roll
            return FactorOutcome(_verified(blocked.divisor, N), curve, b1)
    return FactorOutcome(None, max_curves, b1)
