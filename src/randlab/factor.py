"""Always-correct randomized factoring: Pollard p-1 and ECM stage 1.

Both methods find a prime factor p of N when a group of order close to p is
smooth.  Pollard p-1 uses the fixed multiplicative group mod p (order p-1);
the elliptic-curve method re-rolls the group itself by drawing random curves
y^2 = x^3 + ax + b, whose point-group orders scatter across the Hasse
interval around p, until a smooth one turns up.  Curve points are kept in
Jacobian coordinates (X, Y, Z), so no step inverts anything mod N; a point
is the identity mod p exactly when p divides Z.  The point is multiplied by
each prime power up to the bound in turn, and after each one a gcd(Z, N)
strictly between 1 and N is the success event.  Returned divisors are
re-verified by exact division, so answers are always correct and only the
runtime is random.
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from typing import NamedTuple

from .primality import MAX_TARGET_BITS, is_probable_prime
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


class FactorOutcome(NamedTuple):
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
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(2, limit + 1) if flags[i]]


def _prime_powers(bound: int) -> list[int]:
    """The largest power r**e <= bound of each prime r <= bound, ascending."""
    _check_bound("bound", bound)
    powers = []
    for r in _sieve_primes(bound):
        pw = r
        while pw * r <= bound:
            pw *= r
        powers.append(pw)
    return powers


def smooth_exponent(bound: int) -> int:
    """Product of all prime powers r**e <= bound; annihilates smooth orders."""
    return prod(_prime_powers(bound))


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1 (Newton on integers)."""
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
    if N.bit_length() > MAX_TARGET_BITS:
        raise ValueError("N must be at most %d bits" % MAX_TARGET_BITS)
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


def _double(P: tuple[int, int, int], a: int, N: int) -> tuple[int, int, int]:
    """2P on y^2 = x^3 + ax + b mod N, Jacobian (X, Y, Z) ~ (X/Z^2, Y/Z^3)."""
    X, Y, Z = P
    YY = Y * Y % N
    S = 4 * X * YY % N
    ZZ = Z * Z % N
    M = (3 * X * X + a * ZZ * ZZ) % N
    X3 = (M * M - 2 * S) % N
    return X3, (M * (S - X3) - 8 * YY * YY) % N, 2 * Y * Z % N


def _add(P: tuple[int, int, int], Q: tuple[int, int, int], N: int) -> tuple[int, int, int]:
    """P + Q in Jacobian coordinates, both Z arbitrary (b and a drop out).

    Where P and Q agree mod a prime p | N (say P == Q), the result has
    Z = 0 mod p although P + Q is not the identity mod p; affine addition
    fails to invert at the same inputs, so for factoring both are the event.
    Once Z = 0 mod p, every later sum and double keeps it so.
    """
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    Z1Z1 = Z1 * Z1 % N
    Z2Z2 = Z2 * Z2 % N
    U1 = X1 * Z2Z2 % N
    S1 = Y1 * Z2 * Z2Z2 % N
    H = (X2 * Z1Z1 - U1) % N
    R = (Y2 * Z1 * Z1Z1 - S1) % N
    HH = H * H % N
    HHH = H * HH % N
    V = U1 * HH % N
    X3 = (R * R - HHH - 2 * V) % N
    return X3, (R * (V - X3) - S1 * HHH) % N, Z1 * Z2 * H % N


def _multiply(P: tuple[int, int, int], k: int, a: int, N: int) -> tuple[int, int, int]:
    """kP for k >= 1: left-to-right double-and-add, starting from P."""
    R = P
    for bit in bin(k)[3:]:
        R = _double(R, a, N)
        if bit == "1":
            R = _add(R, P, N)
    return R


def ecm_stage1(N: int, b1: int, max_curves: int, rng: SplitMix64) -> FactorOutcome:
    """Stage-1 elliptic curve method: random curves, smoothness bound b1.

    Each curve draws a random point and coefficient a, derives b so the
    point lies on the curve, and multiplies the point by each prime power
    r**e <= b1 in turn, taking d = gcd(Z, N) after each one.  A d strictly
    between 1 and N ends the search; d == N (the point became the identity
    mod every factor at once) discards the curve; d == 1 goes on to the next
    prime power.
    """
    _check_bound("b1", b1)
    if not 1 <= max_curves <= MAX_CURVES:
        raise ValueError("curves must be in [1, %d]" % MAX_CURVES)
    _check_target(N, require_coprime_6=True)
    powers = _prime_powers(b1)
    residue = rng.sampler(N)
    for curve in range(1, max_curves + 1):
        x0 = residue()
        y0 = residue()
        a = residue()
        b = (y0 * y0 - x0 * x0 * x0 - a * x0) % N
        disc = gcd((4 * a * a * a + 27 * b * b) % N, N)
        if disc == N:
            continue  # singular against every factor; useless curve
        if disc > 1:
            return FactorOutcome(_verified(disc, N), curve, b1)
        P = (x0, y0, 1)
        for q in powers:
            P = _multiply(P, q, a, N)
            d = gcd(P[2], N)
            if d == N:
                break  # order smooth for all factors at once; re-roll
            if d > 1:
                return FactorOutcome(_verified(d, N), curve, b1)
    return FactorOutcome(None, max_curves, b1)
