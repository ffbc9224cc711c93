"""Natural-number arithmetic kernels shared by the whole package.

Values are plain Python ints restricted to be non-negative; modular powers
and gcds are the builtins ``pow`` and ``math.gcd``.  What this module adds
is a modular inverse with an explicit failure witness, the 2-power split of
n - 1 used by the strong pseudoprime test, and string parsing for
arbitrary-size CLI inputs.  The inverse deliberately reports the blocking
divisor instead of a bare error: elliptic-curve factoring treats that
divisor as its answer.
"""

from __future__ import annotations

import math


class NotInvertible(Exception):
    """Raised when ``a`` has no inverse modulo ``m``.

    Carries ``divisor`` = gcd(a, m) > 1 (or m itself when a == 0), which is a
    nontrivial divisor of the modulus whenever the modulus is composite.
    """

    def __init__(self, divisor: int):
        super().__init__("not invertible; blocking divisor %d" % divisor)
        self.divisor = divisor


def mod_inverse(a: int, modulus: int) -> int:
    """Inverse of a modulo modulus, or NotInvertible carrying gcd(a, modulus).

    Requires 0 <= a < modulus and modulus >= 2.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if not 0 <= a < modulus:
        raise ValueError("need 0 <= a < modulus")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(math.gcd(a, modulus)) from None


def decompose_two_power(n: int) -> tuple[int, int]:
    """Write odd n >= 3 as n = 2**k * q + 1 with q odd, k >= 1; return (k, q)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    q = n - 1
    k = 0
    while q % 2 == 0:
        q //= 2
        k += 1
    return k, q


def parse_natural(text: str) -> int:
    """Parse a decimal or 0x-prefixed hexadecimal non-negative integer."""
    s = text.strip()
    if s.startswith(("0x", "0X")):
        value = int(s, 16)
    else:
        value = int(s, 10)
    if value < 0:
        raise ValueError("value must be non-negative: %r" % text)
    return value

