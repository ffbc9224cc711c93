"""Natural-number helpers shared by the whole package.

Values are plain Python ints restricted to be non-negative; modular powers,
inverses and gcds are the builtins ``pow`` and ``math.gcd``.  What this
module adds is the 2-power split of n - 1 used by the strong pseudoprime
test, and string parsing for arbitrary-size CLI inputs.
"""

from __future__ import annotations


def decompose_two_power(n: int) -> tuple[int, int]:
    """Write odd n >= 3 as n = 2**k * q + 1 with q odd, k >= 1; return (k, q)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    m = n - 1
    k = (m & -m).bit_length() - 1  # m & -m is the lowest set bit of m
    return k, m >> k


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

