"""Natural-number helpers shared by the whole package.

Values are plain Python ints restricted to be non-negative; modular powers,
inverses and gcds are the builtins ``pow`` and ``math.gcd``.  What this
module adds is the 2-power split of n - 1 used by the strong pseudoprime
test, and string parsing for arbitrary-size CLI inputs.
"""

from __future__ import annotations

import re


def decompose_two_power(n: int) -> tuple[int, int]:
    """Write odd n >= 3 as n = 2**k * q + 1 with q odd, k >= 1; return (k, q)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    m = n - 1
    k = (m & -m).bit_length() - 1  # m & -m is the lowest set bit of m
    return k, m >> k


# The only spellings of a natural: ASCII decimal digits, or 0x and ASCII hex
# digits.  int() alone would also take a sign, underscores and any Unicode digit.
_HEX = re.compile(r"0[xX][0-9a-fA-F]+")


def parse_natural(text: str) -> int:
    """Parse a decimal or 0x-prefixed hexadecimal non-negative integer.

    Surrounding whitespace is ignored; anything else that is not ASCII
    ``[0-9]+`` or ``0[xX][0-9a-fA-F]+`` raises ValueError.
    """
    s = text.strip()
    if s.isascii() and s.isdigit():  # the ASCII digits are exactly [0-9]
        return int(s)
    if not _HEX.fullmatch(s):
        raise ValueError("not a decimal or 0x-hex natural: %r" % text)
    return int(s, 16)
