"""Deterministic seedable random source used by every randomized routine.

The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): 64-bit state,
one addition and three xor/multiply mixing steps per output.  It is small
enough to re-derive by hand, has published reference constants, and is
bit-exact across platforms, which is what makes every experiment in this
package replayable from a single seed.  Output k >= 1 of seed s is
mix((s + k*GOLDEN_GAMMA) mod 2**64), where

    mix(z):  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2**64
             z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2**64
             return z ^ (z >> 31)

Because the state is a counter, outputs are computed _BLOCK at a time and
handed out one per ``next_u64`` call; the state after k draws is still
exactly (s + k*GOLDEN_GAMMA) mod 2**64.  A block is one int of _BLOCK lanes
of 128 bits, each holding one 64-bit state, and each mixing step is one
big-int operation over all lanes.  The lanes stay exact because a lane's
value is below 2**64 before each multiply, so its product is below 2**128
and never reaches the next lane, and the mask that follows each xor-shift
drops the bits the right shift brought in from the next lane (after the
last one, those bits sit above the low 64 of each lane, which the unpack
skips).

Every bounded draw follows the rule of ``SplitMix64.sampler``: modulo
rejection on as few 64-bit words as the bound needs (Lemire, ACM TOMACS
2019, without the multiply trick).  ``_draw`` is that rule's one loop;
``uniform_below`` runs it directly for a bound of at most 2**64, with no
sampler built.

Reference output for seed 0: 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ...
"""

from __future__ import annotations

import struct
from functools import partial

MASK64 = (1 << 64) - 1

# Weyl-sequence increment (golden ratio in 64-bit fixed point).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Outputs per refill, and the block's lane layout: lane i (bits 128*i up)
# holds the state of output _BLOCK - i, so a refill's list ends with the
# first output and pop() returns them in order.
_BLOCK = 64
_ONES = sum(1 << (128 * i) for i in range(_BLOCK))
_STEPS = sum(((_BLOCK - i) * GOLDEN_GAMMA & MASK64) << (128 * i) for i in range(_BLOCK))
_LOW = MASK64 * _ONES
_LANES = struct.Struct("<" + "Q8x" * _BLOCK)


class SplitMix64:
    """SplitMix64 generator.

    ``state`` is read-only: the 64-bit word after the outputs drawn so far,
    the one ``SplitMix64(state)`` would continue from.  Instances are cheap
    values: copy with ``clone()`` before handing one to code that must not
    disturb your sequence.  Never share one instance between concurrent
    trials; derive a stream per trial with ``derive_stream`` instead.
    """

    # _end: the state after the last output computed; _ahead: the outputs
    # computed but not yet drawn, next one last.
    __slots__ = ("_end", "_ahead")

    def __init__(self, seed: int = 0):
        self._end = seed & MASK64
        self._ahead: list[int] = []

    @property
    def state(self) -> int:
        return (self._end - len(self._ahead) * GOLDEN_GAMMA) & MASK64

    def clone(self) -> "SplitMix64":
        return SplitMix64(self.state)

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        ahead = self._ahead
        if not ahead:
            z = (self._end * _ONES + _STEPS) & _LOW
            z = ((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
            z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
            ahead[:] = _LANES.unpack((z ^ (z >> 31)).to_bytes(128 * _BLOCK // 8, "little"))
            self._end = (self._end + _BLOCK * GOLDEN_GAMMA) & MASK64
        return ahead.pop()

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_below(self, bound: int) -> int:
        """Uniform integer in [0, bound): one draw of ``sampler(bound)``."""
        if 1 <= bound <= 1 << 64:  # one word a try, with no sampler to build
            return _draw(self.next_u64, bound, (1 << 64) - (1 << 64) % bound)
        return self.sampler(bound)()

    def sampler(self, span: int):
        """Function of no arguments drawing uniform integers in [0, span).

        The package's one draw rule: a try is the fewest 64-bit words w >= 1
        with 2**(64*w) >= span, low word first; tries at or past
        2**(64*w) - 2**(64*w) % span, the largest multiple of span that fits,
        are re-drawn, and the rest are returned mod span.  w and that limit
        are worked out once, here, for every draw of the returned function.
        """
        if span < 1:
            raise ValueError("span must be >= 1")
        width = 64 * max(1, ((span - 1).bit_length() + 63) // 64)
        limit = (1 << width) - (1 << width) % span
        next_u64 = self.next_u64
        if width == 64:
            word = next_u64
        else:
            shifts = range(64, width, 64)

            def word() -> int:
                r = next_u64()
                for s in shifts:
                    r |= next_u64() << s
                return r

        return partial(_draw, word, span, limit)

    def uniform_natural_in(self, lo: int, hi: int) -> int:
        """Uniform integer strictly between lo and hi (both ends excluded).

        Works for arbitrary-precision bounds; the distribution is exactly
        uniform over {lo+1, ..., hi-1}.
        """
        if hi <= lo + 1:
            # A bound past 2**256 is named by its width: str() of an int
            # stops at 4,300 digits.
            shown = ["%d" % b if abs(b) <= 1 << 256 else "a %d-bit %s" % (b.bit_length(), name)
                     for name, b in (("lo", lo), ("hi", hi))]
            raise ValueError("open interval (%s, %s) is empty" % tuple(shown))
        return lo + 1 + self.sampler(hi - lo - 1)()


def _draw(word, span: int, limit: int) -> int:
    """One draw of ``sampler``'s rule: re-draw ``word()`` at or past ``limit``."""
    r = word()
    while r >= limit:
        r = word()
    return r % span


def derive_stream(seed: int, index: int) -> SplitMix64:
    """Decorrelated generator number ``index`` for a master ``seed``.

    The stream seed is one SplitMix64 output of (seed XOR index*GOLDEN_GAMMA),
    so distinct indices give unrelated sequences while staying a pure
    function of (seed, index).  That output is mixed here, one word, rather
    than by a generator that would compute a block of them.
    """
    if index < 0:
        raise ValueError("stream index must be non-negative")
    z = ((seed ^ (index * GOLDEN_GAMMA)) + GOLDEN_GAMMA) & MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return SplitMix64(z ^ (z >> 31))
