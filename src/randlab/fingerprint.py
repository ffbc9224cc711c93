"""Remote document comparison by residues modulo random primes.

Two parties each hold a byte sequence, read as a big-endian integer.  Per
round one side draws a random prime p in (10**9, 2*10**9), both reduce their
integer mod p, and the residues are compared: unequal residues prove the
documents differ, while equal residues on every round make inequality
extremely unlikely (a difference of n-byte documents has at most
8n / log2(10**9 + 1) prime divisors above 10**9, compared with the tens of
millions of primes in the interval).  A ``verify`` or ``localize`` call
draws all its primes from one ``prime_sampler``, up front, once a call.
``verify`` asks each side once for its document's residue modulo the
product of the primes; a round's residue is that remainder mod its prime,
since each prime divides the product.  ``localize`` asks each side once a
probe, modulo the product of the distinct primes.  ``residue`` reduces a long
byte range by a multiply-accumulate over fixed-size chunks, each times its
weight 256**(chunk bytes * place) mod the modulus, and one short division
of the sum, so no int the size of the document is built.  Corrupted
regions are then pinned down by bisecting the byte range and
fingerprinting the halves.

Both sides are residue oracles, whose whole interface is ``length()`` and
``residue(offset, length, modulus)``: an in-process ``LocalOracle(data)`` (or
``.from_file(path)``), and a line-oriented text protocol for remote use:

    request   Q <offset> <length> <modulus>\n
    response  R <residue>\n        (in the base the modulus was written in)
    request   L\n                 (document length)
    response  L <length>\n
    response  E <reason>\n        (to a malformed or out-of-range request,
                                  or a modulus wider than MAX_MODULUS_BITS)

The modulus is decimal or 0x-prefixed hex (``natnum.parse_natural``); the
client writes hex, since ``str()`` refuses an int past 4,300 digits and the
widest product of round primes has 9,865.  The server answers a bad request,
or a line longer than MAX_LINE, with ``E`` and keeps serving; the client
treats an ``E`` reply, or one longer than MAX_LINE, as a transport failure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .natnum import parse_natural
from .primality import MAX_PRIME_BITS, MAX_ROUNDS, _is_prime_exact, check_rounds, prime_sampler
from .rng import SplitMix64

MATCH = "match"
MISMATCH = "mismatch"

DEFAULT_PRIME_LO = 10**9
DEFAULT_PRIME_HI = 2 * 10**9

# pi(2*10**9) - pi(10**9); exact, from the standard prime-counting tables.
PRIMES_IN_DEFAULT_INTERVAL = 47_374_753

# Random-base rounds for a round-prime candidate of 2**64 or more (a
# --prime-hi past 2**64); below 2**64, as in the default interval, every
# round prime is decided exactly and this has no effect.
PRIME_DRAW_ROUNDS = 16

# Other intervals of at most this many integers, below 2**64, are counted
# exactly, one primality test per integer.
EXACT_COUNT_SPAN = 2**17

# Widest modulus a Q request may name: the product of MAX_ROUNDS round primes.
MAX_MODULUS_BITS = MAX_ROUNDS * MAX_PRIME_BITS

MAX_LINE = 16 * 1024  # with its newline; a Q of the widest modulus in hex takes 8.2 KB

# residue's chunk: at least CHUNK_BYTES, and at least CHUNK_MODULI times the
# modulus's width, so that a wide modulus's per-call pow and per-chunk weight
# update stay small beside the chunks' products.
CHUNK_BYTES = 16 * 1024
CHUNK_MODULI = 64


class TransportError(OSError):
    """Oracle communication failed, an I/O error; distinct from a residue mismatch."""


def residue(data: bytes, modulus: int) -> int:
    """Big-endian value of ``data`` (empty -> 0) mod any ``modulus`` >= 2.

    ``data`` is any bytes-like object; a ``memoryview`` range is read in
    place.  The data is summed chunk by chunk from its end, each chunk
    times its weight 256**(k*i) mod ``modulus`` (k the chunk size, i the
    chunk's place from the end), and the sum is reduced once; data of at
    most one chunk is that chunk alone.  The weights take one modular
    multiplication per chunk, the sum stays within a few bytes of a chunk
    times the modulus, and so the one long division spans about one chunk,
    not the data.  Beside the data, the transient ints take at most 3.5
    chunk sizes, by tracemalloc: 0.05 MiB for a modulus of up to
    CHUNK_BYTES / CHUNK_MODULI = 256 bytes, such as a product of 10 round
    primes, and 0.86 MiB for the widest one ``verify`` makes, MAX_ROUNDS
    primes of MAX_PRIME_BITS bits.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    size = max(CHUNK_BYTES, CHUNK_MODULI * -(-modulus.bit_length() // 8))
    view = memoryview(data)
    acc, weight = int.from_bytes(view[-size:], "big"), 1
    if len(view) > size:
        step = pow(256, size, modulus)
        for end in range(len(view) - size, 0, -size):
            weight = weight * step % modulus
            acc += int.from_bytes(view[max(0, end - size) : end], "big") * weight
    return acc % modulus


class LocalOracle:
    """In-process residue oracle over a byte sequence it holds a copy of."""

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.queries = 0

    @classmethod
    def from_file(cls, path: str) -> "LocalOracle":
        with open(path, "rb") as fh:
            return cls(fh.read())

    def length(self) -> int:
        return len(self.data)

    def residue(self, offset: int, length: int, modulus: int) -> int:
        self.queries += 1
        if offset < 0 or length < 0 or offset + length > len(self.data):
            raise ValueError("byte range out of bounds")
        return residue(memoryview(self.data)[offset : offset + length], modulus)


# A second name for the one class: bench/tracing.py traces Document's methods by name.
Document = LocalOracle


class StreamOracle:
    """Client side of the text protocol; talks to a remote ``serve_oracle``."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self.queries = 0

    def _exchange(self, request: str, tag: str) -> int:
        try:
            self._writer.write(request)
            self._writer.flush()
            line = self._reader.readline(MAX_LINE)
        except (OSError, ValueError) as exc:
            raise TransportError("oracle I/O failed: %s" % exc) from exc
        if len(line) == MAX_LINE and not line.endswith("\n"):
            raise TransportError("oracle reply longer than %d characters" % MAX_LINE)
        parts = line.split()
        if parts and parts[0] == "E":
            raise TransportError("oracle refused %r: %s" % (request, line[1:].strip()))
        if len(parts) != 2 or parts[0] != tag:
            raise TransportError("malformed oracle response: %r" % line)
        try:
            return parse_natural(parts[1])
        except ValueError as exc:
            raise TransportError("malformed oracle response: %r" % line) from exc

    def length(self) -> int:
        return self._exchange("L\n", "L")

    def residue(self, offset: int, length: int, modulus: int) -> int:
        self.queries += 1
        value = self._exchange("Q %d %d %#x\n" % (offset, length, modulus), "R")
        if value >= modulus:
            raise TransportError("impossible oracle residue %#x mod %#x" % (value, modulus))
        return value


def serve_oracle(oracle, reader, writer) -> int:
    """Answer protocol requests from ``oracle``; returns the queries answered.

    Serves until EOF or until the first line that is not a protocol request
    (end of session: the peer has started printing its own report on the
    shared channel).  A request that is malformed, out of range or longer
    than MAX_LINE (read in MAX_LINE pieces) gets an ``E <reason>`` reply,
    and serving goes on.
    """
    served = 0
    while line := reader.readline(MAX_LINE):
        parts = line.split()
        if parts and parts[0] not in ("L", "Q"):
            break
        try:
            if len(line) == MAX_LINE and not line.endswith("\n"):
                while line and not line.endswith("\n"):
                    line = reader.readline(MAX_LINE)
                raise ValueError("request longer than %d characters" % MAX_LINE)
            if not parts:
                continue
            reply = _answer(oracle, parts)
        except ValueError as exc:
            reply = "E %s\n" % exc
        else:
            served += parts[0] == "Q"
        writer.write(reply)
        writer.flush()
    return served


def _answer(oracle, parts: list[str]) -> str:
    """The reply line to one L or Q request; ValueError if it is bad."""
    if parts[0] == "L":
        if len(parts) != 1:
            raise ValueError("L takes no arguments")
        return "L %d\n" % oracle.length()
    if len(parts) != 4:
        raise ValueError("Q takes offset, length and prime")
    offset, length, modulus = map(parse_natural, parts[1:])
    if modulus.bit_length() > MAX_MODULUS_BITS:
        raise ValueError("modulus must be at most %d bits" % MAX_MODULUS_BITS)
    # The reply is in the request's base: an old decimal client reads decimal.
    form = "R %#x\n" if parts[3][:2] in ("0x", "0X") else "R %d\n"
    return form % oracle.residue(offset, length, modulus)


class VerifyReport(NamedTuple):
    verdict: str  # MATCH or MISMATCH
    rounds: int  # residue rounds actually executed
    primes_used: list[int]
    per_round_residue_pairs: list[tuple[int, int]]
    false_positive_bound: Fraction
    length_mismatch: bool = False

    @property
    def matched(self) -> bool:
        return self.verdict == MATCH


def _interval_prime_count(lo: int, hi: int) -> int:
    """Primes in (lo, hi), at least 1: exact for the default interval and
    for narrow ones below 2**64, otherwise a lower bound, so that the
    false-positive bound built on it is never too small."""
    if (lo, hi) == (DEFAULT_PRIME_LO, DEFAULT_PRIME_HI):
        return PRIMES_IN_DEFAULT_INTERVAL
    if hi <= 2**64 and hi - lo - 1 <= EXACT_COUNT_SPAN:
        # A primeless interval fails its first draw before any bound is made.
        return max(1, sum(map(_is_prime_exact, range(lo + 1, hi))))
    # pi(hi - 1) - pi(lo), from below by Rosser & Schoenfeld (1962):
    # pi(x) > x / ln x for x >= 17, and pi(x) < 1.25506 x / ln x for x > 1.
    # The floats are good to a few ulps; the 2**-40 margins round each bound
    # past that error, so the count can only fall.
    x = hi - 1
    below = math.floor(x / math.log(x) * (1 - 2**-40)) if x >= 17 else 0
    above = math.ceil(1.25506 * lo / math.log(lo) * (1 + 2**-40)) if lo > 1 else 0
    return max(1, below - above)


def max_prime_divisors(doc_len: int, prime_lo: int = DEFAULT_PRIME_LO) -> int:
    """Most distinct primes above ``prime_lo`` dividing a nonzero difference
    of two ``doc_len``-byte documents.

    The difference is below 256**doc_len and each such prime is at least
    prime_lo + 1 (and at least 2), so there are at most
    floor(8 * doc_len / log2(prime_lo + 1)) of them.
    """
    return math.floor(8 * doc_len / math.log2(max(prime_lo + 1, 2)))


def structural_bound(doc_len: int, rounds: int, prime_lo: int = DEFAULT_PRIME_LO,
                     prime_hi: int = DEFAULT_PRIME_HI) -> Fraction:
    """Per-report false-positive bound from the divisor-counting argument.

    A nonzero difference of documents this long has at most
    ``max_prime_divisors(doc_len, prime_lo)`` prime divisors in the drawing
    interval, against the number of primes in it; rounds multiply.
    """
    per_round = Fraction(max_prime_divisors(doc_len, prime_lo),
                         _interval_prime_count(prime_lo, prime_hi))
    if per_round > 1:
        per_round = Fraction(1)
    return per_round**rounds


def verify(local, remote, rounds: int, rng: SplitMix64,
           prime_lo: int = DEFAULT_PRIME_LO, prime_hi: int = DEFAULT_PRIME_HI) -> VerifyReport:
    """Compare the document of the ``local`` oracle against the ``remote`` one's.

    Draws a fresh random prime per round, all before the first round, and
    compares full-document residues, stopping at the first unequal pair.
    Each side is asked once, with the same ``residue(0, n, M)`` for M the
    product of the primes: a single ``Q`` over the wire.  Round i's pair is
    the two remainders mod its prime.  A match after all rounds carries the
    structural false-positive bound; a mismatch is exact.  Documents of
    different length are reported as a mismatch without any residue rounds
    (flagged on the report, since no residue pair witnesses it).

    Randomness: the draws never depend on residues, so the primes are the
    ones a round-by-round loop would draw, in the same order.  A match
    makes exactly that loop's draws; a mismatch at round k < ``rounds``
    also draws the primes of the later rounds and discards them, so its
    report is unchanged but ``rng`` ends further on.
    """
    check_rounds("rounds", rounds)
    if remote.length() != (n := local.length()):
        return VerifyReport(MISMATCH, 0, [], [], Fraction(0), length_mismatch=True)
    draw = prime_sampler(prime_lo, prime_hi, PRIME_DRAW_ROUNDS, rng)
    primes = [draw() for _ in range(rounds)]
    product = math.prod(primes)
    local_whole, remote_whole = local.residue(0, n, product), remote.residue(0, n, product)
    pairs: list[tuple[int, int]] = []
    for done, p in enumerate(primes, 1):
        pairs.append((local_whole % p, remote_whole % p))
        if pairs[-1][0] != pairs[-1][1]:
            return VerifyReport(MISMATCH, done, primes[:done], pairs,
                                structural_bound(n, done, prime_lo, prime_hi))
    return VerifyReport(MATCH, rounds, primes, pairs,
                        structural_bound(n, rounds, prime_lo, prime_hi))


def localize(local, remote, rounds_per_probe: int, rng: SplitMix64,
             prime_lo: int = DEFAULT_PRIME_LO, prime_hi: int = DEFAULT_PRIME_HI) -> list[tuple[int, int]]:
    """Bisect down to the corrupted bytes; returns (offset, length=1) ranges.

    Both oracles fingerprint the same byte ranges (big-endian value of the
    range alone), bisecting any range whose residues disagree.  The call
    draws its ``rounds_per_probe`` primes once, before the first probe, and
    each probe asks each side once for the range's residue modulo M, the
    product of the distinct primes: a single ``Q`` over the wire.  Equal
    residues mean every prime divides the range's difference, the event in
    which a round-by-round probe with these primes would match, so a
    corruption escapes notice only with the per-probe false-match
    probability.  Until a false match the probed ranges are the bisection
    tree of the true corruptions, fixed before any draw, so a union bound
    over the probes bounds the call's error as with fresh primes a probe.
    Probes run depth first from the whole document: a range's left half,
    and every probe inside it, comes before its right half, so the ranges
    come out in offset order.
    """
    check_rounds("rounds_per_probe", rounds_per_probe)
    if remote.length() != (n := local.length()):
        raise ValueError("localize requires documents of equal length")
    if not n:  # nothing to probe, so no sampler and no draw
        return []
    draw = prime_sampler(prime_lo, prime_hi, PRIME_DRAW_ROUNDS, rng)
    modulus = math.lcm(*(draw() for _ in range(rounds_per_probe)))
    found: list[tuple[int, int]] = []
    pending = [(0, n)]  # ranges still to probe, last first
    while pending:
        offset, length = pending.pop()
        if local.residue(offset, length, modulus) == remote.residue(offset, length, modulus):
            continue
        if length == 1:
            found.append((offset, 1))
        else:
            half = length // 2
            pending += [(offset + half, length - half), (offset, half)]
    return found
