"""Ordered minimal perfect hashing via random acyclic graphs.

Given m distinct words, pick two random functions f1, f2 mapping words to
vertices {0..n-1} (n about 3m) and view each word as the edge
(f1(w), f2(w)).  If the resulting multigraph has a repeated edge, a
self-loop, or any cycle, throw the functions away and redraw; with n = 3m
the expected number of draws is only about sqrt(3).  Self-loops are
caught up front by one C-level pass; repeated edges and longer cycles by
peeling: strip degree-1 vertices, each taking its one remaining edge,
until no edge is left (a forest) or none can be stripped (a cycle).  A
vertex table g starts at 0 and is then filled in reverse peel order: for
the edge of word number j, peeled from vertex x, set g[x] so that

    h(w) = (g[f1(w)] + g[f2(w)]) mod m

comes out to exactly j.  No edge handled later touches x, so the sum stays
fixed.  The result is an ordered minimal perfect hash: h(w_j) = j for every
build word.

The per-word vertex functions are byte-table sums: f_i(w) = sum over
positions of T_i[position][byte] mod n, with both tables drawn from the
build's random stream, so a (words, seed, ratio) triple rebuilds the
identical function.  ``query`` sums one word's entries directly; ``build``
hashes all its words at once, and ``query_many`` QUERY_SLICE words at a
time, column by column: word i's sum is lane i of one big int, 4 bytes
wide, and a sum is at most
max_len * (n - 1) < MAX_WORD_LEN * MAX_VERTICES = 2**27, so no lane carries
into the next.  Byte k of the entries T[j][w[j]] for all words is one
``translate`` of column j (byte j of every word, zero-padded), stored into
every lane by one slice.  The padding adds
sum_{j >= len(w)} T[j][0] to a word's lane, which one more pass, over the
word lengths, takes back out.  The lanes are read back as one machine array
(little-endian, so byte-swapped on a big-endian host), and every table of
one int per word or per peeled edge -- the vertex pairs, the peel order --
is an ``array("q")``, 8 bytes an entry rather than an int object each.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import time
from array import array
from itertools import accumulate, count, repeat
from operator import add, eq, getitem, mod, ne
from typing import BinaryIO, NamedTuple, Sequence

from .rng import SplitMix64

MAGIC = b"CHM1"
VERSION = 1
# Magic, version byte, then m, n and max word length as 64-bit words.
HEADER_BYTES = 29

# Consecutive rejected graphs before concluding the ratio is too low.
MAX_TRIALS = 1000

MIN_RATIO = 2.05
# The vertex table has ratio*m entries; past this it only wastes memory.
MAX_RATIO = 100
# Most vertices n = ceil(ratio * m); at 60 bytes a vertex (tracemalloc, ratio 3), 120 MiB.
MAX_VERTICES = 2**21
# Longest build word in bytes: each trial draws 2 * 256 table entries per byte.
MAX_WORD_LEN = 64

# Words padded at a time when the columns are cut, bounding the padded copies.
PAD_SLICE = 4096
# Words ``query_many`` hashes at a time, bounding its columns to 4 MiB.
QUERY_SLICE = 2**16


class RatioTooLowError(RuntimeError):
    """Every trial graph kept coming out cyclic; n/m is too close to 2."""


class FormatError(ValueError):
    """Serialized function is malformed; ``offset`` locates the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__("%s (at byte offset %d)" % (message, offset))
        self.offset = offset


class MphfFunction(NamedTuple):
    m: int  # number of build words == table size
    n: int  # vertex count
    max_word_len: int
    t1: tuple  # max_word_len rows of 256 vertex indices
    t2: tuple
    g: tuple  # n values in [0, m)


class BuildReport(NamedTuple):
    trials: int
    elapsed_seconds: float


def _columns(words: Sequence[bytes], max_len: int) -> tuple[list[bytearray], bytes]:
    """Byte j of every word, zero-padded to max_len, for each j; and the word lengths."""
    blob = bytearray()
    for i in range(0, len(words), PAD_SLICE):
        blob += b"".join(map(bytes.ljust, words[i:i + PAD_SLICE], repeat(max_len), repeat(b"\0")))
    return [blob[j::max_len] for j in range(max_len)], bytes(map(len, words))


def _hash(columns: list[bytearray], lengths: bytes, table, n: int) -> array:
    """sum_j table[j][w[j]] mod n for every word, from the words' columns."""
    buf = bytearray(4 * len(lengths))  # one 4-byte lane per word

    def lanes(column: bytes, row, planes: int) -> int:
        entries = struct.pack("<256I", *row)
        for k in range(planes):
            buf[k::4] = column.translate(entries[k::4])
        return int.from_bytes(buf, "little")

    # Entries are below n, so the upper planes of buf stay 0 until the padding pass.
    planes = -(-(n - 1).bit_length() // 8)
    pad = [*accumulate(row[0] for row in reversed(table))][::-1]
    total = (sum(map(lanes, columns, table, repeat(planes)))
             - lanes(lengths, pad + [0] * (256 - len(pad)), 4))
    sums = array("I", total.to_bytes(len(buf), "little"))
    if sys.byteorder == "big":
        sums.byteswap()
    return array("q", map(mod, sums, repeat(n)))


def query_many(fn: MphfFunction, words: Sequence[bytes]) -> list[int]:
    """query(fn, w) for every w in ``words``, hashed QUERY_SLICE words at a time."""
    if max(map(len, words), default=0) > fn.max_word_len:
        raise ValueError("word longer than the build maximum (%d bytes)" % fn.max_word_len)
    g, m = fn.g, fn.m
    out = []
    for i in range(0, len(words), QUERY_SLICE):
        columns, lengths = _columns(words[i:i + QUERY_SLICE], fn.max_word_len)
        out += [(g[u] + g[v]) % m for u, v in zip(_hash(columns, lengths, fn.t1, fn.n),
                                                  _hash(columns, lengths, fn.t2, fn.n))]
    return out


def query(fn: MphfFunction, word: bytes) -> int:
    """Hash value in [0, m); equals the build index for build words."""
    if len(word) > fn.max_word_len:
        raise ValueError("word longer than the build maximum (%d bytes)" % fn.max_word_len)
    # One word: its own entries, not the packing of every table row.
    u = sum(map(getitem, fn.t1, word)) % fn.n
    v = sum(map(getitem, fn.t2, word)) % fn.n
    return (fn.g[u] + fn.g[v]) % fn.m


def _peel(n: int, us: Sequence[int], vs: Sequence[int]) -> tuple[array, array] | None:
    """The edges in peel order and the vertex each was peeled from, or None on a cycle.

    Edge i joins us[i] and vs[i].  Self-loops are refused up front by one
    C-level pass.  Each vertex then keeps only its degree and the XOR of its
    incident edge ids, so a degree-1 vertex names its last edge directly.
    Stripping such vertices removes every edge of a forest; a cycle never
    peels, and a repeated edge is a 2-cycle.
    """
    if any(map(eq, us, vs)):
        return None
    degree = [0] * n
    xor = [0] * n
    for idx, (u, v) in enumerate(zip(us, vs)):
        degree[u] += 1
        degree[v] += 1
        xor[u] ^= idx
        xor[v] ^= idx
    edges = array("q")
    peeled_from = array("q")
    queue = [v for v in range(n) if degree[v] == 1]
    for v in queue:  # grows while it is walked
        if degree[v] != 1:
            continue  # the other end of a peeled last edge
        idx = xor[v]
        edges.append(idx)
        peeled_from.append(v)
        other = us[idx] ^ vs[idx] ^ v  # the endpoint that is not v
        degree[v] = 0
        degree[other] -= 1
        xor[other] ^= idx
        if degree[other] == 1:
            queue.append(other)
    return (edges, peeled_from) if len(edges) == len(us) else None


def build(words: Sequence[bytes], ratio: float,
          rng: SplitMix64) -> tuple[MphfFunction, BuildReport]:
    """Construct an ordered minimal perfect hash for ``words``.

    ``ratio`` is n/m; values at or below 2 make acceptance vanishingly rare
    and are refused, and so are values above MAX_RATIO, a table of more
    than MAX_VERTICES vertices and words longer than MAX_WORD_LEN bytes.
    Raises RatioTooLowError if 1000 consecutive trial graphs are rejected.
    """
    start = time.perf_counter()
    m = len(words)
    if m == 0:
        raise ValueError("word set is empty")
    if len(distinct := set(words)) != m:
        raise ValueError("duplicate words in input")
    if b"" in distinct:
        # The empty word always maps to the self-loop (0, 0), which no trial
        # can accept; reject it up front with a comprehensible error.
        raise ValueError("the empty word cannot be hashed by this construction")
    del distinct  # 2 MiB at 2^16 words: not held through the trials
    if not math.isfinite(ratio):
        raise ValueError("ratio must be finite")
    if ratio < MIN_RATIO:
        raise ValueError("ratio must be >= %.2f" % MIN_RATIO)
    if ratio > MAX_RATIO:
        raise ValueError("ratio must be <= %d" % MAX_RATIO)
    n = -(-int(ratio * m * 2**20) // 2**20)  # ceil without float edge cases
    if n > MAX_VERTICES:
        raise ValueError("table size ceil(ratio * words) = %d must be at most %d" % (n, MAX_VERTICES))
    max_len = max(map(len, words))
    if max_len > MAX_WORD_LEN:
        raise ValueError("words must be at most %d bytes long" % MAX_WORD_LEN)

    columns, lengths = _columns(words, max_len)
    vertex = rng.sampler(n)
    for trial in range(1, MAX_TRIALS + 1):
        t1 = tuple(tuple(vertex() for _ in range(256)) for _ in range(max_len))
        t2 = tuple(tuple(vertex() for _ in range(256)) for _ in range(max_len))
        us = _hash(columns, lengths, t1, n)
        vs = _hash(columns, lengths, t2, n)
        peeled = _peel(n, us, vs)
        if peeled is None:
            continue
        # In reverse peel order no later edge touches the vertex an edge was
        # peeled from, so setting it fixes that edge's sum for good.
        edges, peeled_from = peeled
        g = [0] * n
        for idx, v in zip(reversed(edges), reversed(peeled_from)):
            g[v] = (idx - g[us[idx] ^ vs[idx] ^ v]) % m  # the other endpoint's g
        del peeled, edges, peeled_from
        # The ordered property, checked exhaustively; only a failure looks for j.
        at = g.__getitem__
        if any(map(ne, map(mod, map(add, map(at, us), map(at, vs)), repeat(m)), count())):
            j = next(j for j, (u, v) in enumerate(zip(us, vs)) if (g[u] + g[v]) % m != j)
            raise RuntimeError("internal error: assignment broke h(w_%d) = %d" % (j, j))
        return (MphfFunction(m, n, max_len, t1, t2, tuple(g)),
                BuildReport(trial, time.perf_counter() - start))
    raise RatioTooLowError("%d consecutive cyclic graphs at ratio %.3f" % (MAX_TRIALS, ratio))


def serialize(fn: MphfFunction) -> bytes:
    """Little-endian on-disk form; see deserialize for the exact layout."""
    out = [MAGIC, bytes([VERSION]), struct.pack("<QQQ", fn.m, fn.n, fn.max_word_len)]
    for table in (fn.t1, fn.t2):
        for row in table:
            out.append(struct.pack("<256Q", *row))
    out.append(struct.pack("<%dQ" % fn.n, *fn.g))
    return b"".join(out)


def _header(head: bytes, size: int) -> tuple[int, int, int]:
    """m, n and max word length from the first HEADER_BYTES bytes of a
    serialized function ``size`` bytes long, checked as deserialize states."""
    if len(head) < 4 or head[:4] != MAGIC:
        raise FormatError(0, "bad magic")
    if len(head) < 5:
        raise FormatError(4, "truncated before version byte")
    if head[4] != VERSION:
        raise FormatError(4, "unsupported version %d" % head[4])
    if len(head) < HEADER_BYTES:
        raise FormatError(len(head), "truncated header")
    m, n, max_len = struct.unpack_from("<QQQ", head, 5)
    if m < 1:
        raise FormatError(5, "m must be >= 1")
    if not 1 <= n <= MAX_VERTICES:  # _hash's 4-byte lanes rely on this
        raise FormatError(13, "n must be in [1, %d]" % MAX_VERTICES)
    if not 1 <= max_len <= MAX_WORD_LEN:  # query's byte columns rely on this
        raise FormatError(21, "max word length must be in [1, %d]" % MAX_WORD_LEN)
    expected = HEADER_BYTES + (2 * max_len * 256 + n) * 8
    if size != expected:
        raise FormatError(min(size, expected), "expected %d bytes, got %d" % (expected, size))
    return m, n, max_len


def deserialize(data: bytes) -> MphfFunction:
    """Parse bytes produced by serialize, validating every field range.

    Layout: "CHM1" magic, version byte 0x01, then m, n, max word length as
    64-bit little-endian words (n in [1, MAX_VERTICES], the last in
    [1, MAX_WORD_LEN]), table T1 (max_word_len rows of 256 words),
    table T2 likewise, and the g array (n words).
    """
    m, n, max_len = _header(data[:HEADER_BYTES], len(data))
    rows = [struct.unpack_from("<256Q", data, HEADER_BYTES + 2048 * r) for r in range(2 * max_len)]
    g = struct.unpack_from("<%dQ" % n, data, len(data) - 8 * n)
    for r, row in enumerate(rows + [g]):  # g lies right after the last table row
        what, limit = ("table", n) if r < len(rows) else ("g", m)
        if max(row) >= limit:
            i = next(i for i, value in enumerate(row) if value >= limit)
            raise FormatError(HEADER_BYTES + 2048 * r + 8 * i,
                              "%s entry %d out of range [0, %d)" % (what, row[i], limit))
    return MphfFunction(m, n, max_len, tuple(rows[:max_len]), tuple(rows[max_len:]), g)


def load(fh: BinaryIO) -> MphfFunction:
    """deserialize() of an open binary file.  Its header is checked against
    the file's size first, so a file of any other length is refused before
    its body is read."""
    _header(fh.read(HEADER_BYTES), os.fstat(fh.fileno()).st_size)
    fh.seek(0)
    return deserialize(fh.read())
