"""Ordered minimal perfect hashing via random acyclic graphs.

Given m distinct words, pick two random functions f1, f2 mapping words to
vertices {0..n-1} (n about 3m) and view each word as the edge
(f1(w), f2(w)).  If the resulting multigraph has a repeated edge, a
self-loop, or any cycle, throw the functions away and redraw; with n = 3m
the expected number of draws is only about sqrt(3).  Acyclicity is decided
by peeling: strip degree-1 vertices, each taking its one remaining edge,
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
identical function.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from typing import Sequence

from .rng import SplitMix64

MAGIC = b"CHM1"
VERSION = 1

# Consecutive rejected graphs before concluding the ratio is too low.
MAX_TRIALS = 1000

MIN_RATIO = 2.05
# The vertex table has ratio*m entries; past this it only wastes memory.
MAX_RATIO = 100
# Longest build word in bytes: each trial draws 2 * 256 table entries per byte.
MAX_WORD_LEN = 64


class RatioTooLowError(RuntimeError):
    """Every trial graph kept coming out cyclic; n/m is too close to 2."""


class FormatError(ValueError):
    """Serialized function is malformed; ``offset`` locates the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__("%s (at byte offset %d)" % (message, offset))
        self.offset = offset


@dataclass(frozen=True)
class MphfFunction:
    m: int  # number of build words == table size
    n: int  # vertex count
    max_word_len: int
    t1: tuple  # max_word_len rows of 256 vertex indices
    t2: tuple
    g: tuple  # n values in [0, m)


@dataclass(frozen=True)
class BuildReport:
    trials: int
    elapsed_seconds: float


def _vertex_pair(word: bytes, t1, t2, n: int) -> tuple[int, int]:
    u = 0
    v = 0
    for j, byte in enumerate(word):
        u += t1[j][byte]
        v += t2[j][byte]
    return u % n, v % n


def query(fn: MphfFunction, word: bytes) -> int:
    """Hash value in [0, m); equals the build index for build words."""
    if len(word) > fn.max_word_len:
        raise ValueError("word longer than the build maximum (%d bytes)" % fn.max_word_len)
    u, v = _vertex_pair(word, fn.t1, fn.t2, fn.n)
    return (fn.g[u] + fn.g[v]) % fn.m


def _peel(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """(edge, vertex it was peeled from) pairs in peel order, or None on a cycle.

    Each vertex keeps only its degree and the XOR of its incident edge ids,
    so a degree-1 vertex names its last edge directly.  Stripping such
    vertices removes every edge of a forest; a cycle never peels, and a
    repeated edge is a 2-cycle.  Self-loops are refused up front.
    """
    degree = [0] * n
    xor = [0] * n
    for idx, (u, v) in enumerate(edges):
        if u == v:
            return None
        degree[u] += 1
        degree[v] += 1
        xor[u] ^= idx
        xor[v] ^= idx
    order = []
    queue = [v for v in range(n) if degree[v] == 1]
    for v in queue:  # grows while it is walked
        if degree[v] != 1:
            continue  # the other end of a peeled last edge
        idx = xor[v]
        order.append((idx, v))
        a, b = edges[idx]
        other = a ^ b ^ v  # the endpoint that is not v
        degree[v] = 0
        degree[other] -= 1
        xor[other] ^= idx
        if degree[other] == 1:
            queue.append(other)
    return order if len(order) == len(edges) else None


def build(words: Sequence[bytes], ratio: float = 3.0,
          rng: SplitMix64 | None = None) -> tuple[MphfFunction, BuildReport]:
    """Construct an ordered minimal perfect hash for ``words``.

    ``ratio`` is n/m; values at or below 2 make acceptance vanishingly rare
    and are refused, and so are values above MAX_RATIO and words longer
    than MAX_WORD_LEN bytes.  Raises RatioTooLowError if 1000 consecutive
    trial graphs are rejected.
    """
    start = time.perf_counter()
    if rng is None:
        rng = SplitMix64(0)
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
    if n <= 2 * m:
        n = 2 * m + 1
    max_len = max(len(w) for w in words)
    if max_len > MAX_WORD_LEN:
        raise ValueError("words must be at most %d bytes long" % MAX_WORD_LEN)

    vertex = rng.sampler(n)
    for trial in range(1, MAX_TRIALS + 1):
        t1 = tuple(tuple(vertex() for _ in range(256)) for _ in range(max_len))
        t2 = tuple(tuple(vertex() for _ in range(256)) for _ in range(max_len))
        edges = [_vertex_pair(w, t1, t2, n) for w in words]
        order = _peel(n, edges)
        if order is None:
            continue
        # In reverse peel order no later edge touches the vertex an edge was
        # peeled from, so setting it fixes that edge's sum for good.
        g = [0] * n
        for idx, v in reversed(order):
            a, b = edges[idx]
            g[v] = (idx - g[a ^ b ^ v]) % m  # a ^ b ^ v: the other endpoint
        for j, (u, v) in enumerate(edges):  # ordered property, checked exhaustively
            if (g[u] + g[v]) % m != j:
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


def deserialize(data: bytes) -> MphfFunction:
    """Parse bytes produced by serialize, validating every field range.

    Layout: "CHM1" magic, version byte 0x01, then m, n, max word length as
    64-bit little-endian words, table T1 (max_word_len rows of 256 words),
    table T2 likewise, and the g array (n words).
    """
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(0, "bad magic")
    if len(data) < 5:
        raise FormatError(4, "truncated before version byte")
    if data[4] != VERSION:
        raise FormatError(4, "unsupported version %d" % data[4])
    if len(data) < 29:
        raise FormatError(len(data), "truncated header")
    m, n, max_len = struct.unpack_from("<QQQ", data, 5)
    if m < 1:
        raise FormatError(5, "m must be >= 1")
    if n < 1:
        raise FormatError(13, "n must be >= 1")
    expected = 29 + (2 * max_len * 256 + n) * 8
    if len(data) != expected:
        raise FormatError(min(len(data), expected), "expected %d bytes, got %d" % (expected, len(data)))
    offset = 29
    tables = []
    for _ in range(2):
        rows = []
        for _ in range(max_len):
            row = struct.unpack_from("<256Q", data, offset)
            for i, value in enumerate(row):
                if value >= n:
                    raise FormatError(offset + 8 * i, "table entry %d out of range [0, %d)" % (value, n))
            rows.append(row)
            offset += 256 * 8
        tables.append(tuple(rows))
    g = struct.unpack_from("<%dQ" % n, data, offset)
    for i, value in enumerate(g):
        if value >= m:
            raise FormatError(offset + 8 * i, "g entry %d out of range [0, %d)" % (value, m))
    return MphfFunction(m, n, max_len, tables[0], tables[1], g)
