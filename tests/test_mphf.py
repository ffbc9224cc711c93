import hashlib
import io
import json
import os
import random
import struct
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from randlab import cli
from randlab.mphf import (
    MAX_WORD_LEN,
    MIN_RATIO,
    FormatError,
    RatioTooLowError,
    _columns,
    _hash,
    _peel,
    build,
    deserialize,
    query,
    query_many,
    serialize,
)
from randlab.rng import SplitMix64


def forest_oracle(n, edges):
    """Cycle-free iff no self-loops, no duplicate edges, and every
    connected component has exactly (vertices - 1) edges."""
    seen = set()
    for u, v in edges:
        if u == v:
            return False
        key = (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def random_words(count, length, seed):
    rng = SplitMix64(seed)
    words = set()
    while len(words) < count:
        words.add(bytes(rng.uniform_below(256) for _ in range(length)))
    return sorted(words)


def peel(n, edges):
    return _peel(n, [u for u, _ in edges], [v for _, v in edges])


def vertex_pair(word, t1, t2, n):
    """The reference for the lane-packed kernel: one word, one byte at a time."""
    u = 0
    v = 0
    for j, byte in enumerate(word):
        u += t1[j][byte]
        v += t2[j][byte]
    return u % n, v % n


def kernel_words():
    """3,000 distinct words: NUL and 0xFF runs, every length from 1 to 64,
    the 64 prefixes of one word, and random words rich in edge bytes."""
    rng = SplitMix64(23)
    long = bytes(rng.uniform_below(256) for _ in range(64))
    words = {long[:k] for k in range(1, 65)}
    words |= {b"\0" * k for k in range(1, 65)} | {b"\xff" * k for k in range(1, 65)}
    edge = (0, 1, 0x7f, 0x80, 0xfe, 0xff)
    while len(words) < 3000:
        length = 1 + rng.uniform_below(64)
        words.add(bytes(edge[rng.uniform_below(6)] if rng.uniform_below(2) else rng.uniform_below(256)
                        for _ in range(length)))
    return sorted(words)


@pytest.mark.parametrize("n", [
    3, 200,  # 1-byte table entries
    9001, 2**26,  # 4-byte lanes; at 2**26 a 64-byte word can sum to 2**32 - 64
    2**26 + 1, 2**40 + 3,  # 8-byte lanes: 64 * (n - 1) >= 2**32
])
def test_hash_matches_scalar_reference(n):
    words = kernel_words()
    assert max(map(len, words)) == MAX_WORD_LEN
    columns, lengths = _columns(words, MAX_WORD_LEN)
    rng = SplitMix64(n)
    vertex = rng.sampler(n)
    random_table = tuple(tuple(vertex() for _ in range(256)) for _ in range(MAX_WORD_LEN))
    top_table = ((n - 1,) * 256,) * MAX_WORD_LEN  # every lane at its largest sum
    us, vs = zip(*(vertex_pair(w, random_table, top_table, n) for w in words))
    assert list(_hash(columns, lengths, random_table, n)) == list(us)
    assert list(_hash(columns, lengths, top_table, n)) == list(vs)


def test_hash_of_one_word_and_of_none():
    table = tuple(tuple(range(r, r + 256)) for r in range(0, 3 * 256, 256))
    for word in (b"", b"\0", b"\xff\0", b"abc"):
        columns, lengths = _columns([word], 3)
        assert list(_hash(columns, lengths, table, 1000)) == [vertex_pair(word, table, table, 1000)[0]]
    assert list(_hash(*_columns([], 3), table, 1000)) == []


def test_query_many_matches_scalar_reference():
    words = kernel_words()
    fn, _ = build(words[:500], 3.0, SplitMix64(3))
    probes = [w for w in words if len(w) <= fn.max_word_len]
    expected = [(fn.g[u] + fn.g[v]) % fn.m
                for u, v in (vertex_pair(w, fn.t1, fn.t2, fn.n) for w in probes)]
    assert query_many(fn, probes) == expected
    assert [query(fn, w) for w in probes] == expected
    assert query_many(fn, words[:500]) == list(range(500))
    with pytest.raises(ValueError):
        query_many(fn, [b"x" * (fn.max_word_len + 1)])
    with pytest.raises(ValueError):
        query(fn, b"x" * (fn.max_word_len + 1))


def test_serialized_kernel_words_pinned():
    # Recorded with the one-word-at-a-time hash the kernel replaced.
    fn, report = build(kernel_words(), 3.0, SplitMix64(7))
    assert report.trials == 5
    assert hashlib.sha256(serialize(fn)).hexdigest() == \
        "22f771885ef116f381768ba239743fa845055167d70ea5f108a422c5a0c1af71"


def test_is_acyclic_examples():
    # The build decides acyclicity by peeling: None means a cycle.
    assert peel(4, [(1, 2), (2, 3)]) is not None
    assert peel(4, [(1, 2), (2, 3), (3, 1)]) is None
    assert peel(2, [(1, 1)]) is None  # self-loop counts as a cycle
    assert peel(3, [(0, 1), (1, 0)]) is None  # duplicate edge too
    assert peel(3, [(0, 1), (0, 1)]) is None  # in either direction
    assert peel(5, []) is not None


def test_is_acyclic_exhaustive_against_forest_oracle():
    # All multigraphs on 6 vertices with up to 6 edges, self-loops included.
    slots = [(u, v) for u in range(6) for v in range(u, 6)]
    for k in range(7):
        for edges in combinations_with_replacement(slots, k):
            assert (peel(6, edges) is None) == (not forest_oracle(6, edges)), edges


def reference_peel(n, us, vs):
    """The peel as a list of (edge, vertex it was peeled from) pairs, or None
    on a cycle: the list-of-tuples form that _peel's two arrays replaced."""
    if any(u == v for u, v in zip(us, vs)):
        return None
    degree = [0] * n
    xor = [0] * n
    for idx, (u, v) in enumerate(zip(us, vs)):
        degree[u] += 1
        degree[v] += 1
        xor[u] ^= idx
        xor[v] ^= idx
    order = []
    queue = [v for v in range(n) if degree[v] == 1]
    for v in queue:
        if degree[v] != 1:
            continue
        idx = xor[v]
        order.append((idx, v))
        other = us[idx] ^ vs[idx] ^ v
        degree[v] = 0
        degree[other] -= 1
        xor[other] ^= idx
        if degree[other] == 1:
            queue.append(other)
    return order if len(order) == len(us) else None


def test_peel_matches_reference_on_random_graphs():
    rng = SplitMix64(29)
    outcomes = set()
    for trial in range(600):
        n = 2 + rng.uniform_below(60)
        m = rng.uniform_below(n)
        us = [rng.uniform_below(n) for _ in range(m)]
        vs = [rng.uniform_below(n) for _ in range(m)]
        if m and trial % 3 == 0:  # repeat an edge, in either direction
            i = rng.uniform_below(m)
            u, v = (us[i], vs[i]) if trial % 2 else (vs[i], us[i])
            j = rng.uniform_below(m + 1)
            us.insert(j, u)
            vs.insert(j, v)
        expected = reference_peel(n, us, vs)
        peeled = _peel(n, us, vs)
        assert (peeled is None) == (expected is None), (n, us, vs)
        if peeled is not None:
            assert list(zip(*peeled)) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_build_three_words_is_ordered():
    fn, report = build([b"a", b"b", b"c"], 3.0, SplitMix64(1))
    assert fn.m == 3 and fn.n == 9
    assert [query(fn, w) for w in (b"a", b"b", b"c")] == [0, 1, 2]
    assert report.trials >= 1


def test_build_single_word():
    fn, report = build([b"hello"], 3.0, SplitMix64(0))
    assert query(fn, b"hello") == 0
    assert fn.m == 1 and fn.n == 3


def test_build_is_minimal_perfect_and_ordered():
    words = random_words(500, 8, seed=42)
    fn, _ = build(words, 3.0, SplitMix64(5))
    values = [query(fn, w) for w in words]
    assert values == list(range(500))  # ordered, hence bijective onto 0..m-1


def test_build_working_set_is_flat_arrays():
    # The per-word and per-edge tables are machine arrays, not lists of int
    # objects or tuples; as lists they peaked at 5.7 MiB on these words.
    rng = random.Random(14)
    words = {}
    while len(words) < 2**14:
        words[bytes(rng.choices(b"abcdefghijklmnopqrstuvwxyz", k=rng.randint(5, 12)))] = None
    words = list(words)
    tracemalloc.start()
    try:
        fn, _ = build(words, 3.0, SplitMix64(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fn.m == 2**14
    assert peak < 4 * 2**20, peak


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build([], 3.0, SplitMix64(0))
    with pytest.raises(ValueError):
        build([b"x", b"x"], 3.0, SplitMix64(0))
    with pytest.raises(ValueError):
        build([b"x", b""], 3.0, SplitMix64(0))  # empty word is a fixed self-loop
    with pytest.raises(ValueError):
        build([b"x", b"y"], 2.0, SplitMix64(0))  # ratio at the divergence point


def test_build_deterministic_for_fixed_seed():
    words = random_words(100, 6, seed=1)
    fn1, rep1 = build(words, 3.0, SplitMix64(9))
    fn2, rep2 = build(words, 3.0, SplitMix64(9))
    assert fn1 == fn2
    assert rep1.trials == rep2.trials


def test_query_out_of_domain_word():
    fn, _ = build([b"ab", b"cd"], 3.0, SplitMix64(2))
    with pytest.raises(ValueError):
        query(fn, b"toolong")
    # Words outside the build set still land in range.
    for probe in (b"zz", b"a", b""):
        assert 0 <= query(fn, probe) < fn.m


def test_variable_length_words():
    words = [b"a", b"ab", b"abc", b"b", b"ba"]
    fn, _ = build(words, 3.0, SplitMix64(3))
    assert [query(fn, w) for w in words] == list(range(len(words)))


def test_expected_trials_near_sqrt3():
    # Acceptance probability for n = 3m tends to 1/sqrt(3); at m = 300 the
    # mean trial count over 60 seeds should sit near 1.73.
    words = random_words(300, 8, seed=7)
    total = sum(build(words, 3.0, SplitMix64(seed))[1].trials for seed in range(60))
    assert 1.2 <= total / 60 <= 2.4


# (m, ratio, seed) -> (trials, rng.state after the build), recorded from the
# adjacency-list peel that preceded the degree-and-XOR peel: acceptance is
# unchanged, so every build draws exactly as it did.
DRAWS = {
    (3, 2.1, 0): (4, 0x66d2c7ddf743f000),
    (3, 2.1, 1): (2, 0x336963eefba1f801),
    (3, 2.1, 2): (1, 0x99b4b1f77dd0fc02),
    (3, 3.0, 0): (1, 0x99b4b1f77dd0fc00),
    (3, 3.0, 1): (1, 0x99b4b1f77dd0fc01),
    (3, 3.0, 2): (1, 0x99b4b1f77dd0fc02),
    (40, 2.1, 0): (1, 0x99b4b1f77dd0fc00),
    (40, 2.1, 1): (3, 0xcd1e15e67972f401),
    (40, 2.1, 2): (5, 0x008779d57514ec02),
    (40, 3.0, 0): (1, 0x99b4b1f77dd0fc00),
    (40, 3.0, 1): (1, 0x99b4b1f77dd0fc01),
    (40, 3.0, 2): (1, 0x99b4b1f77dd0fc02),
    (300, 2.1, 0): (2, 0x336963eefba1f800),
    (300, 2.1, 1): (2, 0x336963eefba1f801),
    (300, 2.1, 2): (3, 0xcd1e15e67972f402),
    (300, 3.0, 0): (2, 0x336963eefba1f800),
    (300, 3.0, 1): (1, 0x99b4b1f77dd0fc01),
    (300, 3.0, 2): (1, 0x99b4b1f77dd0fc02),
}


def test_trials_and_draws_pinned():
    got = {}
    for m, ratio, seed in DRAWS:
        rng = SplitMix64(seed)
        _, report = build(random_words(m, 6, seed=m), ratio, rng)
        got[m, ratio, seed] = (report.trials, rng.state)
    assert got == DRAWS


def test_serialized_function_pinned():
    # Any change to the tables or to how g is assigned changes these bytes.
    fn, _ = build(random_words(200, 5, seed=11), 3.0, SplitMix64(4))
    assert hashlib.sha256(serialize(fn)).hexdigest() == \
        "5ea7e768b46dc60d9c2e8d560bbd6698955244cd768b4f5ee42daa92d79fa96a"


def test_small_sparse_builds_are_ordered():
    # Near MIN_RATIO small graphs are forests of many trees and isolated
    # vertices; every build must still hash word j to j.
    for m in range(1, 41):
        words = random_words(m, 1, seed=m)
        for seed in range(50):
            fn, _ = build(words, MIN_RATIO, SplitMix64(seed))
            assert [query(fn, w) for w in words] == list(range(m)), (m, seed)


def test_serialize_round_trip():
    words = random_words(200, 5, seed=11)
    fn, _ = build(words, 3.0, SplitMix64(4))
    blob = serialize(fn)
    assert blob[:4] == b"CHM1"
    back = deserialize(blob)
    assert back == fn
    probes = random_words(100, 5, seed=99)
    assert all(query(back, w) == query(fn, w) for w in probes)


def test_deserialize_rejects_garbage():
    with pytest.raises(FormatError) as info:
        deserialize(b"")
    assert info.value.offset == 0
    with pytest.raises(FormatError):
        deserialize(b"NOPE" + bytes(40))
    fn, _ = build([b"q", b"r"], 3.0, SplitMix64(0))
    blob = serialize(fn)
    with pytest.raises(FormatError):
        deserialize(blob[:-1])  # truncation
    bad = bytearray(blob)
    bad[4] = 9  # unsupported version
    with pytest.raises(FormatError) as info:
        deserialize(bytes(bad))
    assert info.value.offset == 4


def test_deserialize_locates_a_header_cut_short():
    with pytest.raises(FormatError, match="truncated before version byte") as info:
        deserialize(b"CHM1")
    assert info.value.offset == 4
    blob = serialize(build([b"q", b"r"], 3.0, SplitMix64(0))[0])
    for cut in (5, 13, 28):
        with pytest.raises(FormatError, match="truncated header") as info:
            deserialize(blob[:cut])
        assert info.value.offset == cut


def test_deserialize_rejects_out_of_range_entries():
    fn, _ = build([b"q", b"r"], 3.0, SplitMix64(0))
    blob = bytearray(serialize(fn))
    blob[29:37] = (fn.n + 5).to_bytes(8, "little")  # first T1 entry too big
    with pytest.raises(FormatError) as info:
        deserialize(bytes(blob))
    assert info.value.offset == 29


@pytest.mark.parametrize("row, entry, offset, message", [
    (7, 130, 15405, "table entry 18446744073709551615 out of range [0, 9)"),  # T2 row 2
    (10, 4, 20541, "g entry 18446744073709551615 out of range [0, 3)"),  # g, after 10 rows
])
def test_deserialize_locates_out_of_range_entry(row, entry, offset, message):
    # Offsets recorded with the entry-by-entry range check that max() replaced.
    fn, _ = build([b"alpha", b"beta", b"gamma"], 3.0, SplitMix64(0))
    assert (fn.n, fn.max_word_len) == (9, 5)
    blob = bytearray(serialize(fn))
    at = 29 + 2048 * row + 8 * entry
    blob[at:at + 8] = (2**64 - 1).to_bytes(8, "little")
    blob[at + 8:at + 16] = (2**64 - 2).to_bytes(8, "little")  # only the first is named
    with pytest.raises(FormatError) as info:
        deserialize(bytes(blob))
    assert info.value.offset == offset
    assert str(info.value) == "%s (at byte offset %d)" % (message, offset)


@pytest.mark.parametrize("max_len", [0, MAX_WORD_LEN + 1, 300])
def test_deserialize_rejects_max_word_len_out_of_range(max_len):
    m, n = 2, 7
    blob = b"CHM1\x01" + struct.pack("<QQQ", m, n, max_len) + bytes((2 * max_len * 256 + n) * 8)
    with pytest.raises(FormatError) as info:
        deserialize(blob)
    assert info.value.offset == 21


def test_ratio_too_low_error_raised():
    # Two identical-length words at the minimum ratio still succeed, so force
    # failure with an adversarial degenerate: ratio just above 2 with m = 1
    # cannot fail, so check the error type is reachable via monkeypatched
    # trial budget instead of burning cycles.
    import randlab.mphf as m

    words = random_words(50, 4, seed=0)
    old = m.MAX_TRIALS
    m.MAX_TRIALS = 0
    try:
        with pytest.raises(RatioTooLowError):
            build(words, 3.0, SplitMix64(0))
    finally:
        m.MAX_TRIALS = old


def test_cli_queries_latin1_words_by_their_os_bytes(tmp_path):
    # A Latin-1 word list is not UTF-8; the OS hands such a word to argv as
    # a str with surrogate escapes, and os.fsdecode gives the same str.
    words = [b"caf\xe9", b"na\xefve", b"\xff\xfe", b"plain", b"\xe9t\xe9"]
    (tmp_path / "words.txt").write_bytes(b"\n".join(words) + b"\n")
    chm = str(tmp_path / "f.chm")
    assert cli.main(["mphf", "build", str(tmp_path / "words.txt"), "-o", chm],
                    stdout=io.StringIO()) == 0
    for index, word in enumerate(words):
        out = io.StringIO()
        assert cli.main(["mphf", "query", chm, os.fsdecode(word)], stdout=out) == 0
        assert json.loads(out.getvalue())["result"]["index"] == index
