import io
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from randlab import fingerprint
from randlab.fingerprint import (
    DEFAULT_PRIME_HI,
    DEFAULT_PRIME_LO,
    EXACT_COUNT_SPAN,
    MATCH,
    MAX_LINE,
    MAX_MODULUS_BITS,
    MISMATCH,
    PRIME_DRAW_ROUNDS,
    LocalOracle,
    StreamOracle,
    TransportError,
    PRIMES_IN_DEFAULT_INTERVAL,
    VerifyReport,
    localize,
    max_prime_divisors,
    residue,
    serve_oracle,
    structural_bound,
    verify,
)
from randlab.primality import (
    MAX_PRIME_BITS,
    MAX_ROUNDS,
    is_probable_prime,
    prime_sampler,
    random_prime_in,
)
from randlab.rng import SplitMix64
from test_primality import sieve


def make_docs(length, corrupt_at, seed=1):
    rng = SplitMix64(seed)
    data = bytes(rng.uniform_below(256) for _ in range(length))
    corrupted = bytearray(data)
    for i in corrupt_at:
        corrupted[i] ^= 0x5A
    return LocalOracle(data), LocalOracle(bytes(corrupted))


def test_residue_examples():
    assert residue(b"\x01", 10**9 + 7) == 1
    assert residue(b"", 17) == 0
    assert residue(b"\x01\x00", 255) == 1  # 256 mod 255


def test_residue_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        residue(b"abc", 1)


def test_residue_matches_big_integer_oracle():
    rng = SplitMix64(2)
    for length in range(0, 65):
        data = bytes(rng.uniform_below(256) for _ in range(length))
        for m in (2, 17, 251, 65521, 10**9 + 7, 2**300 - 1):
            assert residue(data, m) == int.from_bytes(data, "big") % m


def chunk_size(modulus):
    """The chunk ``residue`` reduces ``modulus``'s multiples in."""
    return max(fingerprint.CHUNK_BYTES, fingerprint.CHUNK_MODULI * -(-modulus.bit_length() // 8))


def test_residue_chunking_boundaries():
    # Lengths around one and two chunks, where residue splits or not, and a
    # multi-chunk length with an odd remainder; moduli from one digit to the
    # widest product verify makes.
    rng = SplitMix64(3)
    round_primes = [random_prime_in(2**30, DEFAULT_PRIME_HI, 2, rng) for _ in range(MAX_ROUNDS)]
    wide_primes = [random_prime_in(2**(MAX_PRIME_BITS - 1), 2**MAX_PRIME_BITS, 2, rng)
                   for _ in range(MAX_ROUNDS)]
    moduli = (2, 255, 10**9 + 7, *round_primes[:3], math.prod(round_primes[:10]),
              math.prod(round_primes), wide_primes[0], math.prod(wide_primes),
              2**300 - 1, 3**400, 10**9 + 21 << 500)
    data = random.Random(3).randbytes(3 * max(map(chunk_size, moduli)) + 4097)
    for m in moduli:
        k = chunk_size(m)
        for length in (0, 1, 255, 256, 257, 1000, 3000, k - 1, k, k + 1,
                       2 * k - 1, 2 * k, 2 * k + 1, 3 * k + 4097):
            value = int.from_bytes(data[:length], "big")
            assert residue(data[:length], m) == value % m, (m, length)
            assert residue(data[:length], value + 2) == value  # wider than the data
    # Ranges of a document that start and end mid-chunk, through LocalOracle
    # and through the wire protocol.
    k = fingerprint.CHUNK_BYTES
    doc = LocalOracle(data[: 5 * k + 123])
    ranges = ((0, doc.length()), (100, 3 * k + 77), (k - 1, 2 * k + 3), (2 * k + 5, 3 * k - 9),
              (k // 2, 4 * k + 1), (doc.length() - 2 * k - 1, 2 * k + 1))
    for m in (round_primes[0], wide_primes[0], math.prod(round_primes[:10])):
        for offset, length in ranges:
            expected = int.from_bytes(data[offset : offset + length], "big") % m
            assert doc.residue(offset, length, m) == expected, (m, offset, length)
            if m.bit_length() <= MAX_PRIME_BITS:
                out = io.StringIO()
                assert serve_oracle(doc, io.StringIO("Q %d %d %d\n" % (offset, length, m)), out) == 1
                assert out.getvalue() == "R %d\n" % expected


def test_residue_memory_is_bounded_by_the_chunk():
    # Reducing the whole 4 MiB at once peaked at 12.8 MiB, and a range was a copy.
    rng = SplitMix64(4)
    modulus = math.prod(random_prime_in(DEFAULT_PRIME_LO, DEFAULT_PRIME_HI, 2, rng) for _ in range(10))
    doc = LocalOracle(random.Random(4).randbytes(4 << 20))
    # Two chunks of the widest modulus were reduced by one division, which
    # peaked at 6.4 chunk sizes.
    widest = (1 << MAX_MODULUS_BITS) - 1
    two_chunks = memoryview(doc.data)[: 2 * chunk_size(widest)]
    tracemalloc.start()
    try:
        whole = residue(doc.data, modulus)
        whole_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        middle = doc.residue(1 << 20, 2 << 20, modulus)
        middle_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        wide = residue(two_chunks, widest)
        wide_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole == int.from_bytes(doc.data, "big") % modulus
    assert middle == int.from_bytes(doc.data[1 << 20 : 3 << 20], "big") % modulus
    assert wide == int.from_bytes(two_chunks, "big") % widest
    assert whole_peak < 1 << 20
    assert middle_peak < 1 << 20
    assert wide_peak < 4 * chunk_size(widest)


def reference_verify(local, remote, rounds, rng, prime_lo=DEFAULT_PRIME_LO,
                     prime_hi=DEFAULT_PRIME_HI):
    """Round-by-round verify: one draw and one reduction per side per round."""
    n = local.length()
    if remote.length() != n:
        return VerifyReport(MISMATCH, 0, [], [], Fraction(0), length_mismatch=True)
    primes, pairs = [], []
    for done in range(1, rounds + 1):
        p = random_prime_in(prime_lo, prime_hi, PRIME_DRAW_ROUNDS, rng)
        primes.append(p)
        pairs.append((local.residue(0, n, p), remote.residue(0, n, p)))
        if pairs[-1][0] != pairs[-1][1]:
            return VerifyReport(MISMATCH, done, primes, pairs,
                                structural_bound(n, done, prime_lo, prime_hi))
    return VerifyReport(MATCH, rounds, primes, pairs,
                        structural_bound(n, rounds, prime_lo, prime_hi))


def verify_cases():
    """Seeded (local, remote, rounds, seed) cases: equal documents, one- and
    two-byte differences, length mismatches, and differences that the first
    drawn prime divides, so that the mismatch shows only at round 2."""
    sizes = (1, 2, 3, 17, 256, 1000, 4096, 65536)
    kinds = ("equal", "one-byte", "two-byte", "length", "first-prime")
    for seed in range(60):
        gen = random.Random(seed)
        size, kind, rounds = sizes[seed % 8], kinds[seed % 5], (1, 2, 10, 128)[seed // 5 % 4]
        data = bytearray(gen.randbytes(size))
        other = bytearray(data)
        if kind == "one-byte" or (kind == "two-byte" and size == 1):
            other[gen.randrange(size)] ^= 1 + gen.randrange(255)
        elif kind == "two-byte":
            i, j = gen.sample(range(size), 2)
            other[i] ^= 1 + gen.randrange(255)
            other[j] ^= 1 + gen.randrange(255)
        elif kind == "length":
            other = data + b"\x00" if gen.randrange(2) else data[:-1]
        elif kind == "first-prime":
            first = random_prime_in(DEFAULT_PRIME_LO, DEFAULT_PRIME_HI, PRIME_DRAW_ROUNDS,
                                    SplitMix64(seed))
            value = int.from_bytes(data, "big")
            value += first if value + first < 256**size else -first
            if value < 0:  # too short to hold a multiple: compare equal copies
                value = int.from_bytes(data, "big")
            other = value.to_bytes(size, "big")
            rounds = max(rounds, 2)
        yield LocalOracle(data), LocalOracle(other), rounds, seed


def test_verify_matches_round_by_round_reference():
    kinds = {"match": 0, "mismatch": 0, "late": 0, "length": 0}
    for local, remote, rounds, seed in verify_cases():
        rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
        report = verify(local, remote, rounds, rng)
        expected = reference_verify(local, remote, rounds, ref_rng)
        assert report == expected, seed
        wire, wire_rng = Wire(remote), SplitMix64(seed)
        assert verify(local, StreamOracle(wire, wire), rounds, wire_rng) == report, seed
        assert wire_rng.state == rng.state and wire.queries == (not report.length_mismatch)
        if report.matched:
            # A match makes exactly the reference's draws.
            assert rng.state == ref_rng.state, seed
        kinds["match" if report.matched else "length" if report.length_mismatch
              else "late" if report.rounds > 1 else "mismatch"] += 1
    assert min(kinds.values()) >= 3, kinds


class Wire:
    """A stream pair over ``serve_oracle`` for ``doc``: each readline serves
    the requests written since the last one, so a single-threaded test
    exercises the real protocol text both ways.  Keeps the ``Q`` lines."""

    def __init__(self, doc):
        self.doc, self.buffer, self.requests = doc, "", []

    @property
    def queries(self):
        return len(self.requests)

    def write(self, text):
        self.buffer += text
        if text.startswith("Q "):
            self.requests.append(text)

    def flush(self):
        pass

    def readline(self, size=-1):
        out = io.StringIO()
        serve_oracle(self.doc, io.StringIO(self.buffer), out)
        self.buffer = ""
        return out.getvalue()


@pytest.mark.parametrize("corrupt_at, rounds, lo, hi", [
    ([], 10, DEFAULT_PRIME_LO, DEFAULT_PRIME_HI),
    ([1234], 10, DEFAULT_PRIME_LO, DEFAULT_PRIME_HI),
    ([], MAX_ROUNDS, 2**255, 2**256),
], ids=["match", "round-1-mismatch", "128-rounds-256-bits"])
def test_verify_over_wire_sends_one_query(corrupt_at, rounds, lo, hi):
    local, remote = make_docs(3000, corrupt_at)
    wire = Wire(remote)
    oracle, rng = StreamOracle(wire, wire), SplitMix64(5)
    report = verify(local, oracle, rounds, rng, lo, hi)
    ref_rng = SplitMix64(5)
    assert report == reference_verify(local, remote, rounds, ref_rng, lo, hi)
    assert report.rounds == (1 if corrupt_at else rounds)
    # A mismatch draws the later rounds' primes too; one Q names the product of all.
    primes = report.primes_used + [random_prime_in(lo, hi, PRIME_DRAW_ROUNDS, ref_rng)
                                   for _ in range(rounds - report.rounds)]
    assert wire.requests == ["Q 0 3000 %#x\n" % math.prod(primes)]
    assert oracle.queries == 1
    assert rng.state == ref_rng.state


def test_verify_asks_each_side_once():
    for corrupt_at in ([], [1234]):
        local, remote = make_docs(3000, corrupt_at)
        verify(local, remote, 10, SplitMix64(5))
        assert local.queries == remote.queries == 1
        local, remote = make_docs(3000, corrupt_at)
        wire = Wire(remote)
        oracle = StreamOracle(wire, wire)
        verify(local, oracle, 10, SplitMix64(5))
        assert local.queries == oracle.queries == wire.queries == 1


def test_localize_asks_both_sides_alike():
    local, remote = make_docs(1024, [3, 700, 900])
    assert localize(local, remote, 2, SplitMix64(7)) == [(3, 1), (700, 1), (900, 1)]
    assert local.queries == remote.queries > 3


def test_local_oracle_answers_from_its_copy():
    data = bytearray(b"hello world")
    oracle = LocalOracle(data)
    data[0] ^= 1
    assert oracle.length() == 11
    assert oracle.residue(0, 11, 10**9 + 7) == int.from_bytes(b"hello world", "big") % (10**9 + 7)


def test_document_is_a_name_for_local_oracle():
    assert fingerprint.Document is LocalOracle


def test_residue_modulo_a_product_reduces_to_each_prime():
    doc, _ = make_docs(3000, [])
    primes = [random_prime_in(10**9, 2 * 10**9, 8, SplitMix64(s)) for s in range(10)]
    wire = Wire(doc)
    for oracle in (LocalOracle(doc.data), StreamOracle(wire, wire)):
        for offset, length in ((0, 3000), (17, 1000), (2999, 1), (5, 0)):
            whole = oracle.residue(offset, length, math.prod(primes))
            assert [whole % p for p in primes] == \
                [oracle.residue(offset, length, p) for p in primes]
        assert oracle.queries == 44


def test_verify_equal_documents_always_match():
    doc, _ = make_docs(256, [])
    for seed in range(20):
        report = verify(doc, LocalOracle(doc.data), 3, SplitMix64(seed))
        assert report.verdict == MATCH
        assert all(a == b for a, b in report.per_round_residue_pairs)


def test_verify_single_byte_difference_detected():
    local, remote = make_docs(1024, [700])
    for seed in range(50):
        report = verify(local, remote, 10, SplitMix64(seed))
        assert report.verdict == MISMATCH
        a, b = report.per_round_residue_pairs[-1]
        assert a != b


def test_verify_tiny_documents():
    report = verify(LocalOracle(b"\x02"), LocalOracle(b"\x03"), 1, SplitMix64(0))
    assert report.verdict == MISMATCH
    assert report.per_round_residue_pairs[0] == (2, 3)


def test_verify_length_mismatch_flagged():
    report = verify(LocalOracle(b"ab"), LocalOracle(b"abc"), 5, SplitMix64(0))
    assert report.verdict == MISMATCH
    assert report.length_mismatch
    assert report.rounds == 0


def test_verify_rejects_zero_rounds():
    for rounds in (0, MAX_ROUNDS + 1):
        with pytest.raises(ValueError):
            verify(LocalOracle(b"x"), LocalOracle(b"x"), rounds, SplitMix64(0))
        with pytest.raises(ValueError):
            localize(LocalOracle(b"x"), LocalOracle(b"x"), rounds, SplitMix64(0))


def test_structural_bound_values():
    # 256-byte docs: floor(2048/log2(10**9 + 1)) = 68 candidate divisors out
    # of 47,374,753 primes
    bound = structural_bound(256, 1)
    assert bound == Fraction(68, PRIMES_IN_DEFAULT_INTERVAL)
    assert structural_bound(256, 10) == bound**10
    assert structural_bound(1024, 1) == Fraction(274, PRIMES_IN_DEFAULT_INTERVAL)
    assert max_prime_divisors(1024) == 274
    assert max_prime_divisors(1024, 1000) == 821
    assert max_prime_divisors(10, 0) == 80  # every prime is at least 2
    assert structural_bound(10**9, 1) <= 1  # clamped even for absurd sizes


@pytest.mark.parametrize("doc_len, prime_lo", [(1024, 10**9), (1024, 1000), (64, 1), (100, 0)])
def test_max_prime_divisors_covers_densest_difference(doc_len, prime_lo):
    # The product of the smallest primes above prime_lo that stays below
    # 256**doc_len is a difference of two doc_len-byte documents with as
    # many prime divisors above prime_lo as any can have: 274 of them for
    # 1024 bytes above 10**9, exactly the bound.
    product, count, n = 1, 0, prime_lo
    while True:
        n += 1
        if not is_probable_prime(n, 32, SplitMix64(n)).is_probably_prime:
            continue
        if product * n >= 256**doc_len:
            break
        product *= n
        count += 1
    assert count <= max_prime_divisors(doc_len, prime_lo)


def test_narrow_interval_prime_count_is_exact():
    flags = sieve(10**6)
    gen = random.Random(5)
    intervals = [(0, 2), (0, 3), (0, 100), (1, 2), (1, 3), (1, 1000), (0, 10**5), (2, 4)]
    while len(intervals) < 200:
        lo = gen.randrange(10**6 - 2)
        intervals.append((lo, gen.randrange(lo + 2, min(lo + 2**12, 10**6) + 1)))
    for lo, hi in intervals:
        # A primeless interval reads 1: it cannot be drawn from at all.
        assert fingerprint._interval_prime_count(lo, hi) == max(1, sum(flags[lo + 1 : hi])), (lo, hi)


def test_narrow_interval_prime_count_replaces_estimate():
    assert fingerprint._interval_prime_count(10**7, 10**7 + 200) == 8
    assert fingerprint._interval_prime_count(10**6, 10**6 + 100) == 6
    assert fingerprint._interval_prime_count(0, 10**5) == 9592
    # The default interval stays pinned.
    assert fingerprint._interval_prime_count(10**9, 2 * 10**9) == PRIMES_IN_DEFAULT_INTERVAL


def test_wide_interval_prime_count_is_a_lower_bound():
    limit = 10**7
    flags = sieve(limit)
    gen = random.Random(14)
    intervals = [(0, limit), (1, limit), (0, EXACT_COUNT_SPAN + 2), (1, EXACT_COUNT_SPAN + 3),
                 (0, 10**6), (1, 10**6), (2, 10**6), (16, 300000), (17, 300000)]
    while len(intervals) < 200:
        lo = gen.randrange(limit - EXACT_COUNT_SPAN - 2)
        intervals.append((lo, gen.randrange(lo + EXACT_COUNT_SPAN + 2, limit + 1)))
    for lo, hi in intervals:
        assert hi - lo - 1 > EXACT_COUNT_SPAN
        count = fingerprint._interval_prime_count(lo, hi)
        assert 1 <= count <= max(1, flags[lo + 1 : hi].count(1)), (lo, hi)
    # The bounds are explicit: pi(10**6 - 1) > 999999 / ln 999999 = 72382.2,
    # pi(2 * 10**6) > 137848.7 and pi(10**6) < 1.25506 * 10**6 / ln 10**6 = 90844.3.
    assert fingerprint._interval_prime_count(0, 10**6) == 72382
    assert fingerprint._interval_prime_count(10**6, 2 * 10**6 + 1) == 137848 - 90845


def test_wide_interval_prime_count_not_positive_reads_one():
    # Too wide or too high to count exactly, and no positive explicit count.
    assert fingerprint._interval_prime_count(2**64, 2**64 + 10**6) == 1
    assert fingerprint._interval_prime_count(10**12, 10**12 + 10**6) == 1
    assert fingerprint._interval_prime_count(-(10**6), 10) == 1
    assert structural_bound(1000, 3, 2**64, 2**64 + 10**6) == 1


def test_false_positive_bound_reported_on_match():
    doc, _ = make_docs(1024, [])
    report = verify(doc, LocalOracle(doc.data), 10, SplitMix64(4))
    assert report.false_positive_bound == structural_bound(1024, 10)


def test_localize_single_corruption():
    local, remote = make_docs(1024, [700])
    ranges = localize(local, remote, 2, SplitMix64(11))
    assert ranges == [(700, 1)]
    # One root probe plus both halves at each of the 10 bisection levels.
    assert remote.queries == 1 + 2 * 10


def test_localize_two_corruptions():
    local, remote = make_docs(1024, [3, 900])
    ranges = localize(local, remote, 2, SplitMix64(7))
    assert ranges == [(3, 1), (900, 1)]
    assert remote.queries >= 2


@pytest.mark.parametrize("corrupt_at", [[], [700], [3, 900]])
def test_localize_over_wire_sends_one_query_a_probe(corrupt_at):
    local, remote = make_docs(1024, corrupt_at)
    rng = SplitMix64(7)
    ranges = localize(local, remote, 3, rng)
    wire = Wire(remote)
    wire_local, wire_rng = LocalOracle(local.data), SplitMix64(7)
    assert localize(wire_local, StreamOracle(wire, wire), 3, wire_rng) == ranges
    assert wire_rng.state == rng.state
    # Every probe is one Q, and all of them name the call's one modulus.
    assert wire.queries == wire_local.queries == local.queries
    assert len({request.split()[3] for request in wire.requests}) == 1
    assert ranges == [(i, 1) for i in corrupt_at]


@pytest.mark.parametrize("corrupt_at", [[], [3, 900]])
@pytest.mark.parametrize("rounds", [1, 10])
def test_localize_draws_its_primes_once_a_call(corrupt_at, rounds):
    local, remote = make_docs(1024, corrupt_at)
    rng, ref_rng = SplitMix64(21), SplitMix64(21)
    localize(local, remote, rounds, rng)
    draw = prime_sampler(DEFAULT_PRIME_LO, DEFAULT_PRIME_HI, PRIME_DRAW_ROUNDS, ref_rng)
    for _ in range(rounds):
        draw()
    assert rng.state == ref_rng.state


@pytest.mark.parametrize("rounds", [1, 2])
def test_localize_false_match_rate_per_probe(rounds):
    # 1-byte documents 0 and 21 = 3 * 7 against the 14 primes of (2, 50):
    # a probe matches falsely exactly when every prime of the call is 3 or
    # 7, with probability q = (2/14)**rounds, as with fresh primes a probe.
    # A product of the primes with a repeat (3 * 3 = 9 does not divide 21)
    # would give 2/14**2 at 2 rounds, half the rate.  Over N seeded calls
    # the count X of false matches is Binomial(N, q).  By the Chernoff bound
    # P(|X - Nq| >= d Nq) <= 2 exp(-d**2 Nq / 3), with d = 0.25 and
    # Nq >= 408, a set of seeds misses the window with probability below
    # 2 exp(-8.5) < 5e-4.
    calls = 20_000
    q = Fraction(2, sum(sieve(50)[3:])) ** rounds
    assert q == Fraction(1, 7) ** rounds
    local, remote = LocalOracle(b"\x00"), LocalOracle(b"\x15")
    false_matches = sum(localize(local, remote, rounds, SplitMix64(seed), 2, 50) == []
                        for seed in range(calls))
    assert abs(false_matches - calls * q) <= 0.25 * calls * q


def test_localize_identical_documents_empty():
    doc, _ = make_docs(64, [])
    assert localize(doc, LocalOracle(doc.data), 2, SplitMix64(0)) == []


def test_localize_empty_documents_draw_nothing_even_from_a_primeless_interval():
    # No probe, so no sampler: (8, 10) holds only 9, which would be refused.
    rng = SplitMix64(4)
    assert localize(LocalOracle(b""), LocalOracle(b""), 3, rng, 8, 10) == []
    assert rng.state == 4


def test_localize_length_mismatch_rejected():
    with pytest.raises(ValueError):
        localize(LocalOracle(b"ab"), LocalOracle(b"abc"), 2, SplitMix64(0))


def test_localize_odd_length_document():
    local, remote = make_docs(1001, [997])
    assert localize(local, remote, 2, SplitMix64(5)) == [(997, 1)]


def reference_localize(local, remote, rounds_per_probe, rng, prime_lo=DEFAULT_PRIME_LO,
                       prime_hi=DEFAULT_PRIME_HI):
    """Recursive localize: draw the call's primes, then probe the whole
    document round by round, one prime a round, and descend into each half
    whose probe mismatches, the left half before the right."""
    primes = []
    if local.length():
        primes = [random_prime_in(prime_lo, prime_hi, PRIME_DRAW_ROUNDS, rng)
                  for _ in range(rounds_per_probe)]

    def probe_mismatch(offset, length):
        return any(local.residue(offset, length, p) != remote.residue(offset, length, p)
                   for p in primes)

    found = []

    def descend(offset, length):
        if length == 1:
            found.append((offset, 1))
            return
        half = length // 2
        if probe_mismatch(offset, half):
            descend(offset, half)
        if probe_mismatch(offset + half, length - half):
            descend(offset + half, length - half)

    if local.length() and probe_mismatch(0, local.length()):
        descend(0, local.length())
    return found


def test_localize_matches_recursive_reference():
    # One round a probe over the primes below 50 matches a corrupted range
    # falsely about one time in eleven, so some corrupted bytes go unfound.
    # Two rounds there sometimes draw one prime twice.
    missed = 0
    for length in (1, 2, 3, 4095, 65537):
        data = random.Random(length).randbytes(length)
        for flips in range(1, 9):
            for rounds, lo, hi in ((3, DEFAULT_PRIME_LO, DEFAULT_PRIME_HI), (1, 2, 50), (2, 2, 50)):
                seed = length * 100 + flips * 2 + rounds
                pick = random.Random(seed)
                corrupted = bytearray(data)
                positions = sorted(pick.sample(range(length), min(flips, length)))
                for i in positions:
                    corrupted[i] ^= pick.randrange(1, 256)
                local, remote = LocalOracle(data), LocalOracle(bytes(corrupted))
                rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
                ranges = localize(local, remote, rounds, rng, lo, hi)
                assert ranges == reference_localize(local, remote, rounds, ref_rng, lo, hi), seed
                assert rng.state == ref_rng.state, seed
                if lo == DEFAULT_PRIME_LO:
                    assert ranges == [(i, 1) for i in positions], seed
                missed += len(positions) - len(ranges)
    assert missed > 0


def test_stream_oracle_protocol_round_trip():
    doc = LocalOracle(bytes(range(200)))
    wire = Wire(doc)
    oracle = StreamOracle(wire, wire)
    assert oracle.length() == 200
    assert oracle.residue(0, 200, 10**9 + 7) == doc.residue(0, 200, 10**9 + 7)
    assert oracle.residue(10, 20, 65521) == doc.residue(10, 20, 65521)

    report = verify(LocalOracle(doc.data), StreamOracle(wire, wire), 2, SplitMix64(0))
    assert report.verdict == MATCH


def test_stream_oracle_malformed_response():
    reader = io.StringIO("garbage\n")
    oracle = StreamOracle(reader, io.StringIO())
    with pytest.raises(TransportError):
        oracle.residue(0, 1, 101)


@pytest.mark.parametrize("reply", ["R -1\n", "R 101\n", "R 5000\n"])
def test_stream_oracle_rejects_residue_outside_range(reply):
    oracle = StreamOracle(io.StringIO(reply), io.StringIO())
    with pytest.raises(TransportError):
        oracle.residue(0, 1, 101)


def test_stream_oracle_rejects_a_residue_of_the_widest_modulus():
    # Named in hex: str() refuses the modulus's 9,865 decimal digits.
    widest = (1 << MAX_MODULUS_BITS) - 1
    oracle = StreamOracle(io.StringIO("R %#x\n" % widest), io.StringIO())
    with pytest.raises(TransportError, match="impossible oracle residue"):
        oracle.residue(0, 1, widest)


class BrokenPipe:
    """A writer whose peer has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_stream_oracle_turns_a_pipe_error_into_a_transport_error():
    oracle = StreamOracle(io.StringIO(), BrokenPipe())
    with pytest.raises(TransportError, match="oracle I/O failed: .*Broken pipe"):
        oracle.residue(0, 1, 101)


def test_stream_oracle_rejects_negative_length():
    oracle = StreamOracle(io.StringIO("L -3\nL 0\n"), io.StringIO())
    with pytest.raises(TransportError):
        oracle.length()
    assert oracle.length() == 0


@pytest.mark.parametrize("request_line", ["Q 1 2", "Q x 1 7", "Q 0 50 7", "Q 0 1 1", "L 5",
                                          "Q 0 11 %#x" % (1 << MAX_MODULUS_BITS)],
                         ids=["short-Q", "non-numeric", "out-of-range", "prime-below-2",
                              "L-with-argument", "modulus-past-cap"])
def test_serve_oracle_answers_bad_request_and_keeps_serving(request_line):
    doc = LocalOracle(b"hello world")  # 11 bytes
    out = io.StringIO()
    served = serve_oracle(doc, io.StringIO(request_line + "\nQ 0 11 101\n"), out)
    error, answer = out.getvalue().splitlines()
    assert error.startswith("E ")
    assert answer == "R %d" % doc.residue(0, 11, 101)
    assert served == 1


def test_serve_oracle_prime_cap_is_inclusive():
    # 2**256 - 189 and 2**256 + 297 are the primes on either side of 2**256.
    doc = LocalOracle(b"hello world")
    out = io.StringIO()
    widest = 2**MAX_PRIME_BITS - 189
    assert serve_oracle(doc, io.StringIO("Q 0 11 %d\n" % widest), out) == 1
    assert out.getvalue() == "R %d\n" % doc.residue(0, 11, widest)


def test_serve_oracle_modulus_cap_is_inclusive():
    doc = LocalOracle(b"hello world")
    widest = (1 << MAX_MODULUS_BITS) - 1
    out = io.StringIO()
    requests = "Q 0 11 %#x\nQ 0 11 %#x\n" % (widest, widest + 1)
    assert serve_oracle(doc, io.StringIO(requests), out) == 1
    assert out.getvalue() == "R %#x\nE modulus must be at most %d bits\n" % (
        doc.residue(0, 11, widest), MAX_MODULUS_BITS)


# An old client's session: decimal moduli, L, bad and overlong lines, then
# the end of the session.  The replies were recorded from the server that
# took primes of at most MAX_PRIME_BITS, and must not change by a byte,
# except the reasons for `Q x 1 7` and `Q -1 5 7`: offsets and lengths are
# read by the strict number grammar, which refuses both tokens itself.
OLD_CLIENT_REQUESTS = [
    "L", "Q 0 11 101", "Q 3 5 1000000007", "Q 0 11 %d" % (2**MAX_PRIME_BITS - 189), "Q 0 0 7",
    "Q 10 1 65521", "Q 1 2", "Q x 1 7", "Q 0 50 7", "Q -1 5 7", "Q 0 1 1", "L 5", "",
    "Q 0 11 " + "9" * MAX_LINE, "  Q 0 11 101  ", "L", '{"report": 1}', "Q 0 11 101"]
OLD_CLIENT_REPLIES = (
    "L 11\nR 9\nR 720863416\nR 126207244316550804821666916\nR 0\nR 100\n"
    "E Q takes offset, length and prime\nE not a decimal or 0x-hex natural: 'x'\n"
    "E byte range out of bounds\nE not a decimal or 0x-hex natural: '-1'\n"
    "E modulus must be >= 2\n"
    "E L takes no arguments\nE request longer than 16384 characters\nR 9\nL 11\n")


def test_serve_oracle_replays_an_old_decimal_session():
    out = io.StringIO()
    requests = io.StringIO("".join(line + "\n" for line in OLD_CLIENT_REQUESTS))
    assert serve_oracle(LocalOracle(b"hello world"), requests, out) == 6
    assert out.getvalue() == OLD_CLIENT_REPLIES


def test_stream_oracle_raises_on_error_reply():
    oracle = StreamOracle(io.StringIO("E byte range out of bounds\n"), io.StringIO())
    with pytest.raises(TransportError, match="refused .*byte range out of bounds"):
        oracle.residue(0, 50, 101)


def test_serve_oracle_stops_at_non_protocol_line():
    out = io.StringIO()
    served = serve_oracle(LocalOracle(b"xy"), io.StringIO('Q 0 2 101\n{"report": 1}\n'), out)
    assert served == 1
    assert out.getvalue() == "R %d\n" % LocalOracle(b"xy").residue(0, 2, 101)


class LongLineReader:
    """A reader whose first line is ``Q `` and nines, ``length`` characters
    with its newline, then ``then``.  It hands out only the slice each
    ``readline(size)`` asks for, so it never holds a bounded read's line."""

    def __init__(self, length, then):
        self.pos, self.length, self.then = 0, length, io.StringIO(then)

    def readline(self, size=-1):
        if self.pos == self.length:
            return self.then.readline(size)
        start = self.pos
        self.pos = self.length if size < 0 else min(self.length, start + size)
        nines = min(self.pos, self.length - 1) - max(start, 2)
        return "Q "[start:self.pos] + "9" * max(nines, 0) + "\n" * (self.pos == self.length)


def test_line_bound_fits_a_request_of_every_round_prime():
    # A Q modulo the product of MAX_ROUNDS round primes, and its reply.
    widest = (1 << MAX_MODULUS_BITS) - 1
    assert len("Q %d %d %#x\n" % (2**64, 2**64, widest)) <= MAX_LINE
    assert len("R %#x\n" % widest) <= MAX_LINE


def test_serve_oracle_skips_an_overlong_line_in_bounded_memory():
    # Reading the 10^7-character line whole peaked at 19 MiB.
    reader = LongLineReader(10**7, "L\n")
    out = io.StringIO()
    tracemalloc.start()
    try:
        served = serve_oracle(LocalOracle(b"hello world"), reader, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert out.getvalue().splitlines() == ["E request longer than %d characters" % MAX_LINE,
                                           "L 11"]
    assert served == 0


def test_serve_oracle_reads_a_line_of_the_bound():
    line = "Q 0 11 101" + " " * (MAX_LINE - 11) + "\n"
    out = io.StringIO()
    assert serve_oracle(LocalOracle(b"hello world"), io.StringIO(line), out) == 1
    assert out.getvalue() == "R %d\n" % LocalOracle(b"hello world").residue(0, 11, 101)


def test_stream_oracle_refuses_an_overlong_reply():
    oracle = StreamOracle(io.StringIO("R " + "1" * MAX_LINE + "\nR 5\n"), io.StringIO())
    with pytest.raises(TransportError, match="longer than %d" % MAX_LINE):
        oracle.residue(0, 1, 101)


def test_completeness_random_unequal_pairs():
    # Desk-scale power check: 10^4 random unequal 256-byte pairs, one round
    # each, no false match observed (per-pair bound is ~1.5e-6).
    from randlab.rng import derive_stream

    gen = SplitMix64(2718)
    byte, flip = gen.sampler(256), gen.sampler(255)
    for trial in range(10**4):
        data = bytearray(byte() for _ in range(256))
        other = bytearray(data)
        index = byte()
        other[index] ^= 1 + flip()
        report = verify(LocalOracle(bytes(data)), LocalOracle(bytes(other)),
                        1, derive_stream(3141, trial))
        assert report.verdict == MISMATCH, trial
