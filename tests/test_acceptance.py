"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance and budget is pinned in the assertions; nothing is deferred
to later calibration.  Expected values marked as replay values were frozen
from seeded runs of this implementation and double-checked against the
independent oracles in the sibling test modules.
"""

import json
import time
from fractions import Fraction
from math import isqrt

from randlab.cli import main as cli_main
from randlab.factor import ecm_stage1, pollard_pm1
from randlab.fingerprint import LocalOracle, structural_bound, verify
from randlab.mphf import build, deserialize, query, serialize
from randlab.primality import is_probable_prime, witness_density
from randlab.ramsey import anneal, census_confidence, count_violations, exhaustive_search
from randlab.rng import SplitMix64, derive_stream
from randlab.route import bit_reversal, run_oblivious, run_valiant

import io

import pytest

from replay import normalize


def _report(index, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "ACCEPTANCE %2d %-34s %s" % (index, name, status)
    if detail:
        line += "  [%s]" % detail
    print(line)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def test_criterion_01_witness_density_bound():
    ok = False
    t0 = time.perf_counter()
    try:
        flags = _sieve(5000)
        worst = Fraction(0)
        checked = 0
        for n in range(9, 5000, 2):
            if flags[n]:
                continue
            density = witness_density(n)
            assert density < Fraction(1, 4), (n, density)
            worst = max(worst, density)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 1831  # odd non-primes in [9, 5000)
        assert elapsed < 60.0, elapsed
        ok = True
    finally:
        _report(1, "witness-density bound (< 1/4)", ok,
                "%d composites, worst %.4f, %.1fs" % (checked, float(worst),
                                                      time.perf_counter() - t0))


def test_criterion_02_carmichael_handling():
    ok = False
    t0 = time.perf_counter()
    try:
        for n in (561, 1729):
            for seed in range(100):
                verdict = is_probable_prime(n, 10, SplitMix64(seed))
                assert verdict.answer == "composite", (n, seed)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, elapsed
        ok = True
    finally:
        _report(2, "carmichael inputs always composite", ok,
                "200/200 runs, %.2fs" % (time.perf_counter() - t0))


def test_criterion_03_sieve_agreement():
    ok = False
    t0 = time.perf_counter()
    try:
        flags = _sieve(10**4)
        for n in range(10**4):
            verdict = is_probable_prime(n, 20, SplitMix64(0))
            assert verdict.is_probably_prime == bool(flags[n]), n
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, elapsed
        ok = True
    finally:
        _report(3, "sieve agreement below 10^4", ok,
                "%.1fs" % (time.perf_counter() - t0))


def test_criterion_04_fingerprint_soundness_and_power():
    ok = False
    t0 = time.perf_counter()
    bound = structural_bound(1024, 1)
    try:
        rng = SplitMix64(88)
        base = bytes(rng.uniform_below(256) for _ in range(1024))
        equal_local = LocalOracle(base)
        equal_remote = LocalOracle(base)
        for trial in range(10**4):
            report = verify(equal_local, equal_remote, 1, derive_stream(1, trial))
            assert report.matched, trial

        corrupted = bytearray(base)
        corrupted[512] ^= 0x01
        unequal_remote = LocalOracle(bytes(corrupted))
        for trial in range(10**5):
            report = verify(equal_local, unequal_remote, 1, derive_stream(2, trial))
            assert not report.matched, trial
        ok = True
    finally:
        _report(4, "fingerprint match/mismatch power", ok,
                "10^4 matches + 10^5 mismatches, per-round bound %.2e, %.0fs"
                % (float(bound), time.perf_counter() - t0))


def test_criterion_05_pollard_pm1_pinned_divisors():
    ok = False
    t0 = time.perf_counter()
    try:
        assert pollard_pm1(187, 5).divisor == 11
        assert pollard_pm1(4294967297, 128).divisor == 641
        big = pollard_pm1(2**2048 + 1, 8192)
        assert big.divisor is not None
        assert big.divisor % 319489 == 0
        assert 1 < big.divisor < 2**2048 + 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed
        ok = True
    finally:
        _report(5, "p-1 divisors: 187, F5, F11", ok,
                "%.1fs" % (time.perf_counter() - t0))


def _random_20bit_semiprimes(count, master_seed):
    limit = (1 << 20) // 5 + 1
    flags = _sieve(limit)
    primes = [i for i in range(limit) if flags[i]]
    small = [p for p in primes if 5 <= p < 1024]
    rng = SplitMix64(master_seed)
    out = []
    while len(out) < count:
        p = small[rng.uniform_below(len(small))]
        lo = -(-(1 << 19) // p)
        hi = ((1 << 20) - 1) // p
        candidates = [q for q in primes if lo <= q <= hi and q >= 5 and q != p]
        if not candidates:
            continue
        out.append((p, candidates[rng.uniform_below(len(candidates))]))
    return out


def test_criterion_06_ecm_property_suite():
    ok = False
    t0 = time.perf_counter()
    found = 0
    try:
        cases = _random_20bit_semiprimes(100, 2024)
        for i, (p, q) in enumerate(cases):
            N = p * q
            assert (1 << 19) <= N < (1 << 20) and N % 2 == 1 and N % 3 != 0
            outcome = ecm_stage1(N, 1000, 200, derive_stream(2024, i))
            if outcome.divisor is not None:
                assert 1 < outcome.divisor < N and N % outcome.divisor == 0
                found += 1
        assert found >= 99, found

        # exhaustive group-order window over every valid curve mod small p
        for p in (5, 7, 11, 13):
            lo = p - 1 - 2 * p**0.5
            hi = p + 1 + 2 * p**0.5
            for a in range(p):
                for b in range(p):
                    if (4 * a**3 + 27 * b * b) % p == 0:
                        continue
                    points = 1  # infinity
                    for x in range(p):
                        rhs = (x * x * x + a * x + b) % p
                        points += sum(1 for y in range(p) if y * y % p == rhs)
                    assert lo < points < hi, (p, a, b, points)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, elapsed
        ok = True
    finally:
        _report(6, "ecm on 20-bit semiprimes + windows", ok,
                "%d/100 factored, %.1fs" % (found, time.perf_counter() - t0))


def _random_words(count, length, seed):
    rng = SplitMix64(seed)
    words = set()
    while len(words) < count:
        words.add(bytes(rng.uniform_below(256) for _ in range(length)))
    return sorted(words)


def test_criterion_07_chm_build_quality():
    ok = False
    t0 = time.perf_counter()
    mean_trials = 0.0
    ratio = 0.0
    try:
        words = _random_words(10**4, 8, seed=123)
        fn, _ = build(words, 3.0, SplitMix64(0))
        values = [query(fn, w) for w in words]
        assert values == list(range(10**4))  # ordered bijection, exact

        blob = serialize(fn)
        assert serialize(deserialize(blob)) == blob  # bit-exact round trip

        total = sum(build(words, 3.0, SplitMix64(seed))[1].trials
                    for seed in range(200))
        mean_trials = total / 200
        assert 1.4 <= mean_trials <= 2.1, mean_trials

        # Linear-time check at matched trial counts (both seeds take exactly
        # two trials, so the ratio reflects per-word cost, not luck).
        w_small = _random_words(2**13, 8, seed=5)
        w_large = _random_words(2**16, 8, seed=6)
        t1 = time.perf_counter()
        _, rep_small = build(w_small, 3.0, SplitMix64(2))
        t_small = time.perf_counter() - t1
        t1 = time.perf_counter()
        _, rep_large = build(w_large, 3.0, SplitMix64(2))
        t_large = time.perf_counter() - t1
        assert rep_small.trials == rep_large.trials == 2, (rep_small.trials, rep_large.trials)
        ratio = t_large / t_small
        assert ratio <= 16.0, ratio

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, elapsed
        ok = True
    finally:
        _report(7, "chm ordered build + trials + speed", ok,
                "mean trials %.2f, 2^16/2^13 time ratio %.1f, %.0fs"
                % (mean_trials, ratio, time.perf_counter() - t0))


def test_criterion_08_greedy_congestion_exhibit():
    ok = False
    counts = {}
    try:
        for d in (4, 6, 8, 10):
            stats = run_oblivious(d, bit_reversal(d))
            vertex, count = stats.max_vertex_throughput
            assert vertex == 0
            assert count >= 2 ** (d // 2), (d, count)
            counts[d] = count
        ok = True
    finally:
        _report(8, "bit-reversal congestion at vertex 0", ok,
                ", ".join("d=%d: %d" % (d, c) for d, c in counts.items()))


def test_criterion_09_two_phase_routing_bounds():
    ok = False
    t0 = time.perf_counter()
    detail = ""
    try:
        for d in (6, 8):
            steps = []
            for seed in range(200):
                stats = run_valiant(d, bit_reversal(d), derive_stream(seed, d))
                steps.append(stats.total_steps)
            within = sum(1 for s in steps if s <= 14 * d)
            mean = sum(steps) / len(steps)
            assert within >= 198, (d, within)  # >= 99% of 200 runs
            assert mean < 15 * d, (d, mean)
            detail += "d=%d: %d/200 <= 14d, mean %.1f; " % (d, within, mean)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, elapsed
        ok = True
    finally:
        _report(9, "randomized routing 14d/15d bounds", ok,
                detail + "%.1fs" % (time.perf_counter() - t0))


def test_criterion_10_small_ramsey_cases():
    ok = False
    t0 = time.perf_counter()
    detail = ""
    try:
        t1 = time.perf_counter()
        assert exhaustive_search(5, 3, 3)
        assert exhaustive_search(6, 3, 3) == []
        exhaustive_elapsed = time.perf_counter() - t1
        assert exhaustive_elapsed < 1.0, exhaustive_elapsed

        for seed in range(20):
            outcome = anneal(5, 3, 3, None, SplitMix64(seed))
            assert outcome.found, seed
            assert count_violations(outcome.graph, 3, 3) == 0

        hard = anneal(17, 4, 4, None, SplitMix64(0))
        assert hard.found
        assert hard.steps <= 10**7
        assert count_violations(hard.graph, 4, 4) == 0
        detail = "exhaustive %.2fs; (4,4,17) in %d steps" % (exhaustive_elapsed, hard.steps)
        ok = True
    finally:
        _report(10, "ramsey small cases + (4,4,17)", ok,
                detail + ", %.0fs" % (time.perf_counter() - t0))


def test_criterion_11_census_formula():
    ok = False
    value = 0.0
    try:
        value = census_confidence(328, 5812)
        assert 0.99999997 <= value <= 0.99999999, value
        ok = True
    finally:
        _report(11, "census confidence reproduces 0.99999998", ok,
                "%.10f" % value)


def test_criterion_12_global_determinism(tmp_path):
    ok = False
    checked = 0
    try:
        doc_a = tmp_path / "a.bin"
        doc_b = tmp_path / "b.bin"
        payload = bytes(i % 256 for i in range(2048))
        doc_a.write_bytes(payload)
        tampered = bytearray(payload)
        tampered[77] ^= 0x10
        doc_b.write_bytes(bytes(tampered))
        wordlist = tmp_path / "words.txt"
        wordlist.write_text("".join("w%04d\n" % i for i in range(500)))

        commands = [
            ["prime", "test", "1000003", "--rounds", "12", "--seed", "21"],
            ["prime", "random", "--lo", "1000000000", "--hi", "2000000000", "--seed", "3"],
            ["fingerprint", "verify", str(doc_a), "--remote", str(doc_b),
             "--rounds", "4", "--seed", "14"],
            ["fingerprint", "localize", str(doc_a), "--remote", str(doc_b),
             "--seed", "15"],
            ["factor", "ecm", "2761103", "--b1", "100", "--curves", "80", "--seed", "7"],
            ["mphf", "build", str(wordlist), "-o", str(tmp_path / "f.chm"), "--seed", "4"],
            ["route", "sim", "--d", "6", "--perm", "random", "--algo", "valiant",
             "--seed", "31", "--trials", "3"],
            ["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3", "--seed", "6"],
        ]
        for argv in commands:
            first = io.StringIO()
            second = io.StringIO()
            code1 = cli_main(argv, stdout=first)
            code2 = cli_main(argv, stdout=second)
            assert code1 == code2, argv
            assert normalize(first.getvalue()) == normalize(second.getvalue()), argv
            json.loads(first.getvalue())  # stays well-formed JSON
            checked += 1
        ok = True
    finally:
        _report(12, "replayed subcommands byte-identical", ok,
                "%d subcommands x2" % checked)
