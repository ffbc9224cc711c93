"""Independent checks of randlab result documents.

Nothing here imports randlab: every expected value is computed from the
benchmark's own arithmetic (deterministic Miller-Rabin, trial division,
Monier's liar count, a decoder written from the documented .chm layout,
brute-force clique search), so a fault in the program cannot hide behind
the same fault in its checker.

A checker takes the parsed result document and the exit code of one
``cli.main`` call and raises ``CheckFailed`` with a one-line reason when
the output is wrong.
"""

from __future__ import annotations

import math
import struct
from itertools import combinations


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- number theory -------------------------------------------------------

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the first twelve prime bases is exact below this bound
# (Sorenson and Webster, 2015).
MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality below MR_EXACT_LIMIT."""
    if n >= MR_EXACT_LIMIT:
        raise ValueError("deterministic test only below %d" % MR_EXACT_LIMIT)
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    k, q = 0, n - 1
    while q % 2 == 0:
        q //= 2
        k += 1
    for a in MR_BASES:
        y = pow(a, q, n)
        if y in (1, n - 1):
            continue
        for _ in range(k - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (small n only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def strong_liar_count(n: int) -> int:
    """Bases a in [1, n-1] for which odd composite n is a strong probable prime.

    Monier (1980): with n = prod p_i^e_i (r distinct primes), q the odd part
    of n-1, p_i' the odd part of p_i - 1 and nu = min v2(p_i - 1), the count
    is (1 + (2^(r*nu) - 1) / (2^r - 1)) * prod gcd(q, p_i').
    """
    primes = list(factorize(n))
    q = n - 1
    while q % 2 == 0:
        q //= 2
    nu = min(((p - 1) & -(p - 1)).bit_length() - 1 for p in primes)
    r = len(primes)
    product = 1
    for p in primes:
        odd = p - 1
        while odd % 2 == 0:
            odd //= 2
        product *= math.gcd(q, odd)
    return (1 + ((1 << r * nu) - 1) // ((1 << r) - 1)) * product


def exhaustive_liar_count(n: int) -> int:
    """Strong liars in [1, n-1] by scanning every base (reference for tests)."""
    k, q = 0, n - 1
    while q % 2 == 0:
        q //= 2
        k += 1
    count = 0
    for a in range(1, n):
        y = pow(a, q, n)
        if y in (1, n - 1) or any(pow(y, 1 << i, n) == n - 1 for i in range(1, k)):
            count += 1
    return count


# --- per-command checkers ------------------------------------------------

def _result(doc: dict, subcommand: str) -> dict:
    expect(doc.get("manifest", {}).get("subcommand") == subcommand,
           "expected a %s document" % subcommand)
    return doc["result"]


def prime_test(expected_prime: bool):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, "prime.test")
        answer = "probably-prime" if expected_prime else "composite"
        expect(r["answer"] == answer, "verdict %s, expected %s" % (r["answer"], answer))
        expect(code == (0 if expected_prime else 1), "exit code %d" % code)
    return check


def prime_random(lo: int, hi: int):
    def check(doc: dict, code: int) -> None:
        p = int(_result(doc, "prime.random")["prime"])
        expect(code == 0, "exit code %d" % code)
        expect(lo < p < hi, "%d outside (%d, %d)" % (p, lo, hi))
        expect(is_prime(p), "%d is composite" % p)
    return check


def witness_density(n: int):
    num, den = strong_liar_count(n) - 1, n - 2  # the scan skips base 1

    def check(doc: dict, code: int) -> None:
        r = _result(doc, "prime.witness-density")
        expect(code == 0, "exit code %d" % code)
        a, _, b = r["density"].partition("/")
        expect(int(a) * den == int(b) * num,
               "density %s, expected %d/%d" % (r["density"], num, den))
        expect(r["below_quarter"] == (4 * num < den), "below_quarter is wrong")
    return check


def factor_found(N: int, subcommand: str):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, subcommand)
        expect(code == 0 and r["found"] is True, "no factor found (exit %d)" % code)
        d, c = int(r["divisor"]), int(r["cofactor"])
        expect(1 < d < N, "divisor %d is trivial" % d)
        expect(d * c == N, "%d * %d != %d" % (d, c, N))
    return check


def fingerprint_verify(local: bytes, remote: bytes, lo: int, hi: int):
    equal = local == remote
    local_value = int.from_bytes(local, "big")

    def check(doc: dict, code: int) -> None:
        r = _result(doc, "fingerprint.verify")
        verdict = "match" if equal else "mismatch"
        expect(r["verdict"] == verdict, "verdict %s, bytes say %s" % (r["verdict"], verdict))
        expect(code == (0 if equal else 1), "exit code %d" % code)
        for p, (mine, _) in zip(r["primes_used"], r["residue_pairs"]):
            p = int(p)
            expect(lo < p < hi and is_prime(p), "round prime %d is not a prime in range" % p)
            expect(int(mine) == local_value % p, "local residue mod %d is wrong" % p)
    return check


def fingerprint_localize(corrupted: set[int]):
    def check(doc: dict, code: int) -> None:
        ranges = _result(doc, "fingerprint.localize")["corrupted_ranges"]
        expect(code == 0, "exit code %d" % code)
        found = [(x["offset"], x["length"]) for x in ranges]
        expect(all(ln == 1 for _, ln in found), "range longer than one byte")
        expect(sorted(off for off, _ in found) == sorted(corrupted),
               "localized %s, corrupted %s" % (sorted(off for off, _ in found),
                                                sorted(corrupted)))
    return check


CHM_MAGIC = b"CHM1"


def chm_evaluate(data: bytes, words: list[bytes]) -> list[int]:
    """h(w) for each word, from the documented .chm layout.

    Layout: "CHM1", version byte 1, then m, n, L as little-endian u64, two
    tables of L rows x 256 u64 vertex indices, then n u64 values g.
    f_i(w) = sum_j T_i[j][w_j] mod n and h(w) = (g[f_1(w)] + g[f_2(w)]) mod m.
    """
    expect(data[:4] == CHM_MAGIC and data[4] == 1, "bad .chm header")
    m, n, L = struct.unpack_from("<QQQ", data, 5)
    expect(len(data) == 29 + (2 * L * 256 + n) * 8, "bad .chm length")
    row = 256 * 8
    t1 = [struct.unpack_from("<256Q", data, 29 + j * row) for j in range(L)]
    t2 = [struct.unpack_from("<256Q", data, 29 + (L + j) * row) for j in range(L)]
    g = struct.unpack_from("<%dQ" % n, data, 29 + 2 * L * row)
    out = []
    for w in words:
        expect(len(w) <= L, "word longer than the table")
        u = sum(t1[j][b] for j, b in enumerate(w)) % n
        v = sum(t2[j][b] for j, b in enumerate(w)) % n
        out.append((g[u] + g[v]) % m)
    return out


def mphf_build(path: str, words: list[bytes]):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, "mphf.build")
        expect(code == 0, "exit code %d" % code)
        expect(r["m"] == len(words) and r["trials"] >= 1, "bad m or trials")
        with open(path, "rb") as fh:
            h = chm_evaluate(fh.read(), words)
        bad = [j for j, v in enumerate(h) if v != j]
        expect(not bad, "h(w_j) != j for %d words, first j=%d" % (len(bad), bad[0] if bad else 0))
    return check


def mphf_query(index: int):
    def check(doc: dict, code: int) -> None:
        got = _result(doc, "mphf.query")["index"]
        expect(code == 0 and got == index, "index %r, expected %d" % (got, index))
    return check


def mphf_verify(count: int):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, "mphf.verify")
        expect(code == 0 and r["ok"] is True and not r["mismatches"], "verify not ok")
        expect(r["words"] == count, "words %d, expected %d" % (r["words"], count))
    return check


def route_sim(d: int, perm: list[int], algo: str, bitrev: bool):
    max_distance = max(bin(src ^ dst).count("1") for src, dst in enumerate(perm))

    def check(doc: dict, code: int) -> None:
        r = _result(doc, "route.sim")
        expect(code == 0 and r["trials"], "exit code %d" % code)
        for t in r["trials"]:
            expect(t["d"] == d and t["algo"] == algo, "wrong d or algo echoed")
            expect(t["total_steps"] >= max_distance,
                   "total_steps %d below distance %d" % (t["total_steps"], max_distance))
            if algo == "valiant":
                expect(t["phase1_steps"] is not None and t["total_steps"] >= t["phase1_steps"],
                       "total_steps below phase1_steps")
            elif bitrev and d % 2 == 0:
                busiest = t["max_vertex_throughput"]["packets"]
                expect(busiest == 1 << d // 2,
                       "busiest vertex carries %d packets, expected %d" % (busiest, 1 << d // 2))
    return check


def parse_graph(text: str) -> list[set[int]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = int(lines[0])
    adj = [set() for _ in range(n)]
    for line in lines[1:]:
        head, _, rest = line.partition(":")
        v = int(head)
        for u in rest.split():
            if int(u) != v:
                adj[v].add(int(u))
                adj[int(u)].add(v)
    return adj


def has_clique(adj: list[set[int]], size: int, edge: bool) -> bool:
    """Some ``size``-subset is a clique (edge=True) or independent (False)."""
    for subset in combinations(range(len(adj)), size):
        if all((b in adj[a]) == edge for a, b in combinations(subset, 2)):
            return True
    return False


def ramsey_anneal(n: int, s: int, t: int):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, "ramsey.anneal")
        expect(code == 0 and r["found"] is True and r["graph"], "no graph found")
        adj = parse_graph(r["graph"])
        expect(len(adj) == n, "graph has %d vertices, expected %d" % (len(adj), n))
        expect(not has_clique(adj, s, True), "graph has a %d-clique" % s)
        expect(not has_clique(adj, t, False), "graph has an independent %d-set" % t)
    return check


def ramsey_exhaustive(count: int):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, "ramsey.exhaustive")
        expect(code == 0 and r["count"] == count, "count %r, expected %d" % (r["count"], count))
    return check


def census_confidence(distinct: int, runs: int) -> float:
    c = distinct
    return 1.0 - (c / (c + 1.0)) ** runs


def ramsey_census(runs: int, distinct: int):
    def check(doc: dict, code: int) -> None:
        r = _result(doc, "ramsey.census")
        expect(code == 0 and r["runs"] == runs, "runs %r, expected %d" % (r["runs"], runs))
        expect(r["distinct"] == distinct,
               "distinct %r, expected %d" % (r["distinct"], distinct))
        want = census_confidence(distinct, runs)
        expect(math.isclose(float(r["confidence"]), want, rel_tol=1e-11, abs_tol=1e-11),
               "confidence %s, expected %r" % (r["confidence"], want))
    return check
