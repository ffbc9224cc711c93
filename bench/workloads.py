"""The three workloads: input files and operation lists made from a seed.

Each builder writes its inputs under ``workdir`` and returns the ordered
list of ``Op``s one round replays.  Inputs whose cost is itself a random
variable of the program's own seed (anneal moves, ECM curves, MPHF trials)
are pinned to fixed instances and fixed program seeds, so a round does the
same work whatever ``--seed`` is; everything else (document bytes, corrupted
offsets, numbers tested, word choices, permutations, graphs) comes from
``--seed``.  Every count per kind is fixed, so the share of failed
operations is the same on every seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import checks

WORKLOADS = ("desk", "bulk", "search")


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[dict, int], None]
    outputs: tuple[str, ...] = ()  # files the call writes; replayed byte-identical
    known_fault: str | None = None  # why this operation is expected to fail
    wire: bool = False  # stdio is bound to the `fingerprint serve` child


@dataclass
class Workload:
    ops: list[Op]
    serve_document: str | None = None  # bulk: file the serve child answers for


def build(name: str, seed: int, workdir: str) -> Workload:
    rng = random.Random("%s:%d" % (name, seed))
    os.makedirs(workdir, exist_ok=True)
    return {"desk": _desk, "bulk": _bulk, "search": _search}[name](rng, workdir)


# --- shared input makers -------------------------------------------------

# Strong pseudoprimes to base 2 (and more bases), with their factorizations.
STRONG_PSEUDOPRIMES = (
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
)

FP_LO, FP_HI = 10**9, 2 * 10**9  # the CLI's default prime interval


def _write(path: str, data: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << bits - 1) | 1
        if checks.is_prime(p):
            return p


def _chernick_carmichael(rng: random.Random, lo_bits: int, hi_bits: int) -> int:
    """(6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number."""
    while True:
        k = rng.randrange(1 << (lo_bits - 10) // 3, 1 << (hi_bits - 11) // 3)
        f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = f[0] * f[1] * f[2]
        if lo_bits <= n.bit_length() <= hi_bits and all(map(checks.is_prime, f)):
            return n


def _corrupt(rng: random.Random, data: bytes, count: int) -> tuple[bytes, set[int]]:
    """Flip one byte in each of ``count`` equal strata of the document."""
    out = bytearray(data)
    stratum = len(data) // count
    offsets = set()
    for i in range(count):
        off = i * stratum + rng.randrange(stratum)
        out[off] ^= rng.randrange(1, 256)
        offsets.add(off)
    return bytes(out), offsets


def _word_list(rng: random.Random, count: int, lo: int, hi: int) -> list[bytes]:
    alphabet = b"abcdefghijklmnopqrstuvwxyz"
    words: dict[bytes, None] = {}
    while len(words) < count:
        words[bytes(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))] = None
    return list(words)


def _write_words(path: str, words: list[bytes]) -> str:
    return _write(path, b"".join(w + b"\n" for w in words))


def _seed_arg(rng: random.Random) -> list[str]:
    return ["--seed", str(rng.getrandbits(32))]


def _prime_test(n: int, prime: bool, rng: random.Random, rounds: int = 20) -> Op:
    return Op("prime.test", ["prime", "test", str(n), "--rounds", str(rounds)] + _seed_arg(rng),
              checks.prime_test(prime))


def _perm_file(path: str, perm: list[int]) -> str:
    return _write(path, "".join("%d\n" % v for v in perm).encode())


def _bit_reversal(d: int) -> list[int]:
    return [int(format(v, "0%db" % d)[::-1], 2) for v in range(1 << d)]


def _route(d: int, algo: str, perm: list[int] | None, workdir: str, tag: str,
           rng: random.Random, trials: int = 1) -> Op:
    if perm is None:
        spec, target, bitrev = "bitrev", _bit_reversal(d), True
    else:
        spec, target, bitrev = "file:" + _perm_file(os.path.join(workdir, tag + ".perm"), perm), perm, False
    argv = ["route", "sim", "--d", str(d), "--perm", spec, "--algo", algo] + _seed_arg(rng)
    if trials > 1:
        argv += ["--trials", str(trials)]
    return Op("route.sim." + algo, argv, checks.route_sim(d, target, algo, bitrev))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _graph_text(n: int, edges) -> str:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return "%d\n" % n + "".join("%d: %s\n" % (v, " ".join(map(str, sorted(a))))
                                for v, a in enumerate(adj))


def _relabelled(edges, perm: list[int]) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


def _census_dir(path: str, n: int, bases: list, copies: int, rng: random.Random) -> int:
    os.makedirs(path, exist_ok=True)
    count = 0
    for b, edges in enumerate(bases):
        for c in range(copies):
            text = _graph_text(n, _relabelled(edges, _shuffled(rng, n)))
            _write(os.path.join(path, "g%02d_%02d.txt" % (b, c)), text.encode())
            count += 1
    return count


# --- desk ----------------------------------------------------------------

def _desk(rng: random.Random, wd: str) -> Workload:
    """Hundreds of quick-tour-sized calls across all six subcommand groups.

    The list is laid out around its median: about a third of the calls are
    10-round `fingerprint verify`s of equal KiB files, and roughly as many
    calls are faster and slower than those, so latency_p50_ms always falls
    inside that kind.
    """
    ops: list[Op] = []

    # Fast side: prime tests, prime draws, p-1/ECM, MPHF lookups, tiny anneals.
    numbers = [(2**31 - 1, True), (2**61 - 1, True)]
    numbers += [(n, False) for n, _ in STRONG_PSEUDOPRIMES]
    for _ in range(5):
        bits = rng.randint(15, 32)
        numbers.append((_random_prime(rng, bits) * _random_prime(rng, rng.randint(15, 32)), False))
    for _ in range(4):
        numbers.append((_chernick_carmichael(rng, 30, 64), False))
    for i in range(20):
        n, prime = numbers[i % len(numbers)]
        ops.append(_prime_test(n, prime, rng))
    for _ in range(10):
        lo = rng.getrandbits(rng.randint(30, 62)) | (1 << 29)
        hi = lo + (1 << rng.randint(24, 28))
        ops.append(Op("prime.random", ["prime", "random", "--lo", str(lo), "--hi", str(hi)]
                      + _seed_arg(rng), checks.prime_random(lo, hi)))
    for _ in range(3):
        ops.append(Op("factor.pm1", ["factor", "pm1", "4294967297", "--bound", "128"],
                      checks.factor_found(4294967297, "factor.pm1")))
        ops.append(Op("factor.ecm", ["factor", "ecm", "2761103", "--b1", "100", "--curves",
                                     "200"] + _seed_arg(rng),
                      checks.factor_found(2761103, "factor.ecm")))
    for i in range(3):
        ops.append(Op("ramsey.anneal", ["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3"]
                      + _seed_arg(rng), checks.ramsey_anneal(5, 3, 3)))

    # MPHF: build each small list, then look words up and verify.
    mphf_ops: list[Op] = []
    lookups: list[Op] = []
    for i in range(4):
        words = _word_list(rng, rng.randint(150, 400), 4, 12)
        wl = _write_words(os.path.join(wd, "words%d.txt" % i), words)
        chm = os.path.join(wd, "words%d.chm" % i)
        mphf_ops.append(Op("mphf.build", ["mphf", "build", wl, "-o", chm] + _seed_arg(rng),
                           checks.mphf_build(chm, words), outputs=(chm,)))
        for j in rng.sample(range(len(words)), 2):
            lookups.append(Op("mphf.query", ["mphf", "query", chm, words[j].decode()],
                              checks.mphf_query(j)))
        lookups.append(Op("mphf.verify", ["mphf", "verify", chm, wl],
                          checks.mphf_verify(len(words))))

    # Middle: fingerprint verify of equal KiB documents (10 prime draws each).
    docs = []
    for i in range(12):
        data = rng.randbytes(rng.randint(1024, 4096))
        local = _write(os.path.join(wd, "doc%d.bin" % i), data)
        copy = _write(os.path.join(wd, "doc%d.copy" % i), data)
        docs.append((local, copy, data))
    middle = []
    for i in range(60):
        local, copy, data = docs[i % len(docs)]
        middle.append(Op("fingerprint.verify", ["fingerprint", "verify", local, "--remote", copy]
                         + _seed_arg(rng), checks.fingerprint_verify(data, data, FP_LO, FP_HI)))

    # Slow side: mismatches, localization, MPHF builds, routing, exhaustive search.
    slow: list[Op] = []
    for i in range(20):
        local, _, data = docs[i % len(docs)]
        bad, offsets = _corrupt(rng, data, rng.randint(1, 2))
        remote = _write(os.path.join(wd, "doc%d.bad%d" % (i % len(docs), i)), bad)
        slow.append(Op("fingerprint.localize", ["fingerprint", "localize", local, "--remote",
                                                remote] + _seed_arg(rng),
                       checks.fingerprint_localize(offsets)))
        if i < 4:
            slow.append(Op("fingerprint.verify.mismatch", ["fingerprint", "verify", local,
                                                           "--remote", remote] + _seed_arg(rng),
                           checks.fingerprint_verify(data, bad, FP_LO, FP_HI)))
    for i in range(4):
        perm = None if i % 2 == 0 else _shuffled(rng, 1 << 8)
        slow.append(_route(8, "greedy", perm, wd, "desk-g%d" % i, rng, trials=6))
    for i in range(12):
        d = 7 + i % 2
        perm = None if i % 3 == 0 else _shuffled(rng, 1 << d)
        slow.append(_route(d, "valiant", perm, wd, "desk-v%d" % i, rng, trials=8))
    for _ in range(6):
        slow.append(Op("ramsey.anneal", ["ramsey", "anneal", "--n", "8", "--s", "3", "--t", "4"]
                       + _seed_arg(rng), checks.ramsey_anneal(8, 3, 4)))
    for _ in range(4):
        slow.append(Op("ramsey.exhaustive", ["ramsey", "exhaustive", "--n", "5", "--s", "3",
                                             "--t", "3"], checks.ramsey_exhaustive(12)))

    ops += mphf_ops + lookups + middle + slow
    rng.shuffle(ops)
    # Builds must precede the lookups of their file within a round.
    ops.sort(key=lambda op: op.kind != "mphf.build")
    return Workload(ops)


# --- bulk ----------------------------------------------------------------

# Pinned: MPHF trial counts and ECM curve counts are random variables of the
# program seed, so these instances never change with --seed.
BULK_WORDS_SEED = "bulk-words"
BULK_MPHF_SEEDS = {15: 0, 16: 0}
BULK_ECM_SEEDS = (1, 3, 4, 5, 7)


def _bulk(rng: random.Random, wd: str) -> Workload:
    """Few large inputs: per-byte, per-word and big-integer kernels dominate.

    Laid out around witness-density calls near 10^4, the middle kind: about
    as many calls are faster (ECM, 521/607-bit tests, composites) as slower
    (MiB fingerprints, MPHF builds, the 1279-bit test).
    """
    ops: list[Op] = []
    big = rng.randbytes(4 << 20)
    a = _write(os.path.join(wd, "big.bin"), big)
    a_copy = _write(os.path.join(wd, "big.copy"), big)
    bad, _ = _corrupt(rng, big, 1)
    a_bad = _write(os.path.join(wd, "big.bad"), bad)
    ops.append(Op("fingerprint.verify", ["fingerprint", "verify", a, "--remote", a_copy]
                  + _seed_arg(rng), checks.fingerprint_verify(big, big, FP_LO, FP_HI)))
    ops.append(Op("fingerprint.verify.mismatch", ["fingerprint", "verify", a, "--remote", a_bad]
                  + _seed_arg(rng), checks.fingerprint_verify(big, bad, FP_LO, FP_HI)))
    del big, bad

    mid = rng.randbytes(1 << 20)
    b = _write(os.path.join(wd, "mid.bin"), mid)
    mid_bad, offsets = _corrupt(rng, mid, 8)
    b_bad = _write(os.path.join(wd, "mid.bad"), mid_bad)
    seed = _seed_arg(rng)
    ops.append(Op("fingerprint.localize", ["fingerprint", "localize", b, "--remote", b_bad] + seed,
                  checks.fingerprint_localize(offsets)))
    ops.append(Op("fingerprint.localize.wire", ["fingerprint", "localize", b, "--remote", "-"] + seed,
                  checks.fingerprint_localize(offsets), wire=True))
    del mid, mid_bad

    pinned = random.Random(BULK_WORDS_SEED)
    for e in (15, 16):
        words = _word_list(pinned, 1 << e, 5, 12)
        wl = _write_words(os.path.join(wd, "words%d.txt" % e), words)
        chm = os.path.join(wd, "words%d.chm" % e)
        ops.append(Op("mphf.build", ["mphf", "build", wl, "-o", chm, "--seed",
                                     str(BULK_MPHF_SEEDS[e])],
                      checks.mphf_build(chm, words), outputs=(chm,)))
        ops.append(Op("mphf.verify", ["mphf", "verify", chm, wl], checks.mphf_verify(len(words))))

    ops.append(_prime_test(2**521 - 1, True, rng, rounds=10))
    ops.append(_prime_test(2**607 - 1, True, rng))
    ops.append(_prime_test(2**1279 - 1, True, rng))
    # Composite by construction: each factor exceeds 1.
    ops.append(_prime_test((2**127 - 1) * (2**521 - 1), False, rng))
    ops.append(_prime_test((2**89 - 1) * (rng.getrandbits(1100) | 1), False, rng))
    ops.append(_prime_test((rng.getrandbits(400) | 3) * (rng.getrandbits(400) | 3), False, rng))

    for s in BULK_ECM_SEEDS:
        N = _random_prime(pinned, 20) * _random_prime(pinned, 20)
        ops.append(Op("factor.ecm", ["factor", "ecm", str(N), "--b1", "200", "--curves", "500",
                                     "--seed", str(s)], checks.factor_found(N, "factor.ecm")))

    for _ in range(9):
        while True:
            n = rng.randrange(9801, 10200, 2)
            if not checks.is_prime(n):
                break
        ops.append(Op("prime.witness-density", ["prime", "witness-density", str(n)],
                      checks.witness_density(n)))

    rng.shuffle(ops)
    ops.sort(key=lambda op: op.kind != "mphf.build")
    return Workload(ops, serve_document=b_bad)


# --- search --------------------------------------------------------------

# Pinned anneal instances: moves to a solution vary several-fold with the
# program seed (at (4,4,17): 345,634 at seed 0, 818,896 at seed 1, 62,881
# at seed 38), so each call replays one fixed seed.
SEARCH_ANNEALS = ((13, 3, 5, 0), (13, 3, 5, 5), (17, 4, 4, 38))
PALEY17_RELABEL_SEED = "paley17"  # the known-fault census never depends on --seed
QUADRATIC_RESIDUES_17 = {pow(x, 2, 17) for x in range(1, 17)}


def _search(rng: random.Random, wd: str) -> Workload:
    """Pure-Python combinatorial loops: anneal, canonical forms, routing.

    Laid out around greedy d=11 routing of random permutations, the middle
    kind: five calls are faster (P17 census, d=10 routing) and seven slower
    (d=12 routing, anneals, the 8-vertex census).
    """
    ops: list[Op] = []
    for n, s, t, seed in SEARCH_ANNEALS:
        ops.append(Op("ramsey.anneal", ["ramsey", "anneal", "--n", str(n), "--s", str(s), "--t",
                                        str(t), "--seed", str(seed)],
                      checks.ramsey_anneal(n, s, t)))

    # Two 8-vertex base graphs whose edge counts differ, also after
    # complementing one of them, so they are not isomorphic up to relabelling
    # and complement.
    pairs = list(combinations(range(8), 2))
    e1 = rng.randint(6, 12)
    e2 = rng.choice([e for e in range(6, 23) if e not in (e1, 28 - e1)])
    bases = [rng.sample(pairs, e1), rng.sample(pairs, e2)]
    c8 = os.path.join(wd, "census8")
    runs = _census_dir(c8, 8, bases, 2, rng)
    ops.append(Op("ramsey.census", ["ramsey", "census", "--dir", c8],
                  checks.ramsey_census(runs, len(bases))))

    paley = [(u, v) for u, v in combinations(range(17), 2) if (v - u) % 17 in QUADRATIC_RESIDUES_17]
    p17 = os.path.join(wd, "census17")
    runs = _census_dir(p17, 17, [paley], 8, random.Random(PALEY17_RELABEL_SEED))
    ops.append(Op("ramsey.census.paley17", ["ramsey", "census", "--dir", p17],
                  checks.ramsey_census(runs, 1),
                  known_fault="canonical_form falls back to labelled bit-strings above "
                              "10 vertices, so relabellings of P17 count as distinct"))

    ops.append(_route(10, "greedy", None, wd, "s-g10", rng))
    ops.append(_route(10, "greedy", _shuffled(rng, 1 << 10), wd, "s-g10r", rng))
    ops.append(_route(10, "valiant", None, wd, "s-v10", rng))
    ops.append(_route(10, "valiant", _shuffled(rng, 1 << 10), wd, "s-v10r", rng))
    for i in range(9):
        ops.append(_route(11, "greedy", _shuffled(rng, 1 << 11), wd, "s-g11r%d" % i, rng))
    ops.append(_route(12, "greedy", None, wd, "s-g12", rng))
    ops.append(_route(12, "greedy", _shuffled(rng, 1 << 12), wd, "s-g12r", rng))
    ops.append(_route(12, "valiant", _shuffled(rng, 1 << 12), wd, "s-v12r", rng))
    rng.shuffle(ops)
    return Workload(ops)
