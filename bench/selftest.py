"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Runs a few small operations through ``randlab.cli.main``, shows that each
checker accepts the real document, then feeds the same checker a doctored
copy (a wrong divisor, a swapped MPHF index, an extra localized offset, an
overcounted census, ...) and shows that the run counts that operation as
failed.  It also compares Monier's strong-liar count, which the
witness-density check relies on, with an exhaustive scan.  Exits 1 if any
case goes the wrong way.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import checks
import run
import workloads
from workloads import Op


def _doctored(doc: dict, change) -> str:
    doc = copy.deepcopy(doc)
    change(doc["result"])
    return json.dumps(doc)


def _swap_g(path: str, out: str) -> str:
    """Copy of a .chm file with its first two distinct g values swapped."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    _, n, L = (int.from_bytes(data[5 + 8 * i:13 + 8 * i], "little") for i in range(3))
    base = 29 + 2 * L * 256 * 8
    g = [int.from_bytes(data[base + 8 * i:base + 8 * i + 8], "little") for i in range(n)]
    i = g.index(next(v for v in g if v != g[0]))
    data[base:base + 8], data[base + 8 * i:base + 8 * i + 8] = (
        data[base + 8 * i:base + 8 * i + 8], data[base:base + 8])
    with open(out, "wb") as fh:
        fh.write(data)
    return out


def cases(wd: str) -> list[tuple[str, Op, object]]:
    """(label, operation, doctoring) triples; doctoring edits the result."""
    def w(name: str, data: bytes) -> str:
        return workloads._write(os.path.join(wd, name), data)

    doc = bytes(range(256)) * 8
    bad = bytearray(doc)
    bad[100] ^= 1
    bad[1500] ^= 7
    w("a.bin", doc)
    w("b.bin", bytes(bad))
    words = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta", b"eta", b"theta"]
    wl = workloads._write_words(os.path.join(wd, "w.txt"), words)
    chm = os.path.join(wd, "w.chm")
    edges5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    runs = workloads._census_dir(os.path.join(wd, "census"), 5,
                                 [edges5, [(0, 1), (1, 2), (2, 3)]], 2,
                                 workloads.random.Random(1))
    bitrev = workloads._bit_reversal(6)
    lo, hi = 2**40, 2**40 + 2**24

    def set_(key, value):
        return lambda r: r.__setitem__(key, value)

    return [
        ("ecm: wrong divisor", Op("factor.ecm", ["factor", "ecm", "2761103", "--b1", "100",
                                                 "--curves", "200", "--seed", "7"],
                                  checks.factor_found(2761103, "factor.ecm")),
         set_("divisor", "7")),
        ("pm1: trivial divisor", Op("factor.pm1", ["factor", "pm1", "4294967297", "--bound", "128"],
                                    checks.factor_found(4294967297, "factor.pm1")),
         lambda r: r.update(divisor="1", cofactor="4294967297")),
        ("mphf build: h(w_j) != j after swapping two g entries",
         Op("mphf.build", ["mphf", "build", wl, "-o", chm], checks.mphf_build(chm, words),
            outputs=(chm,)),
         None),
        ("mphf query: swapped index", Op("mphf.query", ["mphf", "query", chm, "gamma"],
                                         checks.mphf_query(2)), set_("index", 3)),
        ("mphf verify: not ok", Op("mphf.verify", ["mphf", "verify", chm, wl],
                                   checks.mphf_verify(len(words))),
         lambda r: r.update(ok=False, mismatches=[4])),
        ("localize: extra offset", Op("fingerprint.localize", ["fingerprint", "localize",
                                                               os.path.join(wd, "a.bin"),
                                                               "--remote",
                                                               os.path.join(wd, "b.bin")],
                                      checks.fingerprint_localize({100, 1500})),
         lambda r: r["corrupted_ranges"].append({"offset": 7, "length": 1})),
        ("verify: flipped verdict", Op("fingerprint.verify", ["fingerprint", "verify",
                                                              os.path.join(wd, "a.bin"),
                                                              "--remote",
                                                              os.path.join(wd, "a.bin")],
                                       checks.fingerprint_verify(doc, doc, workloads.FP_LO,
                                                                 workloads.FP_HI)),
         set_("verdict", "mismatch")),
        ("census: overcounted", Op("ramsey.census", ["ramsey", "census", "--dir",
                                                     os.path.join(wd, "census")],
                                   checks.ramsey_census(runs, 2)),
         set_("distinct", 3)),
        ("census: wrong confidence", Op("ramsey.census", ["ramsey", "census", "--dir",
                                                          os.path.join(wd, "census")],
                                        checks.ramsey_census(runs, 2)),
         set_("confidence", "0.9")),
        ("prime test: flipped verdict", Op("prime.test", ["prime", "test", "3215031751"],
                                           checks.prime_test(False)),
         set_("answer", "probably-prime")),
        ("prime random: outside interval", Op("prime.random", ["prime", "random", "--lo", str(lo),
                                                               "--hi", str(hi)],
                                              checks.prime_random(lo, hi)),
         set_("prime", str(hi + 15))),
        ("witness density: one liar too many", Op("prime.witness-density",
                                                  ["prime", "witness-density", "561"],
                                                  checks.witness_density(561)),
         set_("density", "10/559")),
        ("route: steps below distance", Op("route.sim.greedy", ["route", "sim", "--d", "6"],
                                           checks.route_sim(6, bitrev, "greedy", True)),
         lambda r: r["trials"][0].update(total_steps=2)),
        ("route: wrong hot spot", Op("route.sim.greedy", ["route", "sim", "--d", "6"],
                                     checks.route_sim(6, bitrev, "greedy", True)),
         lambda r: r["trials"][0]["max_vertex_throughput"].update(packets=4)),
        ("anneal: graph with a clique", Op("ramsey.anneal", ["ramsey", "anneal", "--n", "5",
                                                             "--s", "3", "--t", "3"],
                                           checks.ramsey_anneal(5, 3, 3)),
         set_("graph", "5\n0: 1 2\n1: 0 2\n2: 0 1\n3:\n4:\n")),
        ("exhaustive: count off by one", Op("ramsey.exhaustive", ["ramsey", "exhaustive", "--n",
                                                                  "5", "--s", "3", "--t", "3"],
                                            checks.ramsey_exhaustive(12)),
         set_("count", 13)),
    ]


def main() -> int:
    cli = run.import_cli()
    bad = 0
    composites = [n for n in range(9, 3000, 2) if not checks.is_prime(n)]
    wrong = [n for n in composites if checks.strong_liar_count(n) != checks.exhaustive_liar_count(n)]
    print("%s  Monier count equals the exhaustive scan for %d odd composites below 3000"
          % ("PASS" if not wrong else "FAIL", len(composites)))
    bad += bool(wrong)
    os.makedirs(run.BENCH / "work", exist_ok=True)
    wd = tempfile.mkdtemp(prefix="selftest-", dir=run.BENCH / "work")
    try:
        ops = cases(wd)
        runner = run.Runner(workloads.Workload([op for _, op, _ in ops]), cli, None)
        for index, (label, op, change) in enumerate(ops):
            code, text, _ = runner.call(op)
            runner.judge(2 * index, op, code, text)
            clean_ok = runner.failed == 0
            if change is None:  # doctor the output file instead of the document
                os.replace(_swap_g(op.outputs[0], op.outputs[0] + ".x"), op.outputs[0])
                doctored = text
            else:
                doctored = _doctored(json.loads(text), change)
            runner.judge(2 * index + 1, op, code, doctored)
            if change is None:  # restore the real function for the lookups after it
                runner.call(op)
            caught = runner.failed == 1
            runner.failed = 0
            ok = clean_ok and caught
            bad += not ok
            print("%s  %s%s" % ("PASS" if ok else "FAIL", label,
                                "" if clean_ok else " (real output rejected)"))
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    print("%d failing case(s)" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
