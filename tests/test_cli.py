import argparse
import io
import json
import os
import random
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from randlab import SearchExhausted, cli, factor, fingerprint, mphf, primality, ramsey, route
from randlab.cli import _probability, _read_wordlist, main
from randlab.rng import derive_stream
from replay import normalize
from test_fingerprint import BrokenPipe
from test_golden import CASES


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def normalized(doc):
    # Reproducibility contract: identical output modulo wall-clock fields.
    doc = json.loads(json.dumps(doc))
    doc["manifest"].pop("started")
    doc["manifest"].pop("finished")
    doc["result"].pop("elapsed_seconds", None)
    return doc


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_every_readme_exit_code_is_reached(monkeypatch, capsys):
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    sentence = re.search(r"Exit codes:(.*?)\.\s", readme, re.DOTALL).group(1)
    assert re.findall(r"`(\d)`", sentence) == ["0", "1", "2", "3"]
    out = io.StringIO()
    assert main(["prime", "test", "7"], stdout=out) == 0
    assert main(["prime", "test", "9"], stdout=out) == 1
    assert main(["prime", "test", "7", "--seed", "-1"], stdout=out) == 2

    def broken(args, stdout):
        raise RuntimeError("invariant broken")

    monkeypatch.setitem(cli._HANDLERS, "prime", broken)
    assert main(["prime", "test", "7"], stdout=out) == 3
    assert capsys.readouterr().err.endswith("internal error: invariant broken\n")


def readme_number(text):
    """A README exact value such as 128, 262,144, 2^25 or 4·10^6."""
    value = 1
    for factor_text in text.split("·"):
        base, _, exponent = factor_text.replace(",", "").partition("^")
        value *= int(base) ** int(exponent or 1)
    return value


def test_every_readme_cap_row_matches_its_constant():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    table = readme[readme.index("| Input | Cap | Constant | Exact value | Checked |"):]
    rows = re.findall(r"^\|(.*)\|$", table[:table.index("\n\n")], re.MULTILINE)[2:]
    checked = 0
    for row in rows:
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", row)]
        assert len(cells) == 5, row
        if cells[2] == "—":  # no constant of its own
            continue
        module, name = re.fullmatch(r"`(\w+)\.(\w+)`", cells[2]).groups()
        assert getattr(sys.modules["randlab." + module], name) == readme_number(cells[3]), row
        checked += 1
    assert checked >= 16


def parsed_by_main(argv, monkeypatch):
    """vars() of the namespace main hands its handler for ``argv``."""
    seen = []
    monkeypatch.setitem(cli._HANDLERS, argv[0], lambda args, stdout: (seen.append(vars(args)),
                                                                      (None, 0))[1])
    assert main(argv) == 0
    return seen[0]


def test_leaf_dispatch_parses_every_golden_argv_as_the_full_parser_does(monkeypatch):
    for argv in CASES.values():
        assert tuple(argv[:2]) in cli.LEAVES
        by_leaf = parsed_by_main(argv, monkeypatch)
        with monkeypatch.context() as full:
            full.setattr(cli, "LEAVES", {})
            assert parsed_by_main(argv, full) == by_leaf, argv
        assert [by_leaf["command"], by_leaf["subcommand"]] == argv[:2]


def test_each_leaf_alone_prints_as_the_full_parsers_leaf():
    top, leaves = cli._build_parser()
    assert list(leaves) == cli.LEAVES
    for key in cli.LEAVES:
        alone = cli._parser(key)
        assert alone.prog == leaves[key].prog == "randlab %s %s" % key
        assert alone.format_usage() == leaves[key].format_usage(), key
        assert alone.format_help() == leaves[key].format_help(), key


@pytest.mark.parametrize("argv", [
    ["prime", "witness-density", "561", "--seed", "3"],  # an extra argument
    ["prime", "test", "561", "--rounds", "x"],  # a bad type
    ["prime", "random", "--lo", "3"],  # a missing required option
    ["prime", "test", "-h"],
    ["prime", "foo"],
    ["prime"],
    [],
])
def test_leaf_dispatch_fails_as_the_full_parser_does(argv, monkeypatch, capsys):
    code = main(argv)
    by_leaf = capsys.readouterr()
    monkeypatch.setattr(cli, "LEAVES", {})
    assert main(argv) == code
    assert capsys.readouterr() == by_leaf
    assert code == (0 if "-h" in argv else 2) and (by_leaf.err or by_leaf.out)


def test_prime_test_carmichael(capsys):
    code, doc = run_cli(["prime", "test", "561", "--rounds", "10", "--seed", "0"])
    assert code == 1
    assert doc["result"]["answer"] == "composite"
    assert doc["manifest"]["subcommand"] == "prime.test"
    assert doc["manifest"]["seed"] == 0


def test_prime_test_prime_exits_zero(capsys):
    code, doc = run_cli(["prime", "test", "1000000007", "--rounds", "12"])
    assert code == 0
    assert doc["result"]["answer"] == "probably-prime"
    assert doc["result"]["error_bound"] == "5.96046447754e-8"


def test_prime_witness_density(capsys):
    code, doc = run_cli(["prime", "witness-density", "561"])
    assert code == 0
    assert doc["result"]["density"] == "9/559"
    assert doc["result"]["below_quarter"] is True


def test_prime_witness_density_at_the_cap(capsys):
    # Recorded from the per-base scan: only bases 1 and n - 1 lie for 999999.
    code, doc = run_cli(["prime", "witness-density", "999999"])
    assert code == 0
    assert doc["result"] == {"below_quarter": True, "density": "1/999997",
                             "density_decimal": "0.00000100000300001"}
    assert main(["prime", "witness-density", "1000001"], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: n too large for witness density (limit 1000000)\n"


def test_seed_refused_where_nothing_is_drawn(capsys):
    assert main(["prime", "witness-density", "561", "--seed", "3"], stdout=io.StringIO()) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_seed_past_64_bits_is_usage_error(capsys):
    # SplitMix64 keeps a seed's low 64 bits: 2^64 would replay seed 0.
    code, doc = run_cli(["prime", "random", "--lo", "1000", "--hi", "100000",
                         "--seed", str(2**64 - 1)])
    assert code == 0 and doc["manifest"]["seed"] == 2**64 - 1
    capsys.readouterr()
    for seed in (str(2**64), "0x10000000000000000"):
        assert main(["prime", "random", "--lo", "1000", "--hi", "100000", "--seed", seed],
                    stdout=io.StringIO()) == 2
        assert "argument --seed: must be at most %d" % (2**64 - 1) in capsys.readouterr().err


def test_prime_random(capsys):
    code, doc = run_cli(["prime", "random", "--lo", "8", "--hi", "12"])
    assert code == 0
    assert doc["result"]["prime"] == "11"


def test_prime_test_bad_argument(capsys):
    assert main(["prime", "test", "not-a-number"], stdout=io.StringIO()) == 2


def test_trials_rejected_outside_route(capsys):
    assert main(["prime", "test", "7", "--trials", "3"], stdout=io.StringIO()) == 2


def test_route_sim_rejects_zero_trials(capsys):
    assert main(["route", "sim", "--d", "4", "--trials", "0"], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: --trials must be >= 1\n"


def test_prime_random_search_exhausted_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(primality, "PRIME_SEARCH_LIMIT", 50)
    out = io.StringIO()
    assert main(["prime", "random", "--lo", "23", "--hi", "29"], stdout=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("search exhausted: no probable prime")


def test_factor_pm1(capsys):
    code, doc = run_cli(["factor", "pm1", "187", "--bound", "5"])
    assert code == 0
    assert doc["result"]["divisor"] == "11"
    assert doc["result"]["cofactor"] == "17"


def test_factor_pm1_exhausted_exit_code(capsys):
    code, doc = run_cli(["factor", "pm1", "2813", "--bound", "3"])
    assert code == 1
    assert doc["result"]["divisor"] is None


def test_factor_ecm(capsys):
    code, doc = run_cli(["factor", "ecm", "2761103", "--b1", "100",
                         "--curves", "200", "--seed", "7"])
    assert code == 0
    assert doc["result"]["divisor"] in ("1373", "2011")
    assert int(doc["result"]["divisor"]) * int(doc["result"]["cofactor"]) == 2761103


def test_fingerprint_verify_files(tmp_path, capsys):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    payload = bytes(range(256)) * 4
    a.write_bytes(payload)
    b.write_bytes(payload)
    code, doc = run_cli(["fingerprint", "verify", str(a), "--remote", str(b)])
    assert code == 0
    assert doc["result"]["verdict"] == "match"

    corrupted = bytearray(payload)
    corrupted[100] ^= 1
    b.write_bytes(bytes(corrupted))
    code, doc = run_cli(["fingerprint", "verify", str(a), "--remote", str(b)])
    assert code == 1
    assert doc["result"]["verdict"] == "mismatch"


def test_fingerprint_verify_interval_from_zero(tmp_path, capsys):
    a = tmp_path / "a.bin"
    a.write_bytes(b"fingerprinted document")
    code, doc = run_cli(["fingerprint", "verify", str(a), "--remote", str(a),
                         "--prime-lo", "0", "--prime-hi", "100000", "--rounds", "1"])
    assert code == 0
    assert doc["result"]["verdict"] == "match"
    # 22 bytes: at most 176 prime divisors, against the 9,592 primes below 10**5.
    assert doc["result"]["false_positive_bound"] == _probability(Fraction(176, 9592))


def test_fingerprint_verify_wide_interval_from_zero(tmp_path, capsys):
    # Too wide to count exactly: the Rosser-Schoenfeld lower bound on the
    # primes below 10**6 gives 72,382 (of 78,498).
    a = tmp_path / "a.bin"
    a.write_bytes(b"fingerprinted document")
    code, doc = run_cli(["fingerprint", "verify", str(a), "--remote", str(a),
                         "--prime-lo", "0", "--prime-hi", "1000000"])
    assert code == 0
    assert doc["result"]["verdict"] == "match"
    assert doc["result"]["false_positive_bound"] == _probability(Fraction(176, 72382) ** 10)


def test_fingerprint_localize_files(tmp_path, capsys):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    payload = bytes(i % 251 for i in range(1024))
    corrupted = bytearray(payload)
    corrupted[700] ^= 0xFF
    a.write_bytes(payload)
    b.write_bytes(bytes(corrupted))
    code, doc = run_cli(["fingerprint", "localize", str(a), "--remote", str(b)])
    assert code == 0
    assert doc["result"]["corrupted_ranges"] == [{"offset": 700, "length": 1}]


def test_fingerprint_localize_empty_files_exits_zero_on_a_primeless_interval(tmp_path, capsys):
    for name in ("a.bin", "b.bin"):
        (tmp_path / name).write_bytes(b"")
    code, doc = run_cli(["fingerprint", "localize", str(tmp_path / "a.bin"), "--remote",
                         str(tmp_path / "b.bin"), "--prime-lo", "8", "--prime-hi", "10"])
    assert code == 0
    assert doc["result"]["corrupted_ranges"] == []


def test_mphf_build_query_verify(tmp_path, capsys):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("alpha\nbeta\ngamma\ndelta\n")
    out = tmp_path / "fn.chm"
    code, doc = run_cli(["mphf", "build", str(wordlist), "-o", str(out)])
    assert code == 0
    assert doc["result"]["m"] == 4
    assert out.exists()

    code, doc = run_cli(["mphf", "query", str(out), "gamma"])
    assert code == 0
    assert doc["result"]["index"] == 2

    code, doc = run_cli(["mphf", "verify", str(out), str(wordlist)])
    assert code == 0
    assert doc["result"]["ok"] is True

    wordlist.write_text("alpha\ngamma\nbeta\ndelta\n")  # wrong order now
    code, doc = run_cli(["mphf", "verify", str(out), str(wordlist)])
    assert code == 1


def test_wordlist_read_rules(tmp_path):
    # CRLF and CR CR LF endings are stripped, blank lines dropped, lines of
    # spaces kept, a last line with no newline kept, and a CR inside a word kept.
    path = tmp_path / "words.txt"
    path.write_bytes(b"alpha\r\nbeta\r\r\n\n\r\n  \n\tx \ngam\rma\n\ndelta")
    assert _read_wordlist(str(path)) == [b"alpha", b"beta", b"  ", b"\tx ", b"gam\rma", b"delta"]


@pytest.mark.parametrize("subcommand", ["build", "verify"])
def test_mphf_word_list_read_is_bounded(subcommand, monkeypatch, tmp_path, capsys):
    wordlist, chm = tmp_path / "words.txt", tmp_path / "fn.chm"
    wordlist.write_text("alpha\nbeta\ngamma\ndelta\n")
    assert main(["mphf", "build", str(wordlist), "-o", str(chm)], stdout=io.StringIO()) == 0
    argv = (["mphf", "build", str(wordlist), "-o", str(chm)] if subcommand == "build"
            else ["mphf", "verify", str(chm), str(wordlist)])
    monkeypatch.setattr(cli, "MAX_WORDLIST_BYTES", wordlist.stat().st_size)  # at the cap
    assert main(argv, stdout=io.StringIO()) == 0
    wordlist.write_text("alpha\nbeta\ngamma\ndelta\n\n")  # one past: a blank line more
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: word list must be at most %d bytes\n" % cli.MAX_WORDLIST_BYTES


def test_mphf_verify_matches_per_word_query(tmp_path, capsys):
    words = ["w%03d" % i for i in range(60)]
    (tmp_path / "words.txt").write_text("".join(w + "\n" for w in words))
    chm = tmp_path / "fn.chm"
    assert run_cli(["mphf", "build", str(tmp_path / "words.txt"), "-o", str(chm)])[0] == 0
    fn = mphf.deserialize(chm.read_bytes())
    probe = list(words)
    probe[3], probe[8] = probe[8], probe[3]  # a swapped pair
    probe.insert(12, "x" * (fn.max_word_len + 1))  # too long: shifts every later word
    probe.insert(30, "unknown")
    (tmp_path / "probe.txt").write_text("".join(w + "\n" for w in probe))
    expected = [j for j, w in enumerate(w.encode() for w in probe)
                if len(w) > fn.max_word_len or mphf.query(fn, w) != j]
    assert len(expected) > 20 and expected[:2] == [3, 8]
    code, doc = run_cli(["mphf", "verify", str(chm), str(tmp_path / "probe.txt")])
    assert code == 1
    assert doc["result"] == {"words": 62, "mismatches": expected[:20], "ok": False}


def test_mphf_verify_copies_the_word_list_only_to_drop_an_over_long_word(tmp_path, monkeypatch):
    words = ["w%03d" % i for i in range(30)]
    (tmp_path / "words.txt").write_text("".join(w + "\n" for w in words))
    chm = tmp_path / "fn.chm"
    assert run_cli(["mphf", "build", str(tmp_path / "words.txt"), "-o", str(chm)])[0] == 0
    fn = mphf.deserialize(chm.read_bytes())
    read, hashed = [], []
    monkeypatch.setattr(cli, "_read_wordlist", lambda path: read.append(_read_wordlist(path))
                        or read[-1])
    query_many = mphf.query_many
    monkeypatch.setattr(mphf, "query_many", lambda fn, ws: hashed.append(ws) or query_many(fn, ws))
    argv = ["mphf", "verify", str(chm), str(tmp_path / "probe.txt")]

    (tmp_path / "probe.txt").write_text("".join(w + "\n" for w in words))
    code, doc = run_cli(argv)
    assert code == 0
    assert doc["result"] == {"words": 30, "mismatches": [], "ok": True}
    assert hashed[-1] is read[-1]  # all fit: hashed as read

    # One over-long word, last: only its index is named.
    long_word = "x" * (fn.max_word_len + 1)
    (tmp_path / "probe.txt").write_text("".join(w + "\n" for w in words + [long_word]))
    code, doc = run_cli(argv)
    assert code == 1
    assert doc["result"] == {"words": 31, "mismatches": [30], "ok": False}
    assert hashed[-1] == read[-1][:30] and hashed[-1] is not read[-1]


def test_mphf_query_refuses_max_word_len_past_cap(tmp_path, capsys):
    # A crafted file whose tables claim 300-byte words, every entry in range.
    m, n, max_len = 2, 7, 300
    chm = tmp_path / "fn.chm"
    chm.write_bytes(b"CHM1\x01" + m.to_bytes(8, "little") + n.to_bytes(8, "little")
                    + max_len.to_bytes(8, "little") + bytes((2 * max_len * 256 + n) * 8))
    assert main(["mphf", "query", str(chm), "alpha"], stdout=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err == "error: max word length must be in [1, %d] (at byte offset 21)\n" \
        % mphf.MAX_WORD_LEN


@pytest.mark.parametrize("subcommand", ["query", "verify"])
def test_mphf_file_refuses_n_past_the_vertex_cap(subcommand, tmp_path, capsys):
    # A crafted header naming one vertex more than a build may make.
    chm, wordlist = tmp_path / "fn.chm", tmp_path / "words.txt"
    chm.write_bytes(b"CHM1\x01" + struct.pack("<QQQ", 2, mphf.MAX_VERTICES + 1, 1) + bytes(8))
    wordlist.write_text("alpha\n")
    argv = ["mphf", subcommand, str(chm), "alpha" if subcommand == "query" else str(wordlist)]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: n must be in [1, %d] (at byte offset 13)\n" % mphf.MAX_VERTICES


@pytest.mark.parametrize("ratio", ["inf", "nan"])
def test_mphf_build_rejects_non_finite_ratio(ratio, tmp_path, capsys):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("alpha\nbeta\n")
    argv = ["mphf", "build", str(wordlist), "-o", str(tmp_path / "fn.chm"), "--ratio", ratio]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: ratio must be finite\n"


@pytest.mark.parametrize("ratio", ["1e308", "100.001"])
def test_mphf_build_rejects_ratio_past_cap(ratio, tmp_path, capsys):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("alpha\nbeta\n")
    argv = ["mphf", "build", str(wordlist), "-o", str(tmp_path / "fn.chm"), "--ratio", ratio]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: ratio must be <= %d\n" % mphf.MAX_RATIO


def test_mphf_build_vertex_cap_is_inclusive(monkeypatch, tmp_path, capsys):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("alpha\nbeta\ngamma\ndelta\n")
    argv = ["mphf", "build", str(wordlist), "-o", str(tmp_path / "fn.chm"), "--ratio"]
    monkeypatch.setattr(mphf, "MAX_VERTICES", 12)
    assert main(argv + ["3"], stdout=io.StringIO()) == 0  # n = 12, at the cap
    assert main(argv + ["3.25"], stdout=io.StringIO()) == 2  # n = 13
    assert capsys.readouterr().err == \
        "error: table size ceil(ratio * words) = 13 must be at most 12\n"


def test_mphf_build_refuses_a_table_past_the_vertex_cap(tmp_path, capsys):
    # 20,972 words at ratio 100 ask for 2,097,200 vertices, 48 past 2**21.
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("".join("w%05d\n" % i for i in range(20972)))
    argv = ["mphf", "build", str(wordlist), "-o", str(tmp_path / "fn.chm"), "--ratio", "100"]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: table size ceil(ratio * words) = 2097200 must be at most %d\n" % mphf.MAX_VERTICES


def test_mphf_build_trial_budget_exhausted_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(mphf, "MAX_TRIALS", 2)  # seed 0 draws two cyclic graphs
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("".join("w%03d\n" % i for i in range(200)))
    argv = ["mphf", "build", str(wordlist), "-o", str(tmp_path / "fn.chm"), "--ratio", "2.05"]
    assert main(argv, stdout=io.StringIO()) == 1
    assert capsys.readouterr().err.startswith("search exhausted: 2 consecutive cyclic graphs")


def test_route_sim_identity(capsys):
    code, doc = run_cli(["route", "sim", "--d", "2", "--perm", "identity",
                         "--algo", "greedy"])
    assert code == 0
    assert doc["result"]["trials"][0]["total_steps"] == 0


def test_route_sim_trials_fanout(capsys):
    code, doc = run_cli(["route", "sim", "--d", "4", "--perm", "bitrev",
                         "--algo", "valiant", "--trials", "3", "--seed", "5"])
    assert code == 0
    rows = doc["result"]["trials"]
    assert [r["trial"] for r in rows] == [0, 1, 2]
    assert doc["result"]["summary"]["runs"] == 3


def test_route_sim_greedy_fixed_permutation_simulated_once(monkeypatch, capsys):
    calls = []
    real = route.run_oblivious
    monkeypatch.setattr(route, "run_oblivious", lambda d, perm: calls.append(d) or real(d, perm))
    code, doc = run_cli(["route", "sim", "--d", "6", "--perm", "bitrev", "--trials", "50"])
    assert code == 0 and len(calls) == 1
    rows = doc["result"]["trials"]
    assert [r["trial"] for r in rows] == list(range(50))
    for trial, row in enumerate(rows):
        _, one = run_cli(["route", "sim", "--d", "6", "--perm", "bitrev", "--trials", "1"])
        assert row == dict(one["result"]["trials"][0], trial=trial)


def test_route_sim_permutation_file_read_once(tmp_path, monkeypatch, capsys):
    pfile = tmp_path / "perm.txt"
    pfile.write_text("".join("%d\n" % v for v in (3, 2, 1, 0)))
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda path, *a, **k: opened.append(path) or real_open(path, *a, **k))
    for algo in ("greedy", "valiant"):
        opened.clear()
        code, doc = run_cli(["route", "sim", "--d", "2", "--perm", "file:%s" % pfile,
                             "--algo", algo, "--trials", "5"])
        assert code == 0 and doc["result"]["summary"]["runs"] == 5
        assert opened == [str(pfile)]


def test_route_sim_permutation_file(tmp_path, capsys):
    pfile = tmp_path / "perm.txt"
    pfile.write_text("".join("%d\n" % v for v in (3, 2, 1, 0)))
    code, doc = run_cli(["route", "sim", "--d", "2",
                         "--perm", "file:%s" % pfile, "--algo", "greedy"])
    assert code == 0
    assert doc["result"]["trials"][0]["total_steps"] >= 2


@pytest.mark.parametrize("text, message", [
    ("0\n" * 2_000_000, "--perm file holds more than 4 labels"),
    ("0" * 4_000_000, "--perm file lines must be at most 64 characters"),
], ids=["many-lines", "one-long-line"])
def test_route_sim_permutation_file_read_is_bounded(text, message, tmp_path, capsys):
    pfile = tmp_path / "perm.txt"
    pfile.write_text(text)  # 4 MB either way
    code, peak = main_peak_bytes(["route", "sim", "--d", "2", "--perm", "file:%s" % pfile])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert peak < 2**20


def test_route_sim_unknown_permutation_exits_two(capsys):
    assert main(["route", "sim", "--d", "2", "--perm", "foo"], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: unknown permutation 'foo'\n"


def test_route_sim_greedy_random_permutation_is_drawn_per_trial(capsys):
    code, doc = run_cli(["route", "sim", "--d", "5", "--perm", "random", "--algo", "greedy",
                         "--trials", "4", "--seed", "3"])
    assert code == 0
    rows = doc["result"]["trials"]
    for trial, row in enumerate(rows):
        perm = route.random_permutation(5, derive_stream(3, trial))
        stats = route.run_oblivious(5, perm)
        assert (row["total_steps"], row["max_queue_depth"]) == \
            (stats.total_steps, stats.max_queue_depth)
    assert len({r["total_steps"] for r in rows}) > 1


def test_random_permutation_matches_a_sampler_per_swap():
    # uniform_below draws a bound of at most 2**64 without building a
    # sampler; each swap must still be one draw of sampler(i + 1).
    for d in range(1, route.MAX_DIMENSION + 1):
        for seed in (0, 7, 2**64 - 1):
            rng, ref = derive_stream(seed, d), derive_stream(seed, d)
            expected = list(range(1 << d))
            for i in range((1 << d) - 1, 0, -1):
                j = ref.sampler(i + 1)()
                expected[i], expected[j] = expected[j], expected[i]
            assert route.random_permutation(d, rng) == expected, (d, seed)
            assert rng.state == ref.state


def test_route_sim_permutation_file_takes_hex_labels(tmp_path, capsys):
    decimal, hexa = tmp_path / "dec.txt", tmp_path / "hex.txt"
    decimal.write_text("3\n2\n1\n0\n")
    hexa.write_text("0x3\n 0X2 \n0x1\n0x0\n")
    docs = [run_cli(["route", "sim", "--d", "2", "--perm", "file:%s" % f])[1]["result"]
            for f in (decimal, hexa)]
    assert docs[0] == docs[1]


def test_ramsey_exhaustive(capsys):
    code, doc = run_cli(["ramsey", "exhaustive", "--n", "5", "--s", "3", "--t", "3"])
    assert code == 0
    assert doc["result"]["count"] == 12
    code, doc = run_cli(["ramsey", "exhaustive", "--n", "6", "--s", "3", "--t", "3"])
    assert code == 1
    assert doc["result"]["count"] == 0


@pytest.mark.parametrize("n, s, t", [(5, 3, 3), (6, 3, 4), (6, 3, 3), (4, 2, 3)])
def test_ramsey_exhaustive_reports_the_search(n, s, t, capsys):
    # The count and the least-mask graph of exhaustive_search, which builds them all.
    graphs = ramsey.exhaustive_search(n, s, t)
    code, doc = run_cli(["ramsey", "exhaustive", "--n", str(n), "--s", str(s), "--t", str(t)])
    assert code == (0 if graphs else 1)
    assert doc["result"] == {"count": len(graphs), "exists": bool(graphs),
                             "sample": ramsey.graph_to_text(graphs[0]) if graphs else None}


def test_ramsey_anneal_and_census(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    for seed in range(3):
        out_file = graphs / ("g%d.txt" % seed)
        code, doc = run_cli(["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3",
                             "--seed", str(seed), "-o", str(out_file)])
        assert code == 0
        assert doc["result"]["found"] is True
        assert out_file.exists()
    code, doc = run_cli(["ramsey", "census", "--dir", str(graphs)])
    assert code == 0
    assert doc["result"]["runs"] == 3
    assert 1 <= doc["result"]["distinct"] <= 3
    assert doc["result"]["confidence"].startswith("0.")


def test_ramsey_census_counts_paley17_relabelings_once(tmp_path, capsys):
    residues = {1, 2, 4, 8, 9, 13, 15, 16}  # the nonzero squares mod 17
    edges = [(u, v) for u in range(17) for v in range(u + 1, 17) if (v - u) % 17 in residues]
    rng = random.Random(17)
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    for i in range(8):
        perm = list(range(17))
        rng.shuffle(perm)
        g = ramsey.GraphColoring.from_edges(17, [(perm[u], perm[v]) for u, v in edges])
        (graphs / ("p%d.txt" % i)).write_text(ramsey.graph_to_text(g))
    code, doc = run_cli(["ramsey", "census", "--dir", str(graphs)])
    assert code == 0
    assert (doc["result"]["runs"], doc["result"]["distinct"]) == (8, 1)


def test_ramsey_census_rejects_graph_past_vertex_limit(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "big.txt").write_text(ramsey.graph_to_text(ramsey.GraphColoring(25)))
    assert main(["ramsey", "census", "--dir", str(graphs)], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: census graph file 'big.txt': canonical_form supports at most 24 vertices\n"


def test_ramsey_census_bad_edge_names_its_file(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "a.txt").write_text(ramsey.graph_to_text(ramsey.GraphColoring(3)))
    (graphs / "bad.txt").write_text("3\n1: 5\n")
    assert main(["ramsey", "census", "--dir", str(graphs)], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: census graph file 'bad.txt': bad edge (1, 5)\n"


def test_ramsey_anneal_not_found_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_total_steps": 20000}))
    code, doc = run_cli(["ramsey", "anneal", "--n", "6", "--s", "3", "--t", "3",
                         "--config", str(cfg)])
    assert code == 1
    assert doc["result"]["found"] is False


@pytest.mark.parametrize("config", ['{"bogus": 1}', "[1, 2]", '{"cooling": "x"}'])
def test_ramsey_anneal_rejects_bad_config(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = ["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3", "--config", str(cfg)]
    assert main(argv, stdout=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --config: ") and err.count("\n") == 1


def bad_config(config, message, id, instance=("5", "3", "3")):
    return pytest.param(config, instance, message, id=id)


def nan_config(field, message):
    return bad_config('{"%s": NaN}' % field, message, "%s-%s" % (field, message),
                      ("8", "3", "4"))


TOO_HOT = "initial_temperature must be at most %r" % sys.float_info.max


@pytest.mark.parametrize("config, instance, message", [
    nan_config("initial_temperature", "initial_temperature must be positive"),
    nan_config("steps_per_temperature", "steps_per_temperature must be positive"),
    nan_config("restarts", "restarts must be non-negative"),
    # An integer past float's range overflowed the first cooling product, which
    # n = 5 reaches: a traceback and exit 1.
    bad_config('{"initial_temperature": 1%s}' % ("0" * 400), TOO_HOT,
               "initial_temperature-10**400"),
    bad_config('{"initial_temperature": 1e400}', TOO_HOT, "initial_temperature-inf"),
    bad_config('{"steps_per_temperature": 1.5}', "steps_per_temperature must be an integer",
               "steps_per_temperature-1.5"),
    bad_config('{"steps_per_temperature": true}', "steps_per_temperature must be an integer",
               "steps_per_temperature-true"),
    bad_config('{"max_total_steps": 1000.0}', "max_total_steps must be an integer",
               "max_total_steps-1000.0"),
    bad_config('{"restarts": false}', "restarts must be an integer", "restarts-false"),
    # true passed both range checks and annealed at T = 1.
    bad_config('{"initial_temperature": true}', "initial_temperature must be a number",
               "initial_temperature-true"),
])
def test_ramsey_anneal_refuses_nan_config(config, instance, message, tmp_path, capsys):
    # json.load reads a bare NaN, and 1e400 as inf.  Let through, each of
    # these runs on with a schedule it did not ask for, or overflows.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    n, s, t = instance
    argv = ["ramsey", "anneal", "--n", n, "--s", s, "--t", t, "--seed", "1",
            "--config", str(cfg)]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_ramsey_anneal_refuses_an_infinite_step_budget(tmp_path):
    # JSON reads 1e400 as inf; an unchecked budget never ends the run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_total_steps": 1e400}')
    proc = subprocess.run([sys.executable, "-m", "randlab", "ramsey", "anneal", "--n", "6",
                           "--s", "3", "--t", "3", "--config", str(cfg)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == "error: max_total_steps must be in [1, %d]\n" % ramsey.MAX_TOTAL_STEPS
    assert proc.stdout == ""


def test_fingerprint_stdio_remote_end_to_end(tmp_path):
    # Full wire-protocol session between two real processes: the serve side
    # answers residue queries, the verify side reports on stderr (stdout is
    # the transport in '-' mode).
    import os
    import subprocess
    import sys

    local = tmp_path / "local.bin"
    remote = tmp_path / "remote.bin"
    payload = bytes((7 * i) % 256 for i in range(512))
    local.write_bytes(payload)
    tampered = bytearray(payload)
    tampered[300] ^= 0x40
    remote.write_bytes(bytes(tampered))

    env = dict(os.environ, PYTHONPATH="src")
    serve = subprocess.Popen(
        [sys.executable, "-m", "randlab", "fingerprint", "serve", str(remote)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    verify = subprocess.Popen(
        [sys.executable, "-m", "randlab", "fingerprint", "verify", str(local),
         "--remote", "-", "--rounds", "2", "--seed", "5"],
        stdin=serve.stdout, stdout=serve.stdin, stderr=subprocess.PIPE, env=env)
    serve.stdin.close()
    serve.stdout.close()
    with verify.stderr:
        report = verify.stderr.read()
    assert verify.wait(timeout=60) == 1  # mismatch verdict
    serve.wait(timeout=60)
    doc = json.loads(report)
    assert doc["result"]["verdict"] == "mismatch"


@pytest.mark.parametrize("argv", [
    ["prime", "test", "1729", "--rounds", "10", "--seed", "3"],
    ["prime", "random", "--lo", "100", "--hi", "200", "--seed", "9"],
    ["factor", "ecm", "2761103", "--b1", "100", "--curves", "50", "--seed", "2"],
    ["route", "sim", "--d", "5", "--perm", "random", "--algo", "valiant",
     "--seed", "11", "--trials", "2"],
    ["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3", "--seed", "4"],
])
def test_randomized_subcommands_replay_identically(argv, capsys):
    code1, doc1 = run_cli(argv)
    code2, doc2 = run_cli(argv)
    assert code1 == code2
    assert normalized(doc1) == normalized(doc2)


def main_peak_bytes(argv):
    """Exit code of one main() call and the peak of memory it allocated."""
    tracemalloc.start()
    try:
        code = main(argv, stdout=io.StringIO())
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PRIME_CAP_MESSAGE = "hi must be at most 2**%d" % primality.MAX_PRIME_BITS


@pytest.mark.parametrize("argv, message", [
    (["route", "sim", "--d", str(route.MAX_DIMENSION + 1), "--perm", "random"],
     "d must be in [1, %d]" % route.MAX_DIMENSION),
    (["factor", "pm1", "187", "--bound", str(factor.MAX_BOUND + 1)],
     "bound must be in [2, %d]" % factor.MAX_BOUND),
    (["factor", "ecm", "2761103", "--b1", str(factor.MAX_BOUND + 1)],
     "b1 must be in [2, %d]" % factor.MAX_BOUND),
    (["route", "sim", "--d", "1", "--trials", str(route.MAX_TRIALS + 1)],
     "--trials must be <= %d" % route.MAX_TRIALS),
    (["factor", "ecm", "2761103", "--b1", "100", "--curves", str(factor.MAX_CURVES + 1)],
     "curves must be in [1, %d]" % factor.MAX_CURVES),
    (["prime", "test", "1000003", "--rounds", str(primality.MAX_ROUNDS + 1)],
     "rounds must be in [1, %d]" % primality.MAX_ROUNDS),
    (["prime", "random", "--lo", "1000000000", "--hi", "2000000000",
      "--rounds", str(primality.MAX_ROUNDS + 1)],
     "rounds must be in [1, %d]" % primality.MAX_ROUNDS),
    (["fingerprint", "verify", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--rounds", str(primality.MAX_ROUNDS + 1)],
     "rounds must be in [1, %d]" % primality.MAX_ROUNDS),
    (["fingerprint", "localize", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--rounds-per-probe", str(primality.MAX_ROUNDS + 1)],
     "rounds_per_probe must be in [1, %d]" % primality.MAX_ROUNDS),
    # The round count is refused before either document is read.
    (["fingerprint", "verify", "{tmp}/big.bin", "--remote", "{tmp}/big.bin",
      "--rounds", str(primality.MAX_ROUNDS + 1)],
     "rounds must be in [1, %d]" % primality.MAX_ROUNDS),
    (["fingerprint", "localize", "{tmp}/big.bin", "--remote", "{tmp}/big.bin",
      "--rounds-per-probe", str(primality.MAX_ROUNDS + 1)],
     "rounds_per_probe must be in [1, %d]" % primality.MAX_ROUNDS),
    (["factor", "pm1", "0x" + "f" * 3999 + "b", "--bound", "100"],
     "N must be at most %d bits" % factor.MAX_TARGET_BITS),
    (["factor", "ecm", "%#x" % (2**factor.MAX_TARGET_BITS + 1), "--b1", "100"],
     "N must be at most %d bits" % factor.MAX_TARGET_BITS),
    (["prime", "test", "0x" + "f" * 1025, "--rounds", "1"],
     "n must be at most %d bits" % primality.MAX_TARGET_BITS),
    # The prime interval is refused before either document is read, and
    # before a single prime of that width is drawn.
    (["prime", "random", "--lo", "0", "--hi", "%#x" % (2**primality.MAX_PRIME_BITS + 1)],
     PRIME_CAP_MESSAGE),
    (["fingerprint", "verify", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--prime-hi", "0x" + "f" * 500], PRIME_CAP_MESSAGE),
    (["fingerprint", "localize", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--prime-hi", "0x" + "f" * 500], PRIME_CAP_MESSAGE),
    (["fingerprint", "verify", "{tmp}/big.bin", "--remote", "{tmp}/big.bin",
      "--prime-hi", "0x" + "f" * 1000], PRIME_CAP_MESSAGE),
    (["fingerprint", "localize", "{tmp}/big.bin", "--remote", "{tmp}/big.bin",
      "--prime-hi", "0x" + "f" * 1000], PRIME_CAP_MESSAGE),
], ids=["route-d", "pm1-bound", "ecm-b1", "route-trials", "ecm-curves",
        "prime-test-rounds", "prime-random-rounds", "fp-verify-rounds",
        "fp-localize-rounds", "fp-verify-rounds-big-doc", "fp-localize-rounds-big-doc",
        "pm1-target-bits", "ecm-target-bits", "prime-test-n-bits", "prime-random-hi-bits",
        "fp-verify-prime-hi-500-digits", "fp-localize-prime-hi-500-digits",
        "fp-verify-prime-hi-1000-digits-big-doc", "fp-localize-prime-hi-1000-digits-big-doc"])
def test_argument_past_cap_exits_two_before_allocating(argv, message, tmp_path, capsys):
    (tmp_path / "doc.bin").write_bytes(b"fingerprinted document")
    if any("big.bin" in arg for arg in argv):
        (tmp_path / "big.bin").write_bytes(bytes(4 * 2**20))  # 4 MiB
    start = time.perf_counter()
    code, peak = main_peak_bytes([arg.format(tmp=tmp_path) for arg in argv])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert peak < 2**20


WIDE_LO = "0x" + "f" * 4000  # 16,000 bits: past the 4,300-digit str() limit


@pytest.mark.parametrize("argv, message", [
    (["prime", "random", "--lo", WIDE_LO, "--hi", "100"],
     "open interval (a 16000-bit lo, 100) is empty"),
    (["fingerprint", "verify", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--prime-lo", WIDE_LO, "--prime-hi", "100"],
     "open interval (a 16000-bit lo, 100) is empty"),
    (["fingerprint", "localize", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--prime-lo", WIDE_LO, "--prime-hi", "100"],
     "open interval (a 16000-bit lo, 100) is empty"),
    (["prime", "random", "--lo", "100", "--hi", "101"], "open interval (100, 101) is empty"),
    (["fingerprint", "verify", "{tmp}/doc.bin", "--remote", "{tmp}/doc.bin",
      "--prime-lo", "%#x" % 2**primality.MAX_PRIME_BITS, "--prime-hi", "5"],
     "open interval (%d, 5) is empty" % 2**primality.MAX_PRIME_BITS),
], ids=["prime-random-wide-lo", "fp-verify-wide-lo", "fp-localize-wide-lo",
        "prime-random-adjacent", "fp-verify-lo-at-cap"])
def test_empty_prime_interval_exits_two_naming_it_empty(argv, message, tmp_path, capsys):
    (tmp_path / "doc.bin").write_bytes(b"fingerprinted document")
    code, _ = run_cli([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_trial_and_curve_caps_are_inclusive(capsys):
    code, doc = run_cli(["route", "sim", "--d", "1", "--trials", str(route.MAX_TRIALS)])
    assert code == 0 and doc["result"]["summary"]["runs"] == route.MAX_TRIALS
    code, doc = run_cli(["factor", "ecm", "2761103", "--b1", "100",
                         "--curves", str(factor.MAX_CURVES), "--seed", "7"])
    assert code == 0 and doc["result"]["found"]
    rounds = str(primality.MAX_ROUNDS)
    code, doc = run_cli(["prime", "test", "1000003", "--rounds", rounds])
    assert code == 0 and doc["result"]["rounds"] == primality.MAX_ROUNDS
    N = 2**primality.MAX_TARGET_BITS - 1  # divisible by 3
    code, doc = run_cli(["prime", "test", "%#x" % N, "--rounds", "1"])
    assert code == 1 and doc["result"]["answer"] == "composite"
    code, doc = run_cli(["prime", "random", "--lo", "1000", "--hi", "2000", "--rounds", rounds])
    assert code == 0 and 1000 < int(doc["result"]["prime"]) < 2000


def test_factor_ecm_past_the_work_cap_exits_two_with_one_line(capsys):
    argv = ["factor", "ecm", "2761103", "--b1", str(factor.MAX_BOUND),
            "--curves", str(factor.MAX_CURVES)]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: curves * b1 * ceil(bits(N) / 64)**2 = %d must be at most %d\n" \
        % (factor.MAX_BOUND * factor.MAX_CURVES, factor.MAX_ECM_WORK)


def test_factor_pm1_past_the_work_cap_exits_two_with_one_line(capsys):
    bound = factor.MAX_PM1_WORK // 4096 + 1
    argv = ["factor", "pm1", "%#x" % (2**4096 - 1), "--bound", str(bound)]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: bound * ceil(bits(N) / 64)**2 = %d must be at most %d\n" \
        % (bound * 4096, factor.MAX_PM1_WORK)


def test_route_sim_past_the_work_cap_exits_two_before_any_permutation(tmp_path, capsys):
    d = route.MAX_DIMENSION
    trials = route.MAX_ROUTE_WORK // (d << d) + 1
    missing = "file:%s" % (tmp_path / "missing")  # reading it would fail otherwise
    for perm, algo in (("random", "greedy"), (missing, "valiant")):
        argv = ["route", "sim", "--d", str(d), "--perm", perm, "--algo", algo,
                "--trials", str(trials)]
        assert main(argv, stdout=io.StringIO()) == 2
        assert capsys.readouterr().err == \
            "error: simulations * d * 2**d = %d must be at most %d\n" \
            % (trials * d << d, route.MAX_ROUTE_WORK)
    # A fixed permutation routed greedily is simulated once, whatever --trials.
    argv = ["route", "sim", "--d", str(d), "--perm", "bitrev", "--trials", str(trials)]
    assert main(argv, stdout=io.StringIO()) == 0


def test_route_work_cap_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(route, "MAX_ROUTE_WORK", 3 * 2 << 2)  # three d = 2 runs
    argv = ["route", "sim", "--d", "2", "--perm", "random", "--trials"]
    assert main(argv + ["3"], stdout=io.StringIO()) == 0
    assert main(argv + ["4"], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: simulations * d * 2**d = 32 must be at most 24\n"


def test_factor_target_cap_is_inclusive(capsys):
    N = 2**factor.MAX_TARGET_BITS - 1  # divisible by 15
    code, doc = run_cli(["factor", "pm1", "%#x" % N, "--bound", "5"])
    assert code == 0 and int(doc["result"]["divisor"]) * int(doc["result"]["cofactor"]) == N
    N = 5 * (2**(factor.MAX_TARGET_BITS - 3) + 3)  # coprime to 6, 4096 bits
    assert N.bit_length() == factor.MAX_TARGET_BITS
    code, doc = run_cli(["factor", "ecm", "%#x" % N, "--b1", "100", "--curves", "5",
                         "--seed", "1"])
    assert code == 0 and int(doc["result"]["divisor"]) * int(doc["result"]["cofactor"]) == N


def test_mphf_build_rejects_word_past_length_cap(tmp_path, capsys):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("alpha\n" + "w" * (mphf.MAX_WORD_LEN + 1) + "\n")
    argv = ["mphf", "build", str(wordlist), "-o", str(tmp_path / "fn.chm")]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: words must be at most %d bytes long\n" % mphf.MAX_WORD_LEN


def test_ramsey_exhaustive_builds_only_the_sample_graph(capsys):
    # 32,766 solutions; building a graph for each peaked at 6.3 MiB.
    code, peak = main_peak_bytes(["ramsey", "exhaustive", "--n", "6", "--s", "6", "--t", "6"])
    assert code == 0
    assert peak < 2**20


def test_ramsey_census_refuses_vertex_count_before_allocating(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "huge.txt").write_text("1000000\n0: 1\n")
    code, peak = main_peak_bytes(["ramsey", "census", "--dir", str(graphs)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: census graph file 'huge.txt': canonical_form supports at most 24 vertices\n"
    assert peak < 2**20


def test_ramsey_census_graph_file_read_is_bounded(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "big.txt").write_text("25\n" + "0: 1\n" * 1_000_000)  # 5 MB
    code, peak = main_peak_bytes(["ramsey", "census", "--dir", str(graphs)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: census graph file 'big.txt' must be at most %d characters\n" % cli.MAX_TEXT_FILE_CHARS
    assert peak < 2**20


def test_ramsey_anneal_config_read_is_bounded(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    argv = ["ramsey", "anneal", "--n", "3", "--s", "3", "--t", "3", "--config", str(cfg)]
    cfg.write_text("{" + " " * 4_000_000 + "}")
    code, peak = main_peak_bytes(argv)
    assert code == 2
    assert capsys.readouterr().err == \
        "error: --config file must be at most %d characters\n" % cli.MAX_TEXT_FILE_CHARS
    assert peak < 2**20
    cfg.write_text("{" + " " * (cli.MAX_TEXT_FILE_CHARS - 2) + "}")  # at the cap
    assert main(argv, stdout=io.StringIO()) == 0


@pytest.mark.parametrize("kind", ["bad-magic", "trailing-junk"])
@pytest.mark.parametrize("subcommand", ["query", "verify"])
def test_mphf_function_file_read_is_bounded(kind, subcommand, tmp_path, capsys):
    # 8 MiB files that the 29-byte header already refuses.
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("alpha\nbeta\n")
    chm = tmp_path / "fn.chm"
    assert main(["mphf", "build", str(wordlist), "-o", str(chm)], stdout=io.StringIO()) == 0
    valid, junk = chm.read_bytes(), bytes(8 * 2**20)
    if kind == "bad-magic":
        chm.write_bytes(b"NOPE" + junk[4:])
        message = "bad magic (at byte offset 0)"
    else:
        chm.write_bytes(valid + junk)
        message = "expected %d bytes, got %d (at byte offset %d)" % (
            len(valid), len(valid) + len(junk), len(valid))
    last = str(wordlist) if subcommand == "verify" else "alpha"
    code, peak = main_peak_bytes(["mphf", subcommand, str(chm), last])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert peak < 2**20


def test_fingerprint_remote_pipe_error_exits_two(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"hello world")
    monkeypatch.setattr(sys, "stdin", io.StringIO())
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main(["fingerprint", "verify", str(doc), "--remote", "-"], stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: oracle I/O failed: [Errno 32] Broken pipe\n"


def test_fingerprint_serve_keeps_serving_after_bad_requests(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"hello world")
    too_long = "Q 0 11 " + "9" * fingerprint.MAX_LINE
    requests = "Q x 1 7\nQ 0 50 7\nQ 0 1 1\nL 5\n%s\nL\nQ 0 11 101\n" % too_long
    monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
    out = io.StringIO()
    assert main(["fingerprint", "serve", str(doc)], stdout=out) == 0
    replies = out.getvalue().splitlines()
    assert [r[0] for r in replies] == ["E", "E", "E", "E", "E", "L", "R"]
    assert replies[5:] == ["L 11", "R %d" % (int.from_bytes(b"hello world", "big") % 101)]
    assert capsys.readouterr().err == "served 1 queries\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_process_document(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "randlab"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, normalize(proc.stdout)


def test_parser_reuse_matches_fresh_processes(capsys):
    calls = [
        (["prime", "random", "--lo", "1000", "--hi", "100000", "--rounds", "5",
          "--seed", "3"], 0),
        (["route", "sim", "--d", "4", "--perm", "random", "--algo", "valiant",
          "--phase-barrier", "--seed", "2"], 0),
        (["prime", "test", "7", "--rounds", "x"], 2),
        (["prime", "random", "--lo", "10", "--hi", "20"], 0),
    ]
    for argv, expected_code in calls:
        out = io.StringIO()
        assert main(argv, stdout=out) == expected_code
        assert (expected_code, normalize(out.getvalue())) == fresh_process_document(argv)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # The modules the import adds, so that whatever site preloads does not count.
    probe = ("import sys; before = set(sys.modules); import randlab.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "randlab.cli" in added
    assert not added & {"dataclasses", "inspect"}


# Records, in a fresh interpreter, which randlab modules run (a module's
# exec_module; a lazily loaded module runs at its first attribute access) and
# which parsers are built, across the import and one main call.
STARTUP_PROBE = """
import argparse, io, json, sys
from importlib.machinery import SourceFileLoader

ran, built = [], []
exec_module, init = SourceFileLoader.exec_module, argparse.ArgumentParser.__init__

def recording_exec_module(self, module):
    if module.__name__.startswith("randlab"):
        ran.append(module.__name__)
    exec_module(self, module)

def recording_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)

SourceFileLoader.exec_module = recording_exec_module
argparse.ArgumentParser.__init__ = recording_init
import randlab.cli
at_import = (list(ran), list(built))
code = randlab.cli.main(sys.argv[1:], stdout=io.StringIO())
print(json.dumps([at_import, [ran[len(at_import[0]):], built[len(at_import[1]):]], code]))
"""

LIBRARY_MODULES = {"randlab." + m for m in
                   ("factor", "fingerprint", "mphf", "primality", "ramsey", "route")}


def startup_probe(argv):
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE] + argv,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_cli_import_runs_no_library_module_and_builds_no_parser():
    (ran, built), (call_ran, call_built), code = startup_probe(["prime", "test", "97"])
    assert "randlab.cli" in ran and not LIBRARY_MODULES & set(ran)
    assert built == []
    assert code == 0
    assert call_ran == ["randlab.primality"]
    assert call_built == ["randlab prime test"]


@pytest.mark.parametrize("argv, runs, exit_code", [
    (["factor", "pm1", "4294967297", "--bound", "128"], ["randlab.factor", "randlab.primality"], 0),
    (["ramsey", "exhaustive", "--n", "4", "--s", "3", "--t", "3"], ["randlab.ramsey"], 0),
    # Errors are mapped to exit codes without running another module.
    (["route", "sim", "--d", "3", "--trials", "0"], [], 2),
    (["prime", "random", "--lo", "24", "--hi", "29"], ["randlab.primality"], 1),
])
def test_cli_call_runs_only_the_modules_it_uses(argv, runs, exit_code):
    _, (call_ran, call_built), code = startup_probe(argv)
    assert code == exit_code
    assert call_ran == runs
    assert call_built == ["randlab %s %s" % tuple(argv[:2])]


def off_by_one_flip_counter(monkeypatch):
    """Patch ramsey's flip kernel to report every delta one too high."""
    kernel = ramsey._flip_counter

    def flip_counter(n, s, t):
        delta = kernel(n, s, t)
        return lambda adj, packed, u, v: delta(adj, packed, u, v) + 1
    monkeypatch.setattr(ramsey, "_flip_counter", flip_counter)


@pytest.mark.parametrize("argv, stdin, patch, exit_code, err", [
    # A broken wire session is an OSError: exit 2.
    (["fingerprint", "verify", "DOC", "--remote", "-"], "garbage\n", None, 2,
     "error: malformed oracle response: 'garbage\\n'\n"),
    # Las Vegas searches that run out are SearchExhausted: exit 1.
    (["prime", "random", "--lo", "24", "--hi", "29"], "", None, 1,
     "search exhausted: no probable prime in (24, 29): an exact test finds none\n"),
    (["mphf", "build", "DOC", "-o", "OUT"], "", lambda mp: mp.setattr(mphf, "MAX_TRIALS", 0), 1,
     "search exhausted: 0 consecutive cyclic graphs at ratio 3.000\n"),
    # Any other RuntimeError is a broken invariant: exit 3, one prefix.
    (["ramsey", "exhaustive", "--n", "4", "--s", "3", "--t", "3"], "", off_by_one_flip_counter,
     3, "internal error: incremental energy drifted\n"),
], ids=["transport", "primeless", "ratio", "drift"])
def test_each_failure_type_maps_to_its_exit_code_and_one_prefix(
        argv, stdin, patch, exit_code, err, tmp_path, monkeypatch, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("alpha\nbeta\ngamma\n")
    argv = [{"DOC": str(doc), "OUT": str(tmp_path / "fn.chm")}.get(a, a) for a in argv]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    if patch:
        patch(monkeypatch)
    assert main(argv, stdout=io.StringIO()) == exit_code
    assert capsys.readouterr().err == err
    assert issubclass(fingerprint.TransportError, OSError)
    assert issubclass(primality.PrimelessIntervalError, SearchExhausted)
    assert issubclass(mphf.RatioTooLowError, SearchExhausted)


def test_two_calls_on_one_leaf_build_one_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["prime", "test", "97"], stdout=io.StringIO()) == 0
    assert built == ["randlab prime test"]
    for _ in range(2):
        assert main(["prime"]) == 2
    assert built.count("randlab") == 1


RECORDS = [
    factor.FactorOutcome(None, 3, 100),
    fingerprint.VerifyReport(fingerprint.MATCH, 1, [7], [(3, 3)], Fraction(1, 7)),
    mphf.MphfFunction(1, 3, 1, ((0,) * 256,), ((1,) * 256,), (0, 0, 0)),
    mphf.BuildReport(1, 0.5),
    primality.PrimalityVerdict(primality.COMPOSITE, 1, Fraction(1, 4)),
    ramsey.AnnealConfig(),
    ramsey.AnnealOutcome(None, 10, 0, 2),
    route.RunStats(3, (1, 2), (0, 2), 1),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    assert record == tuple(record) and len(record) == len(record._fields)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_record_defaults_and_properties(tmp_path, capsys):
    report = fingerprint.VerifyReport(fingerprint.MATCH, 1, [7], [(3, 3)], Fraction(1, 7))
    assert report.length_mismatch is False and report.matched
    assert not report._replace(verdict=fingerprint.MISMATCH).matched
    assert route.RunStats(3, (1, 2), (0, 2), 1).phase1_steps is None
    assert ramsey.AnnealConfig() == (None, 0.995, None, 10**7, 1000)
    assert ramsey.AnnealConfig().validate() is None
    assert not factor.FactorOutcome(None, 3, 100).found
    assert factor.FactorOutcome(5, 3, 100).found
    verdict = primality.PrimalityVerdict(primality.PROBABLY_PRIME, 2, Fraction(1, 16))
    assert verdict.is_probably_prime
    assert not verdict._replace(answer=primality.COMPOSITE).is_probably_prime
    assert not ramsey.AnnealOutcome(None, 10, 0, 2).found
    assert ramsey.AnnealOutcome(ramsey.GraphColoring(2), 10, 0, 0).found
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        ramsey.AnnealConfig(**{"bogus": 1})
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    argv = ["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3", "--config", str(cfg)]
    assert main(argv, stdout=io.StringIO()) == 2
    assert capsys.readouterr().err == ("error: bad --config: AnnealConfig.__new__() got an "
                                       "unexpected keyword argument 'bogus'\n")
