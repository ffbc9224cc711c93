"""Fuzzing of the parsers that read input from outside the program.

Each property says what the CLI needs for a clean exit: a parser returns a
value or raises ValueError (exit 2 with a one-line message), never another
exception (a traceback) and never RuntimeError (exit 3).  The server side of
the fingerprint protocol raises nothing at all: every request line gets a
reply.  The file readers are driven through ``cli.main`` itself: any file
content ends in exit 0, 1 or 2 with at most one stderr line.
``derandomize`` makes every run try the same examples.
"""

import contextlib
import io
import json
import os
import struct
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from randlab import cli, mphf, ramsey
from randlab.fingerprint import LocalOracle, serve_oracle
from randlab.natnum import parse_natural
from randlab.rng import SplitMix64

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)
# Each example of a file reader writes files and makes one cli.main call.
FUZZ_FILES = settings(FUZZ, max_examples=60)

DOC = LocalOracle(b"hello world")

# Spellings that int() reads as a number but the strict grammar refuses:
# a sign, underscores, and non-ASCII digits (Arabic-Indic, fullwidth,
# superscript).
NOT_NATURALS = ["1_000", "+5", "0x_ff", "\u0667", "\u0661\u0662\u0663", "0x", "0X+1",
                "\uff15", "\u00b9", "0b101", "1e3"]

# Tokens near the edges of what a request may carry, mixed with any text.
TOKENS = st.one_of(
    st.sampled_from(["Q", "L", "R", "E", "0", "1", "2", "7", "11", "12", "101", "-1", "x",
                     "0x10", "1e3", "2000000011", "9" * 40] + NOT_NATURALS),
    st.integers().map(str),
    st.text(min_size=1, max_size=8),
)


def parses_or_value_error(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return None


@FUZZ
@given(st.lists(st.lists(TOKENS, max_size=5), max_size=8))
def test_serve_oracle_answers_every_request(requests):
    # Lines that start like a request (Q or L) never end the session, so the
    # valid query after them is answered too.
    lines = ["%s %s" % (head, " ".join(rest))
             for head, rest in zip(["Q", "L"] * 4, requests)]
    lines = [ln for ln in lines if "\n" not in ln and "\r" not in ln]
    out = io.StringIO()
    served = serve_oracle(DOC, io.StringIO("".join(ln + "\n" for ln in lines) + "Q 0 11 101\n"),
                          out)
    replies = out.getvalue().splitlines()
    assert len(replies) == len(lines) + 1
    assert all(r[:2] in ("R ", "L ", "E ") for r in replies)
    assert replies[-1] == "R %d" % DOC.residue(0, 11, 101)
    assert served == sum(r.startswith("R ") for r in replies)


@FUZZ
@given(st.text(max_size=200))
def test_serve_oracle_never_raises(text):
    serve_oracle(DOC, io.StringIO(text), io.StringIO())


@FUZZ
@given(st.text(max_size=40))
def test_parse_natural_returns_natural_or_value_error(text):
    value = parses_or_value_error(parse_natural, text)
    assert value is None or value >= 0 and text.strip().isascii()


def run_cli(argv):
    """(exit code, stderr) of one cli.main call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, stdout=io.StringIO())
    return code, err.getvalue()


def assert_clean_exit(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2), err
    assert err == "" or err.endswith("\n") and err.count("\n") == 1, err
    assert code != 2 or err, "exit 2 with no reason"
    return code


def test_strict_grammar_refuses_int_spellings_on_argv_and_wire(tmp_path):
    def refused(argv):
        code, err = run_cli(argv)
        return (code == 2 and err.startswith("error: not a decimal or 0x-hex natural: ")
                and err.count("\n") == 1)

    def perm_file_refused(text):
        (tmp_path / "perm").write_text(text)
        return refused(["route", "sim", "--d", "2", "--perm", "file:%s" % (tmp_path / "perm")])

    def graph_file_refused(text):
        folder = tmp_path / ("graphs%d" % len(os.listdir(tmp_path)))
        folder.mkdir()
        (folder / "g").write_text(text)
        return refused(["ramsey", "census", "--dir", str(folder)])

    for token in NOT_NATURALS:
        code, err = run_cli(["prime", "test", token])
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, token
        for request in ("Q %s 1 7", "Q 0 %s 7", "Q 0 1 %s"):
            out = io.StringIO()
            assert serve_oracle(DOC, io.StringIO(request % token + "\n"), out) == 0
            assert out.getvalue().startswith("E ") and out.getvalue().count("\n") == 1
        # The --perm file: labels and census graph texts, read from files.
        assert perm_file_refused("%s\n0\n1\n2\n" % token), token
        for text in ("%s\n", "2\n%s: 1\n", "2\n0: %s\n"):
            assert graph_file_refused(text % token), (text, token)
    # int() read each of these as a number.
    assert perm_file_refused("+0\n\u0663\n0_2\n1\n")
    assert graph_file_refused("+2\n\u0660: +1\n")
    # Integer options take the same grammar, refused as argparse usage errors.
    for token in NOT_NATURALS + ["\u0663", "+3", "1_0", "\u0665", "-1"]:
        for argv in (["prime", "test", "7", "--rounds", token],
                     ["route", "sim", "--d", token],
                     ["ramsey", "exhaustive", "--n", token, "--s", "3", "--t", "3"],
                     ["prime", "test", "7", "--seed", token]):
            code, err = run_cli(argv)
            assert code == 2 and "invalid natural value: %r" % token in err, (argv, err)
    # --ratio takes ASCII digits, a fraction and an exponent (so 1e3 is a ratio);
    # float() took the rest.
    for token in [t for t in NOT_NATURALS if t != "1e3"] + ["\u0663", "3_0", "+3", "-3", "3.",
                                                            ".5", "Infinity", "0x3"]:
        code, err = run_cli(["mphf", "build", "words.txt", "-o", "f.chm", "--ratio", token])
        assert code == 2 and "invalid ratio value: %r" % token in err, (token, err)


GRAPH_LINE = st.one_of(
    st.builds("{}: {}".format, st.integers(-3, 30),
              st.lists(st.integers(-3, 30), max_size=6).map(lambda vs: " ".join(map(str, vs)))),
    st.text(max_size=12),
)


@FUZZ
@given(st.one_of(st.integers(-5, 40), st.sampled_from([10**6, 10**18]), st.text(max_size=6)),
       st.lists(GRAPH_LINE, max_size=8))
def test_graph_from_text_returns_graph_or_value_error(count, lines):
    text = "\n".join([str(count)] + lines)
    g = parses_or_value_error(ramsey.graph_from_text, text)
    if g is not None:
        assert 1 <= g.n <= ramsey.MAX_VERTICES
        ramsey.canonical_form(g)


VALID_CHM = mphf.serialize(mphf.build([b"ab", b"c", b"de"], 3.0, SplitMix64(1))[0])


@FUZZ
@given(st.lists(st.tuples(st.integers(0, len(VALID_CHM) - 1), st.integers(0, 255)), max_size=4),
       st.one_of(st.none(), st.tuples(st.sampled_from([5, 13, 21]), st.integers(0, 2**64 - 1))),
       st.integers(-8, 8))
def test_deserialize_returns_function_or_value_error(flips, header, resize):
    fn = parses_or_value_error(mphf.deserialize, mutated_chm(flips, header, resize))
    if fn is not None:
        assert 0 <= mphf.query(fn, b"c"[:fn.max_word_len]) < fn.m


def mutated_chm(flips, header, resize):
    """VALID_CHM with bytes overwritten, one header field set, then cut or padded."""
    data = bytearray(VALID_CHM)
    for offset, byte in flips:
        data[offset] = byte
    if header is not None:  # m, n or max word length set to any 64-bit value
        struct.pack_into("<Q", data, header[0], header[1])
    return bytes(data[:len(data) + resize]) if resize < 0 else bytes(data) + b"\0" * resize


WORDS = st.one_of(
    st.sampled_from([b"", b"a", b"a\0b", b"x\r", b"\r", b"\0", b"caf\xe9", b"\xff\xfe",
                     b"w" * mphf.MAX_WORD_LEN, b"w" * (mphf.MAX_WORD_LEN + 1)]),
    st.binary(max_size=6))


@FUZZ_FILES
@given(st.lists(WORDS, max_size=10), st.sampled_from([b"\n", b"\r\n"]))
@example([b"a", b"b", b"a"], b"\n")  # a duplicate
@example([b"a\0b", b"x\r", b"caf\xe9", b"w" * mphf.MAX_WORD_LEN], b"\r\n")  # builds
def test_mphf_word_lists_exit_cleanly(words, eol):
    # A list that builds also verifies, through the same word-list reader.
    with tempfile.TemporaryDirectory() as folder:
        write_files(folder, [eol.join(words)])
        wordlist, chm = os.path.join(folder, "f0"), os.path.join(folder, "f.chm")
        code = assert_clean_exit(["mphf", "build", wordlist, "-o", chm])
        if code == 0:
            assert run_cli(["mphf", "verify", chm, wordlist]) == (0, "")


@FUZZ_FILES
@given(st.lists(st.tuples(st.integers(0, len(VALID_CHM) - 1), st.integers(0, 255)), max_size=4),
       st.one_of(st.none(), st.tuples(st.sampled_from([5, 13, 21]), st.integers(0, 2**64 - 1))),
       st.integers(-40, 40))
@example([], (5, 2**63), 0)  # a header that claims a huge m
@example([], (13, 2**63), 0)  # or a huge n
@example([], None, 8 * 2**20)  # 8 MiB of trailing bytes
def test_mphf_function_files_exit_cleanly(flips, header, resize):
    with tempfile.TemporaryDirectory() as folder:
        write_files(folder, [mutated_chm(flips, header, resize), b"ab\nc\nde\n"])
        chm = os.path.join(folder, "f0")
        assert_clean_exit(["mphf", "query", chm, "c"])
        assert_clean_exit(["mphf", "verify", chm, os.path.join(folder, "f1")])


# JSON nested past the interpreter's recursion limit: json.load raises
# RecursionError, a RuntimeError, which once ended in exit 3.
DEEP_JSON = b"[" * 200_000

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
CONFIG_FIELDS = st.sampled_from(["initial_temperature", "cooling", "steps_per_temperature",
                                 "max_total_steps", "restarts", "bogus"])


def write_files(folder, contents):
    for i, data in enumerate(contents):
        with open(os.path.join(folder, "f%d" % i), "wb") as fh:
            fh.write(data)


def test_deep_config_exits_two_with_one_line(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_bytes(DEEP_JSON)
    code, err = run_cli(["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3",
                         "--config", str(cfg)])
    assert code == 2
    assert err.startswith("error: bad --config: maximum recursion depth exceeded")
    assert err.count("\n") == 1


@FUZZ_FILES
@given(st.one_of(st.dictionaries(CONFIG_FIELDS, JSON_VALUES, max_size=4).map(json.dumps),
                 JSON_VALUES.map(json.dumps), st.text(max_size=30)).map(str.encode)
       | st.binary(max_size=30))
@example(DEEP_JSON)
@example(b'{"a\\nb": 1}')  # an unknown key that holds a line break
def test_anneal_config_file_exits_cleanly(data):
    # At n = 3 every graph but K3 and its complement is a solution, and one
    # downhill flip leaves either, so no schedule can make a run long.
    with tempfile.TemporaryDirectory() as folder:
        write_files(folder, [data])
        assert_clean_exit(["ramsey", "anneal", "--n", "3", "--s", "3", "--t", "3",
                           "--config", os.path.join(folder, "f0")])


GRAPH_TEXT = st.builds(lambda count, lines: "\n".join([str(count)] + lines).encode(),
                       st.integers(-2, 26), st.lists(GRAPH_LINE, max_size=6))


@FUZZ_FILES
@given(st.lists(GRAPH_TEXT | st.binary(max_size=20), max_size=3))
def test_census_graph_files_exit_cleanly(contents):
    with tempfile.TemporaryDirectory() as folder:
        write_files(folder, contents)
        assert_clean_exit(["ramsey", "census", "--dir", folder])


PERM_LINE = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(NOT_NATURALS),
                      st.text(max_size=70))


@FUZZ_FILES
@given(st.permutations(range(8)).map(lambda p: "\n".join(map(str, p)))
       | st.lists(PERM_LINE, max_size=10).map("\n".join))
def test_route_permutation_file_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as folder:
        write_files(folder, [text.encode()])
        assert_clean_exit(["route", "sim", "--d", "3", "--perm",
                           "file:" + os.path.join(folder, "f0")])
