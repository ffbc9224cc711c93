"""Fuzzing of the parsers that read input from outside the program.

Each property says what the CLI needs for a clean exit: a parser returns a
value or raises ValueError (exit 2 with a one-line message), never another
exception (a traceback) and never RuntimeError (exit 3).  The server side of
the fingerprint protocol raises nothing at all: every request line gets a
reply.  ``derandomize`` makes every run try the same examples.
"""

import io
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from randlab import mphf, ramsey
from randlab.fingerprint import Document, serve_oracle
from randlab.natnum import parse_natural
from randlab.rng import SplitMix64

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

DOC = Document(b"hello world")

# Tokens near the edges of what a request may carry, mixed with any text.
TOKENS = st.one_of(
    st.sampled_from(["Q", "L", "R", "E", "0", "1", "2", "7", "11", "12", "101", "-1", "x",
                     "0x10", "1e3", "2000000011", "9" * 40]),
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
    assert replies[-1] == "R %d" % DOC.residue(101)
    assert served == sum(r.startswith("R ") for r in replies)


@FUZZ
@given(st.text(max_size=200))
def test_serve_oracle_never_raises(text):
    serve_oracle(DOC, io.StringIO(text), io.StringIO())


@FUZZ
@given(st.text(max_size=40))
def test_parse_natural_returns_natural_or_value_error(text):
    value = parses_or_value_error(parse_natural, text)
    assert value is None or value >= 0


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
    data = bytearray(VALID_CHM)
    for offset, byte in flips:
        data[offset] = byte
    if header is not None:  # m, n or max word length set to any 64-bit value
        struct.pack_into("<Q", data, header[0], header[1])
    data = bytes(data[:len(data) + resize]) if resize < 0 else bytes(data) + b"\0" * resize
    fn = parses_or_value_error(mphf.deserialize, data)
    if fn is not None:
        assert 0 <= mphf.query(fn, b"c"[:fn.max_word_len]) < fn.m
