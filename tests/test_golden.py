"""Golden result documents: one pinned CLI run per subcommand.

Each case runs ``randlab.cli.main`` at a fixed seed inside a directory of
generated inputs named by relative paths, so neither ``argv`` nor any output
path carries a temporary directory.  The masked stdout (see ``replay``) must
equal the pinned document byte for byte, rendered the way the CLI renders
it, and the exit code must match.

The test never writes.  To re-pin after a change that is meant to alter
replayed output, run this module as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It prints, for each case, whether the document changed and whether only
``manifest.version`` did.
"""

import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from randlab.cli import main as cli_main
from replay import normalize

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "prime-test-small": ["prime", "test", "1000003", "--rounds", "12", "--seed", "21"],
    "prime-test-m521": ["prime", "test", str(2**521 - 1), "--rounds", "10", "--seed", "5"],
    "prime-random": ["prime", "random", "--lo", "1000000000", "--hi", "2000000000",
                     "--seed", "3"],
    # Candidates above 2**64: each Miller-Rabin base is drawn below n - 2 > 2**64,
    # two words per try.
    "prime-random-wide": ["prime", "random", "--lo", "0x10000000000000000",
                          "--hi", "0x20000000000000000", "--seed", "3"],
    "prime-witness-density": ["prime", "witness-density", "561"],
    "fingerprint-verify": ["fingerprint", "verify", "a.bin", "--remote", "a-copy.bin",
                           "--rounds", "4", "--seed", "14"],
    "fingerprint-localize": ["fingerprint", "localize", "a.bin", "--remote", "b.bin",
                             "--seed", "15"],
    "factor-pm1": ["factor", "pm1", "4294967297", "--bound", "128"],
    "factor-ecm-small": ["factor", "ecm", "2761103", "--b1", "100", "--curves", "80",
                         "--seed", "7"],
    "factor-ecm-40bit": ["factor", "ecm", str(1000003 * 1048601), "--b1", "200",
                         "--curves", "500", "--seed", "4"],
    "mphf-build": ["mphf", "build", "words.txt", "-o", "f.chm", "--seed", "4"],
    "mphf-query": ["mphf", "query", "f.chm", "w0123"],
    "mphf-verify": ["mphf", "verify", "f.chm", "words.txt"],
    "route-sim-greedy": ["route", "sim", "--d", "6", "--perm", "bitrev", "--algo", "greedy"],
    "route-sim-valiant": ["route", "sim", "--d", "6", "--perm", "random", "--algo", "valiant",
                          "--seed", "31", "--trials", "3"],
    "route-sim-barrier": ["route", "sim", "--d", "7", "--perm", "random", "--algo", "valiant",
                          "--phase-barrier", "--seed", "9", "--trials", "3"],
    # Bit-reversal at d = 12: 64 packets funnel through vertex 0.
    "route-sim-bitrev-12": ["route", "sim", "--d", "12", "--perm", "bitrev", "--algo", "greedy"],
    "ramsey-anneal-3-3-5": ["ramsey", "anneal", "--n", "5", "--s", "3", "--t", "3",
                            "--seed", "6"],
    "ramsey-anneal-3-5-13": ["ramsey", "anneal", "--n", "13", "--s", "3", "--t", "5",
                             "--seed", "2"],
    "ramsey-exhaustive": ["ramsey", "exhaustive", "--n", "5", "--s", "3", "--t", "3"],
    "ramsey-census": ["ramsey", "census", "--dir", "graphs"],
}

# The pentagon under three labellings: one isomorphism class in three runs.
_PENTAGONS = ([0, 1, 2, 3, 4], [0, 2, 4, 1, 3], [3, 0, 4, 2, 1])


def write_inputs():
    """Create every input file the cases name, in the current directory."""
    payload = bytes((i * 131 + 7) % 256 for i in range(3000))  # not a multiple of 256
    Path("a.bin").write_bytes(payload)
    Path("a-copy.bin").write_bytes(payload)
    tampered = bytearray(payload)
    tampered[77] ^= 0x10
    tampered[2500] ^= 0x01
    Path("b.bin").write_bytes(bytes(tampered))
    Path("words.txt").write_text("".join("w%04d\n" % i for i in range(500)))
    os.mkdir("graphs")
    for k, cycle in enumerate(_PENTAGONS):
        nbrs = {v: sorted((cycle[i - 1], cycle[(i + 1) % 5]))
                for i, v in enumerate(cycle)}
        Path("graphs", "c5-%d.txt" % k).write_text(
            "5\n" + "".join("%d: %d %d\n" % (v, *nbrs[v]) for v in range(5)))
    cli_main(CASES["mphf-build"], stdout=io.StringIO())  # f.chm for query/verify


def run_case(name):
    """Exit code and masked stdout of one case, run in the current directory."""
    out = io.StringIO()
    code = cli_main(CASES[name], stdout=out)
    return code, normalize(out.getvalue())


def render(document):
    # The CLI's own rendering: json.dump(indent=2, sort_keys=True) plus "\n".
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden-inputs")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        write_inputs()
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, inputs, monkeypatch):
    pinned = json.loads((GOLDEN_DIR / (name + ".json")).read_text())
    monkeypatch.chdir(inputs)
    code, stdout = run_case(name)
    assert code == pinned["exit_code"]
    assert stdout == render(pinned["document"])


def _without_version(pinned):
    masked = json.loads(json.dumps(pinned))
    masked["document"]["manifest"].pop("version", None)
    return masked


def _change(old, new):
    """How a re-pinned case differs from the document pinned before it."""
    if old is None:
        return "new case"
    if old == new:
        return "unchanged"
    if _without_version(old) == _without_version(new):
        return "only manifest.version changed"
    return "CHANGED beyond manifest.version"


def _repin():
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_inputs()
        for name in sorted(CASES):
            code, stdout = run_case(name)
            pinned = {"exit_code": code, "document": json.loads(stdout)}
            path = GOLDEN_DIR / (name + ".json")
            old = json.loads(path.read_text()) if path.exists() else None
            path.write_text(render(pinned))
            print("pinned %s (exit %d): %s" % (name, code, _change(old, pinned)))


if __name__ == "__main__":
    _repin()
