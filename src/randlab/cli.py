"""Command-line front end.

Each ``_cmd_*`` handler returns ``(result, exit_code)``; ``main`` alone
writes one JSON document, a manifest (subcommand, argv, seed, version,
timestamps) next to the result, so a run can be replayed bit-for-bit from
its own output.  It goes to stdout, or to stderr under ``--remote -``, where
stdout is the wire.  ``fingerprint serve`` writes none.  Diagnostics go to
stderr.

Exit codes, each with its stderr prefix, are picked by ``main`` alone from the
exception type: 0 success, 1 negative verdict (composite / mismatch /
not-found) or SearchExhausted, 2 usage error, ValueError or OSError
(TransportError among them), 3 any other RuntimeError (a broken invariant).

Importing this module runs no library module and builds no parser, so a
one-shot call pays only for what its subcommand uses.  The library modules
are registered lazily (``importlib.util.LazyLoader``): each runs at its first
attribute access.  ``_describe`` holds the one description of the arguments,
and only a leaf's own parser takes them: ``main`` builds it when the first two
words name that subcommand, so an argument the subcommand does not take is
reported with its own usage line.  Help, an unknown command and fewer than two
words build the command directory instead (the groups and subcommands with
their help lines), which prints help or a usage error and runs no handler.
Each parser is built on first use and kept, so a process that calls ``main``
many times builds each once.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import re
import sys
from datetime import datetime, timezone
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, islice, repeat
from operator import ne

from . import SearchExhausted, __version__
from .natnum import parse_natural
from .rng import SplitMix64, derive_stream


def _lazy(name: str):
    """Library module randlab.<name>, registered in sys.modules (and on the
    package) as an import would, but run at its first attribute access
    (importlib.util.LazyLoader) unless it has run.  The benchmark's tracer needs
    the entry: it reads sys.modules["randlab.<name>"] right after the import."""
    full = "%s.%s" % (__package__, name)
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


factor, fingerprint, mphf, primality, ramsey, route = map(
    _lazy, ("factor", "fingerprint", "mphf", "primality", "ramsey", "route"))

# Longest census graph text or --config file read, in characters: far past
# any real one (a 24-vertex graph text is under 2 KB, an AnnealConfig object a
# few hundred bytes), while a hostile file costs no memory that grows with it.
MAX_TEXT_FILE_CHARS = 256 * 1024

# Longest mphf word list read, in bytes: 2^16 words of 63 bytes; split into
# two-byte words, a list at the cap takes 70 MiB (tracemalloc).
MAX_WORDLIST_BYTES = 4 * 1024 * 1024

# Longest route sim --perm file: line, in characters: a label has at most 5
# digits (route.MAX_DIMENSION = 16), and a line is read no further than one
# character past the cap, so a hostile file costs no memory that grows with it.
MAX_PERM_LINE_CHARS = 64

# SplitMix64 keeps a seed's low 64 bits, so a larger seed would replay another.
MAX_SEED = 2**64 - 1

# --ratio: ASCII digits, an optional fraction and an optional exponent.  The
# float spellings inf and nan also pass, for mphf.build to refuse as not finite.
_RATIO = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|inf|nan")


def _probability(value) -> str:
    """Decimal string with 12 significant digits, exact-rational friendly."""
    with localcontext() as ctx:
        ctx.prec = 12
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            d = Decimal(repr(float(value)))
        return str(+d).lower()


def natural(text: str) -> int:
    """parse_natural as an argparse type: a bad spelling is a usage error
    that names the option, as for any other type."""
    return parse_natural(text)


def natural_at_most(limit: int):
    """natural as an argparse type that also refuses a value past ``limit``."""
    def natural(text: str) -> int:  # argparse names a bad spelling by this name
        value = parse_natural(text)
        if value > limit:
            raise argparse.ArgumentTypeError("must be at most %d" % limit)
        return value
    return natural


def ratio(text: str) -> float:
    """The --ratio grammar as an argparse type; any other spelling is a usage error."""
    if not _RATIO.fullmatch(text.strip()):
        raise ValueError(text)
    return float(text)


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=natural_at_most(MAX_SEED), default=0,
                        help="64-bit seed in [0, 2^64 - 1]; default 0 (deterministic by default)")


# Help of each command group, in the order the full parser lists them.
_GROUPS = {
    "prime": "primality testing",
    "fingerprint": "remote document comparison",
    "factor": "integer factorization",
    "mphf": "minimal perfect hashing",
    "route": "hypercube routing simulator",
    "ramsey": "clique/independent-set-free graphs",
}


def _describe(leaf) -> None:
    """The arguments of every leaf parser, in the order the directory lists them.

    ``leaf(command, subcommand, **kw)`` returns the parser that takes the
    leaf's arguments (``kw`` holds its help line, if any), or None to skip
    them; so building one leaf runs only its own part, and reads only the
    defaults that part names.
    """
    if p := leaf("prime", "test", help="probabilistic primality test"):
        p.add_argument("n")
        p.add_argument("--rounds", type=natural, default=10)
        _add_seed(p)
    if p := leaf("prime", "witness-density",
                 help="single-round pass rate, exact from n's factorization"):
        p.add_argument("n")
    if p := leaf("prime", "random", help="random prime in an open interval"):
        p.add_argument("--lo", required=True)
        p.add_argument("--hi", required=True)
        p.add_argument("--rounds", type=natural, default=24,
                       help="random-base rounds for a candidate of 2^64 or more; below 2^64 "
                            "every prime is decided exactly")
        _add_seed(p)

    for name in ("verify", "localize"):
        if p := leaf("fingerprint", name):
            p.add_argument("local", help="local document file")
            p.add_argument("--remote", required=True,
                           help="remote document file, or '-' to speak the text protocol on stdio")
            if name == "verify":
                p.add_argument("--rounds", type=natural, default=10)
            else:
                p.add_argument("--rounds-per-probe", type=natural, default=3)
            p.add_argument("--prime-lo", default=str(fingerprint.DEFAULT_PRIME_LO))
            p.add_argument("--prime-hi", default=str(fingerprint.DEFAULT_PRIME_HI))
            _add_seed(p)
    if p := leaf("fingerprint", "serve", help="answer residue queries for a file on stdio"):
        p.add_argument("document")

    if p := leaf("factor", "pm1", help="Pollard p-1, stage 1"):
        p.add_argument("N")
        p.add_argument("--bound", type=natural, required=True)
    if p := leaf("factor", "ecm", help="elliptic curve method, stage 1"):
        p.add_argument("N")
        p.add_argument("--b1", type=natural, required=True)
        p.add_argument("--curves", type=natural, default=100)
        _add_seed(p)

    if p := leaf("mphf", "build"):
        p.add_argument("wordlist", help="file with one word per line")
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--ratio", type=ratio, default=3.0)
        _add_seed(p)
    if p := leaf("mphf", "query"):
        p.add_argument("function", help=".chm file")
        p.add_argument("word")
    if p := leaf("mphf", "verify"):
        p.add_argument("function")
        p.add_argument("wordlist")

    if p := leaf("route", "sim"):
        p.add_argument("--d", type=natural, required=True)
        p.add_argument("--perm", default="bitrev",
                       help="bitrev | identity | random | file:<path>")
        p.add_argument("--algo", choices=("greedy", "valiant"), default="greedy")
        p.add_argument("--phase-barrier", action="store_true",
                       help="synchronize the two valiant phases globally")
        p.add_argument("--trials", type=natural, default=1,
                       help="independent trials on derived seed streams")
        _add_seed(p)

    for name in ("anneal", "exhaustive"):
        if p := leaf("ramsey", name):
            p.add_argument("--n", type=natural, required=True)
            p.add_argument("--s", type=natural, required=True)
            p.add_argument("--t", type=natural, required=True)
            if name == "anneal":
                p.add_argument("--config", help="JSON file with AnnealConfig fields")
                p.add_argument("-o", "--graph-out", help="also write the graph text to a file")
                _add_seed(p)
    if p := leaf("ramsey", "census"):
        p.add_argument("--dir", required=True, help="directory of graph text files")


# (command, subcommand) of every leaf; listing them builds no parser.
LEAVES = []
_describe(lambda *key, **kw: LEAVES.append(key))


@functools.cache
def _parser(key: tuple[str, str] | None) -> argparse.ArgumentParser:
    """Leaf ``key``'s parser, or (key None) the command directory: the groups
    and, in each, its leaves with their help lines but none of their arguments."""
    if key is not None:
        parser = argparse.ArgumentParser(prog="randlab %s %s" % key)
        _describe(lambda *name, **kw: parser if name == key else None)
        return parser
    parser = argparse.ArgumentParser(prog="randlab", description="randomized-algorithms workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {command: sub.add_parser(command, help=help).add_subparsers(dest="subcommand",
                                                                         required=True)
              for command, help in _GROUPS.items()}
    _describe(lambda command, name, **kw: groups[command].add_parser(name, **kw) and None)
    return parser


def _cmd_prime(args, stdout) -> tuple[dict | None, int]:
    if args.subcommand == "test":
        verdict = primality.is_probable_prime(parse_natural(args.n), args.rounds,
                                              SplitMix64(args.seed))
        return {
            "answer": verdict.answer,
            "rounds": verdict.rounds_used,
            "error_bound": _probability(verdict.error_bound),
        }, 0 if verdict.is_probably_prime else 1
    if args.subcommand == "witness-density":
        density = primality.witness_density(parse_natural(args.n))
        return {
            "density": "%d/%d" % (density.numerator, density.denominator),
            "density_decimal": _probability(density),
            "below_quarter": density < Fraction(1, 4),
        }, 0
    prime = primality.random_prime_in(parse_natural(args.lo), parse_natural(args.hi),
                                      args.rounds, SplitMix64(args.seed))
    return {"prime": str(prime)}, 0


def _cmd_fingerprint(args, stdout) -> tuple[dict | None, int]:
    if args.subcommand == "serve":
        served = fingerprint.serve_oracle(fingerprint.LocalOracle.from_file(args.document),
                                          sys.stdin, stdout)
        print("served %d queries" % served, file=sys.stderr)
        return None, 0
    # Refuse a past-cap round count or prime interval before reading either
    # document.
    rounds_arg = "rounds" if args.subcommand == "verify" else "rounds_per_probe"
    primality.check_rounds(rounds_arg, getattr(args, rounds_arg))
    lo, hi = parse_natural(args.prime_lo), parse_natural(args.prime_hi)
    primality.check_prime_interval(lo, hi)
    rng = SplitMix64(args.seed)
    local = fingerprint.LocalOracle.from_file(args.local)
    oracle = (fingerprint.StreamOracle(sys.stdin, sys.stdout) if args.remote == "-"
              else fingerprint.LocalOracle.from_file(args.remote))
    if args.subcommand == "verify":
        report = fingerprint.verify(local, oracle, args.rounds, rng, lo, hi)
        return {
            "verdict": report.verdict,
            "rounds": report.rounds,
            "primes_used": [str(p) for p in report.primes_used],
            "residue_pairs": [[str(a), str(b)] for a, b in report.per_round_residue_pairs],
            "false_positive_bound": _probability(report.false_positive_bound),
            "length_mismatch": report.length_mismatch,
        }, 0 if report.matched else 1
    ranges = fingerprint.localize(local, oracle, args.rounds_per_probe, rng, lo, hi)
    return {"corrupted_ranges": [{"offset": off, "length": ln} for off, ln in ranges]}, 0


def _cmd_factor(args, stdout) -> tuple[dict | None, int]:
    N = parse_natural(args.N)
    if args.subcommand == "pm1":
        outcome = factor.pollard_pm1(N, args.bound)
    else:
        outcome = factor.ecm_stage1(N, args.b1, args.curves, SplitMix64(args.seed))
    result = {
        "found": outcome.found,
        "divisor": str(outcome.divisor) if outcome.found else None,
        "cofactor": str(N // outcome.divisor) if outcome.found else None,
        "trials": outcome.trials,
        "smoothness_bound": outcome.smoothness_bound,
    }
    if args.subcommand == "ecm":
        result["curves_tried"] = outcome.trials
    return result, 0 if outcome.found else 1


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``, read no further than MAX_TEXT_FILE_CHARS + 1."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(MAX_TEXT_FILE_CHARS + 1)
    if len(text) > MAX_TEXT_FILE_CHARS:
        raise ValueError("%s must be at most %d characters" % (what, MAX_TEXT_FILE_CHARS))
    return text


def _read_wordlist(path: str) -> list[bytes]:
    """The file's lines, each without its trailing CRs and LFs; empty ones dropped."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_WORDLIST_BYTES + 1)
    if len(data) > MAX_WORDLIST_BYTES:
        raise ValueError("word list must be at most %d bytes" % MAX_WORDLIST_BYTES)
    lines = data.split(b"\n")
    return list(filter(None, map(bytes.rstrip, lines, repeat(b"\r\n"))))


def _cmd_mphf(args, stdout) -> tuple[dict | None, int]:
    if args.subcommand == "build":
        words = _read_wordlist(args.wordlist)
        fn, report = mphf.build(words, args.ratio, SplitMix64(args.seed))
        with open(args.output, "wb") as fh:
            fh.write(mphf.serialize(fn))
        return {
            "m": fn.m, "n": fn.n, "max_word_len": fn.max_word_len,
            "trials": report.trials,
            "elapsed_seconds": report.elapsed_seconds,
            "output": args.output,
        }, 0
    with open(args.function, "rb") as fh:
        fn = mphf.load(fh)
    if args.subcommand == "query":
        # The word's bytes as the OS passed them, as a word list file holds them.
        return {"index": mphf.query(fn, os.fsencode(args.word))}, 0
    words = _read_wordlist(args.wordlist)
    # A word past the build maximum is not hashed, so the lengths differ; only
    # then is the list copied without it.
    fits = (words if max(map(len, words), default=0) <= fn.max_word_len
            else [w for w in words if len(w) <= fn.max_word_len])
    hashed = mphf.query_many(fn, fits)
    bad = []
    if len(hashed) != len(words) or any(map(ne, hashed, count())):
        # Only a failure walks the words, and only to the 20th bad index.
        rest = iter(hashed)
        bad = list(islice((j for j, w in enumerate(words)
                           if len(w) > fn.max_word_len or next(rest) != j), 20))
    return {"words": len(words), "mismatches": bad, "ok": not bad}, 0 if not bad else 1


def _load_permutation(kind: str, d: int) -> list[int]:
    """The fixed permutation ``kind`` names: any but "random"."""
    N = 1 << d
    if kind == "bitrev":
        return route.bit_reversal(d)
    if kind == "identity":
        return list(range(N))
    if kind.startswith("file:"):
        # One label a line; read no more than one label past N.
        perm, number = [], 0
        with open(kind[5:], "r", encoding="utf-8") as fh:
            while line := fh.readline(MAX_PERM_LINE_CHARS + 1):
                number += 1
                if len(line) > MAX_PERM_LINE_CHARS:
                    raise ValueError("--perm file lines must be at most %d characters"
                                     % MAX_PERM_LINE_CHARS)
                if line.strip():
                    if len(perm) == N:
                        raise ValueError("--perm file holds more than %d labels" % N)
                    try:
                        perm.append(parse_natural(line.rstrip("\n")))
                    except ValueError as exc:
                        raise ValueError("--perm file line %d: %s" % (number, exc)) from None
        return perm
    raise ValueError("unknown permutation %r" % kind)


def _cmd_route(args, stdout) -> tuple[dict | None, int]:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.trials > route.MAX_TRIALS:
        raise ValueError("--trials must be <= %d" % route.MAX_TRIALS)
    route.check_dimension(args.d)  # before any permutation is built
    # Only a random permutation and two-phase routing draw per trial.  With
    # neither, trial 0's run stands for all, and the work cap counts it once.
    drawless = args.perm != "random" and args.algo == "greedy"
    work = (1 if drawless else args.trials) * args.d << args.d
    if work > route.MAX_ROUTE_WORK:
        raise ValueError("simulations * d * 2**d = %d must be at most %d"
                         % (work, route.MAX_ROUTE_WORK))
    fixed = None if args.perm == "random" else _load_permutation(args.perm, args.d)
    rows = []
    for trial in range(args.trials):
        rng = derive_stream(args.seed, trial)
        perm = fixed if fixed is not None else route.random_permutation(args.d, rng)
        if not (drawless and trial):  # else trial 0's stats stand
            stats = (route.run_valiant(args.d, perm, rng, phase_barrier=args.phase_barrier)
                     if args.algo == "valiant" else route.run_oblivious(args.d, perm))
        rows.append({
            "trial": trial,
            "d": args.d,
            "algo": args.algo,
            "seed": args.seed,
            "total_steps": stats.total_steps,
            "max_vertex_throughput": {"vertex": stats.max_vertex_throughput[0],
                                      "packets": stats.max_vertex_throughput[1]},
            "max_queue_depth": stats.max_queue_depth,
            "phase1_steps": stats.phase1_steps,
        })
    steps = [r["total_steps"] for r in rows]
    return {
        "trials": rows,
        "summary": {
            "runs": len(rows),
            "max_total_steps": max(steps),
            "mean_total_steps": _probability(sum(steps) / len(steps)),
        },
    }, 0


def _cmd_ramsey(args, stdout) -> tuple[dict | None, int]:
    if args.subcommand == "anneal":
        cfg = ramsey.AnnealConfig()
        if args.config:
            try:
                fields = json.loads(_read_text(args.config, "--config file"))
            except RecursionError as exc:  # nesting past the stack: bad input
                raise ValueError("bad --config: %s" % exc) from None
            try:
                cfg = ramsey.AnnealConfig(**fields)
            except TypeError as exc:  # not an object, or an unknown key
                # The message quotes an unknown key as is, line breaks and all.
                raise ValueError("bad --config: %s" % " ".join(str(exc).splitlines())) from None
        outcome = ramsey.anneal(args.n, args.s, args.t, cfg, SplitMix64(args.seed))
        graph_text = ramsey.graph_to_text(outcome.graph) if outcome.found else None
        if args.graph_out and outcome.found:
            with open(args.graph_out, "w", encoding="utf-8") as fh:
                fh.write(graph_text)
        return {
            "found": outcome.found,
            "graph": graph_text,
            "steps": outcome.steps,
            "restarts_used": outcome.restarts_used,
            "best_energy": outcome.best_energy,
        }, 0 if outcome.found else 1
    if args.subcommand == "exhaustive":
        # Only the count and the least mask's graph are printed, so no other
        # graph is built.
        count, least = 0, None
        for mask in ramsey.solution_masks(args.n, args.s, args.t):
            count += 1
            least = mask if least is None else min(least, mask)
        sample = None if least is None else ramsey.graph_to_text(ramsey.mask_graph(args.n, least))
        return {"count": count, "exists": bool(count), "sample": sample}, 0 if count else 1
    forms = set()
    files = sorted(os.listdir(args.dir))
    for name in files:
        what = "census graph file %r" % name
        text = _read_text(os.path.join(args.dir, name), what)
        try:
            forms.add(ramsey.canonical_form(ramsey.graph_from_text(text)))
        except ValueError as exc:
            raise ValueError("%s: %s" % (what, exc)) from None
    runs, distinct = len(files), len(forms)
    return {
        "runs": runs,
        "distinct": distinct,
        "confidence": _probability(ramsey.census_confidence(distinct, runs))
        if runs else None,
    }, 0


_HANDLERS = {
    "prime": _cmd_prime,
    "fingerprint": _cmd_fingerprint,
    "factor": _cmd_factor,
    "mphf": _cmd_mphf,
    "route": _cmd_route,
    "ramsey": _cmd_ramsey,
}


def main(argv: list[str] | None = None, stdout=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    stdout = stdout or sys.stdout
    key = tuple(argv[:2])
    try:
        if key in LEAVES:
            args = _parser(key).parse_args(argv[2:])
        else:  # help, an unknown command or fewer than two words
            directory = _parser(None)
            # It takes no leaf argument, so it prints help or a usage error; a
            # leaf reached past a "--" that newer Pythons drop is refused too.
            args = directory.parse_args(argv)
            directory.error("the subcommand must come first: randlab %s %s ..."
                            % (args.command, args.subcommand))
        args.command, args.subcommand = key
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = datetime.now(timezone.utc).isoformat()
    try:
        result, code = _HANDLERS[args.command](args, stdout)
        if result is not None:
            manifest = {
                "subcommand": "%s.%s" % (args.command, args.subcommand),
                "argv": argv,
                "seed": getattr(args, "seed", 0),
                "version": __version__,
                "started": started,
                "finished": datetime.now(timezone.utc).isoformat(),
            }
            # Under --remote -, stdout is the wire to the peer.
            out = sys.stderr if getattr(args, "remote", None) == "-" else stdout
            json.dump({"manifest": manifest, "result": result}, out, indent=2, sort_keys=True)
            out.write("\n")
        return code
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SearchExhausted as exc:
        print("search exhausted: %s" % exc, file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
