"""Command-line front end.

Every subcommand prints one JSON document on stdout carrying a manifest
(subcommand, argv, seed, version, timestamps) next to the result, so a run
can be replayed bit-for-bit from its own output.  Diagnostics go to stderr.

Exit codes: 0 success, 1 negative domain verdict (composite / mismatch /
exhausted / not-found), 2 usage or argument error, 3 internal invariant
violation.

The argument parser is built once, when this module is imported, and every
``main`` call reuses it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat

from . import __version__, factor, fingerprint, mphf, primality, ramsey, route
from .natnum import parse_natural
from .rng import SplitMix64, derive_stream


def _probability(value) -> str:
    """Decimal string with 12 significant digits, exact-rational friendly."""
    with localcontext() as ctx:
        ctx.prec = 12
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            d = Decimal(repr(float(value)))
        return str(+d).lower()


def _manifest(subcommand: str, argv: list[str], seed: int) -> dict:
    now = datetime.now(timezone.utc).isoformat()
    return {
        "subcommand": subcommand,
        "argv": argv,
        "seed": seed,
        "version": __version__,
        "started": now,
        "finished": None,
    }


def _emit(manifest: dict, result: dict, stdout) -> None:
    manifest["finished"] = datetime.now(timezone.utc).isoformat()
    json.dump({"manifest": manifest, "result": result}, stdout,
              indent=2, sort_keys=True)
    stdout.write("\n")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="64-bit seed; default 0 (deterministic by default)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="randlab",
                                  description="randomized-algorithms workbench")
    sub = top.add_subparsers(dest="command", required=True)

    prime = sub.add_parser("prime", help="primality testing").add_subparsers(
        dest="subcommand", required=True)
    p = prime.add_parser("test", help="probabilistic primality test")
    p.add_argument("n")
    p.add_argument("--rounds", type=int, default=10)
    _add_seed(p)
    p = prime.add_parser("witness-density", help="exhaustive single-round pass rate")
    p.add_argument("n")
    p = prime.add_parser("random", help="random prime in an open interval")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--rounds", type=int, default=24)
    _add_seed(p)

    fp = sub.add_parser("fingerprint", help="remote document comparison").add_subparsers(
        dest="subcommand", required=True)
    for name in ("verify", "localize"):
        p = fp.add_parser(name)
        p.add_argument("local", help="local document file")
        p.add_argument("--remote", required=True,
                       help="remote document file, or '-' to speak the text protocol on stdio")
        if name == "verify":
            p.add_argument("--rounds", type=int, default=10)
        else:
            p.add_argument("--rounds-per-probe", type=int, default=3)
        p.add_argument("--prime-lo", default=str(fingerprint.DEFAULT_PRIME_LO))
        p.add_argument("--prime-hi", default=str(fingerprint.DEFAULT_PRIME_HI))
        _add_seed(p)
    p = fp.add_parser("serve", help="answer residue queries for a file on stdio")
    p.add_argument("document")

    fa = sub.add_parser("factor", help="integer factorization").add_subparsers(
        dest="subcommand", required=True)
    p = fa.add_parser("pm1", help="Pollard p-1, stage 1")
    p.add_argument("N")
    p.add_argument("--bound", type=int, required=True)
    p = fa.add_parser("ecm", help="elliptic curve method, stage 1")
    p.add_argument("N")
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--curves", type=int, default=100)
    _add_seed(p)

    mp = sub.add_parser("mphf", help="minimal perfect hashing").add_subparsers(
        dest="subcommand", required=True)
    p = mp.add_parser("build")
    p.add_argument("wordlist", help="file with one word per line")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ratio", type=float, default=3.0)
    _add_seed(p)
    p = mp.add_parser("query")
    p.add_argument("function", help=".chm file")
    p.add_argument("word")
    p = mp.add_parser("verify")
    p.add_argument("function")
    p.add_argument("wordlist")

    rt = sub.add_parser("route", help="hypercube routing simulator").add_subparsers(
        dest="subcommand", required=True)
    p = rt.add_parser("sim")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--perm", default="bitrev",
                   help="bitrev | identity | random | file:<path>")
    p.add_argument("--algo", choices=("greedy", "valiant"), default="greedy")
    p.add_argument("--phase-barrier", action="store_true",
                   help="synchronize the two valiant phases globally")
    p.add_argument("--trials", type=int, default=1,
                   help="independent trials on derived seed streams")
    _add_seed(p)

    rs = sub.add_parser("ramsey", help="clique/independent-set-free graphs").add_subparsers(
        dest="subcommand", required=True)
    p = rs.add_parser("anneal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--config", help="JSON file with AnnealConfig fields")
    p.add_argument("-o", "--graph-out", help="also write the graph text to a file")
    _add_seed(p)
    p = rs.add_parser("exhaustive")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p = rs.add_parser("census")
    p.add_argument("--dir", required=True, help="directory of graph text files")

    return top


# Built once, at import: a one-shot process pays for one build either way, and
# a process that calls main() many times reuses it.
PARSER = _build_parser()


def _cmd_prime(args, manifest, stdout) -> int:
    if args.subcommand == "test":
        verdict = primality.is_probable_prime(parse_natural(args.n), args.rounds,
                                              SplitMix64(args.seed))
        _emit(manifest, {
            "answer": verdict.answer,
            "rounds": verdict.rounds_used,
            "error_bound": _probability(verdict.error_bound),
        }, stdout)
        return 0 if verdict.is_probably_prime else 1
    if args.subcommand == "witness-density":
        density = primality.witness_density(parse_natural(args.n))
        _emit(manifest, {
            "density": "%d/%d" % (density.numerator, density.denominator),
            "density_decimal": _probability(density),
            "below_quarter": density < Fraction(1, 4),
        }, stdout)
        return 0
    prime = primality.random_prime_in(parse_natural(args.lo), parse_natural(args.hi),
                                      args.rounds, SplitMix64(args.seed))
    _emit(manifest, {"prime": str(prime)}, stdout)
    return 0


def _make_oracle(args):
    if args.remote == "-":
        return fingerprint.StreamOracle(sys.stdin, sys.stdout)
    return fingerprint.LocalOracle(fingerprint.Document.from_file(args.remote))


def _cmd_fingerprint(args, manifest, stdout) -> int:
    if args.subcommand == "serve":
        doc = fingerprint.Document.from_file(args.document)
        served = fingerprint.serve_oracle(doc, sys.stdin, stdout)
        print("served %d queries" % served, file=sys.stderr)
        return 0
    # Refuse a past-cap round count or prime interval before reading either
    # document.
    rounds_arg = "rounds" if args.subcommand == "verify" else "rounds_per_probe"
    primality.check_rounds(rounds_arg, getattr(args, rounds_arg))
    lo, hi = parse_natural(args.prime_lo), parse_natural(args.prime_hi)
    primality.check_prime_interval(lo, hi)
    rng = SplitMix64(args.seed)
    local = fingerprint.Document.from_file(args.local)
    oracle = _make_oracle(args)
    if args.remote == "-":
        # stdout is the protocol channel in stdio-remote mode; the report
        # moves to stderr so the peer never sees it as a request.
        stdout = sys.stderr
    if args.subcommand == "verify":
        report = fingerprint.verify(local, oracle, args.rounds, rng, lo, hi)
        _emit(manifest, {
            "verdict": report.verdict,
            "rounds": report.rounds,
            "primes_used": [str(p) for p in report.primes_used],
            "residue_pairs": [[str(a), str(b)] for a, b in report.per_round_residue_pairs],
            "false_positive_bound": _probability(report.false_positive_bound),
            "length_mismatch": report.length_mismatch,
        }, stdout)
        return 0 if report.matched else 1
    ranges = fingerprint.localize(local, oracle, args.rounds_per_probe, rng, lo, hi)
    _emit(manifest, {
        "corrupted_ranges": [{"offset": off, "length": ln} for off, ln in ranges],
    }, stdout)
    return 0


def _cmd_factor(args, manifest, stdout) -> int:
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
    _emit(manifest, result, stdout)
    return 0 if outcome.found else 1


def _read_wordlist(path: str) -> list[bytes]:
    """The file's lines, each without its trailing CRs and LFs; empty ones dropped."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    return list(filter(None, map(bytes.rstrip, lines, repeat(b"\r\n"))))


def _cmd_mphf(args, manifest, stdout) -> int:
    if args.subcommand == "build":
        words = _read_wordlist(args.wordlist)
        fn, report = mphf.build(words, args.ratio, SplitMix64(args.seed))
        with open(args.output, "wb") as fh:
            fh.write(mphf.serialize(fn))
        _emit(manifest, {
            "m": fn.m, "n": fn.n, "max_word_len": fn.max_word_len,
            "trials": report.trials,
            "elapsed_seconds": report.elapsed_seconds,
            "output": args.output,
        }, stdout)
        return 0
    with open(args.function, "rb") as fh:
        fn = mphf.deserialize(fh.read())
    if args.subcommand == "query":
        _emit(manifest, {"index": mphf.query(fn, args.word.encode("utf-8"))}, stdout)
        return 0
    words = _read_wordlist(args.wordlist)
    hashed = iter(mphf.query_many(fn, [w for w in words if len(w) <= fn.max_word_len]))
    bad = [j for j, w in enumerate(words)
           if len(w) > fn.max_word_len or next(hashed) != j]
    _emit(manifest, {"words": len(words), "mismatches": bad[:20],
                     "ok": not bad}, stdout)
    return 0 if not bad else 1


def _load_permutation(kind: str, d: int, rng: SplitMix64 | None) -> list[int]:
    """The permutation ``kind`` names; ``rng`` is drawn from for "random" only."""
    N = 1 << d
    if kind == "bitrev":
        return route.bit_reversal(d)
    if kind == "identity":
        return list(range(N))
    if kind == "random":
        perm = list(range(N))
        for i in range(N - 1, 0, -1):  # Fisher-Yates on the derived stream
            j = rng.uniform_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
    if kind.startswith("file:"):
        # One label a line, at most 5 digits (route.MAX_DIMENSION = 16); read
        # no more than 64 characters a line and one label past N, so a hostile
        # file costs no memory that grows with it.
        perm = []
        with open(kind[5:], "r", encoding="utf-8") as fh:
            while line := fh.readline(65):
                if len(line) > 64:
                    raise ValueError("--perm file lines must be at most 64 characters")
                if line.strip():
                    if len(perm) == N:
                        raise ValueError("--perm file holds more than %d labels" % N)
                    perm.append(int(line))
        return perm
    raise ValueError("unknown permutation %r" % kind)


def _cmd_route(args, manifest, stdout) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.trials > route.MAX_TRIALS:
        raise ValueError("--trials must be <= %d" % route.MAX_TRIALS)
    route.check_dimension(args.d)  # before any permutation is built
    # Only a random permutation and two-phase routing draw per trial.  Any
    # other permutation is built (a file read) once, and greedy routing of
    # it is simulated once, its row repeated for every trial.
    fixed = None if args.perm == "random" else _load_permutation(args.perm, args.d, None)
    greedy = None
    if fixed is not None and args.algo == "greedy":
        greedy = route.run_oblivious(args.d, fixed)
    rows = []
    for trial in range(args.trials):
        rng = derive_stream(args.seed, trial)
        perm = fixed if fixed is not None else _load_permutation(args.perm, args.d, rng)
        if greedy is not None:
            stats = greedy
        elif args.algo == "greedy":
            stats = route.run_oblivious(args.d, perm)
        else:
            stats = route.run_valiant(args.d, perm, rng, phase_barrier=args.phase_barrier)
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
    _emit(manifest, {
        "trials": rows,
        "summary": {
            "runs": len(rows),
            "max_total_steps": max(steps),
            "mean_total_steps": _probability(sum(steps) / len(steps)),
        },
    }, stdout)
    return 0


def _cmd_ramsey(args, manifest, stdout) -> int:
    if args.subcommand == "anneal":
        cfg = ramsey.AnnealConfig()
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                fields = json.load(fh)
            try:
                cfg = ramsey.AnnealConfig(**fields)
                cfg.validate()
            except TypeError as exc:  # not an object, unknown key or mistyped value
                raise ValueError("bad --config: %s" % exc) from None
        outcome = ramsey.anneal(args.n, args.s, args.t, cfg, SplitMix64(args.seed))
        graph_text = ramsey.graph_to_text(outcome.graph) if outcome.found else None
        if args.graph_out and outcome.found:
            with open(args.graph_out, "w", encoding="utf-8") as fh:
                fh.write(graph_text)
        _emit(manifest, {
            "found": outcome.found,
            "graph": graph_text,
            "steps": outcome.steps,
            "restarts_used": outcome.restarts_used,
            "best_energy": outcome.best_energy,
        }, stdout)
        return 0 if outcome.found else 1
    if args.subcommand == "exhaustive":
        graphs = ramsey.exhaustive_search(args.n, args.s, args.t)
        _emit(manifest, {
            "count": len(graphs),
            "exists": bool(graphs),
            "sample": ramsey.graph_to_text(graphs[0]) if graphs else None,
        }, stdout)
        return 0 if graphs else 1
    forms = set()
    files = sorted(os.listdir(args.dir))
    for name in files:
        with open(os.path.join(args.dir, name), "r", encoding="utf-8") as fh:
            forms.add(ramsey.canonical_form(ramsey.graph_from_text(fh.read())))
    runs = len(files)
    distinct = len(forms)
    _emit(manifest, {
        "runs": runs,
        "distinct": distinct,
        "confidence": _probability(ramsey.census_confidence(distinct, runs))
        if runs else None,
    }, stdout)
    return 0


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
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    name = "%s.%s" % (args.command, args.subcommand)
    manifest = _manifest(name, argv, getattr(args, "seed", 0))
    try:
        return _HANDLERS[args.command](args, manifest, stdout)
    except (ValueError, OSError, fingerprint.TransportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (primality.PrimelessIntervalError, mphf.RatioTooLowError) as exc:
        print("search exhausted: %s" % exc, file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
