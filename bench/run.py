"""Seeded end-to-end benchmark of the randlab CLI.

    python3 bench/run.py --workload desk|bulk|search --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/randlab``.  The run
writes its generated inputs under ``bench/work/`` (deleted at exit) and its
report under ``bench/reports/``, and prints the report followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

One process, one thread: every operation is a ``randlab.cli.main(argv,
stdout=buffer)`` call.  A round replays the workload's fixed operation list;
the first round warms caches and is checked in full against independent
computations (see checks.py), later rounds are timed and must reproduce the
first round's documents byte for byte (timestamps and elapsed times aside).
Rounds repeat until ``--seconds`` is spent.  Each metric is computed from
per-operation medians over the timed rounds, so a slow spell of the machine
lasting a few seconds does not set the number.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics from the traced
ones (see tracing.py), with the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_TIMED_ROUNDS = 2
MAX_TRACED_PAIRS = 3
MIN_SETUP_SAMPLES = 9
# A reference reading next to an operation is the median of enough repeats to
# take about this share of the operation's warm-up time (1 to 25 repeats), so
# readings around second-long operations are not single noisy samples.
REFERENCE_SHARE = 0.05

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.overhead_ms": "ms",
    "rng.draws": "count",
    "rng.ms": "ms",
    "natnum.mod_pow.calls": "count",
    "natnum.mod_pow.ms": "ms",
    "natnum.mod_inverse.calls": "count",
    "natnum.mod_inverse.ms": "ms",
    "natnum.gcd.calls": "count",
    "natnum.gcd.ms": "ms",
    "primality.is_probable_prime.ms": "ms",
    "primality.rounds": "count",
    "primality.random_prime_in.ms": "ms",
    "primality.candidates_per_prime": "ratio",
    "primality.witness_density.ms": "ms",
    "fingerprint.residue.bytes": "bytes",
    "fingerprint.residue.mb_per_s": "MB/s",
    "fingerprint.oracle_queries": "count",
    "fingerprint.wire_ms": "ms",
    "factor.pollard_pm1.ms": "ms",
    "factor.ecm_stage1.ms": "ms",
    "factor.curve_add.calls": "count",
    "factor.curves_per_factor": "ratio",
    "mphf.build.ms": "ms",
    "mphf.build_words_per_s": "1/s",
    "mphf.trials_per_build": "ratio",
    "mphf.is_acyclic.ms": "ms",
    "mphf.query_per_s": "1/s",
    "mphf.deserialize.ms": "ms",
    "route.simulate.ms": "ms",
    "route.packet_steps_per_s": "1/s",
    "ramsey.anneal.ms": "ms",
    "ramsey.moves_per_s": "1/s",
    "ramsey.canonical_form.ms_per_graph": "ms",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# Times are scaled to a machine on which reference_seconds() reads exactly
# this long; see reference_seconds().
REFERENCE_NOMINAL_S = 1e-3

# A fresh interpreter imports the CLI and reports how long the import took.
SETUP_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import randlab.cli\n"
    "print(repr(time.perf_counter() - t), flush=True)\n"
)


def reference_seconds(repeat: int = 1) -> float:
    """Wall time of a fixed piece of work that never touches randlab.

    The machine's speed drifts by half and more over tens of seconds (CPU
    time drifts with wall time, so it is not time stolen by other guests).
    Each operation is timed between two of these readings and its time is
    scaled by REFERENCE_NOMINAL_S over their mean.  The mix (interpreter
    loop, dict stores, a big-integer power) resembles the program's own, so
    the scale follows the program's speed; a slower program still reads
    slower, because the reference does not run program code.  With
    ``repeat`` > 1 the reading is the median of that many runs.
    """
    readings = []
    for _ in range(repeat):
        t0 = perf_counter()
        total = 0
        table = {}
        for i in range(3000):
            total += i * i % 7
            table[i & 255] = total
        pow(3, (1 << 300) + 1, (1 << 521) - 1)
        readings.append(perf_counter() - t0)
    return statistics.median(readings)


class Samples:
    """Per-operation wall times and reference-scaled times over rounds."""

    def __init__(self, n: int):
        self.wall = [[] for _ in range(n)]
        self.scaled = [[] for _ in range(n)]

    def add(self, i: int, wall: float, before: float, after: float) -> None:
        self.wall[i].append(wall)
        self.scaled[i].append(wall * REFERENCE_NOMINAL_S * 2 / (before + after))


def setup_sample() -> tuple[float, float, float]:
    """Seconds from spawn until randlab.cli is imported (wall and scaled),
    and the import's own seconds as the child measured them."""
    before = reference_seconds()
    t0 = perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
    with child:
        line = child.stdout.readline()
        ready = perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or not line.strip():
        raise RuntimeError("setup child failed with exit code %s" % child.returncode)
    after = reference_seconds()
    return ready, ready * REFERENCE_NOMINAL_S * 2 / (before + after), float(line)


class ServeChild:
    """`randlab fingerprint serve <doc>` over pipes, for the wire operations."""

    def __init__(self, document: str):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "randlab", "fingerprint", "serve", document],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    def __init__(self, workload: workloads.Workload, cli, serve: ServeChild | None):
        self.wl = workload
        self.cli = cli
        self.serve = serve
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, int] = {}
        self._first: dict[int, tuple] = {}  # op index -> (replay key, verdict)
        self._repeat = [1] * (len(workload.ops) + 1)  # reference repeats before op i

    def call(self, op: workloads.Op) -> tuple[int | None, str, float]:
        # Start each call from a collected heap, as a fresh CLI process would,
        # so the cyclic collector's passes land at the same points every round.
        gc.collect()
        buf = io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        if op.wire:
            sys.stdin, sys.stdout, sys.stderr = self.serve.proc.stdout, self.serve.proc.stdin, buf
        t0 = perf_counter()
        try:
            code = self.cli.main(op.argv, stdout=buf)
        except Exception as exc:  # a traceback is a failed operation, not a dead run
            code = None
            buf.write("\n%s: %s" % (type(exc).__name__, exc))
        finally:
            elapsed = perf_counter() - t0
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, buf.getvalue(), elapsed

    def judge(self, index: int, op: workloads.Op, code, text: str) -> dict | None:
        """Check one call; later rounds must replay the first round exactly."""
        self.attempted += 1
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        key = (code, _replay_text(text) if doc else text,
               tuple(_digest(p) for p in op.outputs))
        first = self._first.get(index)
        if first and first[0] == key:
            verdict = first[1]
        else:
            verdict = None
            try:
                checks.expect(doc is not None, "no result document (exit %s)" % code)
                op.check(doc, code)
            except checks.CheckFailed as exc:
                verdict = str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                verdict = "malformed document: %r" % exc
            self._first.setdefault(index, (key, verdict))
        if verdict is not None:
            self.failed += 1
            label = "%s: %s" % (op.kind, verdict)
            self.failures[label] = self.failures.get(label, 0) + 1
            if not op.known_fault:
                self.correct = False
        return doc

    def round(self, samples: Samples | None, tracer=None) -> list[tuple]:
        """Replay every operation once; returns (op, document) pairs."""
        docs = []
        before = reference_seconds(self._repeat[0])
        for i, op in enumerate(self.wl.ops):
            if tracer is not None:
                tracer.op_id = i
            code, text, elapsed = self.call(op)
            after = reference_seconds(self._repeat[i + 1])
            if samples is not None:
                samples.add(i, elapsed, before, after)
            else:  # warm-up: size the readings around each operation
                reps = min(25, max(1, round(REFERENCE_SHARE * elapsed / REFERENCE_NOMINAL_S)))
                self._repeat[i] = max(self._repeat[i], reps)
                self._repeat[i + 1] = max(self._repeat[i + 1], reps)
            before = after
            docs.append((op, self.judge(i, op, code, text)))
        return docs


def _replay_text(text: str) -> str:
    """The document without the fields that change from run to run."""
    doc = json.loads(text)
    doc.get("manifest", {}).pop("started", None)
    doc.get("manifest", {}).pop("finished", None)
    if isinstance(doc.get("result"), dict):
        doc["result"].pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- statistics ------------------------------------------------------------

def op_medians(times: list[list[float]]) -> list[float]:
    return [statistics.median(t) for t in times]


def ops_per_second(times: list[list[float]]) -> float:
    return len(times) / sum(op_medians(times))


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    if len(samples) < 40:
        return None
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return "p%d" % q, cuts[q - 1]
    return None


def kind_table(ops, times) -> list[dict]:
    medians = op_medians(times)
    total = sum(medians)
    kinds: dict[str, dict] = {}
    for op, t, m in zip(ops, times, medians):
        k = kinds.setdefault(op.kind, {"kind": op.kind, "ops": 0, "samples": [], "share": 0.0})
        k["ops"] += 1
        k["samples"] += t
        k["share"] += m / total
    rows = []
    for k in sorted(kinds.values(), key=lambda k: -k["share"]):
        row = {"kind": k["kind"], "ops": k["ops"], "n": len(k["samples"]),
               "median_ms": statistics.median(k["samples"]) * 1e3,
               "share_pct": 100 * k["share"]}
        high = tail(k["samples"])
        if high:
            row[high[0] + "_ms"] = high[1] * 1e3
        rows.append(row)
    return rows


def p50_placement(ops, times) -> dict:
    """Which kind holds the median call, and its share of the calls within
    a tenth of the list (at least two positions) on either side."""
    order = sorted(range(len(ops)), key=lambda i: statistics.median(times[i]))
    kinds = [ops[i].kind for i in order]
    mid = len(kinds) // 2
    kind = kinds[mid]
    window = max(2, len(kinds) // 10)
    near = kinds[max(0, mid - window):mid + window + 1]
    return {"kind": kind, "window_share": near.count(kind) / len(near), "ops": len(ops)}


# --- per-layer metrics -----------------------------------------------------

def layer_metrics(names: dict, docs: list[tuple], counters: dict) -> dict:
    def rec(name):
        return names.get(name, {"calls": 0, "self": 0.0, "incl": 0.0, "selfs": [], "children": {}})

    def ms(name):
        return rec(name)["self"] * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    results = {}
    for op, doc in docs:
        if doc and isinstance(doc.get("result"), dict):
            results.setdefault(doc["manifest"]["subcommand"], []).append(doc["result"])
    ecm = [r for r in results.get("factor.ecm", []) if r.get("found")]
    builds = results.get("mphf.build", [])
    anneals = results.get("ramsey.anneal", [])
    packet_steps = sum((1 << t["d"]) * t["total_steps"]
                       for r in results.get("route.sim", []) for t in r["trials"])
    residue_self = rec("fingerprint.residue")["self"]
    out = {
        "cli.overhead_ms": statistics.median(rec("cli.main")["selfs"] or [0.0]) * 1e3,
        "rng.draws": counters["rng_draws"],
        "rng.ms": counters["rng_seconds"] * 1e3,
        "primality.rounds": rec("primality.is_probable_prime")["children"].get(
            "primality.algorithm_p_single", 0),
        "primality.candidates_per_prime": ratio(
            rec("primality.random_prime_in")["children"].get("primality.is_probable_prime", 0),
            rec("primality.random_prime_in")["calls"]),
        "fingerprint.residue.bytes": counters["residue_bytes"],
        "fingerprint.residue.mb_per_s": ratio(counters["residue_bytes"] / 1e6, residue_self),
        "fingerprint.oracle_queries": rec("fingerprint.LocalOracle.residue")["calls"]
        + rec("fingerprint.StreamOracle.residue")["calls"],
        "fingerprint.wire_ms": (rec("fingerprint.StreamOracle.residue")["incl"]
                                + rec("fingerprint.StreamOracle.length")["incl"]) * 1e3,
        "factor.curve_add.calls": rec("factor.curve_add")["calls"],
        "factor.curves_per_factor": ratio(sum(r["curves_tried"] for r in ecm), len(ecm)),
        "mphf.build_words_per_s": ratio(sum(r["m"] for r in builds), rec("mphf.build")["incl"]),
        "mphf.trials_per_build": ratio(sum(r["trials"] for r in builds), len(builds)),
        "mphf.query_per_s": ratio(rec("mphf.query")["calls"], rec("mphf.query")["incl"]),
        "route.packet_steps_per_s": ratio(packet_steps, rec("route.simulate")["incl"]),
        "ramsey.moves_per_s": ratio(sum(r["steps"] for r in anneals), rec("ramsey.anneal")["incl"]),
        "ramsey.canonical_form.ms_per_graph": ratio(rec("ramsey.canonical_form")["incl"] * 1e3,
                                                    rec("ramsey.canonical_form")["calls"]),
    }
    for name in ("natnum.mod_pow", "natnum.mod_inverse", "natnum.gcd"):
        out[name + ".calls"] = rec(name)["calls"]
        out[name + ".ms"] = ms(name)
    for name in ("primality.is_probable_prime", "primality.random_prime_in",
                 "primality.witness_density", "factor.pollard_pm1", "factor.ecm_stage1",
                 "mphf.build", "mphf.is_acyclic", "mphf.deserialize", "route.simulate",
                 "ramsey.anneal"):
        out[name + ".ms"] = ms(name)
    return out


# --- the run ---------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_cli():
    if not (SRC / "randlab" / "cli.py").is_file():
        sys.exit("bench: no program to measure: %s/randlab/cli.py is missing" % SRC)
    sys.path.insert(0, str(SRC))
    import randlab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "randlab":
        sys.exit("bench: imported randlab from %s, not from this checkout" % cli.__file__)
    return cli


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The serve child then computes while this process waits on the pipe, on
    the same CPU whose speed the reference readings follow, and no run
    migrates between CPUs that drift apart.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    pin_to_one_cpu()
    workdir = BENCH / "work" / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    reports = BENCH / "reports"
    reports.mkdir(exist_ok=True)
    serve = None
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir))
        inputs_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if wl.serve_document:
            serve = ServeChild(wl.serve_document)
        runner = Runner(wl, cli, serve)
        report = run(args, runner, cli, reports)
        report["rss_after_inputs_mb"] = inputs_rss_mb
    finally:
        if serve is not None:
            serve.close()
        shutil.rmtree(workdir, ignore_errors=True)
    tag = "%s-s%d%s" % (args.workload, args.seed, "-trace" if args.trace else "")
    with open(reports / (tag + ".json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


def end_to_end(samples: Samples, setups: list) -> tuple[dict, dict]:
    """Reference-scaled metrics, and the same figures in plain wall time."""
    scaled = {
        "ops_per_s": ops_per_second(samples.scaled),
        "latency_p50_ms": statistics.median(op_medians(samples.scaled)) * 1e3,
        "setup_s": statistics.median(s for _, s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "ops_per_s": ops_per_second(samples.wall),
        "latency_p50_ms": statistics.median(op_medians(samples.wall)) * 1e3,
        "setup_s": statistics.median(s for s, _, _ in setups),
    }
    return scaled, wall


def run(args, runner: Runner, cli, reports: Path) -> dict:
    setup_sample()  # first spawn writes bytecode caches; not counted
    setups = []
    runner.round(None)  # warm-up, checked in full
    # Inputs, checkers and warm-up leftovers stay out of every later
    # collection, so the collector walks about what a fresh CLI process has.
    gc.freeze()
    n = len(runner.wl.ops)
    report = {"workload": args.workload, "seed": args.seed, "ops": n}
    if not args.trace:
        samples = Samples(n)
        round_s = []
        t_start = perf_counter()
        while True:
            setups += [setup_sample(), setup_sample()]
            t0 = perf_counter()
            runner.round(samples)
            round_s.append(perf_counter() - t0)
            done = perf_counter() - t_start
            if len(round_s) >= MIN_TIMED_ROUNDS and done + statistics.median(round_s) > args.seconds:
                break
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(setup_sample())
        metrics, wall = end_to_end(samples, setups)
        units = END_TO_END
        ops = runner.wl.ops
        report.update(rounds=len(round_s), round_s=round_s, wall=wall,
                      kinds=kind_table(ops, samples.scaled),
                      op_samples_ms=[[op.kind, [t * 1e3 for t in s], [t * 1e3 for t in w]]
                                     for op, s, w in zip(ops, samples.scaled, samples.wall)],
                      p50=p50_placement(ops, samples.scaled),
                      setup_samples_s=[s for _, s, _ in setups])
    else:
        import tracing
        tracer = tracing.Tracer()
        plain = Samples(n)
        traced = Samples(n)
        per_round = []
        pair_s = []
        t_start = perf_counter()
        while True:
            setups.append(setup_sample())
            t0 = perf_counter()
            runner.round(plain)
            tracer.round_id = len(per_round)
            before = (tracer.rng_draws, tracer.rng_seconds, tracer.residue_bytes)
            tracer.install(cli)
            try:
                docs = runner.round(traced, tracer)
            finally:
                tracer.uninstall()
            per_round.append((docs, {"rng_draws": tracer.rng_draws - before[0],
                                     "rng_seconds": tracer.rng_seconds - before[1],
                                     "residue_bytes": tracer.residue_bytes - before[2]}))
            pair_s.append(perf_counter() - t0)
            done = perf_counter() - t_start
            if len(pair_s) >= MAX_TRACED_PAIRS or done + statistics.median(pair_s) > args.seconds:
                break
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(setup_sample())
        summary = tracer.summary()
        rounds = [layer_metrics(summary.get(r, {}), docs, counters)
                  for r, (docs, counters) in enumerate(per_round)]
        metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        metrics["cli.import_ms"] = statistics.median(i for _, _, i in setups) * 1e3
        metrics["trace.untraced_ops_per_s"] = ops_per_second(plain.scaled)
        metrics["trace.traced_ops_per_s"] = ops_per_second(traced.scaled)
        metrics["trace.overhead_pct"] = 100 * (metrics["trace.untraced_ops_per_s"]
                                               / metrics["trace.traced_ops_per_s"] - 1)
        units = PER_LAYER
        spans = reports / ("%s-s%d-spans.json.gz" % (args.workload, args.seed))
        tracer.write(str(spans))
        report.update(rounds=len(pair_s), pair_s=pair_s, spans=len(tracer.start),
                      span_file=str(spans.relative_to(ROOT)))
    report["failures"] = runner.failures
    report["result"] = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return report


def print_report(report: dict) -> None:
    print("workload %s  seed %d  %d ops x %d rounds" % (
        report["workload"], report["seed"], report["ops"], report["rounds"]))
    for row in report.get("kinds", []):
        high = next(("%s %.2f ms" % (k[:-3], v) for k, v in row.items()
                     if k.startswith("p") and k.endswith("_ms") and k != "median_ms"), "")
        print("  %-30s ops %3d  n %4d  median %9.2f ms  %-16s share %5.1f%%" % (
            row["kind"], row["ops"], row["n"], row["median_ms"], high, row["share_pct"]))
    if "p50" in report:
        p = report["p50"]
        print("  p50 falls in %s (%.0f%% of the calls next to the median, of %d ops)" % (
            p["kind"], 100 * p["window_share"], p["ops"]))
    for label, count in report["failures"].items():
        print("  failed x%d  %s" % (count, label))
    for name, m in report["result"]["metrics"].items():
        wall = report.get("wall", {}).get(name)
        print("  %-36s %14.6g %-6s%s" % (name, m["value"], m["unit"],
                                         "" if wall is None else "  (wall clock %.6g)" % wall))


if __name__ == "__main__":
    sys.exit(main())
