"""The benchmark's ``rng.draws`` counter sees every generator output.

``bench/tracing.py`` is loaded by path and left unedited, as in
``test_bench_tracing.py``; its tracer counts calls of the wrapped
``SplitMix64.next_u64``.  The generator computes its outputs in blocks, so
the count holds only while every output is handed out by ``next_u64``:
after d draws from seed s the state is s + d*GOLDEN_GAMMA mod 2**64.
"""

import importlib.util
from pathlib import Path

from randlab import cli, fingerprint, primality
from randlab.rng import GOLDEN_GAMMA, SplitMix64

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_draws_match_the_generator_state():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rng = SplitMix64(5)
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        for _ in range(20):
            primality.random_prime_in(10**9, 2 * 10**9, 16, rng)
    finally:
        tracer.uninstall()
    draws = (rng.state - 5) * pow(GOLDEN_GAMMA, -1, 2**64) % 2**64
    assert draws > 64  # the run crosses several refills
    assert tracer.rng_draws == draws


def test_traced_draws_match_the_state_over_verify_and_localize():
    # One verify and one localize on a single generator: every output that
    # their round primes take must be handed out by next_u64.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    data = bytes(range(256)) * 8
    corrupt = bytearray(data)
    corrupt[100] ^= 1
    corrupt[1500] ^= 4
    local = fingerprint.LocalOracle(data)
    rng = SplitMix64(9)
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        report = fingerprint.verify(local, fingerprint.LocalOracle(data), 10, rng)
        ranges = fingerprint.localize(local, fingerprint.LocalOracle(corrupt), 3, rng)
    finally:
        tracer.uninstall()
    assert report.verdict == fingerprint.MATCH and ranges == [(100, 1), (1500, 1)]
    draws = (rng.state - 9) * pow(GOLDEN_GAMMA, -1, 2**64) % 2**64
    assert draws > 64
    assert tracer.rng_draws == draws
