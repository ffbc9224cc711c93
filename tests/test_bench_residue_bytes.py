"""The benchmark's ``fingerprint.residue.bytes`` counter sees one reduction
per side of a ``fingerprint verify``.

``bench/tracing.py`` is loaded by path and left unedited, as in
``test_bench_tracing.py``; its tracer wraps the module-level ``residue`` and
adds up the bytes of every call.
"""

import importlib.util
import io
from pathlib import Path

from randlab import cli

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_verify_reduces_each_document_once(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    payload = bytes(i * 7 % 256 for i in range(3000))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(payload)
    b.write_bytes(payload)
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        code = cli.main(["fingerprint", "verify", str(a), "--remote", str(b)], stdout=io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.residue_bytes == 2 * 3000
