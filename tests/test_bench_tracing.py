"""The benchmark's span tracer reaches some functions of randlab by name.

``bench/tracing.py`` is loaded by path and left unedited; these tests fail
when a traced name is deleted or renamed, instead of ``--trace 1`` breaking
at install time.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from randlab import cli, fingerprint
from randlab.rng import SplitMix64

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_modules_import(tracing):
    for short in tracing.SPAN_MODULES:
        importlib.import_module("randlab." + short)


def test_extra_functions_exist(tracing):
    for short, names in tracing.EXTRA_FUNCTIONS.items():
        mod = importlib.import_module("randlab." + short)
        for name in names:
            assert inspect.isfunction(getattr(mod, name, None)), "%s.%s" % (short, name)


def test_methods_exist(tracing):
    for short, classes in tracing.METHODS.items():
        mod = importlib.import_module("randlab." + short)
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for m in methods:
                assert m in cls.__dict__, "%s.%s.%s" % (short, cls_name, m)


def test_rng_methods_exist(tracing):
    for m in tracing.RNG_METHODS:
        assert m in SplitMix64.__dict__, m


def test_uninstall_restores_the_oracle_methods(tracing):
    # Document is a second name for LocalOracle, so METHODS wraps its
    # residue twice; uninstall must put the original back, not a wrapper.
    originals = dict(fingerprint.LocalOracle.__dict__)
    tracer = tracing.Tracer()
    tracer.install(cli)
    assert fingerprint.LocalOracle.__dict__["residue"] is not originals["residue"]
    tracer.uninstall()
    for name in ("residue", "from_file", "length"):
        assert fingerprint.LocalOracle.__dict__[name] is originals[name], name
