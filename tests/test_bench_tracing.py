"""The benchmark's span tracer reaches some functions of randlab by name.

``bench/tracing.py`` is loaded by path and left unedited; these tests fail
when a traced name is deleted or renamed, instead of ``--trace 1`` breaking
at install time.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from randlab import cli, fingerprint
from randlab.rng import SplitMix64

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
SRC = str(Path(__file__).resolve().parent.parent / "src")

# In a fresh interpreter: which SPAN_MODULES are in sys.modules, and which
# have run (exec_module; a lazily loaded one runs at its first attribute
# access), right after ``import randlab.cli``; then the tracer installs.
REGISTRATION_PROBE = """
import importlib.util, json, sys
from importlib.machinery import SourceFileLoader

ran, exec_module = [], SourceFileLoader.exec_module

def recording_exec_module(self, module):
    ran.append(module.__name__)
    exec_module(self, module)

SourceFileLoader.exec_module = recording_exec_module
import randlab.cli
span = ["randlab." + short for short in sys.argv[2:]]
state = [[m for m in span if m in sys.modules], [m for m in span if m in ran]]
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install(randlab.cli)
tracer.uninstall()
print(json.dumps(state))
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_modules_import(tracing):
    for short in tracing.SPAN_MODULES:
        importlib.import_module("randlab." + short)


def test_cli_import_registers_every_span_module_without_running_it(tracing):
    # Tracer.install reads sys.modules["randlab.<short>"] right after the
    # import, so an import inside each cli handler would break --trace 1
    # with a KeyError that test_span_modules_import, importing each module
    # itself, cannot see.
    proc = subprocess.run([sys.executable, "-c", REGISTRATION_PROBE, str(TRACING_PATH)]
                          + list(tracing.SPAN_MODULES),
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered, ran = json.loads(proc.stdout)
    assert registered == ["randlab." + short for short in tracing.SPAN_MODULES]
    assert ran == ["randlab.natnum"]  # every call parses numbers; cli imports it


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
