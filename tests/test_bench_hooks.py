"""The benchmark's tracer must find every program function it wraps.

bench/tracing.py wraps functions of the program by name.  Installing and
uninstalling it on the program namespace that bench/run.py builds makes a
rename or deletion of one of those functions fail this test, not only a
traced benchmark run.
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    # bench/run.py puts bench/ and src/ on sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("run")
    tracing = _load("tracing")
    program = run.import_program(ROOT)
    sg = program.linops.SgBlockOperator
    originals = (program.galerkin.assemble, sg.__dict__["coefficients"], program.jets._mul_coeffs)

    tracer = tracing.Tracer()
    tracing.install(tracer, program)
    try:
        wrapped = (program.galerkin.assemble, sg.__dict__["coefficients"], program.jets._mul_coeffs)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = (program.galerkin.assemble, sg.__dict__["coefficients"], program.jets._mul_coeffs)
    assert all(r is o for r, o in zip(restored, originals))


def test_tracer_counts_jet_products(monkeypatch):
    # The tracer's jet counter unpacks (a, b, deg) from each _mul_coeffs call,
    # so a product and a composition must pass exactly those positionally.
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = _load("run")
    tracing = _load("tracing")
    program = run.import_program(ROOT)
    jets = program.jets
    x = jets.Jet2.variable(0.3, 0)
    y = jets.Jet2.variable(0.2, 1)

    tracer = tracing.Tracer()
    tracing.install(tracer, program)
    try:
        x * y
        after_product = tracer.totals()["jets.calls"]
        jets.sin(x)
        after_sin = tracer.totals()["jets.calls"]
    finally:
        tracer.uninstall()
    assert after_product == 1
    assert after_sin > after_product
