"""The names ``perfbench/tracer.py`` binds from outside the program.

The tracer rebinds its span and counter targets by module and attribute
name, passes keywords to ``pfaffian_form`` and ``galois_components``, and
reads the form cache ``desc._srp_raw``.  A rename breaks only traced runs,
so these tests pin each name; they load the tracer by path and import
nothing else from the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from charform.cli import main
from charform.extraction import galois_components
from charform.fields import GF2
from charform.involutions import SplitSymp, pfaffian_form

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    targets = [t[:2] for t in tracer.SPANS] + [t[:2] for t in tracer.COUNTERS]
    assert targets
    for mod_name, attr in targets:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            # the tracer reads a method from the class __dict__
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (mod_name, cls_name, attr)
        assert callable(getattr(owner, attr, None)), (mod_name, attr)
    suites = importlib.import_module("charform.verify").SUITES
    assert set(tracer.SUITES) <= set(suites)
    # time_twins imports these by name
    for mod_name, attr in [
        ("charform.involutions", "second_trace_form"),
        ("charform.involutions", "symmetric_space"),
        ("charform.serialize", "descriptor_from_json"),
        ("charform.serialize", "descriptor_to_json"),
    ]:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), attr


def test_tracer_keywords_and_form_cache_resolve():
    # the tracer reads the descriptor as the first argument, named desc
    assert list(inspect.signature(pfaffian_form).parameters) == ["desc", "validate", "seed"]
    assert list(inspect.signature(galois_components).parameters) == ["desc", "L", "checks"]
    desc = SplitSymp(GF2)
    assert desc._srp_raw is None
    raw = pfaffian_form(desc, validate=0, seed=0)
    assert desc._srp_raw is raw


def test_a_traced_verify_run_completes(capsys):
    # the counters wrap pmul and the other kernels positionally, so a call
    # that passes base by keyword fails only under the tracer
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        argv = ["verify", "--suite", "symplectic", "--field", "ratfunc:gf2:t", "--trials", "2"]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert "FAIL" not in capsys.readouterr().out
    assert tracer.counts["fields.pmul"][0] and tracer.counts["fields.pgcd"][0]
