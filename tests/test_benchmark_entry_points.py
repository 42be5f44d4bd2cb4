"""Guard for what the benchmark in perfbench/ takes from loopdeform.

perfbench/workloads.py imports its entry points by name and calls the twist
maps and checks in fixed shapes, and the tracer in perfbench/tracing.py
calls two methods with positional arguments.  Deleting or reshaping one of
them would only break a benchmark run; these tests make it fail in the test
suite.
"""

import importlib.util
import inspect
import json
import pathlib

from loopdeform.presentations import Presentation

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", _ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_import_every_name_they_use():
    workloads = _load_workloads()
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in declared["workloads"])


def test_tracer_calls_bind_to_the_traced_methods():
    # Presentation.word_normal_form(p, word, bound) and
    # Presentation.is_zero_mod(p, x, reps, bound), as the tracer's wrappers
    # pass them on
    inspect.signature(Presentation.word_normal_form).bind(
        "p", "word", "bound")
    inspect.signature(Presentation.is_zero_mod).bind(
        "p", "x", "reps", "bound")


def test_twist_calls_bind_to_the_workload_entry_points():
    # the calls of twist-series, on the names workloads.py imports
    w = _load_workloads()
    for fn in (w.twisted_coproduct, w.twisted_antipode):
        inspect.signature(fn).bind("x", "H", "order")
    inspect.signature(w.check_cocycle).bind("order", reps="reps", p="p")
    inspect.signature(w.check_twist_counit).bind("order", p="p")
    for fn in (w.check_twisted_coassoc, w.check_twisted_homomorphism,
               w.check_twisted_antipode):
        inspect.signature(fn).bind("H", "order")
