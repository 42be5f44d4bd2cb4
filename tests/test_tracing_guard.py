"""Guard for the benchmark tracer in perfbench/tracing.py.

The tracer replaces a function only where it finds it in an owner's own
vars().  A traced method that moves into a base class is still found by
attribute lookup, but is never wrapped, and its per-layer metric silently
reads 0.  This test turns such a move into a failure.
"""

import importlib.util
import pathlib

from loopdeform import presentations, ratfunc, repn

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_in_its_owner():
    wrapped = [(owner, attr) for _, owner, attr in _load_tracing().SPANS]
    # the counters Tracer.install adds next to the spans
    wrapped += [(repn.MatrixRF, "__add__"),
                (presentations.Presentation, "word_normal_form"),
                (presentations.Presentation, "is_zero_mod"),
                (ratfunc, "divexact")]
    missing = ["%s.%s" % (owner.__name__, attr) for owner, attr in wrapped
               if attr not in vars(owner)]
    assert missing == []
