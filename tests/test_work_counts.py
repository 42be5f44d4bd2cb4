"""Work-count guard for the coproduct-homomorphism check.

Counts, not seconds: the drinfeldian-sl2 check must reach its verdicts
without the generic pseudo-remainder gcd (every denominator there splits
over q, q-1, q+1) and without dense matrix additions (witnesses accumulate
sparsely), while still evaluating one exact witness per relation and rep.
The coefficients of these checks are integral almost everywhere, so they
must also run on int arithmetic, with few Fraction objects made.
"""

from fractions import Fraction

import pytest

from loopdeform import hopf, ratfunc, repn
from loopdeform.hopf import build_hopf, check_homomorphism
from loopdeform.presentations import get_presentation
from loopdeform.repn import default_reps


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_drinfeldian_sl2_homomorphism_work_counts(monkeypatch):
    counts = {"prem": 0, "matrix_add": 0, "evaluate_tensor": 0}
    monkeypatch.setattr(ratfunc, "_prem",
                        _counting(counts, "prem", ratfunc._prem))
    monkeypatch.setattr(repn.MatrixRF, "__add__",
                        _counting(counts, "matrix_add",
                                  repn.MatrixRF.__add__))
    monkeypatch.setattr(hopf, "evaluate_tensor",
                        _counting(counts, "evaluate_tensor",
                                  hopf.evaluate_tensor))
    p = get_presentation("drinfeldian-sl2")
    reps = default_reps(p)
    rows = check_homomorphism(build_hopf(p), reps)
    assert rows == [(rel.label, "zero", None) for rel in p.relations]
    assert len(rows) == 21
    assert counts == {"prem": 0, "matrix_add": 0,
                      "evaluate_tensor": len(rows) * len(reps)}


# with every coefficient stored as a Fraction, check_homomorphism makes
# 304,033 Fraction objects for drinfeldian-sl2 and 6,824 for
# twisted-yangian-sl2; the drinfeldian-sl2 bound is 5 % of that count
@pytest.mark.parametrize("algebra, bound", [("drinfeldian-sl2", 15_201),
                                            ("twisted-yangian-sl2", 0)])
def test_homomorphism_check_makes_few_fractions(monkeypatch, algebra, bound):
    p = get_presentation(algebra)
    reps = default_reps(p)
    H = build_hopf(p)
    made = [0]
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    rows = check_homomorphism(H, reps)
    monkeypatch.undo()
    assert all(verdict == "zero" for _, verdict, _ in rows)
    assert made[0] <= bound
