"""Work-count guard for the coproduct-homomorphism check.

Counts, not seconds: the drinfeldian-sl2 check must reach its verdicts
without the generic pseudo-remainder gcd (every denominator there splits
over q, q-1, q+1) and without dense matrix additions (witnesses accumulate
sparsely), while still evaluating one exact witness per relation and rep.
"""

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
