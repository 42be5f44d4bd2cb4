"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces functions and methods of loopdeform with wrappers, in
every place a name is looked up: a function imported by name into another
module (``apply_hom`` in ``hopf``, ``evaluate_tensor`` in ``hopf`` and
``twist``) is a separate binding, and ``mp_gcd`` calls itself through the
``ratfunc`` globals.  Nothing inside the package changes.

Three kinds of wrapper:

* span -- counts calls and records inclusive and self time.  Self time is
  the span minus the time of the spans it caused.  A call made while a span
  of the same group is already open (recursion, or one builder calling
  another) runs unwrapped and is part of the outer span, so ``mp_gcd``
  counts top-level calls only.
* counter -- counts calls and one property of the call; no timing.
* job marks -- the child brackets each job so that per-job deltas can be
  read (the ROADMAP cross-check for the drinfeldian jobs).
"""

import sys
import time

from loopdeform import cli, freealg, hopf, presentations, ratfunc, repn
from loopdeform import rmatrix, twist

# (group, owner, attribute): every wrapped function, by the group it counts in
SPANS = (
    ("ratfunc.mp_gcd", ratfunc, "mp_gcd"),
    ("ratfunc.mul", ratfunc.RatFunc, "__mul__"),
    ("ratfunc.add", ratfunc.RatFunc, "__add__"),
    ("ratfunc.new", ratfunc.RatFunc, "__init__"),
    ("repn.evaluate", repn.Rep, "evaluate"),
    ("repn.evaluate_tensor", repn, "evaluate_tensor"),
    ("repn.rep_build", repn.Rep, "__init__"),
    ("presentations.normal_form", presentations.Presentation, "normal_form"),
    ("presentations.normal_form_tensor", presentations.Presentation,
     "normal_form_tensor"),
    ("presentations.build", presentations, "get_presentation"),
    ("presentations.build", presentations, "build_uq"),
    ("presentations.build", presentations, "build_drinfeldian"),
    ("presentations.build", presentations, "build_yangian_sl2"),
    ("presentations.build", presentations, "build_twisted_yangian_sl2"),
    ("presentations.build", presentations, "build_classical_sl2"),
    ("presentations.specialize", presentations, "specialize"),
    ("presentations.compare", presentations, "compare_presentations"),
    ("rmatrix.cybe_residual", rmatrix, "cybe_residual"),
    ("cli.command", cli, "run"),
    ("cli.report", cli.VerificationReport, "to_text"),
    ("cli.report", cli.VerificationReport, "to_json"),
    ("freealg.apply_hom", freealg, "apply_hom"),
    ("freealg.tensor_mul", freealg.TensorPoly, "__mul__"),
    ("hopf.coproduct", hopf.HopfData, "coproduct"),
    ("hopf.check_homomorphism", hopf, "check_homomorphism"),
    ("twist.series", twist, "twist_F"),
    ("twist.series", twist, "twist_u"),
    ("twist.series", twist, "series_inverse"),
    ("twist.twisted_maps", twist, "twisted_coproduct"),
    ("twist.twisted_maps", twist, "twisted_antipode"),
    ("twist.twisted_maps", twist, "_conjugate"),
    ("twist.checks", twist, "check_cocycle"),
    ("twist.checks", twist, "check_twisted_coassoc"),
    ("twist.checks", twist, "check_twisted_homomorphism"),
    ("twist.checks", twist, "check_twisted_antipode"),
    ("twist.checks", twist, "check_twist_counit"),
)

# per-layer metrics: name -> (unit, how to read it from a merged raw record)
def _calls(g):
    return ("count", lambda r: r["calls"].get(g, 0))


def _self(g):
    return ("s", lambda r: r["self_ns"].get(g, 0) / 1e9)


def _incl(g):
    return ("s", lambda r: r["incl_ns"].get(g, 0) / 1e9)


def _ratio(num, den):
    return ("ratio", lambda r: (r["counts"].get(num, 0) / r["counts"][den]
                                if r["counts"].get(den) else 0.0))


def _trivial_frac(r):
    calls = r["calls"].get("ratfunc.mp_gcd", 0)
    return r["counts"].get("mp_gcd.trivial", 0) / calls if calls else 0.0


def _count(c):
    return ("count", lambda r: r["counts"].get(c, 0))


def _distinct_frac(r):
    calls = r["calls"].get("ratfunc.mp_gcd", 0)
    return len(r["gcd_pairs"]) / calls if calls else 0.0


def _job(job, key):
    return lambda r: r["jobs"].get(job, {}).get(key, 0)


PER_LAYER = {
    "ratfunc.mp_gcd.calls": _calls("ratfunc.mp_gcd"),
    "ratfunc.mp_gcd.self_s": _self("ratfunc.mp_gcd"),
    "ratfunc.mp_gcd.distinct_frac": ("ratio", _distinct_frac),
    "ratfunc.mp_gcd.trivial_frac": ("ratio", _trivial_frac),
    "ratfunc.divexact.calls": _count("divexact.calls"),
    "ratfunc.mul.calls": _calls("ratfunc.mul"),
    "ratfunc.mul.self_s": _self("ratfunc.mul"),
    "ratfunc.add.calls": _calls("ratfunc.add"),
    "ratfunc.add.self_s": _self("ratfunc.add"),
    "ratfunc.new.calls": _calls("ratfunc.new"),
    "ratfunc.new.self_s": _self("ratfunc.new"),
    "repn.evaluate.calls": _calls("repn.evaluate"),
    "repn.evaluate.self_s": _self("repn.evaluate"),
    "repn.evaluate_tensor.calls": _calls("repn.evaluate_tensor"),
    "repn.evaluate_tensor.self_s": _self("repn.evaluate_tensor"),
    "repn.matrix_add.calls": _count("matrix_add.calls"),
    "repn.matrix_add.entries": _count("matrix_add.entries"),
    "repn.rep_build.s": _incl("repn.rep_build"),
    "presentations.normal_form.calls": _calls("presentations.normal_form"),
    "presentations.normal_form.self_s": _self("presentations.normal_form"),
    "presentations.word_normal_form.calls": _count("word_nf.calls"),
    "presentations.word_normal_form.hit_frac": _ratio("word_nf.hits",
                                                      "word_nf.calls"),
    "presentations.normal_form_tensor.calls":
        _calls("presentations.normal_form_tensor"),
    "presentations.normal_form_tensor.self_s":
        _self("presentations.normal_form_tensor"),
    "presentations.is_zero_mod.calls": _count("is_zero_mod.calls"),
    "presentations.is_zero_mod.unknown_frac": _ratio("is_zero_mod.unknown",
                                                     "is_zero_mod.calls"),
    "presentations.build.s": _incl("presentations.build"),
    "presentations.specialize.s": _incl("presentations.specialize"),
    "presentations.compare.s": _incl("presentations.compare"),
    "rmatrix.cybe_residual.calls": _calls("rmatrix.cybe_residual"),
    "rmatrix.cybe_residual.s": _incl("rmatrix.cybe_residual"),
    "cli.command.s": _incl("cli.command"),
    "cli.report.s": _incl("cli.report"),
    "freealg.apply_hom.calls": _calls("freealg.apply_hom"),
    "freealg.apply_hom.self_s": _self("freealg.apply_hom"),
    "freealg.tensor_mul.calls": _calls("freealg.tensor_mul"),
    "freealg.tensor_mul.self_s": _self("freealg.tensor_mul"),
    "hopf.coproduct.calls": _calls("hopf.coproduct"),
    "hopf.coproduct.self_s": _self("hopf.coproduct"),
    "hopf.check_homomorphism.s": _incl("hopf.check_homomorphism"),
    "twist.series.s": _incl("twist.series"),
    "twist.twisted_maps.s": _incl("twist.twisted_maps"),
    "twist.checks.s": _incl("twist.checks"),
    # ROADMAP baseline cross-check (coproduct-hom only; 0 elsewhere)
    "xcheck.drinfeldian-sl2.mp_gcd.calls":
        ("count", _job("hom:drinfeldian-sl2", "mp_gcd.calls")),
    "xcheck.drinfeldian-sl2.mp_gcd.distinct":
        ("count", _job("hom:drinfeldian-sl2", "mp_gcd.distinct")),
    "xcheck.drinfeldian-sl3.witness_frac":
        ("ratio", _job("hom:drinfeldian-sl3", "witness_frac")),
}

#: the metrics that must repeat exactly between two traced runs: counts and
#: ratios of counts (witness_frac is a ratio of times)
COUNT_METRICS = tuple(n for n, (u, _) in PER_LAYER.items()
                      if u == "count" or (u == "ratio"
                                          and not n.endswith("witness_frac")))


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.incl_ns = {}
        self.counts = {}
        self.gcd_pairs = set()
        self.jobs = {}
        self._stack = [0]
        self._open = {}
        self._job = None

    # -- wrappers -------------------------------------------------------------

    def _span(self, group, fn):
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        for d in (calls, self_ns, incl_ns):
            d.setdefault(group, 0)
        is_open = self._open.setdefault(group, [False])
        stack = self._stack
        clock = time.perf_counter_ns
        on_gcd = self._on_gcd if group == "ratfunc.mp_gcd" else None

        def wrapper(*args, **kwargs):
            if is_open[0]:
                return fn(*args, **kwargs)
            is_open[0] = True
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                is_open[0] = False
                calls[group] += 1
                self_ns[group] += dt - child
                incl_ns[group] += dt
            if on_gcd is not None:
                on_gcd(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gcd(self, args, out):
        key = (hash(args[0]), hash(args[1]))
        self.gcd_pairs.add(key)
        if out.is_const():
            self._bump("mp_gcd.trivial")
        if self._job is not None:
            self._job["pairs"].add(key)

    def reset(self):
        """Zero every record, keeping the wrappers (for a forked process
        that reports only its own work)."""
        for d in (self.calls, self.self_ns, self.incl_ns):
            for k in d:
                d[k] = 0
        self.counts.clear()
        self.gcd_pairs.clear()
        self.jobs.clear()
        self._job = None

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self):
        for group, owner, attr in SPANS:
            fn = getattr(owner, attr)
            _rebind(owner, fn, self._span(group, fn))

        bump = self._bump
        divexact = ratfunc.divexact

        def counted_divexact(f, g):
            bump("divexact.calls")
            return divexact(f, g)

        _rebind(ratfunc, divexact, counted_divexact)

        matrix_add = repn.MatrixRF.__add__

        def counted_matrix_add(a, b):
            bump("matrix_add.calls")
            bump("matrix_add.entries", a.nrows * a.ncols)
            return matrix_add(a, b)

        _rebind(repn.MatrixRF, matrix_add, counted_matrix_add)

        word_nf = presentations.Presentation.word_normal_form

        def counted_word_nf(p, word, bound=None):
            # mirrors the memo rule of Presentation.word_normal_form
            bump("word_nf.calls")
            if ((bound is None or bound == p.degree_bound)
                    and p._word_nf_version == p._rules_version
                    and word in p._word_nf):
                bump("word_nf.hits")
            return word_nf(p, word, bound)

        _rebind(presentations.Presentation, word_nf, counted_word_nf)

        is_zero_mod = presentations.Presentation.is_zero_mod

        def counted_is_zero_mod(p, x, reps=(), bound=None):
            out = is_zero_mod(p, x, reps, bound)
            bump("is_zero_mod.calls")
            if out == "unknown":
                bump("is_zero_mod.unknown")
            return out

        _rebind(presentations.Presentation, is_zero_mod, counted_is_zero_mod)

    # -- job marks ------------------------------------------------------------

    def job_begin(self):
        self._job = {"pairs": set(), "gcd": self.calls["ratfunc.mp_gcd"],
                     "witness": self.incl_ns["repn.evaluate_tensor"],
                     "t0": time.perf_counter_ns()}

    def job_end(self, name):
        j, self._job = self._job, None
        dt = time.perf_counter_ns() - j["t0"]
        witness = self.incl_ns["repn.evaluate_tensor"] - j["witness"]
        self.jobs[name] = {
            "mp_gcd.calls": self.calls["ratfunc.mp_gcd"] - j["gcd"],
            "mp_gcd.distinct": len(j["pairs"]),
            "witness_frac": witness / dt if dt else 0.0,
        }

    def raw(self):
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "incl_ns": dict(self.incl_ns), "counts": dict(self.counts),
                "gcd_pairs": sorted(self.gcd_pairs), "jobs": dict(self.jobs)}


def _rebind(owner, fn, wrapper):
    """Replace fn by wrapper in owner and in every loopdeform module that
    holds the same object under any name."""
    targets = [owner]
    targets.extend(m for n, m in sorted(sys.modules.items())
                   if n == "loopdeform" or n.startswith("loopdeform."))
    for target in targets:
        for key, value in list(vars(target).items()):
            if value is fn:
                setattr(target, key, wrapper)


def merge(raws):
    """Sum raw records of several processes (the CLI commands of cli-sweep
    each run in a forked process)."""
    out = {"calls": {}, "self_ns": {}, "incl_ns": {}, "counts": {},
           "gcd_pairs": set(), "jobs": {}}
    for r in raws:
        for key in ("calls", "self_ns", "incl_ns", "counts"):
            for k, v in r[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["gcd_pairs"].update(tuple(p) for p in r["gcd_pairs"])
        out["jobs"].update(r["jobs"])
    return out


def per_layer(raw):
    return {name: read(raw) for name, (_, read) in PER_LAYER.items()}

