"""loopdeform: exact symbolic engine for two-parameter Hopf deformations
of loop algebras, with limit degenerations, a Drinfeld twist, and classical
r-matrix checks."""

from .errors import (
    AlphabetMismatchError,
    ArityMismatchError,
    DegreeBoundExceeded,
    InvalidCartanError,
    MixedWeightError,
    NoSolutionError,
    PoleError,
    UnknownGeneratorError,
    UnsupportedAlgebraError,
)
from .ratfunc import (
    MultiPoly,
    RatFunc,
    VARIABLES,
    laurent_coeffs,
    parse_ratfunc,
    q_power,
    rf,
    rf_limit,
    rf_series_coeff,
)
from .freealg import (
    Alphabet,
    GenSymbol,
    NCPoly,
    TensorPoly,
    ad_q_power,
    commutator,
    q_commutator,
    tensor,
)
from .presentations import (
    ALGEBRA_BUILDERS,
    CartanData,
    Presentation,
    Relation,
    build_classical_sl2,
    build_drinfeldian,
    build_twisted_yangian_sl2,
    build_uq,
    build_yangian_sl2,
    cartan_data,
    compare_presentations,
    get_presentation,
    loop_shift_coefficient,
    specialize,
)
from .repn import (
    MatrixRF,
    Rep,
    check_relations_in_rep,
    default_reps,
    evaluate_tensor,
    solve_eval_correction,
    spin_rep,
)
from .hopf import (
    HopfData,
    build_hopf,
    check_antipode,
    check_coassoc,
    check_counit,
    check_homomorphism,
    loop_hopf_limit,
)
from .twist import (
    TwistSeries,
    check_cocycle,
    first_order_antisymmetry,
    series_inverse,
    twist_F,
    twist_u,
    twisted_antipode,
    twisted_coproduct,
)
from .rmatrix import (
    build_r,
    casimir_c2,
    cybe_residual,
    wedge,
)
from .serial import (
    dump_bundle,
    dump_presentation,
    load_bundle,
    load_presentation,
)

__version__ = "0.1.0"
