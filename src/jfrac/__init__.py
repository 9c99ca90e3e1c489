"""Exact Stieltjes tableaux, J-fractions, and addition-theorem verification."""

from .errors import (
    DegreeMismatch,
    DomainError,
    GammaPole,
    InvalidParams,
    JfracError,
    NonConvergent,
    NonRegular,
    PoleInDenominator,
    UnknownTheorem,
    Unsupported,
    UnsupportedTilde,
)
from .scalar import (
    PrecisionContext,
    binom,
    factorial,
    pochhammer,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
    rat,
    rat_str,
)
from .series import (
    PowerSeries,
    SeriesValue,
    bessel_i,
    bessel_j,
    eval_pfq,
    eval_rphis,
    exp_of,
    exp_series,
    inv_qpoch_series,
    pfq_series,
    pow1p,
    qpoch_series,
    rphis_series,
)
from .jfraction import (
    JFraction,
    StieltjesTableau,
    cf_series,
    det_bareiss,
    hankel,
    jfraction_from_moments,
    tableau_from_jfraction,
)
from .motzkin import PathWeights, path_weight_sum, path_weight_sum_dp
from .translation import (
    Classical,
    NonCommutative,
    QTranslation,
    monomial_image,
    translate_eval,
    translate_series,
)
from .families import (
    CatalogEntry,
    FamilySpec,
    catalog,
    family_jfraction,
    family_moments,
    family_tableau,
    family_weights,
    make_affine,
    make_family,
    q_function,
    q_tilde_function,
    translate_q0,
)
from .theorems import (
    SUITE_VERSION,
    VerificationReport,
    identity_ids,
    report_record,
    run_suite,
    suite_document,
    theorem_ids,
    verify_identity,
    verify_theorem,
)

__version__ = "0.1.0"
