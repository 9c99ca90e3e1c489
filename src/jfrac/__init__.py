"""Exact Stieltjes tableaux, J-fractions, and addition-theorem verification.

``import jfrac`` loads none of its modules: each name below is imported from
its module on first use (PEP 562), so a process pays only for what it runs.
The exact core (``jfraction``, ``motzkin``, ``scalar``) and the family
registry (``registry``: ids, samples, domains, the catalog) load without
``dataclasses``; the families, the translations, the series evaluators and
the verification suite load when a name of theirs is first looked up.

So does the ``jfrac`` command, which builds only the named command's
subparser: ``jfraction``, ``hankel``, ``oracle``, and ``tableau`` and
``moments`` from --b/--lambda load the exact core; ``catalog`` adds the
registry; ``tableau`` and ``moments`` with --family load ``families``, with
``dataclasses``, ``series`` and ``translation``; ``verify`` and ``report``
load ``theorems``, and mpmath once a numeric case runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "errors": """DegreeMismatch DomainError GammaPole InvalidParams JfracError NonConvergent NonRegular
        PoleInDenominator UnknownTheorem Unsupported UnsupportedTilde""",
    "scalar": "PrecisionContext binom factorial pochhammer q_binomial q_pochhammer q_pochhammer_inf rat rat_str",
    "series": """PowerSeries SeriesValue eval_pfq eval_rphis exp_of exp_series inv_qpoch_series pfq_series pow1p
        qpoch_series rphis_series""",
    "jfraction": """JFraction StieltjesTableau cf_series det_bareiss hankel jfraction_from_moments
        tableau_from_jfraction""",
    "motzkin": "PathWeights path_weight_sum path_weight_sum_dp",
    "translation": "Classical NonCommutative QTranslation monomial_image translate_eval translate_series",
    "registry": "CatalogEntry catalog",
    "families": """FamilySpec family_jfraction family_moments family_tableau family_weights make_affine make_family
        q_function q_tilde_function translate_q0""",
    "theorems": """SUITE_VERSION VerificationReport identity_ids report_record run_suite suite_document theorem_ids
        verify_identity verify_theorem""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
