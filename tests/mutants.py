"""Source mutants and the tests that must catch them.

Each mutant is a file under ``src``, an exact snippet that occurs once in
it, the snippet's replacement, and the test node ids that must all fail
once the replacement is made.  ``tests/test_mutants.py`` checks in the
tier-1 run that every snippet still occurs exactly once, so a refactor that
moves one has to update this list.

Run from the repository root (stdlib only; pytest runs as a subprocess):

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 4      # the mutants at these indices

The script copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, checks that the named tests pass there, then applies one mutant
at a time to a fresh copy and runs only its named tests, with a fixed
Hypothesis seed.  A mutant survives when any of its tests passes.  The exit
status is the number of survivors.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple


_TRANSLATION = "tests/test_translation.py::"
_FAMILIES = "tests/test_families.py::"
_JFRACTION = "tests/test_jfraction.py::"
_COMMON = "tests/test_common_denominator.py::"
_Q_PRODUCTS = "tests/test_q_products.py::"
_THEOREMS = "tests/test_theorems.py::"
_SCALAR = "tests/test_scalar.py::"
_PINNED = _THEOREMS + "test_suite_document_is_deterministic"
_KERNEL = "tests/test_series_kernel.py::test_kernel_matches_the_op_table_kernel_bit_for_bit"
_EXACT_ROWS = "tests/test_exact_series.py::test_int_pair_rows_match_the_fraction_loop"

MUTANTS = [
    # the q-binomial translates of a Q Term (families.Term)
    Mutant(
        "translated Q_0 without its factor (-ds; q)_inf",
        "src/jfrac/families.py",
        "_over_qpochs(q_pochhammer_inf(ds, q, ctx), [",
        "_over_qpochs(1, [",
        (
            _TRANSLATION + "test_family_closed_form_matches_series_route[big_q_jacobi-params1]",
            _TRANSLATION + "test_family_closed_form_matches_series_route[al_salam_carlitz-params2]",
        ),
    ),
    Mutant(
        "translated Q_0 without its lower parameter -ds",
        "src/jfrac/families.py",
        "lower + [ds], q,",
        "lower, q,",
        # the translated sum diverges and gives up after max_terms, which a
        # Hypothesis test would meet again at each shrinking step
        (
            _TRANSLATION + "test_family_closed_form_matches_series_route[little_q_jacobi-params0]",
            _TRANSLATION + "test_family_closed_form_matches_series_route[big_q_jacobi-params1]",
            _TRANSLATION + "test_family_closed_form_matches_series_route[al_salam_carlitz-params2]",
        ),
    ),
    Mutant(
        "companion at argument -z_j q^(j+1) s",
        "src/jfrac/families.py",
        "-z * sv * q ** j, ctx)",
        "-z * sv * q ** (j + 1), ctx)",
        (
            _TRANSLATION + "test_companion_is_the_twisted_series",
            _FAMILIES + "test_twisted_partner_series[al_salam_carlitz]",
            _FAMILIES + "test_twisted_partner_series[little_q_jacobi]",
        ),
    ),
    Mutant(
        "companion without its lower parameter -dsq^j",
        "src/jfrac/families.py",
        "lower + [dsq], q,",
        "lower, q,",
        (
            _TRANSLATION + "test_companion_is_the_twisted_series",
            _FAMILIES + "test_twisted_partner_series[al_salam_carlitz]",
            _FAMILIES + "test_twisted_partner_series[little_q_jacobi]",
        ),
    ),
    # the companion as families and cases take it
    Mutant(
        "eval_rphis drops a lone upper 0 too",
        "src/jfrac/series.py",
        "pairs = min(map(len, zeros))",
        "pairs = len(zeros[0])",
        (
            "tests/test_series_core.py::test_eval_rphis_cancels_each_upper_and_lower_zero_pair",
            _FAMILIES + "test_twisted_partner_series[al_salam_carlitz]",
        ),
    ),
    Mutant(
        "asc_noncomm under its family's own q-translation",
        "src/jfrac/theorems.py",
        "        kind=lambda spec: NonCommutative(spec.translation.q),\n",
        "",
        (
            "tests/test_theorems.py::test_exact_theorems[asc_noncomm]",
            "tests/test_acceptance.py::test_criterion_08_noncommutative_coefficients",
        ),
    ),
    # the evaluators a Term-declared q-family takes from its Term (families._term_family)
    Mutant(
        "the constructor's companion taken as Q_j itself",
        "src/jfrac/families.py",
        "q_tilde_fn=q.companion)",
        "q_tilde_fn=q.value)",
        (
            _TRANSLATION + "test_derived_companion_reproduces_the_written_form",
            _FAMILIES + "test_twisted_partner_series[little_q_jacobi]",
            "tests/test_theorems.py::test_numeric_theorems[little_qj]",
        ),
    ),
    Mutant(
        "the constructor derives no translated Q_0",
        "src/jfrac/families.py",
        "translated_q0_fn=q.translated_q0, ",
        "",
        (
            _TRANSLATION + "test_family_closed_form_matches_series_route[little_q_jacobi-params0]",
            _TRANSLATION + "test_family_closed_form_matches_series_route[big_q_jacobi-params1]",
            _TRANSLATION + "test_family_closed_form_matches_series_route[al_salam_carlitz-params2]",
            "tests/test_theorems.py::test_numeric_theorems[little_qj]",
        ),
    ),
    # the mixed-moment table's int rows (jfraction._MomentTable, _next_int_row)
    Mutant(
        "int rows without the gcd division",
        "src/jfrac/jfraction.py",
        "    g = math.gcd(scale, *row)\n",
        "    g = 1\n",
        (_JFRACTION + "test_int_row_scales_are_the_lcm_of_their_denominators",),
    ),
    Mutant(
        "int rows with C over the wrong row's scale",
        "src/jfrac/jfraction.py",
        "C = lam.numerator * (scale // (t * lam.denominator))",
        "C = lam.numerator * (scale // (s * lam.denominator))",
        (_JFRACTION + "test_int_rows_match_the_fraction_loop",),
    ),
    Mutant(
        "lambda_k with the two rows' scales swapped",
        "src/jfrac/jfraction.py",
        "Fraction(num[k][l] * scale[k2], scale[k] * num[k2][l2])",
        "Fraction(num[k][l] * scale[k], scale[k2] * num[k2][l2])",
        (_JFRACTION + "test_int_rows_match_the_fraction_loop",),
    ),
    Mutant(
        "row 0 over the largest denominator instead of their lcm",
        "src/jfrac/jfraction.py",
        "den = math.lcm(*(m.denominator for m in mu))",
        "den = max(m.denominator for m in mu)",
        (_JFRACTION + "test_int_rows_match_the_fraction_loop",),
    ),
    Mutant(
        "D_n read as lead[n]",
        "src/jfrac/jfraction.py",
        "return table.lead[i + 1]  # D_i",
        "return table.lead[i]  # D_i",
        (
            _JFRACTION + "test_int_rows_match_the_fraction_loop",
            _JFRACTION + "test_determinants_after_the_inverse_build_no_row",
        ),
    ),
    # the value loop of cf_series and the window of the walk (motzkin._walk)
    Mutant(
        "cf_series's value loop one level short",
        "src/jfrac/jfraction.py",
        "    for m in range(1, levels):\n        A_prev, A = A, _three_term(",
        "    for m in range(1, levels - 1):\n        A_prev, A = A, _three_term(",
        (_COMMON + "test_tableau_and_series_on_both_sides",),
    ),
    Mutant(
        "the walk's window without its top trim",
        "src/jfrac/motzkin.py",
        "min(new_hi, end + remaining)",
        "new_hi",
        (
            _COMMON + "test_walk_keeps_the_levels_that_reach_end[ints]",
            _COMMON + "test_walk_keeps_the_levels_that_reach_end[fused]",
            _COMMON + "test_walk_keeps_the_levels_that_reach_end[values]",
        ),
    ),
    # the tableau's entries, built where they are read (motzkin._level_value)
    Mutant(
        "diagonal of an int column read as its scale instead of 1",
        "src/jfrac/motzkin.py",
        "return 1 if i == top else Fraction(column[i - lo], scale)",
        "return scale if i == top else Fraction(column[i - lo], scale)",
        (
            _JFRACTION + "test_connection_identity",
            _COMMON + "test_tableau_reads_match_an_eager_fill",
            _COMMON + "test_tableau_and_series_on_both_sides",
        ),
    ),
    # the q-factor products behind the q-families' recurrence data (families._q_factors)
    Mutant(
        "q-factor exponent one too high",
        "src/jfrac/families.py",
        "pm, rm = q_power(k * n + l)",
        "pm, rm = q_power(k * n + l + 1)",
        (
            _Q_PRODUCTS + "test_declared_recurrence_matches_the_printed_form[little_q_jacobi]",
            _Q_PRODUCTS + "test_declared_recurrence_matches_the_printed_form[q_ultraspherical_beta0]",
            _Q_PRODUCTS + "test_bessel_sum_coefficients_match_the_printed_recurrence[qultra_coef]",
            _Q_PRODUCTS + "test_q_factor_products",
            _FAMILIES + "test_exact_family_outputs_are_pinned",
        ),
    ),
    Mutant(
        "little q-Jacobi's factor 1 - b q^n of C_n moved below the line",
        "src/jfrac/families.py",
        "top=((1, 1, 1, 0), (1, b, 1, 0)), bottom=((1, ab, 2, 0),",
        "top=((1, 1, 1, 0),), bottom=((1, b, 1, 0), (1, ab, 2, 0),",
        (
            _Q_PRODUCTS + "test_declared_recurrence_matches_the_printed_form[little_q_jacobi]",
            _FAMILIES + "test_exact_family_outputs_are_pinned",
        ),
    ),
    # the Bessel sums behind the Q_j of q_ultraspherical and askey_wilson_slice (families._BesselSum)
    Mutant(
        "Bessel sum returns its partial sum when the terms run out",
        "src/jfrac/families.py",
        'raise NonConvergent("Bessel sum did not satisfy the stopping rule", ctx.max_terms, total)',
        "return SeriesValue(total, ctx.max_terms, abs(term))",
        (
            _FAMILIES + "test_bessel_sum_out_of_terms_raises",
            "tests/test_cli.py::test_verify_bessel_sum_out_of_terms_is_recorded",
        ),
    ),
    Mutant(
        "Bessel sum weight w_k without its 2^(step k)",
        "src/jfrac/families.py",
        "(w.denominator * g) << step",
        "w.denominator * g",
        (
            _FAMILIES + "test_exact_family_outputs_are_pinned",
            _FAMILIES + "test_bessel_sum_matches_mpmath_besseli[q_ultraspherical]",
            _FAMILIES + "test_bessel_sum_matches_mpmath_besseli[askey_wilson_slice]",
            _Q_PRODUCTS + "test_bessel_sum_coefficients_match_the_printed_recurrence[qultra_coef]",
            _Q_PRODUCTS + "test_bessel_sum_coefficients_match_the_printed_recurrence[aw_term_factor]",
        ),
    ),
    Mutant(
        "Bessel sum weight stepped by its ratio upside down",
        "src/jfrac/families.py",
        "num, den = w.numerator * f, (w.denominator * g) << step",
        "num, den = w.numerator * g, (w.denominator * f) << step",
        (
            _FAMILIES + "test_exact_family_outputs_are_pinned",
            _Q_PRODUCTS + "test_bessel_sum_coefficients_match_the_printed_recurrence[qultra_coef]",
            _Q_PRODUCTS + "test_bessel_sum_coefficients_match_the_printed_recurrence[aw_term_factor]",
        ),
    ),
    Mutant(
        "Bessel sum stopping floor 1 in U's scale, not 2^(j+1)/|t|",
        "src/jfrac/families.py",
        "floor = mpmath.mpf(2) ** (j + 1) / abs(tv)",
        "floor = mpmath.mpf(1)",
        (_THEOREMS + "test_suite_series_work_is_pinned",),
    ),
    # the rational Pochhammer weights of the Bessel and confluent cases
    # (theorems), stepped by their term ratios on int pairs
    Mutant(
        "conf_hyp_1f1's weight without its n!",
        "src/jfrac/theorems.py",
        "(ab + 1, 1), (1, 1)),",
        "(ab + 1, 1)),",
        (_PINNED, _THEOREMS + "test_numeric_theorems[conf_hyp_1f1]"),
    ),
    Mutant(
        "bessel_plus's 4^n as 2^n",
        "src/jfrac/theorems.py",
        "((nu, 1), (4, 0), (nu + 1, 1), (nu + 1, 1))",
        "((nu, 1), (2, 0), (nu + 1, 1), (nu + 1, 1))",
        (_PINNED, _THEOREMS + "test_numeric_theorems[bessel_plus]"),
    ),
    Mutant(
        "bessel_reduction's (mu+1)_2n stepped as (mu+2)_2n",
        "src/jfrac/theorems.py",
        "(mu + 1, 2), (mu + 2, 2)),",
        "(mu + 2, 2), (mu + 3, 2)),",
        (_PINNED, _THEOREMS + "test_identities[bessel_reduction]"),
    ),
    Mutant(
        "a stepped weight's factor u + v n read at n + 1",
        "src/jfrac/theorems.py",
        "m, num, den = len(w) - 1, w[-1].numerator, w[-1].denominator",
        "m, num, den = len(w), w[-1].numerator, w[-1].denominator",
        (_PINNED, _THEOREMS + "test_numeric_theorems[conf_hyp_1f1]", _THEOREMS + "test_numeric_theorems[bessel_plus]"),
    ),
    # the declared recurrence data the plane waves read (families.ultraspherical, families.jacobi)
    Mutant(
        "ultraspherical's lambda_n with 2 for its 4",
        "src/jfrac/families.py",
        "/ (4 * (nu + j - 1) * (nu + j))",
        "/ (2 * (nu + j - 1) * (nu + j))",
        (
            _PINNED,
            _THEOREMS + "test_identities[plane_wave_ultra]",
            _THEOREMS + "test_identities[plane_wave_cheby]",
            _FAMILIES + "test_monic_values_meet_the_q_series_in_the_tableau[ultraspherical]",
        ),
    ),
    Mutant(
        "Jacobi's b_n with alpha and beta swapped",
        "src/jfrac/families.py",
        "return (beta * beta - alpha * alpha) / (",
        "return (alpha * alpha - beta * beta) / (",
        (
            _PINNED,
            _THEOREMS + "test_identities[plane_wave_jacobi]",
            _FAMILIES + "test_monic_values_meet_the_q_series_in_the_tableau[jacobi]",
        ),
    ),
    # the one numeric sum (theorems._sum_report)
    Mutant(
        "symmetric shortcut taken at s != t",
        "src/jfrac/theorems.py",
        "same = left == right and s == t",
        "same = left == right",
        (
            _THEOREMS + "test_numeric_theorems[affine]",
            _THEOREMS + "test_numeric_theorems[mp_moments]",
            _THEOREMS + "test_numeric_theorems[conf_hyp_1f1]",
        ),
    ),
    Mutant(
        "pref dropped from the left side",
        "src/jfrac/theorems.py",
        "            value = value if pref is None else pref * value\n",
        "",
        (_THEOREMS + "test_numeric_theorems[bessel_plus]", _THEOREMS + "test_identities[bessel_reduction]"),
    ),
    # the exact comparisons on int pairs (theorems._compare, _bilinear_check and the identities)
    Mutant(
        "exact comparator matching numerators alone",
        "src/jfrac/theorems.py",
        "gap = a * d - c * b",
        "gap = a - c",
        (
            _THEOREMS + "test_int_pair_bilinear_check_matches_the_fraction_reference",
            _THEOREMS + "test_exact_theorems[hermite_moments]",
            _THEOREMS + "test_identities[connection_rogers]",
        ),
    ),
    Mutant(
        "exact deviation read as |lhs| alone",
        "src/jfrac/theorems.py",
        "else abs(gap)",
        "else abs(a * d)",
        (_THEOREMS + "test_int_pair_bilinear_check_matches_the_fraction_reference",),
    ),
    Mutant(
        "complex deviation read off the real part alone",
        "src/jfrac/theorems.py",
        "max(abs(gap.re), abs(gap.im))",
        "abs(gap.re)",
        ("tests/test_cli.py::test_complex_mismatch_fails_with_a_rational_deviation",),
    ),
    Mutant(
        "bilinear product without w_n's denominator",
        "src/jfrac/theorems.py",
        "wcols = [[(p * a, q * b) for",
        "wcols = [[(p * a, b) for",
        (
            _THEOREMS + "test_int_pair_bilinear_check_matches_the_fraction_reference",
            _THEOREMS + "test_exact_theorems[classical_generic]",
            _THEOREMS + "test_exact_theorems[asc_noncomm]",
        ),
    ),
    Mutant(
        "hermite_convolution's left side without its m! n!",
        "src/jfrac/theorems.py",
        "yield (a, b * scale), rhs",
        "yield (a, b), rhs",
        (_THEOREMS + "test_identities[hermite_convolution]", _THEOREMS + "test_identity_parameter_overrides"),
    ),
    Mutant(
        "hermite_convolution's (-2)^k as 2^k",
        "src/jfrac/theorems.py",
        "((-2) ** k,",
        "(2 ** k,",
        (_THEOREMS + "test_identities[hermite_convolution]", _THEOREMS + "test_identity_parameter_overrides"),
    ),
    Mutant(
        "connection_rogers pairs the coefficient of C_{n-2k} with C_{n mod 2 + 2k}",
        "src/jfrac/theorems.py",
        "for m in range(n, -1, -2)]",
        "for m in range(n % 2, n + 1, 2)]",
        (_THEOREMS + "test_identities[connection_rogers]", _PINNED),
    ),
    Mutant(
        "Rogers' step with q^(m+1) carried where q^m belongs",
        "src/jfrac/families.py",
        "xn * (bd * R - bn * P) * cur.numerator",
        "xn * (bd * R * q.denominator - bn * P * q.numerator) * cur.numerator",
        (
            _THEOREMS + "test_identities[connection_rogers]",
            "tests/test_sequences.py::test_running_value_equals_its_from_scratch_form[cq_ultraspherical_poly]",
        ),
    ),
    # hankel_affine's exact comparison, which must not stop at the shorter list
    Mutant(
        "hankel_affine expects two determinants too few",
        "src/jfrac/theorems.py",
        "range(n_max + 1)), mul)",
        "range(n_max - 1)), mul)",
        (_THEOREMS + "test_identities[hankel_affine]", _THEOREMS + "test_hankel_affine_reports_ratios"),
    ),
    # the exact term loop (series._series) on int pairs, against the
    # reduced-Fraction loop it replaced
    Mutant(
        "q^n dropped from an upper factor's denominator",
        "src/jfrac/series.py",
        "top, top_d = top * (d * R - a * P), top_d * d * R",
        "top, top_d = top * (d * R - a * P), top_d * d",
        (_EXACT_ROWS,),
    ),
    Mutant(
        "the normaliser's exponent with its sign flipped",
        "src/jfrac/series.py",
        "P, R, e = 1, 1, 1 + len(denom) - len(numer)",
        "P, R, e = 1, 1, len(numer) - len(denom) - 1",
        (_EXACT_ROWS,),
    ),
    Mutant(
        "c_j applied to each reduced coefficient, besides entering the first pair",
        "src/jfrac/series.py",
        "term = _reduced(num, den * bottom)",
        "term = scale * _reduced(num, den * bottom)",
        (_EXACT_ROWS,),
    ),
    # the numeric term loop (series._sum) and its values (scalar.Gaussian,
    # scalar.FixedPoint), against the op-table kernel they replaced
    Mutant(
        "a negative int denominator made positive without negating the numerator",
        "src/jfrac/series.py",
        "top, bottom = -top, -bottom",
        "bottom = -bottom",
        (_KERNEL, "tests/test_series_core.py::test_shared_core_matches_the_separate_loops"),
    ),
    Mutant(
        "the real-denominator division taken when a lower parameter is complex",
        "src/jfrac/series.py",
        "top, bottom = top * bottom.conjugate(), bottom.norm()",
        "bottom = bottom.re",
        (_KERNEL, "tests/test_series_core.py::test_shared_core_matches_the_separate_loops"),
    ),
    Mutant(
        "q^n never cut back to wp bits",
        "src/jfrac/series.py",
        "extra = max(0, qn.bit_length() - wp)",
        "extra = 0",
        ("tests/test_series_core.py::test_long_loops_keep_their_ints_small[2phi0]",),
    ),
    Mutant(
        "Gaussian product with the sign of b d flipped",
        "src/jfrac/scalar.py",
        "return Gaussian(a * c - b * d, a * d + b * c)",
        "return Gaussian(a * c + b * d, a * d + b * c)",
        (_KERNEL, "tests/test_series_core.py::test_shared_core_matches_the_separate_loops"),
    ),
    # Meixner-Pollaczek's moments over Q(i) (scalar.GaussianRational and the family's Term)
    Mutant(
        "Gaussian-rational product with i^2 = +1",
        "src/jfrac/scalar.py",
        "a * c - b * e, a * e + b * c",
        "a * c + b * e, a * e + b * c",
        (
            _SCALAR + "test_gaussian_rationals_follow_pair_arithmetic",
            _FAMILIES + "test_exact_family_outputs_are_pinned",
            _THEOREMS + "test_numeric_theorems[mp_moments]",
        ),
    ),
    Mutant(
        "Gaussian-rational quotient by the divisor, not its conjugate",
        "src/jfrac/scalar.py",
        "(a * c + b * e) * f, (b * c - a * e) * f",
        "(a * c - b * e) * f, (b * c + a * e) * f",
        # the moment table's ratios divide Gaussian rationals.  test_complex_family_is_exact_through_the_core
        # would catch it too, but with the divisions inexact its Bareiss entries grow for minutes
        (
            _SCALAR + "test_gaussian_rationals_follow_pair_arithmetic",
            "tests/test_cli.py::test_affine_cases_run_on_a_complex_base",
        ),
    ),
    Mutant(
        "Meixner-Pollaczek's w = e^(-2i phi) - 1 with the sign of its imaginary part flipped",
        "src/jfrac/families.py",
        "(sin_phi + i * cos_phi)",
        "(sin_phi - i * cos_phi)",
        (
            _FAMILIES + "test_moments_match_closed_form[meixner_pollaczek_moments]",
            _FAMILIES + "test_weight_is_lambda_product[meixner_pollaczek_moments]",
            _FAMILIES + "test_exact_family_outputs_are_pinned",
        ),
    ),
    Mutant(
        "a complex input's imaginary part dropped in fixed point",
        "src/jfrac/scalar.py",
        "return Gaussian(re, im[0]) if im and im[0] else re",
        "return re",
        (_KERNEL, "tests/test_series_core.py::test_shared_core_matches_the_separate_loops"),
    ),
    # the catalog facts, declared beside each family's sample (registry.FAMILIES)
    Mutant(
        "derangement declared with a twisted companion",
        "src/jfrac/registry.py",
        '(above(-1, "alpha"), nonzero("x")), CLASSICAL),',
        '(above(-1, "alpha"), nonzero("x")), ("Classical", True, False)),',
        (
            _FAMILIES + "test_catalog_facts_match_the_built_sample[derangement]",
            "tests/test_cli.py::test_catalog_json_is_pinned",
        ),
    ),
]


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _failed(tree, tests):
    """The subset of ``tests`` that fail (or error) when run in ``tree``."""
    report = tree / "report.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           f"--junitxml={report}", *tests]
    subprocess.run(cmd, cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    ran, bad = set(), set()
    for case in ET.parse(report).iter("testcase"):
        node = f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}"
        ran.add(node)
        if case.find("failure") is not None or case.find("error") is not None:
            bad.add(node)
    missing = set(tests) - ran
    if missing:
        raise SystemExit(f"not collected: {sorted(missing)}")
    return bad


def main(argv):
    chosen = [MUTANTS[int(i)] for i in argv] or MUTANTS
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = sorted({t for m in chosen for t in m.tests})
        broken = _failed(base, tests)
        if broken:
            raise SystemExit(f"fail before any mutant: {sorted(broken)}")
        survivors = 0
        for i, m in enumerate(chosen):
            tree = Path(tmp) / f"mutant{i}"
            shutil.copytree(base, tree)
            path = tree / m.file
            text = path.read_text()
            if text.count(m.snippet) != 1:
                raise SystemExit(f"{m.name}: snippet occurs {text.count(m.snippet)} times in {m.file}")
            path.write_text(text.replace(m.snippet, m.replacement))
            passed = sorted(set(m.tests) - _failed(tree, m.tests))
            survivors += bool(passed)
            print(f"{'SURVIVED' if passed else 'caught  '} {m.name}" + "".join(f"\n    passes: {t}" for t in passed))
            shutil.rmtree(tree)
    print(f"{len(chosen)} mutants, {survivors} survived, {time.perf_counter() - start:.1f} s")
    return survivors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
