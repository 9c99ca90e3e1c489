import dataclasses
from fractions import Fraction as F

import mpmath
import pytest

from jfrac import families
from jfrac.errors import InvalidParams, Unsupported, UnsupportedTilde
from jfrac.families import (
    catalog,
    chebyshev_u,
    cq_ultraspherical_poly,
    family_jfraction,
    family_moments,
    family_tableau,
    gegenbauer_poly,
    hermite_poly,
    jacobi_poly,
    laguerre_poly,
    make_affine,
    make_family,
    meixner_poly,
    q_function,
    q_tilde_function,
    rogers_szego_poly,
    tableau_closed_form,
)
from jfrac.scalar import PrecisionContext, binom, q_pochhammer

ctx = PrecisionContext()
Q_FAMILIES = {"little_q_jacobi", "big_q_jacobi", "al_salam_carlitz"}


def sample(family_id):
    """A family instance at the parameter values used throughout the suite."""
    params = {
        "ultraspherical": {"nu": 1},
        "jacobi": {"alpha": F(1, 2), "beta": F(1, 3)},
        "laguerre": {"alpha": 0},
        "meixner": {"beta": 2, "c": F(1, 3)},
        "charlier": {"a": 1},
        "meixner_pollaczek": {"lam": 1, "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        "little_q_jacobi": {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        "big_q_jacobi": {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        "al_salam_carlitz": {"a": F(1, 3), "q": F(1, 2)},
        "q_ultraspherical": {"beta": F(1, 3), "q": F(1, 2)},
        "q_ultraspherical_beta0": {"q": F(1, 2)},
        "askey_wilson_slice": {"a": F(1, 3), "q": F(1, 2)},
        "hermite_moments": {"x": 1},
        "laguerre_moments": {"alpha": F(1, 2), "x": F(1, 2)},
        "meixner_moments": {"beta": 3, "c": F(1, 3), "x": F(1, 2)},
        "meixner_pollaczek_moments": {"lam": 1, "x": F(1, 2), "phi_over_pi": F(1, 3)},
        "gegenbauer_moments": {"nu": F(3, 2), "x": F(1, 2)},
        "derangement": {"alpha": 0, "x": 1},
    }.get(family_id, {})
    return make_family(family_id, params)


# ---------------------------------------------------------------------------
# polynomial evaluators

def test_polynomial_values():
    assert hermite_poly(3, F(1, 2)) == -5
    assert chebyshev_u(2, F(1, 2)) == 0
    assert gegenbauer_poly(2, F(3, 2), F(1)) == 6
    assert jacobi_poly(1, F(1, 2), F(1, 3), F(1)) == F(3, 2)
    assert laguerre_poly(2, F(0), F(2)) == -1
    assert meixner_poly(2, F(1), F(3), F(1, 3)) == F(-1, 3)
    assert cq_ultraspherical_poly(1, F(2), F(1, 3), F(1, 2)) == F(16, 3)
    assert rogers_szego_poly(2, F(1, 3), F(1, 2)) == F(29, 18)


def test_gegenbauer_at_one_is_rising_factorial():
    from jfrac.scalar import factorial, pochhammer

    for n in range(7):
        assert gegenbauer_poly(n, F(3, 2), F(1)) == pochhammer(3, n) / factorial(n)


# ---------------------------------------------------------------------------
# recurrence anchors

def test_recurrence_anchors():
    assert make_family("ultraspherical", {"nu": 1}).lambda_fn(1) == F(1, 4)
    assert make_family("jacobi", {"alpha": 0, "beta": 0}).lambda_fn(1) == F(1, 3)
    assert make_family("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}).lambda_fn(2) == F(-1, 8)


def test_generating_function_anchors():
    with ctx.workprec():
        h = q_function(make_family("hermite"), 0, F(1, 2), ctx).value
        assert abs(h - mpmath.exp(mpmath.mpf(1) / 16)) < mpmath.mpf(10) ** -40
        l = q_function(make_family("laguerre", {"alpha": 0}), 0, F(1, 2), ctx).value
        assert abs(l - 2) < mpmath.mpf(10) ** -40


# ---------------------------------------------------------------------------
# the structural contracts every family satisfies

@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_series_matches_tableau(entry):
    """q_series coefficients are tableau entries over the kind's denominators."""
    if not entry.exact:
        pytest.skip("series comparison is exact-only")
    spec = sample(entry.id)
    tab = family_tableau(spec, 10)
    for j in range(5):
        ser = spec.q_series_fn(j, 10)
        for n in range(11):
            assert ser[n] == tab.entry(j, n) / spec.series_denominator(n), (j, n)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_weight_is_lambda_product(entry):
    spec = sample(entry.id)
    if spec.weight_fn is None:
        pytest.skip("family carries no weight sequence")
    jf = family_jfraction(spec, 12)
    if entry.exact:
        for n in range(13):
            assert spec.weight_fn(n) == jf.lambda_product(n)
    else:
        with ctx.workprec():
            for n in range(13):
                dev = abs(ctx.number(spec.weight_fn(n)) - ctx.number(jf.lambda_product(n)))
                assert dev < mpmath.mpf(10) ** -55


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_moment_fn_matches_row0(entry):
    spec = sample(entry.id)
    if spec.moment_fn is None:
        pytest.skip("family carries no closed moments")
    tab = family_tableau(spec, 10, ctx=ctx)
    if entry.exact:
        for n in range(11):
            assert spec.moment_fn(n) == tab.entry(0, n)
    else:
        with ctx.workprec():
            for n in range(11):
                dev = abs(ctx.number(spec.moment_fn(n)) - tab.entry(0, n))
                assert dev < mpmath.mpf(10) ** -55


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_closed_tableau_matches_recurrence(entry):
    if not entry.has_closed_tableau:
        pytest.skip("no closed tableau form")
    spec = sample(entry.id)
    tab = family_tableau(spec, 8, ctx=ctx)
    for i in range(9):
        for n in range(i, 9):
            closed = tableau_closed_form(spec, i, n)
            if entry.exact:
                assert closed == tab.entry(i, n), (i, n)
            else:
                with ctx.workprec():
                    assert abs(closed - tab.entry(i, n)) < mpmath.mpf(10) ** -55


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_numeric_q_fn_sums_the_series(entry):
    spec = sample(entry.id)
    t = F(1, 5)
    tab = family_tableau(spec, 60, ctx=ctx)
    with ctx.workprec():
        for j in (0, 2):
            got = q_function(spec, j, t, ctx).value
            total = mpmath.mpf(0)
            for n in range(j, 61):
                den = spec.series_denominator(n)
                total += ctx.number(tab.entry(j, n)) * ctx.mpf(t) ** n / ctx.number(den)
            assert abs(got - total) / max(abs(total), mpmath.mpf(1)) < mpmath.mpf(10) ** -28


@pytest.mark.parametrize("family_id", sorted(Q_FAMILIES))
def test_twisted_partner_series(family_id):
    """Q-tilde sums the same row with an extra q^(n choose 2) twist."""
    spec = sample(family_id)
    q = spec.params["q"]
    s = F(1, 20)
    tab = family_tableau(spec, 50)
    with ctx.workprec():
        for j in (0, 1, 3):
            got = q_tilde_function(spec, j, s, ctx).value
            total = mpmath.mpf(0)
            for n in range(j, 51):
                twist = q ** (n * (n - 1) // 2)
                coeff = tab.entry(j, n) * twist / F(q_pochhammer(q, q, n))
                total += ctx.number(coeff) * ctx.mpf(s) ** n
            assert abs(got - total) / abs(total) < mpmath.mpf(10) ** -28


def test_tilde_missing_raises():
    with pytest.raises(UnsupportedTilde):
        q_tilde_function(make_family("hermite"), 0, F(1, 10), ctx)


def test_closed_tableau_missing_raises():
    with pytest.raises(Unsupported):
        tableau_closed_form(make_family("hermite"), 0, 2)


def test_closed_tableau_above_diagonal_is_zero():
    spec = sample("hermite_moments")
    assert tableau_closed_form(spec, 3, 1) == 0


# ---------------------------------------------------------------------------
# alternative representations

def test_little_q_jacobi_alt_representation():
    spec = sample("little_q_jacobi")
    assert spec.alt_q_fn is not None
    # the two exact series agree termwise
    for j in range(4):
        assert spec.alt_q_series_fn(j, 10) == spec.q_series_fn(j, 10)
    with ctx.workprec():
        for t in (F(1, 10), F(1, 7), F(-1, 9), F(2, 11), F(1, 3)):
            a = spec.alt_q_fn(1, t, ctx).value
            b = spec.q_fn(1, t, ctx).value
            assert abs(a - b) / abs(b) < mpmath.mpf(10) ** -28


def test_jacobi_alt_representation():
    spec = sample("jacobi")
    assert spec.alt_q_fn is not None
    with ctx.workprec():
        for t in (F(1, 10), F(-1, 8), F(1, 4), F(2, 9), F(3, 7)):
            a = spec.alt_q_fn(0, t, ctx).value
            b = spec.q_fn(0, t, ctx).value
            assert abs(a - b) / abs(b) < mpmath.mpf(10) ** -28


def test_big_q_jacobi_alt_tilde():
    spec = sample("big_q_jacobi")
    assert spec.alt_q_tilde_fn is not None
    with ctx.workprec():
        for s in (F(1, 20), F(1, 12), F(-1, 15), F(2, 17), F(1, 9)):
            a = spec.alt_q_tilde_fn(2, s, ctx).value
            b = spec.q_tilde_fn(2, s, ctx).value
            assert abs(a - b) / abs(b) < mpmath.mpf(10) ** -28


# ---------------------------------------------------------------------------
# affine images

def test_affine_transforms_the_data():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    aff = make_affine(base, F(3), F(2))
    assert aff.id == "affine(laguerre)"
    for n in range(8):
        assert aff.lambda_fn(n + 1) == base.lambda_fn(n + 1) / 9
        assert aff.b_fn(n) == (base.b_fn(n) - 2) / 3


def test_affine_moment_law():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    a, b = F(3), F(2)
    aff = make_affine(base, a, b)
    mu = family_moments(base, 10)
    mu_bar = family_moments(aff, 10)
    for n in range(11):
        want = sum(binom(n, k) * (-b) ** (n - k) * mu[k] for k in range(n + 1)) / a ** n
        assert mu_bar[n] == want


def test_affine_tableau_and_series_consistency():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    aff = make_affine(base, F(3), F(2))
    tab = family_tableau(aff, 8)
    for j in range(9):
        assert tab.entry(j, j) == 1
    ser = aff.q_series_fn(2, 8)
    for n in range(9):
        assert ser[n] == tab.entry(2, n) / aff.series_denominator(n)
    # closed entries match the recurrence
    for i in range(5):
        for n in range(i, 9):
            assert tableau_closed_form(aff, i, n) == tab.entry(i, n)


@pytest.mark.parametrize("closed_moments", [True, False])
@pytest.mark.parametrize("base_id,params", [("laguerre", {"alpha": F(1, 2)}), ("hermite", {})])
def test_affine_builds_its_base_data_once(monkeypatch, base_id, params, closed_moments):
    # the base moments come from their closed form, or (closed_moments False)
    # from the base tableau's first row
    calls = []
    base = make_family(base_id, params)
    if closed_moments:
        closed = base.moment_fn
        base = dataclasses.replace(base, moment_fn=lambda n: calls.append(n) or closed(n))
    else:
        base = dataclasses.replace(base, moment_fn=None)
    a, b = F(3), F(-1, 2)
    sizes = list(range(13)) + list(range(12, -1, -1))  # grow, then reuse

    # the binomial laws, on base data built afresh for every value
    def moment(n):
        mu = family_moments(base, n)
        return sum(binom(n, k) * (-b) ** (n - k) * mu[k] for k in range(n + 1)) / a ** n

    def entry(i, N):
        tab = family_tableau(base, N)
        return sum(binom(N, k) * (-b) ** k * tab.entry(i, N - k) for k in range(N - i + 1)) * a ** (i - N)

    want_mu = [moment(n) for n in sizes]
    want_h = [entry(i, N) for N in sizes for i in range(N + 1)]
    calls.clear()
    built = []
    build = families.family_tableau
    monkeypatch.setattr(
        families, "family_tableau", lambda spec, N, ctx=None: built.append(N) or build(spec, N, ctx)
    )
    aff = make_affine(base, a, b)
    assert [aff.moment_fn(n) for n in sizes] == want_mu
    assert [aff.tableau_entry_fn(i, N) for N in sizes for i in range(N + 1)] == want_h
    if closed_moments:
        assert calls == list(range(13))  # each base moment once
    assert built == sorted(set(built))  # the base tableau only grows


def test_affine_rejects_bad_input():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    with pytest.raises(InvalidParams):
        make_affine(base, 0, 1)
    q_base = make_family("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)})
    with pytest.raises(InvalidParams):
        make_affine(q_base, 2, 0)


# ---------------------------------------------------------------------------
# q -> 1 limit

def test_q_ultraspherical_approaches_ultraspherical():
    """With beta = q^nu the q-family's moments drift to the classical ones."""
    nu = 2
    t = F(1, 4)
    classical = make_family("ultraspherical", {"nu": nu})
    with ctx.workprec():
        target = q_function(classical, 0, t, ctx).value
    errs = []
    for k in range(3, 7):
        q = 1 - F(1, 2 ** k)
        qf = make_family("q_ultraspherical", {"beta": q ** nu, "q": q})
        with ctx.workprec():
            val = q_function(qf, 0, t, ctx).value
            errs.append(abs(val - target))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


# ---------------------------------------------------------------------------
# validation and catalog

def test_unknown_family():
    with pytest.raises(InvalidParams):
        make_family("nope")


def test_missing_and_extra_params():
    with pytest.raises(InvalidParams):
        make_family("little_q_jacobi", {"a": F(1, 3)})
    with pytest.raises(InvalidParams):
        make_family("hermite", {"x": 1})


def test_domain_checks():
    with pytest.raises(InvalidParams):
        make_family("ultraspherical", {"nu": 0})
    with pytest.raises(InvalidParams):
        make_family("laguerre", {"alpha": -2})
    with pytest.raises(InvalidParams):
        make_family("al_salam_carlitz", {"a": F(1, 3), "q": 1})
    with pytest.raises(InvalidParams):
        # a*b hitting an inverse q-power zeroes a recurrence denominator
        make_family("little_q_jacobi", {"a": 4, "b": 1, "q": F(1, 2)})
    with pytest.raises(InvalidParams):
        make_family("q_ultraspherical", {"beta": 1, "q": F(1, 2)})


@pytest.mark.parametrize("m", [0, 1, 45, 3000])
def test_unit_q_power_found_at_any_distance(m):
    # q close to 1 and m far past any fixed scan length
    q = F(999, 1000)
    with pytest.raises(InvalidParams, match=rf"q\^{m} equals 1"):
        make_family("little_q_jacobi", {"a": q ** -m, "b": 1, "q": q})
    with pytest.raises(InvalidParams, match=rf"q\^{m} equals 1"):
        make_family("askey_wilson_slice", {"a": q ** -m, "q": q})


def test_near_unit_q_power_is_admissible():
    q = F(999, 1000)
    spec = make_family("little_q_jacobi", {"a": q ** -45 * F(1001, 1000), "b": 1, "q": q})
    assert spec.lambda_fn(1) != 0


def test_meixner_moments_rejects_every_integer_degeneracy():
    for x in (0, 45, 10 ** 6):
        with pytest.raises(InvalidParams):
            make_family("meixner_moments", {"beta": 3, "c": F(1, 3), "x": x})
    with pytest.raises(InvalidParams):
        make_family("meixner_moments", {"beta": 3, "c": F(1, 3), "x": -10 ** 6})
    make_family("meixner_moments", {"beta": 3, "c": F(1, 3), "x": F(91, 2)})


def test_catalog_matches_builders():
    entries = catalog()
    assert len(entries) == 19
    assert [e.id for e in entries] == sorted(e.id for e in entries)
    for e in entries:
        spec = sample(e.id)
        assert set(e.param_names) == set(spec.params)
        assert e.has_q_tilde == (spec.q_tilde_fn is not None)


def test_series_denominator_kinds():
    assert make_family("hermite").series_denominator(4) == 24
    little = sample("little_q_jacobi")
    q = F(1, 2)
    assert little.series_denominator(3) == F(q_pochhammer(q, q, 3))
