import contextvars
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrac import jfraction as jfraction_module
from jfrac.errors import NonRegular
from jfrac.families import family_jfraction, family_moments, make_family
from jfrac.jfraction import (
    JFraction,
    cf_series,
    det_bareiss,
    hankel,
    jfraction_from_moments,
    monic_polys,
    tableau_from_jfraction,
    verify_connection,
    verify_convolution,
)


def const_jf(b_val, lam_val, depth=10):
    return JFraction(tuple(F(b_val) for _ in range(depth)), tuple(F(lam_val) for _ in range(depth)))


# the classic moment sequences, each pinned against published values

def test_catalan_interleaved():
    tab = tableau_from_jfraction(const_jf(0, 1), 8)
    assert tab.row0 == (1, 0, 1, 0, 2, 0, 5, 0, 14)


def test_motzkin_numbers():
    tab = tableau_from_jfraction(const_jf(1, 1), 6)
    assert tab.row0 == (1, 1, 2, 4, 9, 21, 51)


def test_bell_numbers():
    jf = JFraction(tuple(F(n + 1) for n in range(8)), tuple(F(n) for n in range(1, 9)))
    assert tableau_from_jfraction(jf, 6).row0 == (1, 1, 2, 5, 15, 52, 203)


def test_factorials():
    jf = JFraction(tuple(F(2 * n + 1) for n in range(8)), tuple(F(n * n) for n in range(1, 9)))
    assert tableau_from_jfraction(jf, 6).row0 == (1, 1, 2, 6, 24, 120, 720)


def test_half_integer_lambdas():
    # b = 0, lambda_n = n/2 gives mu_{2k} = (2k-1)!!/2^k
    jf = JFraction(tuple(F(0) for _ in range(6)), tuple(F(n, 2) for n in range(1, 7)))
    tab = tableau_from_jfraction(jf, 4)
    assert tab.entry(0, 2) == F(1, 2)
    assert tab.entry(0, 4) == F(3, 4)


def test_tableau_shape():
    tab = tableau_from_jfraction(const_jf(1, 1), 8)
    for n in range(9):
        assert tab.entry(n, n) == 1
        assert tab.entry(n + 1, n) == 0
    # interior recurrence spot check
    assert tab.entry(1, 4) == tab.entry(0, 3) + tab.entry(1, 3) + tab.entry(2, 3)


def test_b_recovered_from_superdiagonal():
    jf = JFraction(tuple(F(k, 3) for k in range(1, 9)), tuple(F(2) for _ in range(8)))
    tab = tableau_from_jfraction(jf, 8)
    assert tab.entry(0, 1) == jf.b[0]
    for n in range(1, 7):
        assert tab.entry(n, n + 1) - tab.entry(n - 1, n) == jf.b[n]


def test_lambda_product():
    jf = JFraction((F(0),) * 5, (F(2), F(3), F(5), F(7), F(11)))
    assert jf.lambda_product(0) == 1
    assert jf.lambda_product(3) == 30


def test_det_bareiss_small():
    assert det_bareiss([[F(1)]]) == 1
    assert det_bareiss([[F(1), F(2)], [F(3), F(4)]]) == -2
    m = [[F(2), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(3), F(1)]]
    assert det_bareiss(m) == 2 * (1 - 0) - 0 + 1 * (3 - 0)


def test_det_bareiss_fraction_entries():
    m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    assert det_bareiss(m) == F(1, 10) - F(1, 12)


def test_hankel_kinds():
    mu = [F(1), F(0), F(1, 2), F(0), F(3, 4), F(0), F(15, 8)]
    assert hankel(mu, "D", 0) == 1
    assert hankel(mu, "D", 1) == F(1, 2)
    assert hankel(mu, "D", 2) == det_bareiss(
        [[F(1), F(0), F(1, 2)], [F(0), F(1, 2), F(0)], [F(1, 2), F(0), F(3, 4)]]
    )
    assert hankel(mu, "chi", 0) == mu[1]
    assert hankel(mu, "Delta", 2, i=1) == det_bareiss([[F(1), F(0)], [F(1, 2), F(0)]])
    with pytest.raises(ValueError):
        hankel(mu, "D", 4)  # needs mu_8
    with pytest.raises(ValueError):
        hankel(mu, "nope", 1)


def test_jfraction_from_moments_known():
    jf = jfraction_from_moments([F(1), F(0), F(1), F(0), F(2)])
    assert jf.b == (0, 0)
    assert jf.lam == (1, 1)


def test_jfraction_from_moments_not_regular():
    with pytest.raises(NonRegular):
        jfraction_from_moments([F(1), F(0), F(0), F(0), F(0)])


rational = st.fractions(
    min_value=F(-3), max_value=F(3), max_denominator=4
)
nonzero_rational = rational.filter(lambda x: x != 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rational, min_size=6, max_size=6),
    st.lists(nonzero_rational, min_size=6, max_size=6),
)
def test_roundtrip_property(b, lam):
    """moments -> J-fraction recovers the data that generated the moments."""
    jf = JFraction(tuple(b), tuple(lam))
    mu = tableau_from_jfraction(jf, 6).row0
    back = jfraction_from_moments(list(mu))
    assert back.b == tuple(b)[: len(back.b)]
    assert back.lam == tuple(lam)[: len(back.lam)]
    assert len(back.b) == 3 and len(back.lam) == 3


def test_cf_series_agrees_with_tableau():
    jf = JFraction(
        (F(1, 2), F(-1, 3), F(2), F(0), F(1), F(1), F(1), F(2), F(0), F(1)),
        (F(1, 4), F(-2), F(3, 5), F(1), F(1), F(1), F(1), F(2), F(1), F(1)),
    )
    assert tuple(cf_series(jf, 10)) == tableau_from_jfraction(jf, 10).row0


def test_cf_series_odd_degree_ignores_the_last_lambda():
    # degree 5 reads b_0..b_2 and lambda_1..lambda_2 only
    jf = JFraction((F(1), F(0), F(-2)), (F(3), F(1, 2)))
    longer = JFraction(jf.b + (F(7), F(11)), jf.lam + (F(5), F(9)))
    assert cf_series(jf, 5) == tableau_from_jfraction(longer, 5).row0
    with pytest.raises(ValueError):
        cf_series(JFraction(jf.b, jf.lam[:1]), 5)


@pytest.mark.parametrize("call", [
    lambda jf: tableau_from_jfraction(jf, -1),
    lambda jf: cf_series(jf, -1),
    lambda jf: jfraction_from_moments([F(1), F(0), F(1)], depth=-1),
    lambda jf: jfraction_from_moments([]),
])
def test_negative_size_is_rejected(call):
    with pytest.raises(ValueError):
        call(const_jf(1, 1))


# differential tests: the mixed-moment kernel against Bareiss determinants

sparse_rational = st.one_of(st.just(F(0)), rational)


def hankel_rows(mu, i, n):
    rows = [[mu[k + c] for c in range(i + 1)] for k in range(i)]
    return rows + [[mu[n + c] for c in range(i + 1)]]


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_rational, min_size=1, max_size=11))
def test_hankel_matches_bareiss(mu):
    for i in range(len(mu)):
        for n in range(i, len(mu) - i):
            assert hankel(mu, "Delta", n, i=i) == det_bareiss(hankel_rows(mu, i, n))
        if 2 * i < len(mu):
            assert hankel(mu, "D", i) == det_bareiss(hankel_rows(mu, i, i))
        if 2 * i + 1 < len(mu):
            assert hankel(mu, "chi", i) == det_bareiss(hankel_rows(mu, i, i + 1))


def test_hankel_singular_leading_minors():
    mu = [F(0), F(1), F(0), F(1), F(0)]
    assert [hankel(mu, "D", n) for n in range(3)] == [0, -1, 0]
    assert hankel(mu, "chi", 1) == det_bareiss(hankel_rows(mu, 1, 2)) == 0
    assert hankel(mu, "Delta", 3, i=1) == det_bareiss(hankel_rows(mu, 1, 3)) == -1
    # D_1 = 0 under a nonzero D_0, then D_2 != 0 again
    mu = [F(1), F(1), F(1), F(2), F(3)]
    assert [hankel(mu, "D", n) for n in range(3)] == [1, 0, -1]
    assert hankel(mu, "Delta", 2, i=2) == -1


def bareiss_jfraction(mu, depth):
    """(b, lambda) from Hankel determinants, or the index of the first D_n = 0."""
    D = [det_bareiss(hankel_rows(mu, n, n)) for n in range(depth + 1)]
    zeros = [n for n, d in enumerate(D) if d == 0]
    if zeros:
        return zeros[0]
    chi = [det_bareiss(hankel_rows(mu, n, n + 1)) for n in range(depth)]
    D = [F(1)] + D
    b = tuple(chi[n] / D[n + 1] - (chi[n - 1] / D[n] if n else 0) for n in range(depth))
    return JFraction(b, tuple(D[n - 1] * D[n + 1] / D[n] ** 2 for n in range(1, depth + 1)))


def inverse_or_index(mu, depth):
    try:
        return jfraction_from_moments(mu, depth)
    except NonRegular as exc:
        assert str(exc) == f"Hankel determinant D_{exc.index} vanishes"
        return exc.index


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_rational, min_size=1, max_size=11), st.data())
def test_jfraction_from_moments_matches_bareiss(mu, data):
    depth = data.draw(st.integers(0, (len(mu) - 1) // 2))
    assert inverse_or_index(mu, depth) == bareiss_jfraction(mu, depth)


# the table that hankel and jfraction_from_moments share

def in_fresh_slot(fn, *args):
    """fn(*args) in an empty context, where no table is held yet."""
    return contextvars.Context().run(fn, *args)


def same(a, b):
    # equal values of other types (1, Fraction(1), 1.0) must not pass
    return type(a) is type(b) and repr(a) == repr(b)


def hankel_call(mu, kind, a, c):
    """Valid (kind, n, i) arguments picked by the integers a, c; None for chi
    on a single moment."""
    i = a % ((len(mu) + 1) // 2)
    if kind == "D":
        return "D", i, None
    if kind == "chi":
        return ("chi", a % (len(mu) // 2), None) if len(mu) >= 2 else None
    return "Delta", i + c % (len(mu) - 2 * i), i


zero_heavy = st.lists(st.sampled_from([F(0), F(0), F(0), F(1), F(-2, 3)]), min_size=3, max_size=9)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(sparse_rational, min_size=1, max_size=9),
    st.lists(sparse_rational, min_size=1, max_size=4),
    zero_heavy,
    st.data(),
)
def test_shared_table_matches_bareiss_and_a_fresh_slot(base, extra, zeros, data):
    mutable = list(base)
    sequences = [
        base,
        base[: data.draw(st.integers(1, len(base)))],  # a prefix
        base + extra,  # an extension
        [int(x) if x.denominator == 1 else x for x in base],  # equal values, some as int
        [float(x) for x in base],  # equal values as float: no Bareiss oracle
        mutable,  # changed in place between calls
        zeros,  # singular leading minors
    ]
    ops = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(sequences) - 1),
            st.sampled_from(["D", "chi", "Delta", "inverse", "mutate"]),
            st.integers(0, 20),
            st.integers(0, 20),
        ),
        min_size=1,
        max_size=30,
    ))
    for which, kind, a, c in ops:
        mu = sequences[which]
        exact = not isinstance(mu[0], float)
        if kind == "mutate":
            mutable[a % len(mutable)] = F(c - 10, 3)
        elif kind == "inverse":
            depth = a % ((len(mu) + 1) // 2)
            got = inverse_or_index(mu, depth)
            assert same(got, in_fresh_slot(inverse_or_index, mu, depth))
            if exact:
                assert got == bareiss_jfraction(mu, depth)
        elif (call := hankel_call(mu, kind, a, c)) is not None:
            kind, n, i = call
            got = hankel(mu, kind, n, i)
            assert same(got, in_fresh_slot(hankel, mu, kind, n, i))
            if exact:
                rows = {"D": (n, n), "chi": (n, n + 1), "Delta": (i, n)}[kind]
                assert got == det_bareiss(hankel_rows(mu, *rows))


def test_shared_table_is_keyed_by_values_types_and_contents():
    mu = [F(1), F(1), F(2), F(5), F(14)]
    assert hankel(mu, "D", 2) == 1
    # the same values as floats get their own table, and so their own type
    assert same(hankel([float(m) for m in mu], "D", 2), 1.0)
    assert same(hankel(mu, "D", 2), F(1))
    # a list changed in place is a different sequence
    mu[4] = F(15)
    assert hankel(mu, "D", 2) == det_bareiss(hankel_rows(mu, 2, 2)) == 2
    # a leading minor that vanishes after a hankel call on the same moments
    mu = [F(1), F(1), F(1), F(2), F(3)]
    assert [hankel(mu, "D", n) for n in range(3)] == [1, 0, -1]
    with pytest.raises(NonRegular) as info:
        jfraction_from_moments(mu)
    assert info.value.index == 1


def test_threads_hold_tables_of_their_own():
    # each thread alternates two sequences; a table shared between threads
    # would hand one thread rows grown from another thread's moments
    sequences = [[F(k + 1, j + 2) ** (k % 3) for k in range(15)] for j in range(8)]
    expected = [[det_bareiss(hankel_rows(mu, n, n)) for n in range(8)] for mu in sequences]
    failures = []

    def work(j):
        mine, other = sequences[j], sequences[(j + 1) % 8]
        for _ in range(5):
            for n in range(8):
                if hankel(mine, "D", n) != expected[j][n]:
                    failures.append((j, n))
                hankel(other, "D", n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_determinants_after_the_inverse_build_no_row():
    # the exact round trip's pattern: invert, then ask D_0..D_N of the same moments
    spec = make_family("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)})
    mu = tuple(family_moments(spec, 40))

    def invert_then_determinants():
        jf = jfraction_from_moments(mu)
        table = jfraction_module._table.get()
        rows = len(table.sigma)
        dets = [hankel(mu, "D", n) for n in range(21)]
        assert jfraction_module._table.get() is table and len(table.sigma) == rows == 21
        return jf, dets

    jf, dets = in_fresh_slot(invert_then_determinants)
    # Heilermann: D_n = lambda_1^n lambda_2^(n-1) ... lambda_n
    expected = [F(1)]
    for n in range(1, 21):
        expected.append(expected[-1] * jf.lambda_product(n))
    assert dets == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(sparse_rational, min_size=12, max_size=12),
    st.lists(nonzero_rational, min_size=12, max_size=12),
)
def test_cf_series_matches_tableau(b, lam):
    jf = JFraction(tuple(b), tuple(lam))
    for N in range(13):
        short = JFraction(jf.b[: N // 2 + 1], jf.lam[: N // 2])
        assert cf_series(short, N) == tableau_from_jfraction(jf, N).row0


def test_inverse_and_series_at_degree_80():
    # O(N^2) exact core: the quartic and cubic routes took minutes here
    spec = make_family("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)})
    mu = family_moments(spec, 80)
    jf = jfraction_from_moments(mu, depth=40)
    assert jf == family_jfraction(spec, 40)
    assert list(cf_series(jf, 79)) == mu[:80]


def test_monic_polys_hermite_like():
    jf = JFraction(tuple(F(0) for _ in range(6)), tuple(F(n, 2) for n in range(1, 7)))
    table = monic_polys(jf, 4)
    assert table.poly(0) == [F(1)]
    assert table.poly(1) == [F(0), F(1)]
    assert table.poly(2) == [F(-1, 2), F(0), F(1)]
    assert table.poly(3) == [F(0), F(-3, 2), F(0), F(1)]
    assert table.eval_at(2, F(2)) == F(7, 2)


def test_connection_identity():
    jf = JFraction(
        (F(1), F(1, 2), F(0), F(2), F(1), F(1), F(1), F(1)),
        (F(1, 3), F(2), F(-1), F(1), F(1), F(1), F(1), F(1)),
    )
    tab = tableau_from_jfraction(jf, 7)
    polys = monic_polys(jf, 7)
    for n in range(8):
        assert verify_connection(tab, polys, n)


def test_connection_detects_corruption():
    jf = const_jf(1, 1, depth=8)
    tab = tableau_from_jfraction(jf, 6)
    polys = monic_polys(jf, 6)
    broken = [list(polys.coeffs[n]) for n in range(7)]
    broken[3][1] += 1
    from jfrac.jfraction import MonicPolyTable

    assert not verify_connection(tab, MonicPolyTable(broken), 5)


def test_convolution_identity():
    jf = JFraction(
        (F(1, 2), F(1), F(-1), F(0), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1)),
        (F(2), F(1, 2), F(3), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1)),
    )
    tab = tableau_from_jfraction(jf, 12)
    for k in range(7):
        for l in range(k, min(7, 13 - k)):
            assert verify_convolution(tab, jf, k, l)


def test_convolution_detects_wrong_weights():
    jf = const_jf(0, 1, depth=10)
    tab = tableau_from_jfraction(jf, 8)
    wrong = JFraction(jf.b, tuple(F(2) for _ in range(10)))
    assert not verify_convolution(tab, wrong, 3, 3)
