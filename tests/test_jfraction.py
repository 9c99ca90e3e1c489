import contextvars
import math
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
    tableau_from_jfraction,
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


# the table's int rows against the Fraction loop they replaced

def fraction_table(mu, k):
    """Rows 0..k of the mixed-moment table as values, the leading minors
    D_{-1}, D_0, ..., and the first row with a zero diagonal (or None), by the
    Chebyshev loop on Fractions (ints promoted) that ran before the int rows."""
    sigma, lead, last = [[F(m) if isinstance(m, int) else m for m in mu]], [F(1)], len(mu) - 1
    for j in range(k + 1):
        cur = sigma[j]
        if cur[j] == 0:
            return sigma, lead, j
        lead.append(lead[-1] * cur[j])
        if j == k:
            break
        b = cur[j + 1] / cur[j]
        if j == 0:
            nxt = [cur[l + 1] - b * cur[l] for l in range(1, last)]
        else:
            prev = sigma[j - 1]
            b -= prev[j] / prev[j - 1]
            lam = cur[j] / prev[j - 1]
            nxt = [cur[l + 1] - b * cur[l] - lam * prev[l] for l in range(j + 1, last - j)]
        sigma.append([0] * (j + 1) + nxt)
    return sigma, lead, None


def fraction_inverse(mu, depth):
    sigma, _, singular = fraction_table(mu, depth)
    if singular is not None:
        return singular
    b = [sigma[n][n + 1] / sigma[n][n] - (sigma[n - 1][n] / sigma[n - 1][n - 1] if n else 0) for n in range(depth)]
    return JFraction(b, [sigma[n][n] / sigma[n - 1][n - 1] for n in range(1, depth + 1)])


def fraction_hankel(mu, kind, n, i):
    if kind != "Delta":
        i, n = (n, n) if kind == "D" else (n, n + 1)
    sigma, lead, singular = fraction_table(mu, i)
    if singular is not None and singular < i:
        return det_bareiss(hankel_rows(mu, i, n))
    return lead[i] * sigma[i][n]


def same_result(a, b):
    if isinstance(a, JFraction) and isinstance(b, JFraction):
        pairs = list(zip(a.b, b.b)) + list(zip(a.lam, b.lam))
        return len(a.b) == len(b.b) and len(a.lam) == len(b.lam) and all(same(x, y) for x, y in pairs)
    return same(a, b)


wide_rational = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
moment_lists = st.one_of(
    st.lists(sparse_rational, min_size=1, max_size=15),  # sparse
    st.lists(st.sampled_from([0, 0, 0, 1, -2, F(0), F(1, 3)]), min_size=1, max_size=15),  # zero-heavy
    st.lists(st.integers(-6, 6), min_size=1, max_size=15),  # all int
    st.lists(st.one_of(st.integers(-10**6, 10**6), wide_rational), min_size=1, max_size=15),  # mixed
)


@settings(max_examples=150, deadline=None)
@given(moment_lists, st.booleans(), st.randoms(use_true_random=False))
def test_int_rows_match_the_fraction_loop(mu, as_float, rng):
    # every inverse depth and every D, chi and Delta of one sequence, in a
    # drawn order on one shared table: equal values of equal types
    if as_float:  # the value loop, which non-rational moments keep
        mu = [float(m) for m in mu]
    calls = [("inverse", d, None) for d in range((len(mu) + 1) // 2)]
    calls += [("D", n, None) for n in range((len(mu) + 1) // 2)]
    calls += [("chi", n, None) for n in range(len(mu) // 2)]
    calls += [("Delta", n, i) for i in range((len(mu) + 1) // 2) for n in range(i, len(mu) - i)]
    rng.shuffle(calls)

    def run_all():
        out = []
        for kind, n, i in calls:
            out.append(inverse_or_index(mu, n) if kind == "inverse" else hankel(mu, kind, n, i))
        return out

    got = in_fresh_slot(run_all)
    for (kind, n, i), value in zip(calls, got):
        want = fraction_inverse(mu, n) if kind == "inverse" else fraction_hankel(mu, kind, n, i)
        assert same_result(value, want), (kind, n, i)


def test_big_q_jacobi_inverts_at_degree_100():
    spec = make_family("big_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)})
    mu = family_moments(spec, 100)
    assert jfraction_from_moments(mu) == family_jfraction(spec, 50)


def test_determinants_after_the_inverse_build_no_row():
    # the exact round trip's pattern: invert, then ask D_0..D_N of the same moments
    spec = make_family("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)})
    mu = tuple(family_moments(spec, 40))

    def invert_then_determinants():
        jf = jfraction_from_moments(mu)
        table = jfraction_module._table.get()
        rows = len(table.num)
        dets = [hankel(mu, "D", n) for n in range(21)]
        assert jfraction_module._table.get() is table and len(table.num) == rows == 21
        return jf, dets

    jf, dets = in_fresh_slot(invert_then_determinants)
    # Heilermann: D_n = lambda_1^n lambda_2^(n-1) ... lambda_n
    expected = [F(1)]
    for n in range(1, 21):
        expected.append(expected[-1] * jf.lambda_product(n))
    assert dets == expected


def test_int_row_scales_are_the_lcm_of_their_denominators():
    # the one gcd a row divides out keeps its scale as small as its entries allow
    spec = make_family("big_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)})
    mu = tuple(family_moments(spec, 30))

    def rows():
        jfraction_from_moments(mu)
        return jfraction_module._table.get()

    table = in_fresh_slot(rows)
    assert len(table.num) == 16
    for num, scale in zip(table.num, table.scale):
        assert scale == math.lcm(*(F(x, scale).denominator for x in num))


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


def monic_polys(jf, N):
    """Coefficient lists of P_0..P_N: P_{n+1} = (x - b_n) P_n - lambda_n P_{n-1}."""
    rows = [[F(1)], [-jf.b[0], F(1)]]
    for n in range(1, N):
        nxt = [F(0), *rows[n]]
        for k, c in enumerate(rows[n]):
            nxt[k] -= jf.b[n] * c
        for k, c in enumerate(rows[n - 1]):
            nxt[k] -= jf.lam[n - 1] * c
        rows.append(nxt)
    return rows


def test_connection_identity():
    """x^n = sum_j H[j][n] P_j(x), coefficient by coefficient."""
    jf = JFraction(
        (F(1), F(1, 2), F(0), F(2), F(1), F(1), F(1), F(1)),
        (F(1, 3), F(2), F(-1), F(1), F(1), F(1), F(1), F(1)),
    )
    tab = tableau_from_jfraction(jf, 7)
    polys = monic_polys(jf, 7)
    for n in range(8):
        acc = [F(0)] * (n + 1)
        for j in range(n + 1):
            for k, c in enumerate(polys[j]):
                acc[k] += tab.entry(j, n) * c
        assert acc == [0] * n + [1], n


def test_convolution_identity():
    """H[0][k+l] = sum_j lambda_1..lambda_j H[j][k] H[j][l]."""
    jf = JFraction(
        (F(1, 2), F(1), F(-1), F(0), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1)),
        (F(2), F(1, 2), F(3), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1)),
    )
    tab = tableau_from_jfraction(jf, 12)
    for k in range(7):
        for l in range(k, min(7, 13 - k)):
            total = sum(jf.lambda_product(j) * tab.entry(j, k) * tab.entry(j, l) for j in range(k + 1))
            assert total == tab.entry(0, k + l), (k, l)
