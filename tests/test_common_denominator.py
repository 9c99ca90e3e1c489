"""The two int kernels of the exact core.

The walk in ``motzkin`` steps the row vector e_start^T M^k for both the
tableau and the Motzkin DP.  ``motzkin.common_denominator`` puts it on ints
over one common denominator when every weight it reads is a Fraction over a
small lcm, and it hands over to its value loop once its ints pass
``motzkin.INT_LOOP_MAX_BITS``; every other input runs the value loop.
``cf_series`` steps its convergents on ints with one scale per level, as
the mixed-moment table steps its rows, for every int or Fraction input.  On
every side of these choices the results must equal an oracle, and every
value must have the type the value loop gives it.
"""

import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrac import _mpmath as mpmath
from jfrac import jfraction, motzkin
from jfrac.families import family_jfraction, family_tableau, make_family
from jfrac.jfraction import cf_series, tableau_from_jfraction
from jfrac.motzkin import INT_LOOP_MAX_BITS, PathWeights, common_denominator, path_weight_sum, path_weight_sum_dp

DEPTH = 8

_small = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
_ints = st.integers(-4, 4)


def _over(bits):
    """Nonzero Fractions in lowest terms over odd denominators of bits + 1 bits."""
    return st.builds(
        F, st.sampled_from((-8, -4, -2, -1, 1, 2, 4, 8)), st.integers(0, 2**20).map(lambda k: 2**bits + 2 * k + 1)
    )


# "big" weights have a denominator past the bound, so the walk never starts
# on ints; "near" ones have a lcm near it, so it starts on ints and hands
# over to its value loop after a column or two, or never starts on ints.
# cf_series runs every one of these kinds on ints.  "float" and "mpc" ones
# run the value loops of both; they are multiples of 1/4 of at most 2, so at
# this depth every product and sum is exact and the oracles compare by ==.
_quarters = st.integers(-8, 8)
_KINDS = {
    "small": _small,
    "int": _ints,
    "mixed": st.one_of(_small, _ints),
    "big": _over(INT_LOOP_MAX_BITS),
    "near": _over(INT_LOOP_MAX_BITS // 5),
    "float": _quarters.map(lambda k: k / 4),
    "mpc": st.builds(lambda x, y: mpmath.mpc(x / 4, y / 4), _quarters, _quarters),
}


@st.composite
def weight_sets(draw):
    """(kind, b, lam), DEPTH of each."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    weights = draw(st.lists(_KINDS[kind], min_size=2 * DEPTH, max_size=2 * DEPTH))
    return kind, tuple(weights[:DEPTH]), tuple(weights[DEPTH:])


def _fraction_loop(fn, *args):
    """fn(*args) with ``motzkin`` refusing every common denominator, so that
    the walk runs its value loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(motzkin, "common_denominator", lambda b, lam: None)
        return fn(*args)


def _series_value_loop(jf, N):
    """cf_series's value loop, called directly on the weights cf_series reads."""
    levels = N // 2 + 1
    return jfraction._cf_series_on_values(jf.b[:levels], jf.lam[: levels - 1], N)


def _typed(values):
    return [(type(v), v) for v in values]


def _matrix_rows(b, lam, N):
    """e_0^T M^n for n = 0..N, M the (N+1) x (N+1) Jacobi matrix:
    M[i][i+1] = 1, M[i][i] = b_i, M[i+1][i] = lambda_{i+1}."""
    size = N + 1
    M = [[0] * size for _ in range(size)]
    for i in range(size):
        if i + 1 < size:
            M[i][i + 1] = 1
            M[i + 1][i] = lam[i] if i < len(lam) else 0
        M[i][i] = b[i] if i < len(b) else 0
    vec = [1] + [0] * N
    rows = [vec]
    for _ in range(N):
        vec = [sum(vec[j] * M[j][i] for j in range(size)) for i in range(size)]
        rows.append(vec)
    return rows


def _expected_side(kind, b, lam):
    scaled = common_denominator(b, lam)
    if kind == "small":
        assert scaled is not None
    elif kind == "big" and b:
        assert scaled is None


@settings(max_examples=120, deadline=None)
@given(weight_sets(), st.integers(0, DEPTH))
def test_tableau_and_series_on_both_sides(data, N):
    kind, b, lam = data
    jf = types.SimpleNamespace(b=b, lam=lam)  # a JFraction refuses a zero lambda
    _expected_side(kind, b[:N], lam[: max(N - 1, 0)])
    tab = tableau_from_jfraction(jf, N)
    rows = _matrix_rows(b[:N], lam[: max(N - 1, 0)], N)
    for n in range(N + 1):
        for i in range(n + 1):
            assert tab.entry(i, n) == rows[n][i]
    ref = _fraction_loop(tableau_from_jfraction, jf, N)
    assert [_typed(row) for row in tab.H] == [_typed(row) for row in ref.H]

    series = cf_series(jf, N)
    assert series == tab.row0
    assert _typed(series) == _typed(_series_value_loop(jf, N))


@settings(max_examples=120, deadline=None)
@given(weight_sets(), st.integers(0, 3), st.integers(0, 3), st.integers(0, DEPTH - 2))
def test_dp_on_both_sides(data, start, end, n):
    kind, b, lam = data
    w = PathWeights(b, lam)
    top = (n + start + end) // 2
    _expected_side(kind, b[: top + 1], lam[:top])
    value = path_weight_sum_dp(w, start, end, n)
    assert value == path_weight_sum(w, start, end, n)
    ref = _fraction_loop(path_weight_sum_dp, w, start, end, n)
    assert type(value) is type(ref) and value == ref


@pytest.mark.parametrize(
    "family_id,params,N,int_side",
    [
        ("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)}, 40, False),
        ("laguerre", {"alpha": F(1, 2)}, 60, True),
        ("meixner_pollaczek_moments", {"lam": F(1), "x": F(1, 2), "phi_over_pi": F(1, 3)}, 20, False),
    ],
)
def test_family_examples(family_id, params, N, int_side):
    spec = make_family(family_id, params)
    with mpmath.workprec(320):
        jf = family_jfraction(spec, N)
    assert (common_denominator(jf.b[:N], jf.lam[: N - 1]) is not None) is int_side
    tab = family_tableau(spec, N)
    ref = _fraction_loop(family_tableau, spec, N)
    assert [_typed(row) for row in tab.H] == [_typed(row) for row in ref.H]
    if spec.exact:
        series = cf_series(jf, N)
        assert series == tab.row0
        assert _typed(series) == _typed(_series_value_loop(jf, N))
        w = PathWeights.from_jfraction(jf)
        for start, end in ((0, 0), (2, 1)):
            value = path_weight_sum_dp(w, start, end, N - 6)
            ref_value = _fraction_loop(path_weight_sum_dp, w, start, end, N - 6)
            assert type(value) is type(ref_value) and value == ref_value


@pytest.mark.parametrize(
    "family_id,params,N",
    [("q_ultraspherical_beta0", {"q": F(1, 2)}, 120), ("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}, 90)],
)
def test_int_loops_hand_over_to_fractions(family_id, params, N):
    """Small weights whose values outgrow the bound: the walk yields columns
    over an int scale, then value columns to the end."""
    jf = family_jfraction(make_family(family_id, params), N)
    on_ints = [scale is not None for _, _, scale in motzkin._walk(jf.b[:N], jf.lam[: N - 1], 0, N)]
    first_value = on_ints.index(False)
    assert 1 < first_value <= N and not any(on_ints[first_value:])
    tab = tableau_from_jfraction(jf, N)
    ref = _fraction_loop(tableau_from_jfraction, jf, N)
    assert [_typed(row) for row in tab.H] == [_typed(row) for row in ref.H]
    w = PathWeights.from_jfraction(jf)
    for start, end in ((0, 0), (1, 2), (0, N - 6)):
        value = path_weight_sum_dp(w, start, end, N - 6)
        ref_value = _fraction_loop(path_weight_sum_dp, w, start, end, N - 6)
        assert type(value) is type(ref_value) and value == ref_value


@pytest.mark.parametrize("side", ["ints", "values"])
def test_walk_keeps_the_levels_that_reach_end(side):
    """With ``end``, column k of the walk holds the levels from
    max(start - k, end - (n - k), 0) to min(start + k, end + (n - k)): those
    it can reach that can still reach ``end``."""
    start, end, n = 3, 1, 10
    top = (n + start + end) // 2
    b, lam = [F(i, 3) for i in range(top + 1)], [F(i + 2, 2) for i in range(top)]

    def walk():
        return list(motzkin._walk(b, lam, start, n, end))

    columns = walk() if side == "ints" else _fraction_loop(walk)
    assert all((scale is not None) == (side == "ints") for _, _, scale in columns)
    for k, (lo, column, _) in enumerate(columns):
        want_lo, want_hi = max(start - k, end - (n - k), 0), min(start + k, end + (n - k))
        assert (lo, lo + len(column) - 1) == (want_lo, want_hi)


@pytest.mark.parametrize(
    "family_id,params",
    [
        ("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)}),
        ("big_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)}),
    ],
)
def test_q_jacobi_series_runs_on_ints(monkeypatch, family_id, params):
    """Weights whose common denominator is far past the walk's bound: cf_series
    still runs on ints, one scale per level, and gives the value loop's
    values and types."""
    N = 120
    jf = family_jfraction(make_family(family_id, params), N // 2 + 1)
    assert common_denominator(jf.b, jf.lam) is None
    want = _series_value_loop(jf, N)
    with monkeypatch.context() as mp:
        mp.setattr(jfraction, "_cf_series_on_values", None)  # any call to it fails
        got = cf_series(jf, N)
    assert _typed(got) == _typed(want)


def test_common_denominator_bound_and_types():
    limit = INT_LOOP_MAX_BITS
    assert common_denominator([F(1, 2), F(1, 3)], [F(5, 4)]) == (12, [6, 4], [15])
    assert common_denominator([F(1, 2 ** (limit - 1))], [])[0] == 2 ** (limit - 1)
    assert common_denominator([F(1, 2**limit)], []) is None
    assert common_denominator([F(1), F(1, 2 ** (limit // 2))], [F(1, 3 ** (limit // 3))]) is None
    assert common_denominator([F(1), 1], []) is None
    assert common_denominator([F(1)], [1.0]) is None
    assert common_denominator([], []) == (1, [], [])

    def lam():
        yield F(1, 2**limit)
        raise AssertionError("read past the bound")

    assert common_denominator([F(1)], lam()) is None
