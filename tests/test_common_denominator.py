"""The int kernels and the fused Fraction step of the exact core.

The walk in ``motzkin`` steps the row vector e_start^T M^k for both the
tableau and the Motzkin DP.  ``motzkin.common_denominator`` puts it on ints
over one common denominator when every weight it reads is a Fraction over a
small lcm, and it hands over to its value loop once its ints pass
``motzkin.INT_LOOP_MAX_BITS``.  The value loop takes the fused step
(``motzkin._fraction_step``, one ``scalar.fraction_sum`` per entry) when
every weight is a Fraction, and the plain step (``motzkin._plain_step``)
otherwise; the plain step stays the reference for the fused one.
``cf_series`` steps its convergents on ints with one scale per level, as
the mixed-moment table steps its rows, for every int or Fraction input.
``PowerSeries.__mul__`` sums each coefficient of a product of Fraction
series with ``fraction_sum``.  The tableau keeps the walk's columns and
builds an entry only where it is read.  On every side of these choices the
results must equal an oracle, and every value must have the type the plain
loop gives it.
"""

import functools
import hashlib
import json
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrac import _mpmath as mpmath
from jfrac import families, jfraction, motzkin, series
from jfrac.families import family_jfraction, family_tableau, make_family
from jfrac.jfraction import cf_series, tableau_from_jfraction
from jfrac.motzkin import INT_LOOP_MAX_BITS, PathWeights, common_denominator, path_weight_sum, path_weight_sum_dp
from jfrac.series import PowerSeries

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


def _sample(family_id):
    """A family instance at the catalog's sample parameters."""
    return make_family(family_id, families._BUILDERS[family_id][1])


def _plain_walk(mp):
    """Make ``motzkin`` refuse every common denominator and take the plain
    step on any weights, so that the walk runs its plain value loop."""
    mp.setattr(motzkin, "common_denominator", lambda b, lam: None)
    mp.setattr(motzkin, "_value_step", lambda b, lam: functools.partial(motzkin._plain_step, b, lam))


def _fraction_loop(fn, *args):
    """fn(*args) with the walk on its plain value loop: the reference."""
    with pytest.MonkeyPatch.context() as mp:
        _plain_walk(mp)
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


@st.composite
def tableau_weights(draw):
    """(kind, b, lam), DEPTH of each, one kind per path of the walk: "ints"
    stays on int columns; "handover" shares one odd denominator of half the
    bound's bits, so the walk starts on ints and hands over to its value loop
    at column 2; "fused" is refused by ``common_denominator`` and runs the
    fused step throughout; "plain" mixes ints and mpf for the plain step."""
    kind = draw(st.sampled_from(("ints", "handover", "fused", "plain")))
    if kind == "handover":
        den = 2 ** (INT_LOOP_MAX_BITS // 2) + 2 * draw(st.integers(0, 2**20)) + 1
        weight = st.sampled_from((-8, -4, -2, -1, 1, 2, 4, 8)).map(lambda k: F(k, den))
    else:
        weight = {
            "ints": _small,
            "fused": _over(INT_LOOP_MAX_BITS),
            "plain": st.one_of(_ints, _quarters.map(lambda k: mpmath.mpf(k) / 4)),
        }[kind]
    weights = draw(st.lists(weight, min_size=2 * DEPTH, max_size=2 * DEPTH))
    return kind, tuple(weights[:DEPTH]), tuple(weights[DEPTH:])


def _eager_columns(b, lam, N):
    """Columns 0..N of the tableau, filled at once by the recurrence on the
    values from the int 1, each term present where its level is."""
    columns = [[1]]
    for n in range(N):
        v = columns[-1]
        columns.append(
            [
                (v[i - 1] if i > 0 else 0) + (b[i] * v[i] if i <= n else 0) + (lam[i] * v[i + 1] if i < n else 0)
                for i in range(n + 2)
            ]
        )
    return columns


@settings(max_examples=100, deadline=None)
@given(tableau_weights(), st.integers(0, DEPTH))
def test_tableau_reads_match_an_eager_fill(data, N):
    """``entry``, ``row0``, ``row(i)`` and ``H`` give the eager fill's values
    and types: the int 1 on the diagonal, the int 0 outside the triangle from
    ``entry`` and ``row``, and Fraction(0) below the diagonal in ``H``."""
    kind, b, lam = data
    on_ints = [scale is not None for _, _, scale in motzkin._walk(b[:N], lam[: max(N - 1, 0)], 0, N)]
    first_value = {"ints": N + 1, "handover": 2, "fused": 0, "plain": 0}[kind]
    assert N == 0 or on_ints == [k < first_value for k in range(N + 1)]  # N = 0 reads no weight
    tab = tableau_from_jfraction(types.SimpleNamespace(b=b, lam=lam), N)
    columns = _eager_columns(b, lam, N)

    def want(i, n):
        return columns[n][i] if 0 <= i <= n else 0

    for n in range(N + 1):
        assert _typed(tab.entry(i, n) for i in range(-1, N + 2)) == _typed(want(i, n) for i in range(-1, N + 2))
        assert type(tab.entry(n, n)) is int and tab.entry(n, n) == 1
    assert _typed(tab.row0) == _typed(column[0] for column in columns)
    for i in range(N + 2):
        assert _typed(tab.row(i)) == _typed(want(i, n) for n in range(N + 1))
    rows = [[want(i, n) if n >= i else F(0) for n in range(N + 1)] for i in range(N + 1)]
    assert [_typed(row) for row in tab.H] == [_typed(row) for row in rows]


def test_row0_builds_only_its_own_entries():
    """Filling a Hermite tableau to N = 200, on int columns throughout, and
    reading row 0 builds the N Fractions of row 0 (its first entry is the
    int 1), not a Fraction for each of the N (N + 1) / 2 entries above the
    diagonal."""
    N = 200
    jf = family_jfraction(make_family("hermite", {}), N)
    new, built = F.__new__.__code__, 0

    def count(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is new

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        mu = tableau_from_jfraction(jf, N).row0
    finally:
        sys.setprofile(previous)
    assert built == N
    assert mu[:5] == (1, 0, F(1, 2), 0, F(3, 4))


@pytest.mark.parametrize(
    "family_id,params,N,int_side",
    [
        ("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)}, 40, False),
        ("laguerre", {"alpha": F(1, 2)}, 60, True),
        ("meixner_pollaczek_moments", {"lam": F(1), "x": F(1, 2), "sin_phi": F(3, 5), "cos_phi": F(4, 5)}, 20, False),
    ],
)
def test_family_examples(family_id, params, N, int_side):
    spec = make_family(family_id, params)
    jf = family_jfraction(spec, N)
    assert (common_denominator(jf.b[:N], jf.lam[: N - 1]) is not None) is int_side
    tab = family_tableau(spec, N)
    ref = _fraction_loop(family_tableau, spec, N)
    assert [_typed(row) for row in tab.H] == [_typed(row) for row in ref.H]
    series = cf_series(jf, N)
    assert series == tab.row0
    assert _typed(series) == _typed(_series_value_loop(jf, N))
    w = PathWeights(jf.b, jf.lam)
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
    w = PathWeights(jf.b, jf.lam)
    for start, end in ((0, 0), (1, 2), (0, N - 6)):
        value = path_weight_sum_dp(w, start, end, N - 6)
        ref_value = _fraction_loop(path_weight_sum_dp, w, start, end, N - 6)
        assert type(value) is type(ref_value) and value == ref_value


@pytest.mark.parametrize("side", ["ints", "fused", "values"])
def test_walk_keeps_the_levels_that_reach_end(monkeypatch, side):
    """With ``end``, column k of the walk holds the levels from
    max(start - k, end - (n - k), 0) to min(start + k, end + (n - k)): those
    it can reach that can still reach ``end``."""
    start, end, n = 3, 1, 10
    top = (n + start + end) // 2
    b, lam = [F(i, 3) for i in range(top + 1)], [F(i + 2, 2) for i in range(top)]
    if side == "fused":
        monkeypatch.setattr(motzkin, "common_denominator", lambda b, lam: None)
        monkeypatch.setattr(motzkin, "_plain_step", None)  # any call to it fails
    elif side == "values":  # the plain value loop
        _plain_walk(monkeypatch)
    columns = list(motzkin._walk(b, lam, start, n, end))
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


_step_fractions = st.one_of(st.just(F(0)), _small, _over(64))


@st.composite
def step_inputs(draw):
    """(b, lam, v, lo, hi, new_lo, new_hi) for one step of the walk's value
    loop: Fraction weights, zeros among them, and a column of Fractions on
    levels lo..hi whose top is the int 1 or a Fraction.  The new window
    runs from max(lo - 1, 0) or higher to hi + 1 or lower, as ``end``
    prunes it."""
    lo = draw(st.integers(0, 3))
    hi = lo + draw(st.integers(0, 5))
    v = draw(st.lists(_step_fractions, min_size=hi - lo, max_size=hi - lo))
    v.append(draw(st.one_of(st.just(1), _step_fractions)))
    b = draw(st.lists(_step_fractions, min_size=hi + 2, max_size=hi + 2))
    lam = draw(st.lists(_step_fractions, min_size=hi + 2, max_size=hi + 2))
    new_lo = draw(st.integers(max(lo - 1, 0), hi + 1))
    new_hi = draw(st.integers(new_lo, hi + 1))
    return b, lam, v, lo, hi, new_lo, new_hi


@settings(max_examples=300, deadline=None)
@given(step_inputs())
def test_fraction_step_matches_the_plain_step(data):
    b, lam, v, lo, hi, new_lo, new_hi = data
    step = motzkin._value_step(b, lam)
    assert step.func is motzkin._fraction_step
    got = step(v, lo, hi, new_lo, new_hi)
    assert _typed(got) == _typed(motzkin._plain_step(b, lam, v, lo, hi, new_lo, new_hi))


def test_int_weights_never_take_the_fused_step(monkeypatch):
    """Weights the walk keeps on ints, to the end, run no value step."""
    monkeypatch.setattr(motzkin, "_fraction_step", None)  # any call to it fails
    laguerre = family_jfraction(make_family("laguerre", {"alpha": F(1, 2)}), 60)
    tableau_from_jfraction(laguerre, 60)
    little_jf = family_jfraction(_sample("little_q_jacobi"), 38)
    little = PathWeights(little_jf.b, little_jf.lam)
    for start, end in ((0, 0), (1, 2), (3, 0)):
        path_weight_sum_dp(little, start, end, 32)


def test_q_jacobi_tableau_never_takes_the_plain_step(monkeypatch):
    """Past the bound from the start, the q-Jacobi tableau takes the fused
    step on every column."""
    monkeypatch.setattr(motzkin, "_plain_step", None)  # any call to it fails
    for family_id in ("little_q_jacobi", "big_q_jacobi"):
        jf = family_jfraction(_sample(family_id), 40)
        assert common_denominator(jf.b[:40], jf.lam[:39]) is None
        tableau_from_jfraction(jf, 40)


def _plain_product(a, b):
    """The plain truncated product of two coefficient lists of one length."""
    out = []
    for m in range(len(a)):
        acc = 0
        for k in range(m + 1):
            if a[k] != 0 and b[m - k] != 0:
                acc += a[k] * b[m - k]
        out.append(acc)
    return out


_COEFFICIENTS = {
    "fraction": _step_fractions,
    "padded": st.one_of(st.just(0), _small),
    "int": _ints,
    "mixed": st.one_of(_small, _ints),
    "float": _quarters.map(lambda k: k / 4),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_COEFFICIENTS)), st.sampled_from(sorted(_COEFFICIENTS)), st.integers(0, 7), st.data())
def test_fraction_product_matches_the_convolution(left, right, degree, data):
    """Products of series whose coefficients are all Fractions or the int 0
    take ``fraction_sum`` per coefficient; every other product takes the
    plain loop.  Both give the plain convolution's values and types."""
    a, b = (data.draw(st.lists(_COEFFICIENTS[kind], min_size=degree + 1, max_size=degree + 1)) for kind in (left, right))
    fused = all(type(c) is F or (type(c) is int and c == 0) for c in (*a, *b))
    with pytest.MonkeyPatch.context() as mp:
        # any call to the loop this product does not take fails
        if fused:
            mp.setattr(series, "_convolution", None)
        else:
            mp.setattr(series, "_fraction_product", None)
        got = PowerSeries(a) * PowerSeries(b)
    assert _typed(got.coefficients) == _typed(_plain_product(a, b))


DEEP_TABLEAUX = Path(__file__).parent / "data" / "deep_tableaux.json"


def _tableau_digest(family_id, N):
    """sha256 over the rows of a family's tableau at its catalog sample,
    through column N, each value with its type."""
    h = hashlib.sha256()
    tab = family_tableau(_sample(family_id), N)
    for i, row in enumerate(tab.H):
        h.update(f"H{i}:{','.join(f'{type(v).__name__}:{v}' for v in row)}\n".encode())
    return h.hexdigest()


def test_deep_tableaux_are_pinned():
    """Tableaux past the walk's int bound: little and big q-Jacobi at N = 40
    and 80 run the value loop from the start, Al-Salam-Carlitz at N = 90,
    q_ultraspherical_beta0 at N = 120 and laguerre at N = 300 hand over to
    it partway.  tests/data/deep_tableaux.json maps "family_id@N" to
    ``_tableau_digest(family_id, N)`` as computed before the value loop had
    its fused step, when the plain step made every value column; a family
    whose tableau moved is named."""
    pinned = json.loads(DEEP_TABLEAUX.read_text())
    got = {key: _tableau_digest(key.split("@")[0], int(key.split("@")[1])) for key in pinned}
    assert [key for key in pinned if got[key] != pinned[key]] == []
