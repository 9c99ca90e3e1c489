from fractions import Fraction as F

import pytest

from jfrac.families import family_jfraction, make_family
from jfrac.jfraction import tableau_from_jfraction
from jfrac.motzkin import PathWeights, path_weight_sum, path_weight_sum_dp


def test_empty_path():
    w = PathWeights((F(1),), ())
    assert path_weight_sum(w, 0, 0, 0) == 1
    assert path_weight_sum(w, 0, 0, 1) == 1  # one flat step, weight b_0 = 1


def test_dyck_paths_length_four():
    # UUDD and UDUD are the only all-up-down paths 0 -> 0 in 4 steps
    w = PathWeights((F(0), F(0), F(0)), (F(1), F(1)))
    assert path_weight_sum(w, 0, 0, 4) == 2


def test_motzkin_counts():
    w = PathWeights((F(1),) * 6, (F(1),) * 6)
    for n, m_n in enumerate([1, 1, 2, 4, 9, 21, 51]):
        assert path_weight_sum(w, 0, 0, n) == m_n


def test_parity_vanishing():
    w = PathWeights((F(0),) * 6, (F(1),) * 6)
    assert path_weight_sum(w, 0, 1, 2) == 0
    assert path_weight_sum(w, 0, 2, 2) == 1


def test_dp_multiplies_zero_weights():
    """A DP sum that no path of nonzero weight reaches is Fraction(0) on
    rational weights (Hermite, level 0 to level 1 in 2 steps); an end farther
    than n levels away is the int 0 without a step."""
    jf = family_jfraction(make_family("hermite", {}), 4)
    w = PathWeights(jf.b, jf.lam)
    value = path_weight_sum_dp(w, 0, 1, 2)
    assert type(value) is F and value == 0
    value = path_weight_sum_dp(w, 0, 3, 2)
    assert type(value) is int and value == 0


def test_coverage_errors():
    w = PathWeights((F(1), F(1)), (F(1),))
    with pytest.raises(ValueError):
        path_weight_sum(w, 0, 0, 6)  # can reach level 3
    with pytest.raises(ValueError):
        path_weight_sum(w, -1, 0, 2)


def test_dfs_matches_dp():
    w = PathWeights(
        (F(1, 2), F(-1), F(2), F(1, 3), F(1), F(-2, 3)),
        (F(3), F(-1, 2), F(1), F(2), F(1)),
    )
    for start in range(4):
        for n in range(7):
            for end in range(0, min(n, 2) + 1):
                assert path_weight_sum(w, start, end, n) == path_weight_sum_dp(w, start, end, n)


def test_reversal_carries_lambda_product():
    # reversing a path turns each up step into level j into a down step
    # leaving level j, so the endpoint swap costs lambda_1 ... lambda_i
    w = PathWeights((F(1), F(2), F(3), F(1), F(1)), (F(1, 2), F(5), F(1), F(1)))
    for n in range(6):
        for i in range(3):
            lam_prod = F(1)
            for j in range(i):
                lam_prod *= w.lam[j]
            assert path_weight_sum(w, i, 0, n) == lam_prod * path_weight_sum(w, 0, i, n)


@pytest.mark.parametrize(
    "family_id,params",
    [
        ("hermite", {}),
        ("laguerre", {"alpha": 0}),
        ("ultraspherical", {"nu": 1}),
        ("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}),
    ],
)
def test_tableau_entries_are_path_sums(family_id, params):
    """H[i][n] counts weighted paths from level 0 up to level i."""
    spec = make_family(family_id, params)
    jf = family_jfraction(spec, 8)
    tab = tableau_from_jfraction(jf, 6)
    w = PathWeights(jf.b, jf.lam)
    for n in range(7):
        for i in range(n + 1):
            assert tab.entry(i, n) == path_weight_sum(w, 0, i, n)
