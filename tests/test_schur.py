import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schur_det, schur_series_exp
from wakimoto import ChiSeries, schur_at_minus_chi, schur_rec

small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@pytest.mark.parametrize("fn", [schur_rec, schur_det])
def test_hand_values(fn):
    x1, x2, x3 = Fraction(2), Fraction(-3), Fraction(1, 2)
    assert fn(0, []) == 1
    assert fn(1, [x1]) == x1
    assert fn(2, [x1, x2]) == (x1 * x1 + x2) / 2
    assert fn(3, [x1, x2, x3]) == (x1**3 + 3 * x1 * x2 + 2 * x3) / 6
    # short xs are padded with zeros
    assert fn(3, [x1]) == x1**3 / 6
    assert fn(4, []) == 0


@pytest.mark.parametrize("fn", [schur_rec, schur_det])
def test_rejects_negative_degree(fn):
    with pytest.raises(ValueError):
        fn(-1, [])


def test_det_survives_zero_leading_entries():
    # forces pivot search below the first row
    assert schur_det(3, [0, 0, 1]) == Fraction(1, 3)
    assert schur_det(3, [0, 0, 1]) == schur_rec(3, [0, 0, 1])
    assert schur_det(4, [0, 1, 0, 0]) == schur_rec(4, [0, 1, 0, 0]) == Fraction(1, 8)


def test_all_ones_gives_unit_coefficients():
    # exp(sum y^n / n) = 1/(1-y), so every S_r(1,1,...) = 1
    for r in range(9):
        assert schur_rec(r, [1] * r) == 1
        assert schur_det(r, [1] * r) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.lists(small_fracs, max_size=8))
def test_three_routes_agree(r, xs):
    a = schur_rec(r, xs)
    assert schur_det(r, xs) == a
    assert schur_series_exp(r, xs) == a


def test_three_routes_agree_at_higher_degree():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(9, 12)
        xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r)]
        a = schur_rec(r, xs)
        assert schur_det(r, xs) == a
        assert schur_series_exp(r, xs) == a


def test_schur_at_minus_chi_reads_tail_coefficients():
    chi = ChiSeries({0: Fraction(3), -1: Fraction(1), -2: Fraction(1)})
    # xs = (-1, -1): S_2 = ((-1)^2 + (-1)) / 2 = 0
    assert schur_at_minus_chi(2, chi) == 0
    assert schur_at_minus_chi(1, chi) == -1
    # chi_0 and positive indices are not consulted
    noisy = ChiSeries({0: Fraction(99), -1: Fraction(1), -2: Fraction(1), 3: Fraction(7)})
    assert schur_at_minus_chi(2, noisy) == 0
    assert schur_at_minus_chi(0, chi) == 1
    with pytest.raises(ValueError):
        schur_at_minus_chi(-1, chi)


def test_schur_at_minus_chi_matches_direct_evaluation():
    rng = random.Random(5)
    for _ in range(20):
        ell = rng.randint(0, 7)
        coeffs = {-k: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(1, ell + 1)}
        chi = ChiSeries(coeffs)
        xs = [-chi.coeff(-k) for k in range(1, ell + 1)]
        assert schur_at_minus_chi(ell, chi) == schur_det(ell, xs)
