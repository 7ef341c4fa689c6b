import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from oracles import (
    check_tilde,
    extract_omega,
    fermion_state_word,
    fermion_vec_as_dict,
    normal_order_fermion,
)
from wakimoto import (
    MINUS,
    PLUS,
    VACUUM,
    ChiParseError,
    FermionState,
    SparseVec,
    apply_psi_dmode,
    as_dmode,
    enumerate_basis,
    fmt_halfodd,
    parse_state,
    vacuum_vec,
    vec_from_json_obj,
    weight,
)
from wakimoto.fock import _psi_core


def test_halfodd_helpers():
    assert as_dmode(Fraction(3, 2)) == 3
    assert as_dmode(Fraction(-1, 2)) == -1
    assert as_dmode("5/2") == 5
    assert fmt_halfodd(-7) == "-7/2"
    for bad in (Fraction(1), Fraction(3, 4), 2):
        with pytest.raises(ValueError):
            as_dmode(bad)


def test_state_validation():
    FermionState((5, 1), (3,))  # fine
    with pytest.raises(ValueError, match=r"^lam must be strictly decreasing: \(1, 3\)$"):
        FermionState((1, 3), ())  # must decrease
    with pytest.raises(ValueError, match=r"^lam must be strictly decreasing: \(3, 3\)$"):
        FermionState((3, 3), ())  # strictly
    with pytest.raises(ValueError, match=r"^lam entries must be positive doubled odd ints: \(2,\)$"):
        FermionState((2,), ())  # even doubled mode
    with pytest.raises(ValueError, match=r"^lam entries must be positive doubled odd ints: \(-1,\)$"):
        FermionState((-1,), ())
    with pytest.raises(ValueError, match=r"^mu entries must be positive doubled odd ints: \(4,\)$"):
        FermionState((), (4,))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda st: pickle.loads(pickle.dumps(st))])
def test_state_copies_and_pickles(clone):
    st = FermionState((5, 1), (7, 3))
    got = clone(st)
    assert type(got) is FermionState
    assert got == st and hash(got) == hash(st)
    assert (got.lam, got.mu) == ((5, 1), (7, 3))
    assert repr(got) == "FermionState(lam=(5, 1), mu=(7, 3))"
    assert got != ((5, 1), (7, 3))


def test_str_and_parse_state_round_trip():
    st = FermionState((5, 1), (3,))
    assert str(st) == "Psi-(-5/2) Psi-(-1/2) Psi+(-3/2) |0>"
    assert parse_state(str(st)) == st
    assert parse_state("|0>") == VACUUM
    for states in (enumerate_basis(Fraction(4)), enumerate_basis(Fraction(3), ambient=True)):
        for s in states:
            assert parse_state(str(s)) == s


@pytest.mark.parametrize("bad", ["", "Psi+(-3/2)", "Psi*(-3/2) |0>", "Psi+(3/2) |0>", "Psi+(-2/2) |0> extra"])
def test_parse_state_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        parse_state(bad)


def test_vec_arithmetic_and_zero_dropping():
    a = SparseVec.basis(FermionState((1,), ()))
    b = SparseVec.basis(FermionState((3,), ()))
    v = 2 * a + b / 3
    assert v.coeff(FermionState((1,), ())) == 2
    assert v.coeff(FermionState((3,), ())) == Fraction(1, 3)
    assert (v - v).is_zero()
    assert (-v + v).is_zero()
    assert (0 * v).is_zero()


def test_charged_membership_follows_support():
    needs_f = FermionState((), (1,))  # Psi+(-1/2)|0>, outside the charged subspace
    v = SparseVec.basis(needs_f)
    for outside in (v, v + vacuum_vec(), vacuum_vec() - v):
        assert not check_tilde(outside)
        with pytest.raises(ValueError):
            extract_omega(outside)
    assert check_tilde(vacuum_vec() + vacuum_vec())
    # creating Psi+(-1/2) leaves the charged subspace, even from the vacuum
    forced = apply_psi_dmode(PLUS, -1, vacuum_vec())
    assert forced == v and not check_tilde(forced)
    # once the mu = 1/2 term cancels, the vector is charged again
    mixed = forced + 2 * SparseVec.basis(FermionState((1,), (3,)))
    back = mixed - v
    assert not check_tilde(mixed) and check_tilde(back)
    assert extract_omega(back).omega_index == 1
    # equality compares coefficients only, however the vector was built
    assert back == SparseVec({FermionState((1,), (3,)): 2, needs_f: 0})
    assert SparseVec.zero() == forced - v


def test_vec_json_round_trip():
    v = SparseVec.from_items(
        [
            (FermionState((3, 1), ()), Fraction(-2, 3)),
            (FermionState((), (3,)), Fraction(5)),
        ]
    )
    obj = v.to_json_obj()
    assert obj == [
        {"state": "Psi+(-3/2) |0>", "value": "5"},
        {"state": "Psi-(-3/2) Psi-(-1/2) |0>", "value": "-2/3"},
    ]
    assert vec_from_json_obj(json.loads(json.dumps(obj))) == v


def test_vec_from_json_names_bad_field():
    with pytest.raises(ChiParseError, match=r"terms\[1\].value"):
        vec_from_json_obj([{"state": "|0>", "value": "1"}, {"state": "|0>", "value": "x"}])


# -- single-generator action ------------------------------------------------


def test_annihilator_kills_vacuum():
    assert apply_psi_dmode(PLUS, 1, vacuum_vec()).is_zero()
    assert apply_psi_dmode(MINUS, 7, vacuum_vec()).is_zero()


def test_contraction_on_single_creator():
    v = apply_psi_dmode(MINUS, -3, vacuum_vec())
    assert apply_psi_dmode(PLUS, 3, v) == vacuum_vec()


def test_insertion_sign():
    v = SparseVec.basis(FermionState((3,), ()))
    got = apply_psi_dmode(MINUS, -1, v)
    assert got == -SparseVec.basis(FermionState((3, 1), ()))


def test_pauli_exclusion():
    v = SparseVec.basis(FermionState((3,), ()))
    assert apply_psi_dmode(MINUS, -3, v).is_zero()


def test_sweep_sign_through_word():
    # Psi+(1/2) must pass Psi-(-3/2) before contracting with Psi-(-1/2).
    v = SparseVec.basis(FermionState((3, 1), ()))
    got = apply_psi_dmode(PLUS, 1, v)
    assert got == -SparseVec.basis(FermionState((3,), ()))


def test_apply_psi_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_psi_dmode("x", 1, vacuum_vec())
    with pytest.raises(ValueError):
        apply_psi_dmode(PLUS, 2, vacuum_vec())


def test_random_words_match_rewriting_oracle():
    rng = random.Random(20260825)
    dmodes = [-5, -3, -1, 1, 3, 5]
    for _ in range(200):
        word = [
            (rng.choice((MINUS, PLUS)), rng.choice(dmodes))
            for _ in range(rng.randint(0, 6))
        ]
        v = vacuum_vec()
        for sp, d in reversed(word):
            v = apply_psi_dmode(sp, d, v)
        want = normal_order_fermion([(sp, d) for sp, d in word])
        assert fermion_vec_as_dict(v) == want, word


@pytest.mark.parametrize("species", [PLUS, MINUS])
@pytest.mark.parametrize("d", [d for k in range(1, 10, 2) for d in (-k, k)])
def test_psi_core_matches_rewriting_oracle(species, d):
    sp = +1 if species == PLUS else -1
    for st in enumerate_basis(Fraction(7, 2), ambient=True):
        want = normal_order_fermion([(species, d), *fermion_state_word(st)])
        hit = _psi_core(sp, d, st)
        if hit is None:
            assert want == {}, (st, d)
            continue
        out, sign = hit
        assert type(sign) is int
        assert FermionState(out.lam, out.mu) == out  # canonical, re-validated
        assert want == {(out.lam, out.mu): sign}, (st, d)


# -- enumeration ------------------------------------------------------------


def test_basis_counts_at_small_weights():
    assert len(enumerate_basis(Fraction(5, 2))) == 8
    assert len(enumerate_basis(Fraction(4))) == 20
    assert len(enumerate_basis(Fraction(5))) == 33
    assert len(enumerate_basis(Fraction(5), ambient=True)) == 59


def test_enumerate_is_sorted_and_within_bound():
    states = enumerate_basis(Fraction(4), ambient=True)
    keys = [s.sort_key() for s in states]
    assert keys == sorted(keys)
    assert all(weight(s) <= 4 for s in states)
    assert len(states) == len(set(states))


def test_check_tilde():
    assert check_tilde(vacuum_vec())
    for st in enumerate_basis(Fraction(4)):
        assert check_tilde(SparseVec.basis(st))
    bad = SparseVec.basis(FermionState((), (1,)))
    assert not check_tilde(bad)
    assert not check_tilde(bad + SparseVec.basis(FermionState((3,), ())))
