import random
from fractions import Fraction

import pytest

from oracles import (
    extract_omega,
    fermion_state_word,
    fermion_vec_as_dict,
    interval_a_module_ops,
    lowering_ladder_word,
    normal_order_fermion,
    raising_ladder_word,
    seeded_twist,
    split_a_module_ops,
    vacuum_filling_word,
)
from test_classify import FAR_TAILS
from wakimoto import (
    MINUS,
    PLUS,
    ChiSeries,
    ClosureConfig,
    FermionState,
    OperatorWord,
    SparseVec,
    a_module_ops,
    anticommutator_check,
    apply_Gminus,
    apply_Gplus,
    apply_psi_dmode,
    apply_word,
    charge,
    enumerate_basis,
    g_parts,
    gminus_string_on_omega,
    lowering_string,
    omega,
    omega_vec,
    same_species_anticommutator,
    scalar_S,
    scalar_T,
    schur_at_minus_chi,
    singular_w,
    vacuum_vec,
    weight,
)

POLE_TAIL = ChiSeries(
    {2: Fraction(1, 3), 1: 2, 0: Fraction(-5, 7), -1: 4, -3: -2}
)


def test_gplus_is_scaled_psi_plus():
    v = SparseVec.basis(FermionState((3, 1), ()))
    for i in (-2, -1, 1, 3):
        assert apply_Gplus(i, v) == Fraction(-i) * apply_psi_dmode(PLUS, 2 * i - 1, v)
    assert apply_Gplus(0, v).is_zero()


def test_gminus_twist_terms():
    chi = ChiSeries({0: Fraction(5), 1: Fraction(7)})
    got = apply_Gminus(0, vacuum_vec(), chi)
    want = 5 * SparseVec.basis(FermionState((1,), ())) + 7 * SparseVec.basis(
        FermionState((3,), ())
    )
    assert got == want
    # untwisted: single mode with coefficient chi_0 - i
    got1 = apply_Gminus(2, SparseVec.basis(omega(2)), ChiSeries({0: 3}))
    assert got1 == apply_psi_dmode(MINUS, 3, SparseVec.basis(omega(2)))


# chi_0 = 2: the (chi_0 - i) component of G-(3/2) vanishes
CHI0_IS_I = ChiSeries({0: 2, 1: Fraction(3, 4), -2: Fraction(-5, 3)})
# chi_0 = chi_1: on Psi-(-3/2)|0> + Psi-(-1/2)|0> the two components of
# G-(-1/2) both reach Psi-(-3/2) Psi-(-1/2)|0>, with opposite signs
CANCELLING = ChiSeries({0: Fraction(2, 3), 1: Fraction(2, 3)})


def _oracle_image(components, v):
    """Sum of coefficient * rewriting-oracle image over (species, d, k)."""
    want = {}
    for species, d, k in components:
        for st, c in v.sorted_items():
            word = [(species, d), *fermion_state_word(st)]
            for key, q in normal_order_fermion(word, c * k).items():
                want[key] = want.get(key, 0) + q
    return {key: q for key, q in want.items() if q}


def _gminus_components(i, chi):
    out = [(MINUS, 2 * i - 1, chi.coeff(0) - i)]
    return out + [(MINUS, 2 * (i - m) - 1, chi.coeff(m)) for m in chi.support if m]


@pytest.mark.parametrize("chi", [ChiSeries(), ChiSeries({0: 3, -1: 1}), POLE_TAIL, CHI0_IS_I, CANCELLING])
def test_g_modes_match_rewriting_oracle(chi):
    rng = random.Random(f"g-oracle:{chi!r}")
    states = enumerate_basis(Fraction(7, 2), ambient=True)
    vecs = [
        SparseVec.from_items(
            (rng.choice(states), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            for _ in range(rng.randint(1, 6))
        )
        for _ in range(12)
    ]
    for v in vecs:
        for i in range(-4, 5):
            plus = [(PLUS, 2 * i - 1, Fraction(-i))]
            assert fermion_vec_as_dict(apply_Gplus(i, v)) == _oracle_image(plus, v), (v, i)
            got = apply_Gminus(i, v, chi)
            assert fermion_vec_as_dict(got) == _oracle_image(_gminus_components(i, chi), v), (v, i)


@pytest.mark.parametrize("chi", [ChiSeries(), POLE_TAIL, CHI0_IS_I, CANCELLING])
def test_g_parts_are_the_nonzero_components(chi):
    v = SparseVec.from_items([(FermionState((3,), (5,)), 2), (FermionState((), (3,)), Fraction(-1, 2))])
    for i in range(-4, 5):
        # G+ has the single component -i Psi+(i - 1/2), none for i = 0
        plus = g_parts(PLUS, i, chi)
        assert plus == ([(2 * i - 1, -i)] if i else [])
        got = apply_Gplus(i, v)
        assert fermion_vec_as_dict(got) == _oracle_image([(PLUS, d, k) for d, k in plus], v), i
        comps = [c for c in _gminus_components(i, chi) if c[2]]
        parts = g_parts(MINUS, i, chi)
        assert parts == [(d, k * chi.denominator) for _, d, k in comps]
        # a subset of the parts sums just those components
        for j in range(len(parts)):
            got = apply_Gminus(i, v, chi, parts=parts[j:])
            assert fermion_vec_as_dict(got) == _oracle_image(comps[j:], v), (i, j)


def test_gminus_components_cancel_on_a_shared_state():
    v = SparseVec.from_items(
        [(FermionState((3,), ()), 1), (FermionState((1,), ()), 1), (FermionState((), (3,)), 2)]
    )
    shared = ((3, 1), ())
    # each component alone reaches the shared state ...
    for comp in _gminus_components(0, CANCELLING):
        assert shared in _oracle_image([comp], v)
    # ... and their sum does not
    got = apply_Gminus(0, v, CANCELLING)
    assert shared not in fermion_vec_as_dict(got)
    assert fermion_vec_as_dict(got) == _oracle_image(_gminus_components(0, CANCELLING), v)
    assert not got.is_zero()


def test_even_scalars():
    chi = ChiSeries({0: Fraction(3), -1: Fraction(1, 2)})
    assert scalar_T(0, chi) == Fraction(-3, 2)
    assert scalar_T(-1, chi) == Fraction(-1, 4)
    assert scalar_S(0, chi) == Fraction(-3, 4)
    assert scalar_S(-1, chi) == 0  # factor (n+1) kills n = -1
    assert scalar_S(2, chi) == 0 and scalar_T(5, chi) == 0


@pytest.mark.parametrize("chi", [ChiSeries({0: 3, -1: 1}), POLE_TAIL, CHI0_IS_I, CANCELLING])
def test_mixed_anticommutators_close_on_scalars(chi):
    vecs = [
        vacuum_vec(),
        SparseVec.basis(FermionState((3, 1), (3,))),
        omega_vec(2) - 3 * SparseVec.basis(FermionState((1,), ())),
    ]
    halves = [Fraction(d, 2) for d in range(-5, 6, 2)]
    for v in vecs:
        for r in halves:
            for s in halves:
                assert anticommutator_check(r, s, v, chi), (r, s)


@pytest.mark.parametrize("chi", [ChiSeries({0: 3, -1: 1}), POLE_TAIL])
@pytest.mark.parametrize("species", [PLUS, MINUS])
def test_same_species_anticommutators_vanish(species, chi):
    v = SparseVec.basis(FermionState((3,), (5, 3)))
    halves = [Fraction(d, 2) for d in range(-5, 6, 2)]
    for r in halves:
        for s in halves:
            assert same_species_anticommutator(species, r, s, v, chi).is_zero()


def test_omega_staircase():
    assert omega(1) == FermionState((), (3,))
    assert omega(3) == FermionState((), (7, 5, 3))
    assert omega_vec(2).coeff(FermionState((), (5, 3))) == 1
    with pytest.raises(ValueError):
        omega(0)


class TestOperatorWord:
    def test_validation(self):
        OperatorWord((("G+", 1), ("G-", -3)))
        # a bare fermion mode is not an element of the algebra
        for label in ("X", "Psi+", "Psi-"):
            with pytest.raises(ValueError):
                OperatorWord(((label, 1),))
        with pytest.raises(ValueError):
            OperatorWord((("G+", 2),))

    def test_str_and_json(self):
        w = OperatorWord((("G-", 3), ("G+", -1)))
        assert str(w) == "G-(3/2) G+(-1/2)"
        assert str(OperatorWord()) == "1"
        assert w.to_json_obj() == [
            {"op": "G-", "mode": "3/2"},
            {"op": "G+", "mode": "-1/2"},
        ]

    def test_apply_is_right_to_left(self):
        chi = ChiSeries({0: 2})
        w = OperatorWord((("G+", 3), ("G-", -3)))
        # rightmost first: G-(-3/2) creates 3 Psi-(-3/2), then G+(3/2) = -2 Psi+(3/2)
        # annihilates against it
        assert apply_word(w, vacuum_vec(), chi) == -6 * vacuum_vec()
        flipped = OperatorWord((("G-", -3), ("G+", 3)))
        assert apply_word(flipped, vacuum_vec(), chi).is_zero()

    def test_gminus_requires_twist(self):
        with pytest.raises(ValueError, match="twist"):
            apply_word(OperatorWord((("G-", 1),)), vacuum_vec())


class TestExtraction:
    def test_staircase_extracts_itself(self):
        got = extract_omega(omega_vec(3))
        assert got.word == OperatorWord()
        assert got.omega_index == 3
        assert got.scalar == 1

    def test_bare_minus_word_lands_on_vacuum(self):
        got = extract_omega(SparseVec.basis(FermionState((1,), ())))
        assert got.word == OperatorWord((("G+", 1),))
        assert got.omega_index is None
        assert got.scalar == -1

    def test_longest_lam_wins(self):
        v = SparseVec.basis(FermionState((1,), (3,))) + 2 * omega_vec(1)
        got = extract_omega(v)
        assert got.word == OperatorWord((("G+", 1),))
        assert got.omega_index == 1
        assert got.scalar == -1

    def test_top_up_to_staircase(self):
        # mu = (5,) inside charge sector s = 2 needs a G+(-3/2) creation
        v = SparseVec.basis(FermionState((1,), (5,)))
        got = extract_omega(v)
        assert got.omega_index == 2
        assert ("G+", -3) in got.word.ops and ("G+", 1) in got.word.ops
        assert apply_word(got.word, v) == got.scalar * omega_vec(2)

    def test_survivor_set_mixing_vacuum_and_staircase(self):
        # surviving mu-set {(), (3,)}: the empty term must not confuse the
        # charge-sector choice, and the full staircase top-up kills the rest
        v = SparseVec.basis(FermionState((1,), ())) + SparseVec.basis(
            FermionState((1,), (3,))
        )
        got = extract_omega(v)
        assert got.word == OperatorWord((("G+", -3), ("G+", 1)))
        assert got.omega_index == 1
        assert got.scalar == -1
        assert apply_word(got.word, v) == -omega_vec(1)

    def test_rejects_zero_and_ambient(self):
        with pytest.raises(ValueError):
            extract_omega(SparseVec.zero())
        with pytest.raises(ValueError):
            extract_omega(SparseVec.basis(FermionState((), (1,))))

    def test_random_vectors_land_exactly(self):
        rng = random.Random(99)
        pool = enumerate_basis(Fraction(4))
        for _ in range(40):
            picks = rng.sample(pool, rng.randint(1, 4))
            v = SparseVec.from_items(
                (st, Fraction(rng.randint(1, 5), rng.randint(1, 3))) for st in picks
            )
            if v.is_zero():
                continue
            got = extract_omega(v)
            assert all(label == "G+" for label, _ in got.word.ops)
            image = apply_word(got.word, v)
            target = vacuum_vec() if got.omega_index is None else omega_vec(got.omega_index)
            assert image == got.scalar * target
            assert got.scalar != 0


class TestLoweringString:
    def test_modes(self):
        assert lowering_string(1) == OperatorWord((("G-", 1),))
        assert str(lowering_string(3)) == "G-(1/2) G-(3/2) G-(5/2)"
        with pytest.raises(ValueError):
            lowering_string(0)

    @pytest.mark.parametrize(
        "ell, coeffs", [(1, {0: 2, -1: 1}), (2, {0: 3, -2: 1}), (3, {0: 4, -1: 1, -3: 2})]
    )
    def test_string_and_witness_apply_the_one_word(self, ell, coeffs):
        chi = ChiSeries(coeffs)
        image = apply_word(lowering_string(ell), omega_vec(ell), chi)
        assert image == gminus_string_on_omega(ell, chi) * vacuum_vec()
        # w is the string less its leftmost factor G-(1/2)
        assert apply_Gminus(1, singular_w(ell, chi), chi) == image

    def test_matches_schur_value(self):
        rng = random.Random(3)
        for ell in (1, 2, 3, 4):
            for _ in range(6):
                coeffs = {0: Fraction(ell + 1)}
                for k in range(1, ell + 2):  # one index below -ell: must be inert
                    if rng.random() < 0.8:
                        coeffs[-k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                chi = ChiSeries(coeffs)
                want = Fraction((-1) ** ell) * Fraction(
                    __import__("math").factorial(ell)
                ) * schur_at_minus_chi(ell, chi)
                assert gminus_string_on_omega(ell, chi) == want

    def test_requires_matching_level(self):
        with pytest.raises(ValueError):
            gminus_string_on_omega(2, ChiSeries({0: 2}))
        with pytest.raises(ValueError):
            gminus_string_on_omega(2, ChiSeries({0: 3, 1: 1}))
        with pytest.raises(ValueError):
            gminus_string_on_omega(0, ChiSeries({0: 1}))


class TestSingularVector:
    def test_ell_one_is_the_staircase(self):
        assert singular_w(1, ChiSeries({0: 2})) == omega_vec(1)

    def test_ell_two_hand_value(self):
        chi = ChiSeries({0: 3, -1: 1, -2: 1})
        assert schur_at_minus_chi(2, chi) == 0
        w = singular_w(2, chi)
        want = SparseVec.basis(FermionState((), (3,))) - SparseVec.basis(
            FermionState((), (5,))
        )
        assert w == want

    @pytest.mark.parametrize(
        "ell, chi",
        [
            (1, ChiSeries({0: 2})),
            (2, ChiSeries({0: 3, -1: 1, -2: 1})),
        ],
    )
    def test_annihilated_when_schur_vanishes(self, ell, chi):
        w = singular_w(ell, chi)
        for n in range(1, ell + 3):
            assert apply_Gplus(n, w).is_zero()
            assert apply_Gminus(n, w, chi).is_zero()

    def test_requires_matching_level(self):
        with pytest.raises(ValueError):
            singular_w(1, ChiSeries({0: 3}))
        with pytest.raises(ValueError):
            singular_w(0, ChiSeries({0: 1}))


class TestLadders:
    def test_words(self):
        assert str(lowering_ladder_word(3, 1)) == "G-(5/2) G-(7/2)"
        assert str(raising_ladder_word(1, 3)) == "G+(-7/2) G+(-5/2)"
        assert str(vacuum_filling_word(1)) == "G-(-3/2) G-(-1/2)"
        with pytest.raises(ValueError):
            lowering_ladder_word(2, 2)
        with pytest.raises(ValueError):
            raising_ladder_word(3, 1)
        with pytest.raises(ValueError):
            vacuum_filling_word(-1)

    def test_descent_constant(self):
        chi = ChiSeries({0: 5})  # ell = 4
        img = apply_word(lowering_ladder_word(3, 1), omega_vec(3), chi)
        assert img == 2 * omega_vec(1)  # (4-2)(4-3)

    def test_descent_to_vacuum(self):
        chi = ChiSeries({0: 5})
        img = apply_word(lowering_ladder_word(2, 0), omega_vec(2), chi)
        assert img == 6 * vacuum_vec()  # (4-1)(4-2)

    def test_ascent_constant(self):
        img = apply_word(raising_ladder_word(1, 3), omega_vec(1))
        assert img == 6 * omega_vec(3)  # 3!/1!

    def test_ascent_from_vacuum(self):
        img = apply_word(raising_ladder_word(0, 2), vacuum_vec())
        assert img == 2 * omega_vec(2)

    def test_vacuum_filling_constant(self):
        chi = ChiSeries({0: 5})  # ell = 4
        img = apply_word(vacuum_filling_word(2), vacuum_vec(), chi)
        dense = SparseVec.basis(FermionState((5, 3, 1), ()))
        assert img == 210 * dense  # 5 * 6 * 7


def test_a_module_ops_window():
    cfg = ClosureConfig(weight_cutoff=Fraction(1), charge_window=(-2, 2), excursion=Fraction(0))
    labels = [lbl for lbl, _ in a_module_ops(ChiSeries({0: 2}), cfg)]
    assert labels == ["G+(1/2)", "G-(-1/2)", "G-(1/2)"]
    # a pole shifts the G- range upward; G-(-1/2) = Psi-(-3/2) creates a
    # factor of weight 3/2, heavier than the window
    labels_pole = [lbl for lbl, _ in a_module_ops(ChiSeries({1: 1}), cfg)]
    assert labels_pole == ["G+(1/2)", "G-(1/2)", "G-(3/2)"]
    # scalar modes never appear
    assert all(lbl.startswith("G") for lbl in labels_pole)


# twists on which the family drops modes and components by both rules: a
# pole, a tail, far tails, chi_0 = i for some kept mode; the default and
# certify benchmark windows, and a half-odd bound 7/2, where a component
# Psi-(7/2) still acts on the window state Psi+(-7/2)|0>
PRUNED_TWISTS = [
    ChiSeries({0: 2}),
    ChiSeries({1: 1, -2: 3}),
    ChiSeries({0: Fraction(5, 2), -1: 1}),
    ChiSeries({0: 3, -1: Fraction(1, 2), -2: Fraction(2, 3)}),
    ChiSeries({0: -3, -2: Fraction(5, 3)}),
    ChiSeries({0: 2, -13: Fraction(-7, 2)}),
    ChiSeries({1: 1, -40: 1}),
    ChiSeries({0: 2, -1000: 1}),
]
PRUNED_WINDOWS = [
    ClosureConfig(Fraction(4), (-3, 3), Fraction(2)),
    ClosureConfig(Fraction(5), (-3, 3), Fraction(2)),
    ClosureConfig(Fraction(5, 2), (-2, 2), Fraction(1)),
]


@pytest.mark.parametrize("cfg", PRUNED_WINDOWS, ids=["default", "certify", "half-odd"])
@pytest.mark.parametrize("chi", PRUNED_TWISTS, ids=repr)
def test_dropped_modes_and_components_never_act_in_the_window(chi, cfg):
    bound = cfg.bound
    lo, hi = cfg.charge_window
    states = [s for s in enumerate_basis(bound, ambient=True) if lo <= charge(s) <= hi]
    rng = random.Random(f"pruned:{chi!r}:{bound}")
    vecs = [SparseVec.basis(s) for s in states] + [
        SparseVec({s: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                   for s in rng.sample(states, rng.randint(2, 6))})
        for _ in range(20)
    ]
    kept = {op.args[0]: op.keywords["parts"]
            for lbl, op in a_module_ops(chi, cfg) if lbl.startswith("G-")}
    wider = [op.args[0] for lbl, op in interval_a_module_ops(chi, cfg) if lbl.startswith("G-")]
    assert set(kept) <= set(wider)
    dropped_modes = dropped_parts = 0
    for i in wider:
        parts = g_parts(MINUS, i, chi)
        if i not in kept:
            # a dropped mode sends every window vector outside the window,
            # or is zero on all of them
            dropped_modes += 1
            images = [apply_Gminus(i, v, chi) for v in vecs]
            leaves = [any(weight(s) > bound for s in w.terms) for w in images]
            assert all(leaves) or all(w.is_zero() for w in images), i
            continue
        assert set(kept[i]) <= set(parts)
        for d, _ in set(parts) - set(kept[i]):
            # a dropped component is zero on every window vector
            dropped_parts += 1
            for v in vecs:
                assert apply_psi_dmode(MINUS, d, v).is_zero(), (i, d, v)
    assert dropped_modes
    # some kept mode drops a component exactly when chi has an index other than 0
    assert bool(dropped_parts) == any(m != 0 for m in chi.support)


SPLIT_TWISTS = [
    *(seeded_twist(case, random.Random(f"split:{case}"))
      for case in ("i", "ii", "iii", "schur_zero", "neg_ell")),
    *PRUNED_TWISTS,
    *(ChiSeries(coeffs) for coeffs, _ in FAR_TAILS),
]


@pytest.mark.parametrize("cfg", PRUNED_WINDOWS, ids=["default", "certify", "half-odd"])
@pytest.mark.parametrize("chi", SPLIT_TWISTS, ids=repr)
def test_one_rule_family_is_the_split_family(chi, cfg):
    # G+ under the components rule keeps exactly the modes the separate G+
    # range kept, and every op is bound as the two rules bound it
    ours = a_module_ops(chi, cfg)
    split = split_a_module_ops(chi, cfg)
    assert [lbl for lbl, _ in ours] == [lbl for lbl, _ in split]
    for (lbl, op), (_, ref) in zip(ours, split):
        assert (op.func, op.args, op.keywords) == (ref.func, ref.args, ref.keywords), lbl


def test_a_module_ops_apply_within_window():
    cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(1))
    chi = ChiSeries({0: 2, -1: 1})
    for lbl, op in a_module_ops(chi, cfg):
        out = op(omega_vec(1))
        assert isinstance(out, SparseVec)
