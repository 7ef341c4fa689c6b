"""End-to-end acceptance suite: one test per contract-level property.

Everything here is exact rational arithmetic — no tolerances anywhere.  The
twist batteries below deliberately span every classifier outcome: twists
with a pole, non-integral weights, integral weights with nonvanishing and
vanishing Schur value, and negative integral weights.
"""

import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

from oracles import (
    extract_omega,
    fermion_graded_dims,
    lowering_ladder_word,
    raising_ladder_word,
    schur_det,
    vacuum_filling_word,
)
from wakimoto import (
    ChiSeries,
    ClosureConfig,
    FOCK_SPACE,
    SparseVec,
    VACUUM,
    WeylAction,
    WeylVec,
    affine_relation_check,
    anticommutator_check,
    apply_Gminus,
    apply_Gplus,
    apply_psi_dmode,
    apply_word,
    charge,
    classify,
    closure,
    cyclic_probe,
    ell_of,
    enumerate_basis,
    enumerate_weyl_basis,
    evidence_agrees,
    gminus_string_on_omega,
    omega_vec,
    same_species_anticommutator,
    scalar_S,
    scalar_T,
    schur_at_minus_chi,
    schur_rec,
    singular_w,
    vacuum_vec,
    verify_certificate,
    wakimoto_probe,
    weight,
)
from wakimoto.cli import main as cli_main

# Ten twists spanning every classifier case: three with a pole, one with
# non-integral weight, two with nonzero Schur value, two with vanishing
# Schur value, and two with negative integral weight.
TEN_TWISTS = [
    {1: 1},
    {1: Fraction(1, 2)},
    {2: 1},
    {0: 2, -1: 1},
    {0: 3, -2: 1},
    {0: Fraction(-7, 3), -1: 1},
    {0: 2},
    {0: 3, -1: 1, -2: 1},
    {0: -3},
    {},
]

PROBE_CFG = ClosureConfig(Fraction(4), (-3, 3), Fraction(2))


def random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def random_vec(rng, pool):
    picks = rng.sample(pool, k=rng.randint(1, 3))
    return SparseVec.from_items((st, random_coeff(rng)) for st in picks)


def test_criterion_01_clifford_relations():
    """{Psi+(r), Psi-(s)} = delta_{r+s,0} and same-species pairs vanish,
    for all |r|, |s| <= 9/2 on every basis vector of weight <= 5 in both
    the ambient space and the charged subspace."""
    dmodes = list(range(-9, 10, 2))
    states = enumerate_basis(Fraction(5), ambient=True) + enumerate_basis(
        Fraction(5), ambient=False
    )
    assert len(states) == 59 + 33
    for st in states:
        v = SparseVec.basis(st)
        for dr in dmodes:
            plus_v = apply_psi_dmode("+", dr, v)
            minus_v = apply_psi_dmode("-", dr, v)
            assert apply_psi_dmode("+", dr, plus_v).is_zero()
            assert apply_psi_dmode("-", dr, minus_v).is_zero()
            for ds in dmodes:
                mixed = apply_psi_dmode("+", dr, apply_psi_dmode("-", ds, v)) + (
                    apply_psi_dmode("-", ds, plus_v)
                )
                assert mixed == (v if dr + ds == 0 else SparseVec.zero())
                if ds > dr:
                    same_plus = apply_psi_dmode("+", dr, apply_psi_dmode("+", ds, v)) + (
                        apply_psi_dmode("+", ds, plus_v)
                    )
                    same_minus = apply_psi_dmode("-", dr, apply_psi_dmode("-", ds, v)) + (
                        apply_psi_dmode("-", ds, minus_v)
                    )
                    assert same_plus.is_zero() and same_minus.is_zero()


def test_criterion_02_basis_grading_and_kernel():
    """Enumerated graded dimensions match independent generating-function
    coefficients up to weight 6, and Psi-(1/2) kills every charged basis
    vector."""
    for ambient, total in ((True, 96), (False, 54)):
        states = enumerate_basis(Fraction(6), ambient=ambient)
        assert len(states) == total
        counted: dict[tuple, int] = {}
        for st in states:
            key = (int(2 * weight(st)), charge(st))
            counted[key] = counted.get(key, 0) + 1
        assert counted == fermion_graded_dims(12, ambient=ambient)
    for st in enumerate_basis(Fraction(6), ambient=False):
        assert apply_psi_dmode("-", 1, SparseVec.basis(st)).is_zero()


def test_criterion_03_super_anticommutators_and_scalar_extraction():
    """The mixed-species anticommutator relation holds for all
    |r|, |s| <= 7/2 on seeded weight <= 4 vectors over all ten twists,
    same-species anticommutators vanish, and solving two mixed brackets
    recovers the diagonal scalars -(n+1) chi_n / 4 and -chi_n / 2."""
    rng = random.Random(30301)
    pool = enumerate_basis(Fraction(4), ambient=False)
    dmodes = list(range(-7, 8, 2))
    for coeffs in TEN_TWISTS:
        chi = ChiSeries(coeffs)
        for v in (random_vec(rng, pool) for _ in range(3)):
            for dr in dmodes:
                r = Fraction(dr, 2)
                for ds in dmodes:
                    s = Fraction(ds, 2)
                    assert anticommutator_check(r, s, v, chi)
                    assert same_species_anticommutator("+", r, s, v, chi).is_zero()
                    assert same_species_anticommutator("-", r, s, v, chi).is_zero()
        # Two bracket measurements per n determine S(n) and T(n):
        # {G+(r), G-(s)} = 2 S(n) + (r-s) T(n) - (r^2 - 1/4) delta_{n,0}
        # at (r, s) = (1/2, n-1/2) and (3/2, n-3/2); the system has
        # determinant 4 for every n.
        vac = vacuum_vec()
        for n in range(-2, 3):
            rows = []
            for i in (1, 2):
                bracket = apply_Gplus(i, apply_Gminus(n - i + 1, vac, chi)) + (
                    apply_Gminus(n - i + 1, apply_Gplus(i, vac), chi)
                )
                assert set(bracket.terms) <= set(vac.terms)
                r = Fraction(2 * i - 1, 2)
                s = Fraction(n) - r
                central = -(r * r - Fraction(1, 4)) if n == 0 else Fraction(0)
                rows.append((r - s, bracket.coeff(next(iter(vac.terms))) - central))
            (b1, y1), (b2, y2) = rows
            det = 2 * b2 - 2 * b1
            assert det == 4 or det == -4
            s_val = (y1 * b2 - y2 * b1) / det
            t_val = (2 * y2 - 2 * y1) / det
            assert s_val == scalar_S(n, chi)
            assert t_val == scalar_T(n, chi)


def test_criterion_04_lowering_string_schur_identity():
    """G-(1/2)...G-(ell-1/2) applied to the staircase Omega_ell lands on
    (-1)^ell ell! S_ell(-chi) times the vacuum, for ell = 1..6 over 50
    seeded rational tails each; the two Schur evaluation routes agree up
    to degree 12."""
    rng = random.Random(40402)
    for ell in range(1, 7):
        for trial in range(50):
            tail = {
                -k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for k in range(1, ell + 1)
            }
            if trial % 3 == 0:
                # an index below -ell is invisible to S_ell
                tail[-(ell + 1)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            chi = ChiSeries({0: ell + 1, **tail})
            expected = (-1) ** ell * math.factorial(ell) * schur_at_minus_chi(ell, chi)
            assert gminus_string_on_omega(ell, chi) == expected
    for r in range(13):
        for _ in range(3):
            xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r)]
            assert schur_rec(r, xs) == schur_det(r, xs)


def test_criterion_05_staircase_extraction():
    """extract_omega sends each of 200 seeded nonzero charged vectors of
    weight <= 5 onto a nonzero exact multiple of a staircase vector or the
    vacuum, using a raising-only word."""
    rng = random.Random(50505)
    pool = enumerate_basis(Fraction(5), ambient=False)
    for _ in range(200):
        v = random_vec(rng, pool)
        word, index, scalar = extract_omega(v)
        assert scalar != 0
        assert all(op == "G+" for op, _ in word.ops)
        target = vacuum_vec() if index is None else omega_vec(index)
        assert apply_word(word, v) == scalar * target


def test_criterion_06_ladder_constants():
    """The dense filling word reproduces (ell+1)(ell+2)...(ell+N+1) exactly
    (including forced zeros at negative ell), and both ladder words carry
    staircases onto nonzero exact multiples of the target staircase."""
    for ell in range(-3, 4):
        chi = ChiSeries({0: ell + 1})
        for n_top in range(5):
            image = apply_word(vacuum_filling_word(n_top), vacuum_vec(), chi)
            constant = math.prod(Fraction(ell + 1 + i) for i in range(n_top + 1))
            reference = vacuum_vec()
            for k in range(n_top + 1):
                reference = apply_psi_dmode("-", -(2 * k + 1), reference)
            assert image == constant * reference
    for ell in range(1, 5):
        chi = ChiSeries({0: ell + 1})
        for s in range(1, 5):
            if s == ell:
                continue
            if s > ell:
                word = lowering_ladder_word(s, ell)
                constant = math.prod(Fraction(ell - k) for k in range(ell + 1, s + 1))
            else:
                word = raising_ladder_word(s, ell)
                constant = Fraction(math.factorial(ell), math.factorial(s))
            assert constant != 0
            assert apply_word(word, omega_vec(s), chi) == constant * omega_vec(ell)


def test_criterion_07_irreducible_twists_are_cyclic():
    """For five twists classified irreducible (poles, free constant term,
    nonzero Schur value), every charged basis vector of weight <= 5/2 is
    cyclic: its truncated closure reaches the vacuum at cutoff 4."""
    from wakimoto import a_module_ops

    generators = enumerate_basis(Fraction(5, 2), ambient=False)
    assert len(generators) == 8
    for coeffs in ({1: 1}, {1: Fraction(1, 2)}, {0: 2, -1: 1}, {0: 3, -2: 1}, {2: 1}):
        chi = ChiSeries(coeffs)
        verdict, _ = classify(chi, PROBE_CFG)
        assert verdict.status == "irreducible"
        ops = a_module_ops(chi, PROBE_CFG)
        for st in generators:
            # each generator on its own: the stop set holds the vacuum only
            assert cyclic_probe(SparseVec.basis(st), {VACUUM}, ops, PROBE_CFG, FOCK_SPACE)


def test_criterion_08_reducible_twists_have_proper_submodules():
    """Singular vectors are annihilated by every positive odd mode and the
    truncated closures they generate exclude the expected vector: the
    vacuum for vanishing Schur value, the depth-(q+1/2) minus mode for
    negative integral weight."""
    from wakimoto import a_module_ops

    def annihilated(w, chi, up_to):
        return all(
            apply_Gplus(n, w).is_zero() and apply_Gminus(n, w, chi).is_zero()
            for n in range(1, up_to + 1)
        )

    cfg3 = ClosureConfig(Fraction(3), (-3, 3), Fraction(2))

    chi = ChiSeries({0: 2})
    w = singular_w(1, chi)
    assert w == omega_vec(1)
    assert annihilated(w, chi, 4)
    basis = closure([omega_vec(1)], a_module_ops(chi, cfg3), cfg3, FOCK_SPACE)
    assert basis.contains(omega_vec(1))
    assert not basis.contains(vacuum_vec())
    assert basis.graded_dimension() == {
        (Fraction(3, 2), 1): 1,
        (Fraction(2), 0): 1,
        (Fraction(3), 0): 1,
    }

    chi = ChiSeries({0: -3})
    assert ell_of(chi) == -4  # q = 3
    excluded = apply_psi_dmode("-", -7, vacuum_vec())
    basis = closure([vacuum_vec()], a_module_ops(chi, PROBE_CFG), PROBE_CFG, FOCK_SPACE)
    assert basis.contains(vacuum_vec())
    assert not basis.contains(excluded)

    chi = ChiSeries({0: 3, -1: 1, -2: 1})
    assert schur_at_minus_chi(2, chi) == 0
    w = singular_w(2, chi)
    assert not w.is_zero()
    assert annihilated(w, chi, 4)
    basis = closure([omega_vec(2)], a_module_ops(chi, PROBE_CFG), PROBE_CFG, FOCK_SPACE)
    assert basis.contains(w)
    assert not basis.contains(vacuum_vec())


def test_criterion_09_witness_submodules_regenerate_generator():
    """Inside each witness closure, every reported row — in particular every
    one of weight <= 2 — is carried back onto a nonzero exact multiple of
    the generator by an extraction word followed by a ladder word.  For the
    vanishing-Schur twists no extraction ever lands on the vacuum, which is
    exactly why those submodules are proper."""
    from wakimoto import a_module_ops

    cases = [
        ({0: 2}, 1, 6),
        ({0: 3, -1: 1, -2: 1}, 2, 4),
        ({0: -3}, 0, 18),
        ({}, 0, 12),
    ]
    for coeffs, target, expected_rows in cases:
        chi = ChiSeries(coeffs)
        generator = vacuum_vec() if target == 0 else omega_vec(target)
        basis = closure(
            [generator], a_module_ops(chi, PROBE_CFG), PROBE_CFG, FOCK_SPACE
        )
        rows = basis.restricted_rows()
        assert len(rows) == expected_rows
        low = [r for r in rows if all(weight(s) <= 2 for s in r.terms)]
        if target == 0:
            assert low  # the vacuum generator itself sits below weight 2
        for row in rows:
            word, index, scalar = extract_omega(row)
            assert scalar != 0
            if target >= 1:
                assert index is not None  # a proper submodule never yields |0>
            landing = 0 if index is None else index
            image = apply_word(word, row)
            assert image == scalar * (
                vacuum_vec() if index is None else omega_vec(landing)
            )
            if landing != target:
                ladder = (
                    lowering_ladder_word(landing, target)
                    if landing > target
                    else raising_ladder_word(landing, target)
                )
                image = apply_word(ladder, omega_vec(landing), chi)
                constant = image.coeff(next(iter(image.terms)))
                assert constant != 0
                assert image == constant * generator


def test_criterion_10_affine_relations():
    """All six bracket relations of the level -2 realization hold for every
    |m|, |n| <= 3 on every boson basis vector of weight <= 4 and |charge|
    <= 3, over all ten twists."""
    states = enumerate_weyl_basis(Fraction(4), (-3, 3))
    assert len(states) == 151
    span = range(-3, 4)
    for coeffs in TEN_TWISTS:
        chi = ChiSeries(coeffs)
        action = WeylAction(chi)
        for st in states:
            v = WeylVec({st: Fraction(1)})
            for m in span:
                for n in span:
                    checks = affine_relation_check(m, n, v, chi, action)
                    assert len(checks) == 6
                    bad = [name for name, ok in checks if not ok]
                    assert not bad, (coeffs, m, n, str(st), bad)


def test_criterion_11_boson_fermion_correspondence():
    """Across the family chi_0 = 2, chi_{-1} = c, the boson-side probe
    agrees with the fermion-side classifier at cutoff 3, charge window
    [-2, 2], excursion 2 — and the reducible point is exactly c = 0."""
    cfg = ClosureConfig(Fraction(3), (-2, 2), Fraction(2))
    for c in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
        chi = ChiSeries({0: 2, -1: c})
        verdict, _ = classify(chi, cfg)
        evidence = wakimoto_probe(chi, cfg)
        assert evidence_agrees(verdict.status, evidence)
        if c == 0:
            assert verdict.status == "reducible"
            assert not evidence.all_cyclic
            assert evidence.candidates
        else:
            assert verdict.status == "irreducible"
            assert evidence.all_cyclic


def test_criterion_12_deterministic_output():
    """Reruns are byte-identical: certificates, verification reports, probe
    evidence, seeded extraction batteries, and the seeded CLI relation
    suite."""
    small = ClosureConfig(Fraction(2), (-2, 2), Fraction(2))

    def classify_bytes(coeffs):
        chi = ChiSeries(coeffs)
        verdict, cert = classify(chi, small)
        report = verify_certificate(chi, verdict, cert)
        return json.dumps(
            {
                "verdict": verdict.to_json_obj(),
                "certificate": cert.to_json_obj(),
                "report": report.to_json_obj(),
            },
            sort_keys=True,
        )

    for coeffs in ({0: 2}, {0: 3, -2: 1}, {1: 1}):
        assert classify_bytes(coeffs) == classify_bytes(coeffs)

    def probe_bytes():
        return json.dumps(
            wakimoto_probe(ChiSeries({0: 2}), small).to_json_obj(), sort_keys=True
        )

    assert probe_bytes() == probe_bytes()

    def extraction_trace(seed):
        rng = random.Random(seed)
        pool = enumerate_basis(Fraction(4), ambient=False)
        trace = []
        for _ in range(20):
            word, index, scalar = extract_omega(random_vec(rng, pool))
            trace.append((str(word), index, str(scalar)))
        return trace

    assert extraction_trace(606) == extraction_trace(606)

    def cli_bytes():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(
                ["relations", "--suite", "clifford", "--trials", "2", "--seed", "5"]
            )
        assert code == 0
        return buf.getvalue()

    assert cli_bytes() == cli_bytes()
