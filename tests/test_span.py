import fractions
import importlib
import math
import random
import sys
from fractions import Fraction
from functools import partial

import pytest

from oracles import (
    FractionRows,
    as_fraction_dict,
    closure_probe,
    dict_add,
    dict_from_items,
    dict_scale,
    fermion_battery,
    hull_wakimoto_ops,
    leaves_window,
    ordered_reduce,
    seeded_twist,
    solved_joint_kernel,
    solved_restricted_rows,
    sweep_closure,
)
from wakimoto import (
    FOCK_SPACE,
    MINUS,
    WEYL_SPACE,
    ChiSeries,
    ClosureConfig,
    DEFAULT_CFG,
    DEFAULT_PROBE_CFG,
    FermionState,
    SpanBasis,
    SparseVec,
    VACUUM,
    WEYL_VACUUM,
    WeylAction,
    WeylState,
    WeylVec,
    a_module_ops,
    apply_psi_dmode,
    charge,
    closure,
    cyclic_probe,
    enumerate_basis,
    enumerate_weyl_basis,
    joint_kernel,
    omega_vec,
    vacuum_vec,
    wakimoto_ops,
    wakimoto_probe,
    weyl_vacuum_vec,
)
from test_classify import FAR_TAILS


class TestClosureConfig:
    def test_defaults(self):
        cfg = ClosureConfig()
        assert cfg.weight_cutoff == 4
        assert cfg.charge_window == (-3, 3)
        assert cfg.excursion == 2

    def test_coerces_to_fraction(self):
        cfg = ClosureConfig(weight_cutoff="5/2", excursion=1)
        assert cfg.weight_cutoff == Fraction(5, 2)
        assert cfg.excursion == Fraction(1)
        assert cfg.bound == Fraction(7, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight_cutoff": -1},
            {"excursion": Fraction(-1, 2)},
            {"charge_window": (2, -2)},
        ],
    )
    def test_rejects_bad_windows(self, kwargs):
        with pytest.raises(ValueError):
            ClosureConfig(**kwargs)

    def test_json_round_trip(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(7, 2), charge_window=(-1, 4), excursion=0)
        obj = cfg.to_json_obj()
        assert obj == {
            "weight_cutoff": "7/2",
            "charge_window": [-1, 4],
            "excursion": "0",
        }
        assert ClosureConfig.from_json_obj(obj) == cfg


def _random_vec(rng, pool, n=3):
    return SparseVec.from_items(
        (st, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for st in rng.sample(pool, n)
    )


# -- int numerators over one denominator against Fraction dicts -------------


def _assert_canonical(v):
    assert type(v.den) is int and v.den > 0
    assert all(type(n) is int and n != 0 for n in v.terms.values())
    assert math.gcd(v.den, *v.terms.values()) == 1


def _shared_factor_items(rng, pool, n):
    # numerators and denominators share factors, so results must reduce
    return [
        (st, Fraction(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]), rng.choice([1, 2, 3, 4, 6])))
        for st in rng.sample(pool, n)
    ]


VECTOR_POOLS = {
    "fock": (FOCK_SPACE, enumerate_basis(Fraction(4))),
    "weyl": (WEYL_SPACE, enumerate_weyl_basis(2, (-2, 2))),
}

GRADED = {
    # vacuum, then (monomial, weight, charge) triples
    "fock": (VACUUM, [(FermionState((3, 1), (5,)), Fraction(9, 2), -1)]),
    "weyl": (WEYL_VACUUM, [(WeylState((1, 3), (0, 2)), 6, 0), (WeylState((1,), ()), 1, -1)]),
}


@pytest.mark.parametrize("side", sorted(GRADED))
def test_grading(side):
    """Both spaces read weight, charge and order off the one monomial grading."""
    (space, pool), (vacuum, graded) = VECTOR_POOLS[side], GRADED[side]
    assert space.weight_of(vacuum) == 0 and space.charge_of(vacuum) == 0
    for st, weight, ch in graded:
        exact = space.weight_of(st)
        assert type(exact) is Fraction and exact == weight
        assert type(space.int_weight_of(st)) is int
        assert space.int_weight_of(st) == space.weight_scale * exact
        assert space.charge_of(st) == ch
        assert vacuum.sort_key() < st.sort_key()
    assert min(pool, key=space.sort_key) == vacuum == pool[0]


@pytest.mark.parametrize("side", sorted(VECTOR_POOLS))
def test_vector_algebra_matches_fraction_dicts(side):
    space, pool = VECTOR_POOLS[side]
    rng = random.Random(f"vector-algebra:{side}")
    basis, ref = SpanBasis(space), FractionRows(space.sort_key)
    reduced = 0
    for _ in range(60):
        items = _shared_factor_items(rng, pool, rng.randint(1, 6))
        # repeated states add up, and may cancel
        items += [(st, -c) for st, c in items[: rng.randint(0, 2)]]
        items += _shared_factor_items(rng, pool, 2)
        v, dv = SparseVec.from_items(items), dict_from_items(items)
        dw = dict(_shared_factor_items(rng, pool, rng.randint(1, 5)))
        w = SparseVec(dw)
        scalar = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
        remainder = basis.reduce(v)
        reduced += remainder != v
        for got, want in (
            (v, dv),
            (w, dw),
            (v + w, dict_add(dv, dw)),
            (v - w, dict_add(dv, dw, -1)),
            (-v, dict_scale(dv, -1)),
            (v * scalar, dict_scale(dv, scalar)),
            (scalar * w, dict_scale(dw, scalar)),
            (v / scalar, dict_scale(dv, 1 / scalar)),
            (v * 0, {}),
            (v - v, {}),
            (remainder, ref.reduce(dv)),
        ):
            _assert_canonical(got)
            assert as_fraction_dict(got) == want
        assert basis.insert(w) == ref.insert(dw)
        for p, row in basis._rows.items():
            _assert_canonical(row)
            assert row.terms[p] == row.den  # pivot coefficient 1
        assert {p: as_fraction_dict(r) for p, r in basis._rows.items()} == ref.rows
        # equal rationals built by different routes compare equal
        assert (v + w) - w == v
        assert v * scalar / scalar == v
        assert v + v == 2 * v == v / Fraction(1, 2)
        assert SparseVec({st: 2 * c for st, c in dv.items()}) * Fraction(1, 2) == v
        assert SparseVec.from_items([*items, *((st, -c) for st, c in dv.items())]) == SparseVec()
    st = pool[-1]
    assert SparseVec({st: 2}) == SparseVec({st: Fraction(4, 2)}) == 2 * SparseVec.basis(st)
    assert SparseVec({st: 0}) == SparseVec.zero() and SparseVec.zero().den == 1
    # the comparison is not vacuous: the span grew and reduced most queries
    assert basis.dimension() >= 15 and reduced >= 30


# certify's window: weight cutoff 5, charge window [-3, 3], excursion 2
CERTIFY_CFG = ClosureConfig(Fraction(5), (-3, 3), Fraction(2))
# crosscheck's boson probe window
CROSSCHECK_CFG = ClosureConfig(Fraction(2), (-2, 2), Fraction(1))


def _profiled_engine(run):
    """Run ``run()`` under ``sys.setprofile``.

    Returns its result, the number of SpanBasis.reduce/insert calls, the
    calls into fractions.py made inside them, and those made anywhere.
    """
    engine = {SpanBasis.reduce.__code__, SpanBasis.insert.__code__}
    source = fractions.__file__
    depth = entered = inside = anywhere = 0

    def profile(frame, event, arg):
        nonlocal depth, entered, inside, anywhere
        code = frame.f_code
        if event == "call":
            if code in engine:
                depth += 1
                entered += 1
            elif code.co_filename == source:
                anywhere += 1
                inside += depth > 0
        elif event == "return" and code in engine:
            depth -= 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, entered, inside, anywhere


def _recording_closures(monkeypatch, owners):
    """Every basis a closure or a joint kernel returns, appended to a list."""
    bases = []

    def recorded(fn):
        def run(*args):
            basis = fn(*args)
            bases.append(basis)
            return basis

        return run

    span = importlib.import_module("wakimoto.span")
    close = recorded(span.closure)
    monkeypatch.setattr(span, "closure", close)
    for owner in owners:
        if hasattr(owner, "closure"):
            monkeypatch.setattr(owner, "closure", close)
        if hasattr(owner, "joint_kernel"):
            monkeypatch.setattr(owner, "joint_kernel", recorded(owner.joint_kernel))
    return bases


@pytest.mark.parametrize("side", ["fock", "weyl"])
def test_engine_is_fraction_free(side, monkeypatch):
    """Rows hold int numerators over an int den, and eliminating builds no
    Fraction: classify then verify at certify's window on one twist of each
    case, and the boson probe at crosscheck's window.

    Verify runs no closure on an irreducible twist, and the boson battery
    settles most probes without one, so each twist also closes the vacuum
    under its family, in the same window: a closure that always runs to its
    fixpoint.
    """
    span_mod = importlib.import_module("wakimoto.span")
    classify_mod = importlib.import_module("wakimoto.classify")
    weyl_mod = importlib.import_module("wakimoto.weyl")
    rng = random.Random(1729)
    twists = [seeded_twist(case, rng) for case in ("i", "ii", "iii", "schur_zero", "neg_ell")]
    bases = _recording_closures(monkeypatch, [classify_mod if side == "fock" else weyl_mod])

    def run():
        for chi in twists:
            if side == "fock":
                verdict, cert = classify_mod.classify(chi, CERTIFY_CFG)
                report = classify_mod.verify_certificate(
                    chi, verdict, cert, start_weight=Fraction(7, 2)
                )
                assert report.ok
                cfg, space, vac = CERTIFY_CFG, FOCK_SPACE, vacuum_vec()
                ops = a_module_ops(chi, cfg)
            else:
                weyl_mod.wakimoto_probe(chi, CROSSCHECK_CFG)
                cfg, space, vac = CROSSCHECK_CFG, WEYL_SPACE, weyl_vacuum_vec()
                ops = wakimoto_ops(chi, cfg, WeylAction(chi))
            span_mod.closure([vac], ops, cfg, space)

    _, entered, inside, anywhere = _profiled_engine(run)
    assert inside == 0
    # not vacuous: the engine ran, and the profiler sees fractions.py
    assert entered >= 1000 and anywhere > 0
    rows = [row for basis in bases for row in basis.rows()]
    assert len(bases) >= 5 and len(rows) >= 100
    for row in rows:
        assert type(row.den) is int
        assert all(type(n) is int for n in row.terms.values())


class TestSpanBasis:
    def test_rref_invariants(self):
        rng = random.Random(17)
        pool = enumerate_basis(Fraction(4))
        basis = SpanBasis(FOCK_SPACE)
        vecs = [_random_vec(rng, pool) for _ in range(12)]
        for v in vecs:
            if not v.is_zero():
                basis.insert(v)
        pivots = basis.pivots()
        assert len(pivots) == basis.dimension()
        for row in basis.rows():
            p = min(row.terms, key=FOCK_SPACE.sort_key)
            assert row.coeff(p) == 1
            # full reduction: no other row's pivot appears in this row
            for q in pivots:
                if q != p:
                    assert q not in row.terms
        # every original vector is contained; combinations add nothing
        for v in vecs:
            assert basis.contains(v)
        combo = vecs[0] * Fraction(2, 3) - vecs[3] + vecs[7]
        assert not basis.insert(combo)

    def test_reduce_leaves_no_known_pivot(self):
        basis = SpanBasis(FOCK_SPACE)
        a = SparseVec.basis(FermionState((1,), ()))
        b = SparseVec.basis(FermionState((3,), ()))
        basis.insert(a + b)
        rem = basis.reduce(2 * a - b)
        assert min(rem.terms, key=FOCK_SPACE.sort_key) not in basis.pivots()
        assert basis.reduce(a + b).is_zero()

    def test_insert_reports_growth(self):
        basis = SpanBasis(FOCK_SPACE)
        a = SparseVec.basis(FermionState((1,), ()))
        assert basis.insert(a)
        assert not basis.insert(3 * a)
        assert basis.dimension() == 1

    def test_restricted_reporting(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(1), charge_window=(-2, 2), excursion=Fraction(2))
        basis = SpanBasis(FOCK_SPACE, cfg)
        low = SparseVec.basis(FermionState((1,), ()))
        high = SparseVec.basis(FermionState((5, 3), ()))  # weight 4 > cutoff
        mixed = low + high
        basis.insert(high)
        basis.insert(mixed)
        # spanning uses everything; reporting only rows inside the cutoff
        assert basis.dimension() == 2
        assert basis.restricted_rows() == [low]
        assert basis.graded_dimension() == {(Fraction(1, 2), -1): 1}

    def test_report_shape(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-1, 1), excursion=0)
        basis = SpanBasis(FOCK_SPACE, cfg)
        basis.insert(omega_vec(1))
        assert basis.report() == {
            "cfg": cfg.to_json_obj(),
            "dimension": 1,
            "graded_dimension": [{"weight": "3/2", "charge": 1, "dim": 1}],
        }


class TestClosure:
    def test_inadmissible_generator_is_dropped(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(1), charge_window=(0, 1), excursion=0)
        chi = ChiSeries({0: 1})
        basis = closure([omega_vec(2)], a_module_ops(chi, cfg), cfg, FOCK_SPACE)
        assert basis.dimension() == 0

    def test_level_zero_vacuum_closure_fills_the_window(self):
        # chi_0 = 1 (ell = 0): the module is irreducible, so the truncated
        # closure of the vacuum covers every charged monomial in the window
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(2))
        chi = ChiSeries({0: 1})
        basis = closure([vacuum_vec()], a_module_ops(chi, cfg), cfg, FOCK_SPACE)
        grid = basis.graded_dimension()
        assert sum(grid.values()) == 6
        assert len(enumerate_basis(Fraction(2))) == 6
        for st in enumerate_basis(Fraction(2)):
            assert basis.contains(SparseVec.basis(st))

    def test_singular_vector_never_reaches_the_vacuum(self):
        # chi(z) = 2/z: ell = 1 and S_1 = 0, so Omega_1 generates a proper
        # submodule; the truncated closure must keep the vacuum out
        cfg = ClosureConfig(weight_cutoff=Fraction(3), charge_window=(-3, 3), excursion=Fraction(2))
        chi = ChiSeries({0: 2})
        basis = closure([omega_vec(1)], a_module_ops(chi, cfg), cfg, FOCK_SPACE)
        assert not basis.contains(vacuum_vec())
        assert basis.graded_dimension() == {
            (Fraction(3, 2), 1): 1,
            (Fraction(2), 0): 1,
            (Fraction(3), 0): 1,
        }

    def test_stop_if_contains_short_circuits(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(2))
        ops = a_module_ops(ChiSeries({0: 1}), cfg)
        basis = closure([omega_vec(1)], ops, cfg, FOCK_SPACE, {VACUUM})
        assert basis.contains(vacuum_vec())
        assert basis.dimension() < closure([omega_vec(1)], ops, cfg, FOCK_SPACE).dimension()

    def test_deterministic_report(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(1))
        chi = ChiSeries({0: 2, -1: Fraction(1, 2)})
        a = closure([omega_vec(1)], a_module_ops(chi, cfg), cfg, FOCK_SPACE).report()
        b = closure([omega_vec(1)], a_module_ops(chi, cfg), cfg, FOCK_SPACE).report()
        assert a == b


class TestCyclicProbe:
    def test_positive(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(2))
        chi = ChiSeries({0: 1})
        assert cyclic_probe(omega_vec(1), {VACUUM}, a_module_ops(chi, cfg), cfg, FOCK_SPACE)

    def test_negative(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(3), charge_window=(-3, 3), excursion=Fraction(2))
        chi = ChiSeries({0: 2})
        assert not cyclic_probe(omega_vec(1), {VACUUM}, a_module_ops(chi, cfg), cfg, FOCK_SPACE)


class TestJointKernel:
    def test_shared_image_leaves_difference_vector(self):
        def op(v):
            return apply_psi_dmode(MINUS, 3, v) + apply_psi_dmode(MINUS, 5, v)

        piece = [FermionState((), (3,)), FermionState((), (5,))]
        kernel = joint_kernel([("sum", op)], piece, FOCK_SPACE)
        assert kernel.dimension() == 1
        diff = SparseVec.basis(piece[0]) - SparseVec.basis(piece[1])
        assert kernel.contains(diff)
        assert op(kernel.rows()[0]).is_zero()

    def test_independent_images_give_trivial_kernel(self):
        op = partial(apply_psi_dmode, MINUS, 3)
        piece = [FermionState((1,), (3,)), FermionState((3,), (3,))]
        kernel = joint_kernel([("P", op)], piece, FOCK_SPACE)
        assert kernel.dimension() == 0

    def test_no_constraints_keeps_everything(self):
        op = partial(apply_psi_dmode, MINUS, 7)  # annihilates the whole piece
        piece = [FermionState((), (3,)), FermionState((1,), ())]
        kernel = joint_kernel([("P", op)], piece, FOCK_SPACE)
        assert kernel.dimension() == 2

    def test_two_operator_intersection(self):
        # kernel of Psi-(3/2) alone on this piece is 2-dim; adding Psi-(5/2)
        # cuts it down to the single difference direction
        def op35(v):
            return apply_psi_dmode(MINUS, 3, v) - apply_psi_dmode(MINUS, 5, v)

        ops = [
            ("A", lambda v: apply_psi_dmode(MINUS, 3, v) + apply_psi_dmode(MINUS, 5, v)),
            ("B", op35),
        ]
        piece = [FermionState((), (3,)), FermionState((), (5,))]
        kernel = joint_kernel(ops, piece, FOCK_SPACE)
        assert kernel.dimension() == 0


# -- restricted rows and joint kernels against the kernel-solve reference ----


def _inside(row, cfg):
    return all(FOCK_SPACE.weight_of(s) <= cfg.weight_cutoff for s in row.terms)


def test_restricted_rows_match_kernel_solve():
    # few states and many rows, so tails above the cutoff often cancel
    rng = random.Random(2024)
    states = enumerate_basis(Fraction(4))
    cancelled = 0
    for _ in range(60):
        pool = rng.sample(states, 8)
        vecs = [_random_vec(rng, pool, rng.randint(1, 4)) for _ in range(rng.randint(2, 8))]
        for cutoff in ("0", "1/2", "3/2", "2", "5/2", "7/2"):
            cfg = ClosureConfig(weight_cutoff=Fraction(cutoff), excursion=Fraction(4))
            basis = SpanBasis(FOCK_SPACE, cfg)
            for v in vecs:
                basis.insert(v)
            got = basis.restricted_rows()
            assert got == solved_restricted_rows(basis)
            assert all(_inside(r, cfg) for r in got)
            cancelled += len(got) > sum(_inside(r, cfg) for r in basis.rows())
    # the comparison is not vacuous: many cases need a cancelling combination
    assert cancelled >= 20


def _linear_op(images):
    def op(v):
        out = SparseVec()
        for s, c in v.sorted_items():
            out = out + c * images.get(s, SparseVec())
        return out

    return op


def test_joint_kernel_matches_kernel_solve():
    rng = random.Random(99)
    states = enumerate_basis(Fraction(4))
    nontrivial = 0
    for _ in range(60):
        piece = rng.sample(states, rng.randint(1, 7))
        targets = rng.sample(states, rng.randint(1, 5))
        ops = []
        for j in range(rng.randint(1, 3)):
            images = {
                s: _random_vec(rng, targets, rng.randint(1, len(targets)))
                for s in piece
                if rng.random() < 0.7
            }
            ops.append((f"op{j}", _linear_op(images)))
        kernel = joint_kernel(ops, piece, FOCK_SPACE)
        assert kernel.rows() == solved_joint_kernel(ops, piece, FOCK_SPACE).rows()
        for row in kernel.rows():
            assert all(op(row).is_zero() for _, op in ops)
        nontrivial += 0 < kernel.dimension() < len(piece)
    assert nontrivial >= 20


def test_one_pass_reduce_matches_ordered_elimination():
    rng = random.Random(4711)
    states = enumerate_basis(Fraction(4))
    multi_hit = 0
    for _ in range(60):
        pool = rng.sample(states, 10)
        basis = SpanBasis(FOCK_SPACE)
        for _ in range(rng.randint(1, 8)):
            basis.insert(_random_vec(rng, pool, rng.randint(1, 5)))
        for _ in range(5):
            v = _random_vec(rng, pool, rng.randint(1, 6))
            assert basis.reduce(v) == ordered_reduce(basis, v)
            multi_hit += sum(s in basis.pivots() for s in v.terms) >= 2
    # the comparison is not vacuous: most queries hit several pivots
    assert multi_hit >= 100


# -- the closure that skips unchanged rows against the full sweep ------------


def _generators(case, chi, space, rng):
    """The case's own generator and one random basis state of the window.

    Also returns the vacuum state, which the stop tests stop at.
    """
    if space is FOCK_SPACE:
        cfg = ClosureConfig(weight_cutoff=Fraction(3), charge_window=(-2, 2), excursion=Fraction(1))
        ops = a_module_ops(chi, cfg)
        vac = VACUUM
        own = omega_vec(2) if case in ("iii", "schur_zero") else vacuum_vec()
        other = SparseVec.basis(rng.choice(enumerate_basis(Fraction(2))))
    else:
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-1, 1), excursion=Fraction(1))
        ops = wakimoto_ops(chi, cfg, WeylAction(chi))
        vac = WEYL_VACUUM
        own = weyl_vacuum_vec()
        other = WeylVec.basis(rng.choice(enumerate_weyl_basis(Fraction(2), (-1, 1))))
    return cfg, ops, vac, (own, other)


def _recorded(run, generators, ops, cfg, space, stop, monkeypatch):
    """A closure run with its growing inserts and its op applications."""
    grown = []
    applied = [0]
    insert = SpanBasis.insert

    def recording(self, v):
        grew = insert(self, v)
        if grew:
            grown.append(v)
        return grew

    def counted(op):
        def apply(v):
            applied[0] += 1
            return op(v)

        return apply

    with monkeypatch.context() as mp:
        mp.setattr(SpanBasis, "insert", recording)
        basis = run(generators, [(name, counted(op)) for name, op in ops], cfg, space, stop)
    return basis, grown, applied[0]


@pytest.mark.parametrize("space", [FOCK_SPACE, WEYL_SPACE], ids=["fock", "weyl"])
@pytest.mark.parametrize("case", ["i", "ii", "iii", "schur_zero", "neg_ell"])
def test_closure_matches_full_sweep(case, space, monkeypatch):
    rng = random.Random(f"{case}:{space is FOCK_SPACE}")
    for _ in range(2):
        chi = seeded_twist(case, rng)
        cfg, ops, vac, generators = _generators(case, chi, space, rng)
        for g in generators:
            for stop in (None, {vac}):
                new, new_grown, new_applied = _recorded(
                    closure, [g], ops, cfg, space, stop, monkeypatch)
                old, old_grown, old_applied = _recorded(
                    sweep_closure, [g], ops, cfg, space, stop, monkeypatch)
                assert new.pivots() == old.pivots()
                assert new.rows() == old.rows()
                assert new.report() == old.report()
                assert new_grown == old_grown
                assert new_applied <= old_applied


@pytest.mark.parametrize("case", ["schur_zero", "neg_ell"])
def test_closure_skips_unchanged_rows(case, monkeypatch):
    chi = seeded_twist(case, random.Random(case))
    cfg, ops, _, (own, _) = _generators(case, chi, FOCK_SPACE, random.Random(0))
    new, _, new_applied = _recorded(closure, [own], ops, cfg, FOCK_SPACE, None, monkeypatch)
    old, _, old_applied = _recorded(sweep_closure, [own], ops, cfg, FOCK_SPACE, None, monkeypatch)
    assert new.dimension() == old.dimension() > 1
    assert new_applied < old_applied


def test_rewritten_row_is_expanded_again():
    # x + y is expanded first, and its image leaves the window.  The image
    # y of w then rewrites that row to x, whose image t is new: only a
    # closure that expands rewritten rows again reaches t.
    x, w, y, t = sorted(enumerate_basis(Fraction(2)), key=FOCK_SPACE.sort_key)[:4]
    heavy = SparseVec.basis(FermionState((), (7, 5, 3)))  # weight 15/2
    images = {
        x: SparseVec.basis(t),
        y: heavy - SparseVec.basis(t),
        w: SparseVec.basis(y),
    }
    ops = [("op", _linear_op(images))]
    cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-3, 3), excursion=0)
    generators = [SparseVec.basis(x) + SparseVec.basis(y), SparseVec.basis(w)]
    basis = closure(generators, ops, cfg, FOCK_SPACE)
    assert basis.contains(SparseVec.basis(t))
    assert basis.rows() == sweep_closure(generators, ops, cfg, FOCK_SPACE).rows()


# -- pure rows and the batteries that stop at proved monomials ---------------


@pytest.mark.parametrize("space", [FOCK_SPACE, WEYL_SPACE], ids=["fock", "weyl"])
@pytest.mark.parametrize("case", ["i", "ii", "iii", "schur_zero", "neg_ell"])
def test_pure_row_is_membership(case, space):
    rng = random.Random(f"pure:{case}:{space is FOCK_SPACE}")
    chi = seeded_twist(case, rng)
    cfg, ops, _, generators = _generators(case, chi, space, rng)
    top = cfg.bound
    lo, hi = cfg.charge_window
    if space is FOCK_SPACE:
        window = [st for st in enumerate_basis(top, ambient=True) if lo <= charge(st) <= hi]
    else:
        window = enumerate_weyl_basis(top, cfg.charge_window)
    for g in generators:
        basis = closure([g], ops, cfg, space)
        held = []
        for u in window:
            pure = basis._rows.get(u) == SparseVec.basis(u)
            assert pure == basis.holds_any({u}) == basis.contains(SparseVec.basis(u))
            if pure:
                held.append(u)
        assert held
        # set queries: a set larger than the basis scans the rows instead
        assert basis.holds_any(set(window)) and basis.holds_any(set(held))
        assert not basis.holds_any(set(window) - set(held))


# The certify benchmark's window and start weight on the fermion side; the
# crosscheck benchmark's window on the boson side.
BATTERY_CFG = {
    "fock": ClosureConfig(weight_cutoff=Fraction(5), charge_window=(-3, 3), excursion=Fraction(2)),
    "weyl": ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(1)),
}
BATTERY_START_WEIGHT = Fraction(7, 2)


def _battery(side, chi, monkeypatch):
    """The battery's answer per probed state, and its closures' op applications.

    Also returns the same states probed one by one with the vacuum as the
    only stop state, and the op applications of those probes' closures.
    Every closure counts its op applications through a wrapper on
    ``span.closure``, which ``cyclic_probe`` calls; the ops a one-step
    proof applies before it are not counted.
    """
    span = importlib.import_module("wakimoto.span")
    cfg = BATTERY_CFG[side]
    applied = [0]
    answers = {}
    close, probe = span.closure, span.cyclic_probe

    def counted(op):
        def apply(v):
            applied[0] += 1
            return op(v)

        return apply

    def counting(generators, ops, cfg, space, stop_at=None):
        return close(generators, [(name, counted(op)) for name, op in ops], cfg, space, stop_at)

    def recording(v, cyclic, ops, cfg, space):
        (st,) = v.terms
        answers[st] = probe(v, cyclic, ops, cfg, space)
        return answers[st]

    with monkeypatch.context() as mp:
        mp.setattr(span, "closure", counting)
        if side == "fock":
            assert fermion_battery(chi, cfg, BATTERY_START_WEIGHT, recording) == answers
        else:
            mp.setattr(importlib.import_module("wakimoto.weyl"), "cyclic_probe", recording)
            evidence = wakimoto_probe(chi, cfg)
            assert evidence.non_cyclic == tuple(str(st) for st, ok in answers.items() if not ok)
            assert evidence.probed == len(answers)
        memo_applied = applied[0]
        applied[0] = 0
        if side == "fock":
            ops, space, vac, vec = a_module_ops(chi, cfg), FOCK_SPACE, VACUUM, SparseVec.basis
        else:
            ops, space, vac, vec = wakimoto_ops(chi, cfg, WeylAction(chi)), WEYL_SPACE, WEYL_VACUUM, WeylVec.basis
        alone = {st: probe(vec(st), {vac}, ops, cfg, space) for st in answers}
    assert list(answers) == sorted(answers, key=space.sort_key)
    return answers, memo_applied, alone, applied[0]


@pytest.mark.parametrize("side", ["fock", "weyl"])
@pytest.mark.parametrize("case", ["i", "ii", "iii", "schur_zero", "neg_ell"])
def test_battery_matches_independent_probes(case, side, monkeypatch):
    chi = seeded_twist(case, random.Random(f"battery:{case}"))
    answers, _, alone, _ = _battery(side, chi, monkeypatch)
    assert len(answers) > 1
    assert answers == alone


@pytest.mark.parametrize("side", ["fock", "weyl"])
def test_battery_reuses_proved_monomials(side, monkeypatch):
    chi = seeded_twist("iii", random.Random("battery:iii"))
    answers, memo_applied, alone, alone_applied = _battery(side, chi, monkeypatch)
    assert all(answers.values())
    assert memo_applied < alone_applied



# Windows of the one-step equivalence test: both benchmark windows, the
# probe's default, and windows whose charges leave out 0, so the vacuum,
# the first state proved cyclic, lies outside them.
ONE_STEP_WINDOWS = [
    ("fock", "certify", CERTIFY_CFG),
    ("fock", "crosscheck", CROSSCHECK_CFG),
    ("fock", "no_zero_charge", ClosureConfig(Fraction(4), (1, 3), Fraction(1))),
    ("weyl", "crosscheck", CROSSCHECK_CFG),
    ("weyl", "probe_default", DEFAULT_PROBE_CFG),
    ("weyl", "no_zero_charge", ClosureConfig(Fraction(2), (1, 3), Fraction(1))),
]


def _probe_calls(side, chi, cfg, monkeypatch, probe=cyclic_probe):
    """Run one battery with ``probe`` as its probe.

    Returns (v, cyclic, ops, answer) for each probe, with ``cyclic`` copied
    at the time of the call, and the number of closures ``span.closure``
    ran.
    """
    span = importlib.import_module("wakimoto.span")
    close = span.closure
    calls = []
    closures = [0]

    def recording(v, cyclic, ops, cfg, space):
        answer = probe(v, cyclic, ops, cfg, space)
        calls.append((v, frozenset(cyclic), ops, answer))
        return answer

    def counting(*args):
        closures[0] += 1
        return close(*args)

    with monkeypatch.context() as mp:
        mp.setattr(span, "closure", counting)
        if side == "fock":
            fermion_battery(chi, cfg, BATTERY_START_WEIGHT, recording)
        else:
            mp.setattr(importlib.import_module("wakimoto.weyl"), "cyclic_probe", recording)
            wakimoto_probe(chi, cfg)
    return calls, closures[0]


@pytest.mark.parametrize(
    "side, window, cfg", ONE_STEP_WINDOWS, ids=[f"{s}-{w}" for s, w, _ in ONE_STEP_WINDOWS]
)
@pytest.mark.parametrize("case", ["i", "ii", "iii", "schur_zero", "neg_ell"])
def test_one_step_proof_matches_closure(case, side, window, cfg, monkeypatch):
    """Each probe of both batteries answers as the closure alone does."""
    space = FOCK_SPACE if side == "fock" else WEYL_SPACE
    chi = seeded_twist(case, random.Random(f"one-step:{case}"))
    calls, _ = _probe_calls(side, chi, cfg, monkeypatch)
    assert len(calls) > 1
    for v, cyclic, ops, answer in calls:
        assert answer == closure_probe(v, cyclic, ops, cfg, space), v
    if window == "no_zero_charge":
        # not vacuous: some op maps a probed state onto a multiple of the
        # vacuum, which lies outside the window and must settle nothing
        vacuum = VACUUM if side == "fock" else WEYL_VACUUM
        assert any(set(op(v).terms) == {vacuum} for v, _, ops, _ in calls for _, op in ops)
        assert not any(answer for *_, answer in calls)


@pytest.mark.parametrize("side", ["fock", "weyl"])
def test_state_outside_the_window_settles_nothing(side):
    """A probed state outside the window proves nothing, even one that an op
    maps onto the vacuum: the closure does not insert it."""
    cfg = ClosureConfig(Fraction(2), (-2, 0), Fraction(1))
    chi = seeded_twist("iii", random.Random("one-step:outside"))
    if side == "fock":
        ops, space, vac, vec = a_module_ops(chi, cfg), FOCK_SPACE, VACUUM, SparseVec.basis
        states = enumerate_basis(cfg.weight_cutoff)
    else:
        ops, space, vac, vec = wakimoto_ops(chi, cfg, WeylAction(chi)), WEYL_SPACE, WEYL_VACUUM, WeylVec.basis
        states = enumerate_weyl_basis(cfg.weight_cutoff, (1, 1))
    outside = [
        st for st in states
        if charge(st) == 1 and any(set(op(vec(st)).terms) == {vac} for _, op in ops)
    ]
    assert outside
    for st in outside:
        assert not cyclic_probe(vec(st), {vac}, ops, cfg, space)
        assert not closure_probe(vec(st), {vac}, ops, cfg, space)


# twists of certify's ``pole2`` shape: chi_0 = 3 and free chi_2, chi_-1
POLE2_TWISTS = [
    ChiSeries({0: 3, 2: a, -1: b})
    for a, b in [(Fraction(7, 3), Fraction(-5, 2)), (Fraction(-1, 2), 2), (4, Fraction(-2, 3))]
]


@pytest.mark.parametrize(
    "side, twists",
    [
        ("weyl", [seeded_twist("i", random.Random(f"no-closure:i:{k}")) for k in range(3)]),
        ("weyl", [seeded_twist("ii", random.Random(f"no-closure:ii:{k}")) for k in range(3)]),
        ("fock", POLE2_TWISTS),
    ],
    ids=["weyl-i", "weyl-ii", "fock-pole2"],
)
def test_irreducible_battery_runs_no_closure(side, twists, monkeypatch):
    """Every probe of these batteries is settled by its one-step proof, and
    the battery makes as many probes as with the closure alone."""
    cfg = BATTERY_CFG[side]
    for chi in twists:
        calls, closures = _probe_calls(side, chi, cfg, monkeypatch)
        assert len(calls) > 1 and closures == 0
        alone, _ = _probe_calls(side, chi, cfg, monkeypatch, closure_probe)
        assert len(alone) == len(calls)


# -- op images that must leave the window are not computed -------------------

SPAN = importlib.import_module("wakimoto.span")
CASES = ["i", "ii", "iii", "schur_zero", "neg_ell"]
# seeded twists of all five cases (case i has a pole at 1), and two twists
# with poles beside tails: at 1 and 2, and at 2 alone
SKIP_TWISTS = [
    *(seeded_twist(case, random.Random(f"skip:{case}")) for case in CASES),
    ChiSeries({2: Fraction(1, 3), 1: -2, 0: 3, -1: 1}),
    ChiSeries({2: -1, 0: Fraction(1, 2), -2: 2, -4: Fraction(-2, 3)}),
]
SKIP_WINDOWS = {
    "crosscheck": CROSSCHECK_CFG,
    "probe_default": DEFAULT_PROBE_CFG,
    "narrow_charge": ClosureConfig(Fraction(3), (0, 1), Fraction(1)),
}


def _skipped(v, ops, cfg, space=WEYL_SPACE):
    """The (label, op) pairs of ``ops`` that the engine does not apply to v."""
    kept = {id(op) for op in SPAN._live(v, ops, cfg, space.int_bound(cfg.bound))}
    return [(label, op) for label, op in ops if id(op) not in kept]


def _expanded_rows(generators, ops, cfg, monkeypatch, space=WEYL_SPACE):
    """Every row version the closures of the generators expand, in order."""
    rows = []
    live = SPAN._live

    def recording(v, ops, cfg, bound):
        rows.append(v)
        return live(v, ops, cfg, bound)

    with monkeypatch.context() as mp:
        mp.setattr(SPAN, "_live", recording)
        for g in generators:
            closure([g], ops, cfg, space)
    return rows


@pytest.mark.parametrize("window", list(SKIP_WINDOWS))
def test_skipped_images_leave_the_window(window, monkeypatch):
    """Every (row, op) pair the engine skips has an image that is zero or
    holds a state outside the window, on closure rows and on the monomials
    a one-step proof tries."""
    cfg = SKIP_WINDOWS[window]
    states = enumerate_weyl_basis(cfg.weight_cutoff, cfg.charge_window)
    by_charge = by_weight = 0
    for k, chi in enumerate(SKIP_TWISTS):
        ops = wakimoto_ops(chi, cfg, WeylAction(chi))
        rng = random.Random(f"skip:{window}:{k}")
        generators = [weyl_vacuum_vec(), WeylVec.basis(rng.choice(states))]
        rows = _expanded_rows(generators, ops, cfg, monkeypatch)
        assert len(rows) > len(generators)
        for v in rows + [WeylVec.basis(st) for st in states]:
            for label, op in _skipped(v, ops, cfg):
                assert leaves_window(op(v), cfg, WEYL_SPACE), (chi, window, label, v)
                # e/f with n >= 0 can be skipped for their charge alone, h
                # for its weight alone
                by_charge += label.creates == 0
                by_weight += label.charge_shift == 0
    assert by_charge and by_weight


@pytest.mark.parametrize("case", CASES)
def test_boson_rows_have_one_charge(case, monkeypatch):
    """A closure started from a monomial keeps one charge in every row it
    expands, so the charge rule judges each row by that charge."""
    chi = seeded_twist(case, random.Random(f"one-charge:{case}"))
    longest = 0
    for cfg in SKIP_WINDOWS.values():
        ops = wakimoto_ops(chi, cfg, WeylAction(chi))
        states = enumerate_weyl_basis(cfg.weight_cutoff, cfg.charge_window)
        generators = [WeylVec.basis(st) for st in random.Random(case).sample(states, 3)]
        for row in _expanded_rows(generators, ops, cfg, monkeypatch):
            assert len({charge(s) for s in row.terms}) == 1
            longest = max(longest, len(row.terms))
    assert longest > 1


def _applications(generators, ops, cfg, space):
    """A closure's basis, and the (op index, row) of each op it applied."""
    calls = []

    def counted(i, op):
        def apply(v):
            calls.append((i, v))
            return op(v)

        return apply

    basis = closure(generators, [(label, counted(i, op)) for i, (label, op) in enumerate(ops)],
                    cfg, space)
    return basis, calls


@pytest.mark.parametrize("family", ["fock_plain_labels", "weyl_hull", "weyl_plain_labels"])
@pytest.mark.parametrize("case", CASES)
def test_family_that_declares_nothing_applies_every_op(case, family, monkeypatch):
    """A family of plain labels has every op applied to every row the
    closure expands, in the family's order: nothing is skipped.  The
    declared family gets the same basis and report, and applies fewer ops;
    with the same ops, it makes the same growing inserts."""
    rng = random.Random(f"declares-nothing:{case}")
    chi = seeded_twist(case, rng)
    space = FOCK_SPACE if family.startswith("fock") else WEYL_SPACE
    cfg, declared, _, generators = _generators(case, chi, space, rng)
    if family == "weyl_hull":
        ops = hull_wakimoto_ops(chi, cfg, WeylAction(chi))
    else:
        ops = [(str(label), op) for label, op in declared]
    assert all(type(label) is str for label, _ in ops)
    for g in generators:
        basis, calls = _applications([g], ops, cfg, space)
        assert calls and len(calls) % len(ops) == 0
        for start in range(0, len(calls), len(ops)):
            block = calls[start : start + len(ops)]
            assert [i for i, _ in block] == list(range(len(ops)))
            assert all(v is block[0][1] for _, v in block)
        ours, grown, applied = _recorded(closure, [g], declared, cfg, space, None, monkeypatch)
        assert ours.rows() == basis.rows()
        assert ours.report() == basis.report()
        assert applied < len(calls)
        if family != "weyl_hull":
            _, plain_grown, _ = _recorded(closure, [g], ops, cfg, space, None, monkeypatch)
            assert grown == plain_grown


# -- the fermion family: the zero rule and the top-component rule ------------

FERMION_SKIP_TWISTS = [*SKIP_TWISTS, *(ChiSeries(coeffs) for coeffs, _ in FAR_TAILS)]
FERMION_SKIP_WINDOWS = {
    "default": DEFAULT_CFG,
    "certify": CERTIFY_CFG,
    "small": ClosureConfig(Fraction(2), (-2, 2), Fraction(1)),
}


@pytest.mark.parametrize("window", list(FERMION_SKIP_WINDOWS))
def test_skipped_fermion_images_are_zero_or_leave_the_window(window, monkeypatch):
    """Every (row, op) pair the engine skips for ``a_module_ops`` has an
    image that is zero or holds a state outside the window, on closure rows
    and on single monomials.  A skipped pair that the charge rule does not
    cover was skipped by the zero rule, and its image is 0, or by the
    top-component rule, and its image is heavier than the bound; both
    rules fire."""
    cfg = FERMION_SKIP_WINDOWS[window]
    lo, hi = cfg.charge_window
    states = [st for st in enumerate_basis(cfg.bound) if lo <= charge(st) <= hi]
    zero = heavy = 0
    for k, chi in enumerate(FERMION_SKIP_TWISTS):
        ops = a_module_ops(chi, cfg)
        rng = random.Random(f"fermion-skip:{window}:{k}")
        generators = [vacuum_vec(), SparseVec.basis(rng.choice(states))]
        rows = _expanded_rows(generators, ops, cfg, monkeypatch, FOCK_SPACE)
        assert len(rows) > len(generators)
        for v in rows + [SparseVec.basis(st) for st in states]:
            charges = {charge(s) for s in v.terms}
            for label, op in _skipped(v, ops, cfg, FOCK_SPACE):
                w = op(v)
                assert leaves_window(w, cfg, FOCK_SPACE), (chi, window, label, v)
                if not any(lo <= c + label.charge_shift <= hi for c in charges):
                    continue
                if label.modes[0] > 0:
                    assert w.is_zero(), (chi, window, label, v)
                    zero += 1
                else:
                    assert any(FOCK_SPACE.weight_of(s) > cfg.bound for s in w.terms)
                    heavy += 1
    assert zero and heavy


def test_top_component_rule_reads_the_kill():
    """The row's top state already holds the factor that G+(-3/2) creates,
    so the op kills it, and the image of the lighter vacuum fits the
    window: the engine applies the op.  The top weight alone, 2 plus 3/2
    past the bound 3, would skip it."""
    cfg = FERMION_SKIP_WINDOWS["small"]
    ops = a_module_ops(ChiSeries({0: 2, -1: 1}), cfg)
    label, op = next((label, op) for label, op in ops if label == "G+(-3/2)")
    assert label.modes == (-3,)
    top = FermionState((1,), (3,))  # Psi-(-1/2) Psi+(-3/2) |0>
    row = SparseVec.basis(top) + vacuum_vec()
    assert FOCK_SPACE.int_weight_of(top) - label.modes[0] > FOCK_SPACE.int_bound(cfg.bound)
    image = op(row)
    assert image == op(vacuum_vec()) and not leaves_window(image, cfg, FOCK_SPACE)
    assert label not in [label for label, _ in _skipped(row, ops, cfg, FOCK_SPACE)]
    basis = closure([row], ops, cfg, FOCK_SPACE)
    assert basis.contains(image)
    assert basis.rows() == closure([row], [(str(lbl), o) for lbl, o in ops], cfg, FOCK_SPACE).rows()


# -- the one-step proof applies no op whose image is past every proved state --


def _closures_run(monkeypatch):
    """A one-item list that counts the closures ``span.closure`` runs from now on."""
    count = [0]
    close = SPAN.closure

    def counting(*args):
        count[0] += 1
        return close(*args)

    monkeypatch.setattr(SPAN, "closure", counting)
    return count


def test_creator_onto_a_heavier_proved_state_settles_the_probe(monkeypatch):
    """A proved state heavier than v, which only a creator maps v onto,
    proves v in one step: the reach skips only creators whose image is
    heavier than every proved state, not every creator."""
    chi = seeded_twist("iii", random.Random("reach:creator"))
    ops = wakimoto_ops(chi, CROSSCHECK_CFG, WeylAction(chi))
    v = WeylVec.basis(WeylState((), (0,)))  # a*(0)|0>
    u = WeylState((1,), (0,))  # a(-1) a*(0)|0>, one heavier
    onto_u = [label for label, op in ops if set(op(v).terms) == {u}]
    assert onto_u and all(label.creates > 0 for label in onto_u)
    closures = _closures_run(monkeypatch)
    assert cyclic_probe(v, {u}, ops, CROSSCHECK_CFG, WEYL_SPACE)
    assert closures[0] == 0


def test_lowering_op_is_tried_past_every_proved_state(monkeypatch):
    """v is heavier than every proved state, and e(1) maps it onto the
    vacuum: the op that lowers the weight is still tried, so the one step
    proves v with no closure."""
    chi = seeded_twist("iii", random.Random("reach:lowering"))
    ops = wakimoto_ops(chi, CROSSCHECK_CFG, WeylAction(chi))
    v = WeylVec.basis(WeylState((), (1,)))  # a*(-1)|0>
    assert dict(ops)["e(1)"](v) == weyl_vacuum_vec()
    closures = _closures_run(monkeypatch)
    assert cyclic_probe(v, {WEYL_VACUUM}, ops, CROSSCHECK_CFG, WEYL_SPACE)
    assert closures[0] == 0


@pytest.mark.parametrize("side", ["fock", "weyl"])
def test_empty_cyclic_settles_nothing(side):
    cfg = ClosureConfig(Fraction(2), (-2, 2), Fraction(1))
    chi = seeded_twist("iii", random.Random("reach:empty"))
    if side == "fock":
        ops, space, vac, vec = a_module_ops(chi, cfg), FOCK_SPACE, VACUUM, SparseVec.basis
    else:
        ops, space, vac, vec = wakimoto_ops(chi, cfg, WeylAction(chi)), WEYL_SPACE, WEYL_VACUUM, WeylVec.basis
    for v in (vec(vac), SparseVec.zero()):
        assert cyclic_probe(v, set(), ops, cfg, space) is False
        assert cyclic_probe(v, (), ops, cfg, space) is False


def _one_step_applications(chi, cfg, monkeypatch):
    """(v, proved states, labels applied) for each probe of the boson battery.

    Each op is wrapped, and counts the calls its one-step proof makes; the
    calls inside a closure are not counted.
    """
    close, probe = SPAN.closure, SPAN.cyclic_probe
    in_closure = [False]
    probes = []

    def closing(*args):
        in_closure[0] = True
        try:
            return close(*args)
        finally:
            in_closure[0] = False

    def counted(label, op, applied):
        def apply(v):
            if not in_closure[0]:
                applied.append(label)
            return op(v)

        return apply

    def recording(v, cyclic, ops, cfg, space):
        applied = []
        probes.append((v, frozenset(cyclic), applied))
        return probe(v, cyclic, [(label, counted(label, op, applied)) for label, op in ops], cfg, space)

    with monkeypatch.context() as mp:
        mp.setattr(SPAN, "closure", closing)
        mp.setattr(importlib.import_module("wakimoto.weyl"), "cyclic_probe", recording)
        wakimoto_probe(chi, cfg)
    return probes


@pytest.mark.parametrize("case", CASES)
def test_one_step_applies_no_op_past_the_reach(case, monkeypatch):
    """No one-step proof of a seeded battery applies an op whose image must
    be heavier than every proved state, while the window alone lets some
    such creators through."""
    cfg = CROSSCHECK_CFG
    lo, hi = cfg.charge_window
    bound = WEYL_SPACE.int_bound(cfg.bound)
    chi = seeded_twist(case, random.Random(f"reach:{case}"))
    labels = [label for label, _ in wakimoto_ops(chi, cfg, WeylAction(chi))]
    probes = _one_step_applications(chi, cfg, monkeypatch)
    applications = skipped = 0
    for v, cyclic, applied in probes:
        (st,) = v.terms
        top = WEYL_SPACE.int_weight_of(st)
        reach = min(bound, max(map(WEYL_SPACE.int_weight_of, cyclic)))
        for label in applied:
            # the image holds a state of int weight >= top + creates
            assert label.creates <= max(0, reach - top), (chi, str(st), label)
        applications += len(applied)
        # creators that fit the window, passed over before the last op tried
        last = labels.index(applied[-1]) if applied else 0
        skipped += sum(
            label.creates > max(0, reach - top)
            and label.creates <= bound - top
            and lo <= charge(st) + label.charge_shift <= hi
            for label in labels[:last]
        )
    assert len(probes) > 1 and applications and skipped
