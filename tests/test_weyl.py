import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

import wakimoto.weyl as weyl
from oracles import (
    apply_relation_check,
    boson_graded_dims,
    boson_state_word,
    boson_vec_as_dict,
    hull_wakimoto_ops,
    normal_order_boson,
    oracle_f,
    oracle_h,
    ordered_f_core,
    seeded_twist,
    two_generator_annihilators,
    wick_apply,
    wide_probe_annihilators,
)
from wakimoto import (
    DEFAULT_PROBE_CFG,
    VACUUM,
    WEYL_SPACE,
    WEYL_VACUUM,
    ChiSeries,
    ClosureConfig,
    FermionState,
    SpanBasis,
    WeylAction,
    WeylState,
    WeylVec,
    affine_relation_check,
    enumerate_weyl_basis,
    evidence_agrees,
    joint_kernel,
    pole_order,
    wakimoto_ops,
    wakimoto_probe,
    weyl_vacuum_vec,
)

CHI = ChiSeries({1: Fraction(2), 0: Fraction(-3, 2), -2: Fraction(5)})


def _single_mode(core, n, v):
    """One a or a* mode on a vector, through its single-monomial core."""
    acc = {}
    for st, c in v.sorted_items():
        for out, k in core(n, st):
            acc[out] = acc.get(out, 0) + c * k
    return WeylVec(acc)


a_mode = partial(_single_mode, weyl._a_core)
astar_mode = partial(_single_mode, weyl._astar_core)


def test_state_validation_and_str():
    st = WeylState((1, 1, 2), (0, 0, 3))
    assert str(st) == "a(-2) a(-1)^2 a*(-3) a*(0)^2 |0>"
    assert str(WEYL_VACUUM) == "|0>"
    with pytest.raises(ValueError, match=r"^a modes must be positive integers: \(0,\)$"):
        WeylState((0,), ())  # a-mode must be >= 1
    with pytest.raises(ValueError, match=r"^a\* modes must be non-negative integers: \(-1,\)$"):
        WeylState((), (-1,))
    with pytest.raises(ValueError, match=r"^mode multisets must be sorted ascending$"):
        WeylState((2, 1), ())  # must be ascending


def test_states_of_different_spaces_never_collide():
    boson, fermion, bare = WeylState(), FermionState(), ()
    assert boson != fermion and fermion != boson
    assert boson != bare and fermion != bare
    assert WeylState((1,), ()) != ((1,), ())
    table = {WEYL_VACUUM: "boson", VACUUM: "fermion"}
    assert len(table) == 2
    assert table[WeylState()] == "boson" and table[FermionState()] == "fermion"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda st: pickle.loads(pickle.dumps(st))])
def test_state_copies_and_pickles(clone):
    st = WeylState((1, 1, 2), (0, 3))
    got = clone(st)
    assert type(got) is WeylState
    assert got == st and hash(got) == hash(st)
    assert (got.a_modes, got.astar_modes) == ((1, 1, 2), (0, 3))
    assert repr(got) == "WeylState(a_modes=(1, 1, 2), astar_modes=(0, 3))"


def test_annihilators_on_vacuum():
    vac = weyl_vacuum_vec()
    assert a_mode(0, vac).is_zero()
    assert a_mode(3, vac).is_zero()
    assert astar_mode(1, vac).is_zero()
    # a*(0) creates: the zero mode is two-sided
    assert astar_mode(0, vac) == WeylVec.basis(WeylState((), (0,)))


def test_multiplicity_contraction():
    two = WeylVec.basis(WeylState((), (1, 1)))  # a*(-1)^2 |0>
    assert a_mode(1, two) == 2 * WeylVec.basis(WeylState((), (1,)))
    double = WeylVec.basis(WeylState((2, 2), ()))
    assert astar_mode(2, double) == -2 * WeylVec.basis(WeylState((2,), ()))


def test_creation_inserts():
    v = a_mode(-2, a_mode(-1, weyl_vacuum_vec()))
    assert v == WeylVec.basis(WeylState((1, 2), ()))
    v2 = astar_mode(-1, astar_mode(-1, weyl_vacuum_vec()))
    assert v2 == WeylVec.basis(WeylState((), (1, 1)))


def test_random_words_match_rewriting_oracle():
    rng = random.Random(424242)
    kinds = ("a", "a*")
    for _ in range(150):
        word = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(kinds)
            n = rng.randint(-2, 2)
            word.append((kind, n))
        v = weyl_vacuum_vec()
        for kind, n in reversed(word):
            v = a_mode(n, v) if kind == "a" else astar_mode(n, v)
        assert boson_vec_as_dict(v) == normal_order_boson(word), word


def test_astar_modes_commute():
    # the relation check leaves out every a* x a* bracket on this ground
    for st in enumerate_weyl_basis(3, (-3, 3)):
        v = WeylVec.basis(st)
        for p in range(-4, 5):
            for q in range(p + 1, 5):
                assert astar_mode(p, astar_mode(q, v)) == astar_mode(q, astar_mode(p, v)), (p, q)


def test_state_word_round_trip():
    st = WeylState((1, 2), (0, 3))
    got = normal_order_boson(boson_state_word(st))
    assert got == {(st.a_modes, st.astar_modes): Fraction(1)}


def test_h_on_vacuum_is_minus_chi0():
    assert WeylAction(CHI).apply("h", 0, weyl_vacuum_vec()) == Fraction(3, 2) * weyl_vacuum_vec()
    chi2 = ChiSeries({0: 2})
    assert WeylAction(chi2).apply("h", 0, weyl_vacuum_vec()) == -2 * weyl_vacuum_vec()


def test_e_is_current_a():
    v = WeylVec.basis(WeylState((1,), (0,)))
    assert WeylAction(CHI).apply("e", 2, v) == a_mode(2, v)
    assert WeylAction(ChiSeries()).apply("e", -1, v) == a_mode(-1, v)


@pytest.mark.parametrize("c", [Fraction(-1), Fraction(0), Fraction(1, 2)])
def test_f_zero_mode_reads_the_tail(c):
    # chi = 2/z + c: f(0) a(-1)|0> = c |0>
    chi = ChiSeries({0: 2, -1: c})
    v = WeylVec.basis(WeylState((1,), ()))
    assert WeylAction(chi).apply("f", 0, v) == c * weyl_vacuum_vec()


def test_ef_bracket_on_vacuum():
    ap = WeylAction(ChiSeries({0: 2})).apply
    vac = weyl_vacuum_vec()
    lhs = ap("e", 1, ap("f", -1, vac)) - ap("f", -1, ap("e", 1, vac))
    assert lhs == -4 * vac  # h(0) - 2*1*delta = -2 - 2
    hh = ap("h", 1, ap("h", -1, vac)) - ap("h", -1, ap("h", 1, vac))
    assert hh == -4 * vac


def test_h_f_match_brute_force_oracle():
    states = [
        WEYL_VACUUM,
        WeylState((1,), ()),
        WeylState((), (0, 2)),
        WeylState((1, 3), (0,)),
    ]
    action = WeylAction(CHI)
    for st in states:
        v = WeylVec.basis(st)
        for n in range(-2, 3):
            assert boson_vec_as_dict(action.apply("h", n, v)) == oracle_h(n, st, CHI), ("h", n, st)
            assert boson_vec_as_dict(action.apply("f", n, v)) == oracle_f(n, st, CHI), ("f", n, st)


F_CORE_STATES = enumerate_weyl_basis(4, (-3, 3))


def test_f_core_matches_ordered_triples():
    assert len(F_CORE_STATES) == 151
    # repeated a modes give the c(c - 1) contractions, repeated a* modes
    # the counts of a(k); both sides of the pair also create equal modes
    assert WeylState((1, 1, 1), ()) in F_CORE_STATES
    assert WeylState((), (0, 1, 1)) in F_CORE_STATES
    assert WeylState((1, 1), (0, 0)) in F_CORE_STATES
    for st in F_CORE_STATES:
        # every m + n that criterion 10 and the relations benchmark reach
        for n in range(-6, 7):
            got = weyl._f_core(n, st)
            assert len(dict(got)) == len(got) and all(k for _, k in got), (n, str(st))
            assert dict(got) == dict(ordered_f_core(n, st)), (n, str(st))


@pytest.fixture
def empty_cores(monkeypatch):
    """Fresh, empty process-wide core and bracket tables for one test."""
    monkeypatch.setattr(weyl, "_CORES", {})
    monkeypatch.setattr(weyl, "_BRACKETS", {})
    monkeypatch.setattr(weyl, "_STATES", {})
    monkeypatch.setattr(weyl, "_core_entries", 0)


def _table_size():
    return sum(len(table) for table in weyl._CORES.values())


def _bracket_size():
    return sum(len(table) for table in weyl._BRACKETS.values())


def _stored_entries():
    """What the bound counts: each monomial of both tables and each stored pair."""
    cores = sum(1 + len(items) for table in weyl._CORES.values() for items in table.values())
    return cores + sum(
        1 + len(flat) // 2 for table in weyl._BRACKETS.values() for flat in table.values()
    )


def _recording(monkeypatch, name, calls):
    """Record the arguments of each call of ``weyl.<name>`` but the table."""
    fn = getattr(weyl, name)

    def record(table, *args):
        calls.append(args)
        return fn(table, *args)

    monkeypatch.setattr(weyl, name, record)


def test_each_core_is_computed_once_per_process(empty_cores, monkeypatch):
    raw_calls, stored, brackets = [], [], []

    def counting(raw):
        def core(n, st):
            raw_calls.append((core, n, st))
            return raw(n, st)
        return core

    counted = {kind: counting(raw) for kind, raw in WeylAction._RAW.items()}
    monkeypatch.setattr(WeylAction, "_RAW", counted)
    _recording(monkeypatch, "_store", stored)
    _recording(monkeypatch, "_store_bracket", brackets)
    requested = set()
    core = WeylAction._core

    def requesting(self, kind, n, pairs, acc, c=1):
        scale = core(self, kind, n, pairs, acc, c)
        for name, mode, _ in self._plans[kind, n][1]:
            requested.update((self._RAW[name], mode, st) for st, _ in pairs)
        return scale

    monkeypatch.setattr(WeylAction, "_core", requesting)
    v = WeylVec({WeylState((1, 1), (0,)): Fraction(1, 2), WeylState((), (0, 0, 2)): -3})

    def one_pass(chi):
        action = WeylAction(chi)
        for m in range(-2, 3):
            for n in range(-2, 3):
                assert all(ok for _, ok in affine_relation_check(m, n, v, chi, action))

    one_pass(CHI)
    # no (core pair, modes, monomial) bracket and no stored core twice
    assert len(set(brackets)) == len(brackets) == _bracket_size() > 0
    assert len(set(stored)) == len(stored) == _table_size() > 0
    # the cores stored are exactly those requested: by ``_core`` for the
    # right-hand sides, and as the first factors of the brackets computed
    first = {(fn, mode, st) for (fx, p, fy, q), st in brackets for fn, mode in ((fx, p), (fy, q))}
    assert set(stored) == requested | first
    # every core on a monomial of v is computed once, and stored; only a
    # bracket's second factor, on the terms of a first, is left unstored
    on_v = [call for call in raw_calls if call[2] in v.terms]
    assert len(set(on_v)) == len(on_v) and set(on_v) == set(stored)
    # the twist's a* terms are bracketed against the chi-free cores, and
    # no a* x a* pair is, since a* modes commute
    a_star = counted["a*"]
    assert any(a_star in key for key, _ in brackets)
    assert not any(key[0] is a_star and key[2] is a_star for key, _ in brackets)
    # a second pass, another twist on the same support (other values and
    # denominator) and the twist 0 compute nothing at all
    computed = len(raw_calls), len(stored), len(brackets)
    for chi in (CHI, ChiSeries({1: Fraction(-7, 3), 0: 4, -2: Fraction(1, 5)}), ChiSeries()):
        one_pass(chi)
        assert (len(raw_calls), len(stored), len(brackets)) == computed


def test_core_table_stays_within_its_bound(empty_cores, monkeypatch):
    monkeypatch.setattr(weyl, "MAX_CORE_ENTRIES", 50)
    chi = ChiSeries({1: Fraction(1, 3), 0: 3, -2: -5})
    action = WeylAction(chi)
    states = enumerate_weyl_basis(2, (-2, 2))
    cleared = False
    for kind in ("e", "h", "f"):
        for n in range(-3, 4):
            for st in states:
                v = WeylVec.basis(st)
                before = _table_size()
                assert action.apply(kind, n, v) == wick_apply(kind, n, v, chi), (kind, n, str(st))
                assert _stored_entries() == weyl._core_entries <= 50
                cleared |= _table_size() < before
    assert cleared


def test_swapped_core_reads_no_other_core_rows():
    v = WeylVec({WeylState((1, 2), (0,)): 1, WeylState((), (1,)): Fraction(-2, 3)})
    want = wick_apply("f", 1, v, CHI)
    assert WeylAction(CHI).apply("f", 1, v) == want
    raw = WeylAction._RAW["f"]

    def perturbed(n, st):
        return raw(n, st) + ((st, 1),)

    WeylAction._RAW["f"] = perturbed
    try:
        # chi's denominator is 2, so f's core enters with scale 2
        assert WeylAction(CHI).apply("f", 1, v) == want + v
    finally:
        WeylAction._RAW["f"] = raw
    assert WeylAction(CHI).apply("f", 1, v) == want


def test_affine_relations_on_mixed_vector():
    v = WeylVec.basis(WeylState((1,), (0,))) - 2 * WeylVec.basis(WeylState((), (2,)))
    action = WeylAction(CHI)
    for m in range(-2, 3):
        for n in range(-2, 3):
            for name, okay in affine_relation_check(m, n, v, CHI, action):
                assert okay, (name, m, n)


RELATION_CASES = ["i", "ii", "iii", "schur_zero", "neg_ell"]
RELATION_STATES = enumerate_weyl_basis(3, (-2, 2))


def _mixed_vectors(rng, count):
    """Seeded vectors of one to four window monomials with mixed denominators."""
    return [
        WeylVec({
            st: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))
            for st in rng.sample(RELATION_STATES, rng.randint(1, 4))
        })
        for _ in range(count)
    ]


def _both_relation_checks(chi, vectors):
    """The integer check and the rational oracle at every |m|, |n| <= 2."""
    ours, oracle = WeylAction(chi), WeylAction(chi)
    for v in vectors:
        for m in range(-2, 3):
            for n in range(-2, 3):
                yield (
                    affine_relation_check(m, n, v, chi, ours),
                    apply_relation_check(m, n, v, oracle),
                )


@pytest.mark.parametrize("case", RELATION_CASES)
def test_relation_check_matches_rational_oracle(case):
    rng = random.Random(f"relations:{case}")
    for _ in range(2):
        chi = seeded_twist(case, rng)
        for got, want in _both_relation_checks(chi, [WeylVec(), *_mixed_vectors(rng, 2)]):
            assert got == want
            assert all(ok for _, ok in got)


# an extra identity term in h(1) or f(1) breaks exactly one relation: the one
# whose right-hand side holds that mode at m + n = 1
@pytest.mark.parametrize("kind, broken", [("f", "[h,f]=-2f"), ("h", "[e,f]=h-2m*delta")])
def test_perturbed_core_fails_the_same_relations(kind, broken, monkeypatch):
    raw = WeylAction._RAW[kind]

    def perturbed(n, st):
        return raw(n, st) + (((st, 1),) if n == 1 else ())

    monkeypatch.setitem(WeylAction._RAW, kind, perturbed)
    rng = random.Random(f"perturbed:{kind}")
    failed = set()
    for case in RELATION_CASES:
        chi = seeded_twist(case, rng)
        for got, want in _both_relation_checks(chi, _mixed_vectors(rng, 1)):
            assert got == want
            failed.update(name for name, ok in got if not ok)
    assert failed == {broken}


def _held_states():
    """Every state the two tables hold, as a key or in a stored image."""
    held = set()
    for table in weyl._CORES.values():
        for st, items in table.items():
            held.add(st)
            held.update(out for out, _ in items)
    for table in weyl._BRACKETS.values():
        for st, flat in table.items():
            held.add(st)
            held.update(flat[::2])
    return held


def test_both_tables_stay_within_one_bound(empty_cores, monkeypatch):
    monkeypatch.setattr(weyl, "MAX_CORE_ENTRIES", 200)
    rng = random.Random("one bound")
    entries, cleared = 0, False
    for case in RELATION_CASES:
        chi = seeded_twist(case, rng)
        for got, want in _both_relation_checks(chi, _mixed_vectors(rng, 1)):
            assert got == want
            before, entries = entries, _stored_entries()
            # the count covers both tables, and a clear empties both and the
            # intern dict: nothing survives it uncounted
            assert entries == weyl._core_entries <= 200
            assert set(weyl._STATES) <= _held_states()
            cleared |= entries < before
    assert cleared and weyl._BRACKETS


def test_bound_counts_stored_terms(empty_cores, monkeypatch):
    """The bound counts every stored (state, int) pair, not only the
    monomials: on weight-6 monomials an image holds up to about 20 terms.
    Under a tiny bound the tables clear, never hold more than it, and give
    the images and verdicts that tables that never clear give."""
    chi = ChiSeries({0: 2, **{-j: Fraction(1, j) for j in range(1, 7)}})
    vectors = [WeylVec.basis(st) for st in enumerate_weyl_basis(6, (-1, 1))[-10:]]

    def results(after_each):
        action = WeylAction(chi)
        out = []
        for v in vectors:
            for kind in "ehf":
                for n in range(-3, 4):
                    out.append(action.apply(kind, n, v))
                    after_each()
            out.append(affine_relation_check(1, -2, v, chi, action))
            after_each()
        return out

    want = results(lambda: None)
    held = _stored_entries()
    assert held == weyl._core_entries and held > 1.5 * (_table_size() + _bracket_size())
    for table in (weyl._CORES, weyl._BRACKETS, weyl._STATES):
        table.clear()
    monkeypatch.setattr(weyl, "_core_entries", 0)
    monkeypatch.setattr(weyl, "MAX_CORE_ENTRIES", 100)
    counts = []

    def within_bound():
        counts.append(_stored_entries())
        assert counts[-1] == weyl._core_entries <= 100
        assert set(weyl._STATES) <= _held_states()

    assert results(within_bound) == want
    assert any(b < a for a, b in zip(counts, counts[1:]))


def test_perturbed_core_fails_after_warm_brackets():
    chi = ChiSeries({1: Fraction(1, 3), 0: 3, -2: -5})
    vectors = _mixed_vectors(random.Random("warm brackets"), 2)

    def verdicts():
        failed = set()
        for got, want in _both_relation_checks(chi, vectors):
            assert got == want
            failed.update(name for name, ok in got if not ok)
        return failed

    assert verdicts() == set()
    raw = WeylAction._RAW["f"]

    def perturbed(n, st):
        # f(n) gains a*(0), which commutes with no h or f mode
        _, a, s = st
        return raw(n, st) + ((WeylState(a, tuple(sorted((0, *s)))), 1),)

    WeylAction._RAW["f"] = perturbed
    try:
        assert {"[h,f]=-2f", "[f,f]=0"} <= verdicts()
    finally:
        WeylAction._RAW["f"] = raw
    assert verdicts() == set()


def test_warm_brackets_serve_a_twist_of_another_support(empty_cores):
    vectors = _mixed_vectors(random.Random("another support"), 2)
    warm = ChiSeries({1: Fraction(1, 3), 0: 3, -2: -5})
    other = ChiSeries({2: Fraction(-7, 4), 0: 2, -1: Fraction(5, 6)})
    assert other.support != warm.support and other.denominator != warm.denominator
    for chi in (warm, other):
        keys = set(weyl._BRACKETS)
        for got, want in _both_relation_checks(chi, vectors):
            assert got == want
            assert all(ok for _, ok in got)
    # the second twist added only brackets against its own a* terms
    a_star = WeylAction._RAW["a*"]
    assert all(a_star in key for key in set(weyl._BRACKETS) - keys)


def test_bracket_table_is_linear_in_the_support(empty_cores):
    v = WeylVec({WeylState((1,), (0, 2)): 1, WeylState((1, 1), ()): Fraction(-1, 2)})
    a_star = WeylAction._RAW["a*"]
    sizes = []
    for width in (8, 16, 32, 64):
        for table in (weyl._CORES, weyl._BRACKETS, weyl._STATES):
            table.clear()
        weyl._core_entries = 0
        # a pole, chi_0 and a tail: f(n) carries width + 2 twist terms
        chi = ChiSeries({2: 1, **{-j: Fraction(1, j + 1) for j in range(width + 1)}})
        assert all(ok for _, ok in affine_relation_check(2, -1, v, chi, WeylAction(chi)))
        assert not any(key[0] is a_star and key[2] is a_star for key in weyl._BRACKETS)
        sizes.append(_bracket_size())
    steps = [b - a for a, b in zip(sizes, sizes[1:])]
    # each added index adds the same entries: four brackets on each monomial
    # ([h0, a*], [a, a*] and both orders of [f0, a*] in [f, f])
    assert steps == [8 * 4 * 2, 16 * 4 * 2, 32 * 4 * 2]


def test_relation_check_leaves_no_reference_cycle():
    # the action holds no cache, only chi and its per-mode plans; it must go
    # with the last reference to it, without waiting for the cyclic garbage
    # collector
    v = WeylVec.basis(WeylState((1,), (0,))) - 2 * WeylVec.basis(WeylState((), (2,)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        action = WeylAction(CHI)
        alive = weakref.ref(action)
        affine_relation_check(1, -1, v, CHI, action)
        del action
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_action_memoization_is_transparent():
    action = WeylAction(CHI)
    v = WeylVec.basis(WeylState((1, 2), (0,)))
    first = action.apply("f", 1, v)
    assert first == WeylAction(CHI).apply("f", 1, v)
    assert action.apply("f", 1, v) == first  # cached second call
    assert action.apply("h", -1, v) == WeylAction(CHI).apply("h", -1, v)
    assert action.apply("e", 2, v) == a_mode(2, v)


WICK_TWISTS = (
    {},
    {0: 2, -1: Fraction(3, 2)},
    {1: Fraction(1, 3), 0: 3, -2: -5},
)


@pytest.mark.parametrize("coeffs", WICK_TWISTS)
def test_action_matches_wick_enumerator(coeffs):
    chi = ChiSeries(coeffs)
    states = enumerate_weyl_basis(3, (-3, 3))
    assert len(states) == 72
    action = WeylAction(chi)
    for kind in ("e", "h", "f"):
        for n in range(-4, 5):
            for st in states:
                v = WeylVec.basis(st)
                assert action.apply(kind, n, v) == wick_apply(kind, n, v, chi), (kind, n, str(st))


@pytest.mark.parametrize("coeffs", WICK_TWISTS)
def test_cached_application_matches_fresh_action(coeffs):
    chi = ChiSeries(coeffs)
    states = enumerate_weyl_basis(2, (-2, 2))
    # mixed denominators exercise the common-denominator accumulation
    v = WeylVec({st: Fraction((-1) ** i * (i + 1), i % 4 + 1) for i, st in enumerate(states)})
    action = WeylAction(chi)
    for kind in ("e", "h", "f"):
        for n in range(-3, 4):
            first = action.apply(kind, n, v)
            assert action.apply(kind, n, v) == first, (kind, n)
            assert WeylAction(chi).apply(kind, n, v) == first, (kind, n)
            assert first == wick_apply(kind, n, v, chi), (kind, n)


def _seeded_coeffs(rng):
    """Two to four coefficients on [-3, 3], over denominators 1 to 6."""
    return {
        m: Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4]), rng.choice([1, 2, 3, 4, 6]))
        for m in rng.sample(range(-3, 4), rng.randint(2, 4))
    }


def test_action_is_affine_in_chi():
    # A_{chi + chi'} - A_chi - A_chi' + A_0 = 0: the twist enters h and f
    # only through int coefficients on chi-free cores
    rng = random.Random("affine-in-chi")
    states = enumerate_weyl_basis(3, (-3, 3))
    assert len(states) == 72
    for _ in range(2):
        a, b = _seeded_coeffs(rng), _seeded_coeffs(rng)
        both = {m: a.get(m, 0) + b.get(m, 0) for m in {*a, *b}}
        chis = [ChiSeries(c) for c in (both, a, b)]
        assert len({chi.denominator for chi in chis}) > 1
        ap_sum, ap_a, ap_b = (WeylAction(chi).apply for chi in chis)
        ap_0 = WeylAction(ChiSeries()).apply
        for kind in ("h", "f"):
            for n in range(-4, 5):
                for st in states:
                    v = WeylVec.basis(st)
                    defect = ap_sum(kind, n, v) - ap_a(kind, n, v) - ap_b(kind, n, v) + ap_0(kind, n, v)
                    assert defect.is_zero(), (a, b, kind, n, str(st))


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_weyl_basis(Fraction(3), (-2, 2))) == 53
        assert len(enumerate_weyl_basis(Fraction(4), (-3, 3))) == 151

    def test_matches_generating_function(self):
        got = {}
        for st in enumerate_weyl_basis(Fraction(3), (-2, 2)):
            key = (int(WEYL_SPACE.weight_of(st)), WEYL_SPACE.charge_of(st))
            got[key] = got.get(key, 0) + 1
        assert got == boson_graded_dims(3, (-2, 2))

    def test_sorted_and_in_window(self):
        states = enumerate_weyl_basis(Fraction(2), (-1, 3))
        keys = [s.sort_key() for s in states]
        assert keys == sorted(keys)
        assert all(WEYL_SPACE.weight_of(s) <= 2 for s in states)
        assert all(-1 <= WEYL_SPACE.charge_of(s) <= 3 for s in states)


def test_wakimoto_ops_labels():
    cfg = ClosureConfig(weight_cutoff=Fraction(1), charge_window=(-1, 1), excursion=Fraction(0))
    inside = [f"{k}({n})" for n in range(-1, 2) for k in ("e", "h", "f")]
    # a tail index adds no mode; a pole index j adds f(n) for |n - j| <= 1
    chi = ChiSeries({0: 2, -1: 1})
    labels = [lbl for lbl, _ in wakimoto_ops(chi, cfg, WeylAction(chi))]
    assert labels == inside
    chi = ChiSeries({3: 1, -5: 2})
    labels = [lbl for lbl, _ in wakimoto_ops(chi, cfg, WeylAction(chi))]
    assert labels == inside + ["f(2)", "f(3)", "f(4)"]


# pole and tail twists, with a gap between f's pole interval and |n| <= B
HULL_TWISTS = [
    {1: 1},
    {7: 1},
    {1: 1, 6: 2, -3: 1},
    {2: Fraction(1, 2), -4: 1},
    {0: 2, -5: 1},
    {0: -3, -4: 2},
]


@pytest.mark.parametrize("coeffs", HULL_TWISTS)
def test_family_matches_hull_family(coeffs, monkeypatch):
    chi = ChiSeries(coeffs)
    cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-1, 1), excursion=Fraction(1))
    action = WeylAction(chi)
    family = {lbl for lbl, _ in wakimoto_ops(chi, cfg, action)}
    assert family < {lbl for lbl, _ in hull_wakimoto_ops(chi, cfg, action)}
    expected = wakimoto_probe(chi, cfg)
    monkeypatch.setattr(weyl, "wakimoto_ops", hull_wakimoto_ops)
    assert wakimoto_probe(chi, cfg) == expected


# pole-free twists with singular candidates, far tails, and poles on either
# side of the cutoff
PROBE_TWISTS = [
    {0: 2},
    {0: 2, -1: Fraction(1, 2)},
    {0: 3, -1: 1, -2: 1},
    {0: -3, -4: 2},
    {0: 2, -40: 1},
    {1: 1},
    {2: Fraction(1, 2), -4: 1},
    {5: 1, 0: 2},
    {40: 1},
]


PROBE_CFG = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(1))


def _pieces(cfg, vacuum=False):
    """(weight, charge, states) of every graded piece of the window, the
    vacuum line only when ``vacuum``."""
    pieces = {}
    for st in enumerate_weyl_basis(cfg.weight_cutoff, cfg.charge_window):
        pieces.setdefault((WEYL_SPACE.int_weight_of(st), WEYL_SPACE.charge_of(st)), []).append(st)
    return [(w, c, piece) for (w, c), piece in sorted(pieces.items()) if vacuum or (w, c) != (0, 0)]


def _wide_kernels(chi, cfg, family=wide_probe_annihilators):
    """(weight, charge, kernel) of every whole piece but the vacuum line,
    under the wide family or another oracle ``family``."""
    ann = family(chi, cfg, WeylAction(chi))
    return [(w, c, joint_kernel(ann, piece, WEYL_SPACE)) for w, c, piece in _pieces(cfg)]


def _wide_candidates(chi, cfg, family=wide_probe_annihilators):
    """The probe's candidates, as the wide family's kernels, or those of
    ``family``, give them."""
    return [{"weight": w, "charge": c, "dimension": k.dimension(),
             "vectors": [row.to_json_obj() for row in k.rows()]}
            for w, c, k in _wide_kernels(chi, cfg, family) if k.dimension()]


# at cutoff 1, f(1) alone keeps a(-1)|0> out of the kernels unless chi_0 = 2
@pytest.mark.parametrize("cfg", [PROBE_CFG, PROBE_CFG._replace(weight_cutoff=Fraction(1))],
                         ids=["cutoff2", "cutoff1"])
@pytest.mark.parametrize("coeffs", [c for c in PROBE_TWISTS if not pole_order(ChiSeries(c))])
def test_probe_kernels_match_wide_family(coeffs, cfg):
    # e(0) and f(1) give the wide family's kernels
    chi = ChiSeries(coeffs)
    assert list(wakimoto_probe(chi, cfg).candidates) == _wide_candidates(chi, cfg)


# two seeded twists of each pole-free case
KERNEL_TWISTS = [
    seeded_twist(case, random.Random(f"kernel:{case}:{k}"))
    for case in ("ii", "iii", "schur_zero", "neg_ell")
    for k in range(2)
]
KERNEL_CFGS = {
    "cutoff1": DEFAULT_PROBE_CFG._replace(weight_cutoff=Fraction(1)),
    "cutoff2": DEFAULT_PROBE_CFG._replace(weight_cutoff=Fraction(2)),
    "probe_default": DEFAULT_PROBE_CFG,
}


@pytest.mark.parametrize("window", list(KERNEL_CFGS))
def test_two_generator_kernels_match_wide_family(window, monkeypatch):
    """The kernels of e(0) and f(1) are those of e(0) and e/h/f(n) for
    n = 1..2 floor(cutoff) + 1, on seeded twists of every pole-free case."""
    cfg = KERNEL_CFGS[window]
    # the kernels alone: every probed state answers cyclic at once
    monkeypatch.setattr(weyl, "cyclic_probe", lambda *args, **kw: True)
    found = 0
    for chi in KERNEL_TWISTS:
        candidates = list(wakimoto_probe(chi, cfg).candidates)
        assert candidates == _wide_candidates(chi, cfg), chi
        found += bool(candidates)
    # at cutoff 1 only chi_0 = 2 leaves a candidate, a(-1)|0>, and none of
    # these twists has chi_0 = 2
    assert found or window == "cutoff1"


def test_each_generator_alone_has_a_larger_kernel():
    """Neither e(0) nor f(1) alone gives the kernels: on some piece of some
    twist each one kills more than the two together."""
    cfg = DEFAULT_PROBE_CFG
    larger = set()
    for chi in KERNEL_TWISTS:
        ops = dict(wakimoto_ops(chi, cfg, WeylAction(chi)))
        pair = [(label, ops[label]) for label in ("e(0)", "f(1)")]
        for _, _, piece in _pieces(cfg):
            both = joint_kernel(pair, piece, WEYL_SPACE).dimension()
            larger.update(
                label for label, op in pair
                if joint_kernel([(label, op)], piece, WEYL_SPACE).dimension() > both
            )
    assert larger == {"e(0)", "f(1)"}


def test_raising_e_kills_exactly_the_monomials_without_its_astar():
    """For n = 0..B, ker e(n) on every piece that the default window
    reaches is the span of the piece's monomials that hold no a*(-n):
    e(n) = a(n) takes one factor a*(-n) away, times its multiplicity."""
    cfg = DEFAULT_PROBE_CFG
    bound = WEYL_SPACE.int_bound(cfg.bound)
    apply = WeylAction(ChiSeries()).apply
    smaller = 0
    for n in range(bound + 1):
        e_n = [(f"e({n})", partial(apply, "e", n))]
        for _, _, piece in _pieces(cfg._replace(weight_cutoff=cfg.bound), vacuum=True):
            free = SpanBasis(WEYL_SPACE)
            for st in piece:
                if n not in st.astar_modes:
                    free.insert(WeylVec.basis(st))
            assert joint_kernel(e_n, piece, WEYL_SPACE).rows() == free.rows(), (n, piece)
            smaller += free.dimension() < len(piece)
    assert smaller


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_probe_kernels_are_two_generator_kernels_of_whole_pieces(cutoff, monkeypatch):
    """f(1) on the a*-free monomials gives the kernels of e(0) and f(1) on
    every monomial of each piece, on seeded twists of every pole-free case,
    and at cutoff 1 on chi_0 = 2, whose a(-1)|0> is a candidate there."""
    cfg = DEFAULT_PROBE_CFG._replace(weight_cutoff=Fraction(cutoff))
    # the kernels alone: every probed state answers cyclic at once
    monkeypatch.setattr(weyl, "cyclic_probe", lambda *args, **kw: True)
    twists = KERNEL_TWISTS + ([ChiSeries({0: 2})] if cutoff == 1 else [])
    found = 0
    for chi in twists:
        candidates = list(wakimoto_probe(chi, cfg).candidates)
        assert candidates == _wide_candidates(chi, cfg, two_generator_annihilators), chi
        found += bool(candidates)
    assert found


def test_some_pole_free_probe_twist_has_candidates():
    pole_free = [c for c in PROBE_TWISTS if not pole_order(ChiSeries(c))]
    assert sum(bool(wakimoto_probe(ChiSeries(c), PROBE_CFG).candidates) for c in pole_free) >= 3


# poles below, at and above floor(cutoff) = 2
@pytest.mark.parametrize("coeffs", [{1: 1}, {2: Fraction(1, 2), -4: 1}, {5: 1, 0: 2}, {40: 1}])
def test_pole_twists_have_zero_kernels(coeffs):
    # the probe takes no kernel on a twist with a pole: the wide family's
    # are all zero, so skipping them drops no candidate
    chi = ChiSeries(coeffs)
    assert all(k.dimension() == 0 for _, _, k in _wide_kernels(chi, PROBE_CFG))
    assert wakimoto_probe(chi, PROBE_CFG).candidates == ()


class TestProbe:
    def test_irreducible_side(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-1, 1), excursion=Fraction(2))
        ev = wakimoto_probe(ChiSeries({1: 1}), cfg)
        assert ev.all_cyclic
        assert ev.non_cyclic == ()
        assert ev.probed == 15
        assert ev.candidates == ()
        assert evidence_agrees("irreducible", ev)
        assert not evidence_agrees("reducible", ev)

    def test_reducible_side(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(2), charge_window=(-2, 2), excursion=Fraction(2))
        ev = wakimoto_probe(ChiSeries({0: 2}), cfg)
        assert not ev.all_cyclic
        assert ev.non_cyclic == ("a(-1) |0>", "a(-1)^2 |0>")
        assert ev.probed == 24
        assert [(d["weight"], d["charge"], d["dimension"]) for d in ev.candidates] == [(1, -1, 1)]
        assert ev.candidates[0]["vectors"] == [[{"state": "a(-1) |0>", "value": "1"}]]
        assert evidence_agrees("reducible", ev)
        assert not evidence_agrees("irreducible", ev)

    def test_evidence_json_shape(self):
        cfg = ClosureConfig(weight_cutoff=Fraction(1), charge_window=(-1, 1), excursion=Fraction(1))
        ev = wakimoto_probe(ChiSeries({1: 1}), cfg)
        obj = ev.to_json_obj()
        assert set(obj) == {"all_cyclic", "non_cyclic", "candidates", "probed", "cfg"}
        assert obj["cfg"] == cfg.to_json_obj()
