"""Free-boson (Weyl) realization of the twisted sl2 current action.

A Weyl pair a(n), a*(n) with [a(n), a*(m)] = delta_{n+m,0} acts on the Fock
space generated from |0> with a(n)|0> = 0 for n >= 0 and a*(n)|0> = 0 for
n >= 1 (so a*(0) creates).  A basis monomial is

    a(-n_1) ... a(-n_r) a*(-k_1) ... a*(-k_s) |0>,

with n_i >= 1 and k_j >= 0, each side a multiset.  Weight of a(-n) and
a*(-n) is n; charge of a* is +1 and of a is -1.

The current modes twisted by a series chi act through

    e(n) = a(n),
    h(n) = -2 sum_{m+k=n} :a*(m) a(k): - chi_n,
    f(n) = -sum_{m1+m2+k=n} :a*(m1) a*(m2) a(k): + 2n a*(n)
           - sum_j chi_j a*(n-j),

with normal ordering putting annihilators on the right.  On any fixed
monomial only finitely many summands act nonzero.  The chi-free part of each
mode (a(n), the quadratic of h, the cubic of f plus 2n a*(n)) is a *core*:
a closed-form enumeration of exactly those summands on one monomial, split
by which factors annihilate, with plain int coefficients; f's symmetric a*
pair runs over unordered pairs.  chi enters only linearly, so with d chi's
common denominator, d h(n) and d f(n) are int combinations of the cores h0,
f0 and a*, and of the identity (``WeylAction``).  Every core's image on a
monomial lives in one process-wide table, shared by every action and every
twist.

``affine_relation_check`` evaluates each bracket by bilinearity: with
s_x x = sum_i a_i X_i + alpha id over the cores X_i, and s_y y likewise,
s_x s_y [x, y] = sum_ij a_i b_j [X_i, Y_j], since the identity terms cancel
exactly and [a*(p), a*(q)] = 0.  A second process-wide table holds [X, Y]
on one monomial for every other pair, each with a chi-free core (h0, f0 or
a) in it, so a fresh twist on a known support reads its brackets instead of
composing x and y both ways, and that table grows linearly in the size of
chi's support.  Both tables intern their output states and are cleared
whole, together, once their monomials and stored terms would number more
than ``MAX_CORE_ENTRIES``.  An image grows with the weight of its
monomial: a pole j puts a*(j - n) into f(n), and f0's bracket against it
has about j/2 terms, so the relation suite bounds the sum of a twist's
poles (``scalars.MAX_RELATION_POLE_WEIGHT``).
Each bracket and its right-hand side sum to one integer vector that must
vanish.  The relations hold with central scalar -2:

    [h(m), e(n)] = 2 e(m+n),         [h(m), f(n)] = -2 f(m+n),
    [e(m), f(n)] = h(m+n) - 2m delta_{m+n,0},
    [h(m), h(n)] = -4m delta_{m+n,0},   [e,e] = [f,f] = 0.

``wakimoto_probe`` gathers reducibility evidence on this side: cyclicity of
every small basis vector, and joint kernels in each graded piece of the
raising modes.  e(0) and f(1) generate them all, so the kernels take those
two, picked by label from the closure family.  On a twist with a pole every
such kernel is 0, since f(p) acts injectively there, so none is taken.
``evidence_agrees`` compares it with the classifier verdict.
The cyclicity battery probes the monomials lighter first, and each probe
stops at the first monomial already proved cyclic (``span.cyclic_probe``).
Most probes need no closure: one mode maps the monomial onto a multiple of
a lighter one already proved cyclic, as e(n) = a(n) does when it removes a
factor a*(-n) from a product of a* alone, and that one step is the proof.
On a reducible twist a monomial that is not cyclic reaches no stop state,
so its closure runs to the end.  Each op of the family declares its charge
shift and the weight it creates (``wakimoto_ops``), so those closures skip
every op image that must leave the window, and the one step skips every op
image that must be heavier than every monomial proved so far.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import itemgetter

from .scalars import ChiSeries, pole_order
from .span import (
    ClosureConfig,
    GradedLabel,
    Monomial,
    Space,
    SparseVec,
    cyclic_probe,
    joint_kernel,
)

__all__ = [
    "WeylState",
    "WeylVec",
    "WEYL_VACUUM",
    "WEYL_SPACE",
    "weyl_vacuum_vec",
    "WeylAction",
    "enumerate_weyl_basis",
    "affine_relation_check",
    "wakimoto_ops",
    "DEFAULT_PROBE_CFG",
    "wakimoto_probe",
    "Evidence",
    "evidence_agrees",
]


_WEYL_TAG = 0


class WeylState(Monomial):
    """Canonical boson monomial; both mode multisets stored ascending.

    The :class:`~wakimoto.span.Monomial` ``(0, a_modes, astar_modes)``; a
    has charge -1 and a* charge +1.
    """

    __slots__ = ()

    def __new__(cls, a_modes: tuple[int, ...] = (), astar_modes: tuple[int, ...] = ()):
        if any(not isinstance(n, int) or n < 1 for n in a_modes):
            raise ValueError(f"a modes must be positive integers: {a_modes!r}")
        if any(not isinstance(n, int) or n < 0 for n in astar_modes):
            raise ValueError(f"a* modes must be non-negative integers: {astar_modes!r}")
        if tuple(sorted(a_modes)) != a_modes or tuple(sorted(astar_modes)) != astar_modes:
            raise ValueError("mode multisets must be sorted ascending")
        return tuple.__new__(cls, (_WEYL_TAG, a_modes, astar_modes))

    a_modes = property(itemgetter(1))
    astar_modes = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"WeylState(a_modes={self[1]!r}, astar_modes={self[2]!r})"

    def __str__(self) -> str:
        parts = []
        for prefix, modes in (("a", self[1]), ("a*", self[2])):
            for d in sorted(set(modes), reverse=True):
                cnt = modes.count(d)
                tok = f"{prefix}({-d})"
                parts.append(tok if cnt == 1 else f"{tok}^{cnt}")
        parts.append("|0>")
        return " ".join(parts)


WEYL_VACUUM = WeylState((), ())

# the benchmark workloads build boson vectors through ``weyl.WeylVec``
WeylVec = SparseVec

WEYL_SPACE = Space(1)


def weyl_vacuum_vec() -> WeylVec:
    return WeylVec.basis(WEYL_VACUUM)


# ---------------------------------------------------------------------------
# chi-free cores on one monomial
#
# A core maps one monomial to a tuple of (WeylState, int) pairs.  It works on
# the sorted mode tuples directly; every term of a normal-ordered product is
# applied to one (a_modes, astar_modes, coefficient) triple, annihilators
# first, so no intermediate vector is built and every coefficient stays an
# int.
# ---------------------------------------------------------------------------

_tuple_new = tuple.__new__


def _state(a_modes: tuple[int, ...], astar_modes: tuple[int, ...]) -> WeylState:
    """A WeylState from mode tuples that are canonical by construction."""
    return _tuple_new(WeylState, (_WEYL_TAG, a_modes, astar_modes))


def _without(modes: tuple[int, ...], value: int) -> tuple[int, ...]:
    i = modes.index(value)
    return modes[:i] + modes[i + 1 :]


def _with(modes: tuple[int, ...], value: int) -> tuple[int, ...]:
    out = list(modes)
    insort(out, value)
    return tuple(out)


def _items(acc: dict[tuple, int]) -> tuple[tuple[WeylState, int], ...]:
    return tuple((_state(a, s), c) for (a, s), c in acc.items() if c)


def _a_core(n: int, st: WeylState) -> tuple[tuple[WeylState, int], ...]:
    """a(n): contraction against a*(-n) for n >= 0, creation below."""
    _, a, s = st
    if n < 0:
        return ((_state(_with(a, -n), s), 1),)
    mult = s.count(n)
    return ((_state(a, _without(s, n)), mult),) if mult else ()


def _astar_core(n: int, st: WeylState) -> tuple[tuple[WeylState, int], ...]:
    """a*(n): contraction against a(-n) for n >= 1, creation below."""
    _, a, s = st
    if n <= 0:
        return ((_state(a, _with(s, -n)), 1),)
    mult = a.count(n)
    return ((_state(_without(a, n), s), -mult),) if mult else ()


def _h_core(n: int, st: WeylState) -> tuple[tuple[WeylState, int], ...]:
    """-2 sum_{m+k=n} :a*(m) a(k):, split by which factors annihilate."""
    _, a, s = st
    acc: dict[tuple, int] = {}
    # both create: n < m <= 0
    for m in range(n + 1, 1):
        key = (_with(a, m - n), _with(s, -m))
        acc[key] = acc.get(key, 0) - 2
    # a(k) annihilates a*(-k); a*(m) creates (m <= 0) or annihilates a(-m)
    for k in dict.fromkeys(s):
        cs = s.count(k)
        s1 = _without(s, k)
        m = n - k
        if m <= 0:
            key = (a, _with(s1, -m))
            acc[key] = acc.get(key, 0) - 2 * cs
        elif m in a:
            key = (_without(a, m), s1)
            acc[key] = acc.get(key, 0) + 2 * a.count(m) * cs
    # a*(m) annihilates a(-m), a(k) creates: k = n - m < 0
    for m in dict.fromkeys(a):
        if m > n:
            key = (_with(_without(a, m), m - n), s)
            acc[key] = acc.get(key, 0) + 2 * a.count(m)
    return _items(acc)


def _f_core(n: int, st: WeylState) -> tuple[tuple[WeylState, int], ...]:
    """-sum_{m1+m2+k=n} :a*(m1) a*(m2) a(k): + 2n a*(n).

    The a* pair is symmetric, so it runs over unordered pairs {m1, m2},
    weighted 2 when m1 != m2, split by how many of the two annihilate.  An
    a*(m) with m >= 1 contracts one of the c copies of a(-m), a factor -c;
    both contracting the same a(-m) give c(c - 1).  Then a(k) contracts one
    a*(-k) (k >= 0, a factor of its count) or creates a(-k) (k < 0).  The
    monomial minus one a mode, or minus one a* mode, is built once per mode.
    """
    _, a, s = st
    a_less = tuple((m, a.count(m), _without(a, m)) for m in dict.fromkeys(a))
    s_less = {k: (s.count(k), _without(s, k)) for k in dict.fromkeys(s)}
    acc: dict[tuple, int] = {}
    get = acc.get
    # both a* annihilate: m1 <= m2 among the a modes, k = n - m1 - m2
    for i, (m1, c1, a1) in enumerate(a_less):
        for m2, c2, _ in a_less[i:]:
            if m2 == m1:
                if c1 < 2:
                    continue
                w = c1 * (c1 - 1)
            else:
                w = 2 * c1 * c2
            k = n - m1 - m2
            if k < 0:
                key = (_with(_without(a1, m2), -k), s)
            elif k in s_less:
                ck, s1 = s_less[k]
                w *= ck
                key = (_without(a1, m2), s1)
            else:
                continue
            acc[key] = get(key, 0) - w
    # a*(m1) annihilates, a*(m2) creates (m2 <= 0); weight 2 as m1 != m2
    for m1, c1, a1 in a_less:
        r = n - m1
        for k, (ck, s1) in s_less.items():
            if k >= r:
                key = (a1, _with(s1, k - r))
                acc[key] = get(key, 0) + 2 * c1 * ck
        for m2 in range(r + 1, 1):
            key = (_with(a1, m2 - r), _with(s, -m2))
            acc[key] = get(key, 0) + 2 * c1
    # both a* create: m1 <= m2 <= 0 with m1 + m2 = t; a(k) annihilates a*(-k)
    for k, (ck, s1) in s_less.items():
        t = n - k
        for m2 in range((t + 1) // 2, 1):
            key = (a, _with(_with(s1, m2 - t), -m2))
            acc[key] = get(key, 0) - (ck if 2 * m2 == t else 2 * ck)
    # ... or a(k) creates a(-k): t = m1 + m2 > n, so k = n - t < 0
    for t in range(n + 1, 1):
        a1 = _with(a, t - n)
        for m2 in range((t + 1) // 2, 1):
            key = (a1, _with(_with(s, m2 - t), -m2))
            acc[key] = get(key, 0) - (1 if 2 * m2 == t else 2)
    # 2n a*(n): contracts a(-n) for n >= 1, creates a*(-n) for n < 0
    if n > 0:
        for m, c, a1 in a_less:
            if m == n:
                key = (a1, s)
                acc[key] = get(key, 0) - 2 * n * c
    elif n < 0:
        key = (a, _with(s, -n))
        acc[key] = get(key, 0) + 2 * n
    return _items(acc)


# ---------------------------------------------------------------------------
# the process-wide tables of chi-free cores and brackets
# ---------------------------------------------------------------------------

#: Most entries the core and bracket tables hold together: one per monomial
#: and one per stored (state, int) pair, summed over every key.  An image
#: grows with the weight of its monomial, so a count of monomials alone
#: would bound no memory.  When a new entry would pass it, both tables and
#: the intern dict, which holds no state the tables do not, are cleared
#: whole.  Criterion 10 (ten twists, 151 monomials, |m|, |n| <= 3) stores
#: about 78k monomials and 122k pairs, so that the last nine twists read
#: every chi-free bracket, and the relations benchmark about 8.5k and 12k;
#: neither clears.
MAX_CORE_ENTRIES = 1 << 18

# (core function, mode) -> {monomial: the core's (state, int) pairs}.  Keyed
# by the function object, so a core swapped into ``WeylAction._RAW`` never
# reads rows another function computed.
_CORES: dict[tuple[object, int], dict[WeylState, tuple]] = {}
# (core X, mode p, core Y, mode q) -> {monomial s: [X(p), Y(q)] s as a flat
# (state, int, state, int, ...) tuple}, keyed by the function objects too
_BRACKETS: dict[tuple[object, int, object, int], dict[WeylState, tuple]] = {}
# every state the tables hold, once: many stored pairs share an output state
_STATES: dict[WeylState, WeylState] = {}
# monomials and stored pairs held across all of ``_CORES``' and
# ``_BRACKETS``' tables
_core_entries = 0


def _admit(registry: dict, key, table: dict, pairs: int) -> None:
    """Make room in ``table`` for one monomial's image of ``pairs`` terms.

    The entry counts 1 + pairs.  When the count would pass
    ``MAX_CORE_ENTRIES``, all is cleared first: both registries and the
    intern dict.  The caller goes on reading ``table``, so once a clear has
    dropped it (here, or while its new entry was being computed) it is
    emptied and registered again.
    """
    global _core_entries
    size = 1 + pairs
    if _core_entries + size > MAX_CORE_ENTRIES:
        _CORES.clear()
        _BRACKETS.clear()
        _STATES.clear()
        _core_entries = 0
    if registry.get(key) is not table:
        table.clear()
        registry[key] = table
    _core_entries += size


def _store(table: dict, fn, n: int, st: WeylState) -> tuple:
    """Compute fn(n, st) into ``table``, the (fn, n) table of ``_CORES``."""
    items = fn(n, st)
    _admit(_CORES, (fn, n), table, len(items))
    intern = _STATES.setdefault
    items = table[intern(st, st)] = tuple([(intern(out, out), k) for out, k in items])
    return items


def _core_items(table: dict, fn, n: int, st: WeylState) -> tuple:
    """fn(n, st) from ``table``, the (fn, n) table of ``_CORES``."""
    items = table.get(st)
    return _store(table, fn, n, st) if items is None else items


def _store_bracket(table: dict, key: tuple, st: WeylState) -> tuple:
    """Compute [X(p), Y(q)] st = X(Y st) - Y(X st) into ``table``.

    ``key`` is (X, p, Y, q).  X st and Y st are read from the core table
    first.  The second factor acts on their terms, monomials that only
    bracket computations meet: it is read from the table when there and
    computed, not stored, otherwise, so another bracket may compute it
    again.  Stored, they fill most of the table: on three twists at the
    relation suite's caps, peak RSS rose from 42 to 129 MB and the table
    cleared repeatedly.
    """
    fx, p, fy, q = key
    x_rows = _CORES.get((fx, p))
    if x_rows is None:
        x_rows = _CORES[fx, p] = {}
    y_rows = _CORES.get((fy, q))
    if y_rows is None:
        y_rows = _CORES[fy, q] = {}
    y_st, x_st = _core_items(y_rows, fy, q, st), _core_items(x_rows, fx, p, st)
    acc: dict[WeylState, int] = {}
    get = acc.get
    for rows, fn, mode, first, sign in ((x_rows, fx, p, y_st, 1), (y_rows, fy, q, x_st, -1)):
        for mid, c in first:
            items = rows.get(mid)
            c *= sign
            for out, k in fn(mode, mid) if items is None else items:
                acc[out] = get(out, 0) + c * k
    terms = [(out, k) for out, k in acc.items() if k]
    _admit(_BRACKETS, key, table, len(terms))
    intern = _STATES.setdefault
    flat = table[intern(st, st)] = tuple([y for out, k in terms for y in (intern(out, out), k)])
    return flat


# ---------------------------------------------------------------------------
# the current action
# ---------------------------------------------------------------------------


class _Plans(dict):
    """(kind, n) -> the plan of kind(n) under the twist chi, made on first lookup.

    A plan is (scale, ((core name, mode, int coefficient), ...), identity
    coefficient).
    """

    __slots__ = ("chi",)

    def __init__(self, chi: ChiSeries):
        super().__init__()
        self.chi = chi

    def __missing__(self, key: tuple[str, int]) -> tuple:
        kind, n = key
        den, nums = self.chi.denominator, self.chi.numerators
        if kind == "h" and nums.get(n):
            plan = den, (("h", n, den),), -nums[n]
        elif kind == "f" and nums:
            # -x_j a*(n - j): creates a*(j - n) for j >= n, else contracts a(n - j)
            plan = den, (("f", n, den), *(("a*", n - j, -x) for j, x in nums.items())), 0
        else:
            plan = 1, ((kind, n, 1),), 0
        self[key] = plan
        return plan


class WeylAction:
    """Mode operators for a fixed twist.

    chi enters only linearly, so with d chi's common denominator and
    chi_j = x_j / d every mode is an int combination of chi-free cores:

        d h(n) = d h0(n) - x_n id,
        d f(n) = d f0(n) - sum_j x_j a*(n - j),

    and e(n) = a(n) has no twist.  Here h0 is the normal-ordered quadratic
    of h and f0 the cubic of f plus 2n a*(n).  Each core is read from the
    process-wide table, so its image on a monomial is computed once for every
    action and twist until the table fills (``MAX_CORE_ENTRIES``).  The
    action keeps only chi and, per mode kind(n), a *plan* (``_Plans``, made
    on the first lookup by ``_core`` or ``_relation_plan``): the scale (d
    when chi enters kind(n), else 1), the (core, mode, int coefficient)
    terms and the coefficient of the identity; and, per (m, n) that
    ``affine_relation_check`` met, its relations as integer data.  ``_core``
    adds c times the plan's sum on int (state, numerator) pairs to an
    accumulator, and ``apply`` puts that sum over the vector's denominator
    times the scale, in lowest terms.
    """

    _RAW = {"e": _a_core, "h": _h_core, "f": _f_core, "a*": _astar_core}

    def __init__(self, chi: ChiSeries):
        self.chi = chi
        self._plans = _Plans(chi)
        # (m, n) -> the relations at (m, n) as integer data (``_relation_plan``)
        self._relations: dict[tuple[int, int], tuple] = {}

    def _core(self, kind: str, n: int, pairs, acc: dict[WeylState, int], c: int = 1) -> int:
        """Add c * kind(n) on sum p * state, over the (state, int p) pairs, to acc.

        ``pairs`` is read once per term of the plan, so it must be a
        collection, such as a dict's items.  Returns the scale: what was
        added is c * kind(n) / scale.
        """
        scale, terms, ident = self._plans[kind, n]
        get = acc.get
        for name, mode, k in terms:
            fn = self._RAW[name]
            table = _CORES.get((fn, mode))
            if table is None:
                table = _CORES[fn, mode] = {}
            k *= c
            for st, p in pairs:
                items = table.get(st)
                if items is None:
                    items = _store(table, fn, mode, st)
                p *= k
                for out, x in items:
                    acc[out] = get(out, 0) + p * x
        if ident:
            ident *= c
            for st, p in pairs:
                acc[st] = get(st, 0) + p * ident
        return scale

    def apply(self, kind: str, n: int, v: WeylVec) -> WeylVec:
        terms = v.terms
        if not terms:
            return WeylVec.zero()
        acc: dict[WeylState, int] = {}
        scale = self._core(kind, n, terms.items(), acc)
        return WeylVec._canonical({st: x for st, x in acc.items() if x}, v.den * scale)


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------


def _bounded_partitions(budget: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All multisets of positive integers with sum <= budget, ascending."""
    yield ()
    top = budget if max_part is None else min(max_part, budget)
    for p in range(top, 0, -1):
        for rest in _bounded_partitions(budget - p, p):
            yield rest + (p,)


def enumerate_weyl_basis(
    weight_cutoff, charge_window: tuple[int, int]
) -> list[WeylState]:
    """All monomials with weight <= cutoff and charge inside the window.

    The zero mode a*(0) is weightless, so its multiplicity is bounded by the
    charge window alone.
    """
    budget = math.floor(Fraction(weight_cutoff))
    lo, hi = charge_window
    states = []
    for a_part in _bounded_partitions(budget):
        rest = budget - sum(a_part)
        for s_part in _bounded_partitions(rest):
            base = len(s_part) - len(a_part)
            for zeros in range(0, max(0, hi - base) + 1):
                ch = base + zeros
                if not lo <= ch <= hi:
                    continue
                states.append(WeylState(a_part, (0,) * zeros + s_part))
    return sorted(states, key=WeylState.sort_key)


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------


def _relation_plan(action: WeylAction, m: int, n: int) -> tuple:
    """The six relations at (m, n) as integer data, in the order checked.

    Each is (name, brackets, rest).  ``brackets`` holds
    (X name, p, Y name, q, int coefficient) for every pair of plan terms
    with a chi-free core in it, X(p) before Y(q) in one fixed order, since
    [X, Y] = -[Y, X] lets one table entry serve both; the a* x a* pairs are
    left out, as a* modes commute.  ``rest`` holds the (int coefficient,
    kind) terms of -rhs: kind at m + n on D v, or D v itself for kind None.
    All coefficients share one denominator: s_x s_y times the lift to the
    right-hand side's scale.
    """
    plans = action._plans
    m_delta = m if m + n == 0 else 0
    relations = []
    for name, x, y, rhs in (
        ("[h,e]=2e", ("h", m), ("e", n), ((-2, "e"),)),
        ("[h,f]=-2f", ("h", m), ("f", n), ((2, "f"),)),
        ("[e,f]=h-2m*delta", ("e", m), ("f", n), ((-1, "h"), (2 * m_delta, None))),
        ("[h,h]=-4m*delta", ("h", m), ("h", n), ((4 * m_delta, None),)),
        ("[e,e]=0", ("e", m), ("e", n), ()),
        ("[f,f]=0", ("f", m), ("f", n), ()),
    ):
        (x_scale, (x0, *x_twist), _), (y_scale, (y0, *y_twist), _) = plans[x], plans[y]
        both = x_scale * y_scale
        rhs = [(c, kind, plans[kind, m + n][0] if kind else 1) for c, kind in rhs if c]
        top = math.lcm(both, *(scale for _, _, scale in rhs))
        lift = top // both
        brackets = []
        for (nx, p, a), (ny, q, b) in chain(
            zip(repeat(x0), (y0, *y_twist)), zip(x_twist, repeat(y0))
        ):
            if (ny, q) < (nx, p):
                nx, p, ny, q, a = ny, q, nx, p, -a
            brackets.append((nx, p, ny, q, lift * a * b))
        rest = tuple((c * (top // scale), kind) for c, kind, scale in rhs)
        relations.append((name, tuple(brackets), rest))
    return tuple(relations)


def affine_relation_check(
    m: int, n: int, v: WeylVec, chi: ChiSeries, action: WeylAction
) -> list[tuple[str, bool]]:
    """Evaluate every bracket relation at modes (m, n) on the vector v.

    The twist comes from ``action``.  ``chi`` is unused; it stays because the
    benchmark's relations workload passes all five arguments by position.
    Every relation is linear in v, so everything acts on D v, the int
    numerators ``v.terms`` of v over its denominator D.

    Each bracket is evaluated by bilinearity.  The plan of x writes
    s_x x = sum_i a_i X_i + alpha id, with X_i the chi-free core (h0, f0 or
    a) and the twist's a*(n - j) terms, and likewise s_y y.  So

        s_x s_y [x, y] = sum_ij a_i b_j [X_i, Y_j],

    because the identity commutes with everything: its terms cancel
    exactly, which is algebra and not a skipped check.  So do the a* x a*
    pairs, since [a*(p), a*(q)] = 0: on the Fock space a*(p) with p <= 0
    multiplies by the creation variable a*(p), and with p >= 1 it is minus
    the derivative in a(-p), and such operators commute.  The sum is the
    integer vector s_x x(s_y y D v) - s_y y(s_x x D v), so every verdict is
    the one the two compositions give whenever the a* core is right (it is
    tested against the rewriting oracle on its own).  [X_i, Y_j] on one
    monomial is read from the process-wide bracket table for every other
    pair, each holding a chi-free core, so a twist drawn afresh reuses every
    chi-free bracket of its support and the table grows linearly in the
    size of chi's support.  Each relation [x, y] = rhs is then one
    integer sum: the brackets and -rhs (e, h or f at m + n on D v, or D v),
    each scaled to a common denominator, must vanish.
    """
    relations = action._relations.get((m, n))
    if relations is None:
        relations = action._relations[m, n] = _relation_plan(action, m, n)
    pairs = v.terms.items()
    core, raw = action._core, action._RAW
    checks = []
    for name, brackets, rest in relations:
        total: dict[WeylState, int] = {}
        get = total.get
        for nx, p, ny, q, k in brackets:
            key = (raw[nx], p, raw[ny], q)
            table = _BRACKETS.get(key)
            if table is None:
                table = _BRACKETS[key] = {}
            for st, w in pairs:
                flat = table.get(st)
                if flat is None:
                    flat = _store_bracket(table, key, st)
                if flat:
                    w *= k
                    it = iter(flat)
                    for out, z in zip(it, it):
                        total[out] = get(out, 0) + w * z
        for c, kind in rest:
            if kind:
                core(kind, m + n, pairs, total, c)
            else:
                for st, w in pairs:
                    total[st] = get(st, 0) + c * w
        checks.append((name, not any(total.values())))
    return checks


# ---------------------------------------------------------------------------
# reducibility evidence
# ---------------------------------------------------------------------------


#: the charge each kind of mode adds (a* has charge +1, a has -1)
_CHARGE_SHIFT = {"e": -1, "h": 0, "f": 1}


def wakimoto_ops(
    chi: ChiSeries, cfg: ClosureConfig, action: WeylAction
) -> list[tuple[str, object]]:
    """Current modes able to move weight within the truncation window.

    With B the window's integer weight bound: e(n) and h(n) for |n| <= B,
    and f(n) also for |n - j| <= B around each pole index j > 0.  No other
    mode adds a row to a closure.  For n < -B the chi-free part is nonzero
    and leaves the window: on the top mode-degree its all-creating part
    multiplies by a nonzero polynomial, which no other term can cancel.
    For n > B the chi-free part lowers weight below zero, so it vanishes on
    the window.  What is left is the twist: h's is a scalar, which never
    grows a span, and f's term -chi_j a*(n - j) vanishes when n - j > B and
    leaves the window when j - n > B, so for n > B it acts only when
    j - B <= n <= j + B, which needs j > 0.

    Each label is a ``span.GradedLabel``: e(n), h(n) and f(n) shift the
    charge by -1, 0 and +1 (an a* adds one, an a takes one away), and for
    n < 0 they create weight -n.  That is, on a nonzero vector r of top
    weight t the image holds a monomial of weight at least t - n, the same
    argument as above, row by row.  Let r_t be r's part of weight t.  Every
    chi-free term moves weight by exactly -n, so r_t alone gives the image's
    part of weight t - n, save for the twist.  In r_t take the part of top
    mode-degree D.  The all-creating part of the chi-free mode multiplies
    it by a nonzero polynomial of the Fock space, a polynomial ring: a(n)
    for e, -2 sum_{n<m<=0} a*(m) a(n-m) for h, and for f the cubic's sum
    over m1 + m2 + k = n with m1, m2 <= 0 and k < 0, which holds
    a*(0)^2 a(n).  The product is nonzero, of degree D + 1, D + 2 and D + 3,
    and no other term reaches that degree on r_t: a term that contracts a
    factor adds two fewer, the parts of r_t of lower degree stay lower, and
    f's 2n a*(n) and chi_0's term -chi_0 a*(n), which lands at weight t - n
    too, add one factor.  h's twist -chi_n is a scalar, which keeps weight
    t, and f's tail terms -chi_j a*(n - j), j < 0, move weight by
    j - n < -n, so on r they land below t - n.  So for e and h, and for f
    on a twist with no pole, the image's part of weight t - n is nonzero.
    On a twist with poles, let J be the largest pole index: f's term
    -chi_J a*(n - J) creates a*(J - n) on r_t, at weight t + J - n, and no
    other term reaches that weight, so the image holds a monomial heavier
    still.  Either way it holds a monomial of weight at least t - n, and
    ``span.closure`` skips the op on a row with t - n > B, as it skips one
    whose charge leaves the window.
    """
    bound = WEYL_SPACE.int_bound(cfg.bound)
    f_modes = set(range(-bound, bound + 1))
    for j in chi.support:
        if j > 0:
            f_modes.update(range(j - bound, j + bound + 1))
    ops: list[tuple[str, object]] = []
    for n in sorted(f_modes):
        for kind in "ehf" if abs(n) <= bound else "f":
            label = GradedLabel(f"{kind}({n})", _CHARGE_SHIFT[kind], max(0, -n))
            ops.append((label, partial(action.apply, kind, n)))
    return ops


class Evidence(namedtuple("Evidence", "all_cyclic non_cyclic candidates probed cfg")):
    """Reducibility evidence from the boson side.

    ``all_cyclic`` — every probed basis vector regenerates the vacuum inside
    the window.  ``candidates`` — nonzero joint kernels of the raising modes
    in graded pieces other than the vacuum line, i.e. singular-vector
    candidates (their existence alone does not decide reducibility).
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "all_cyclic": self.all_cyclic,
            "non_cyclic": list(self.non_cyclic),
            "candidates": [dict(c) for c in self.candidates],
            "probed": self.probed,
            "cfg": self.cfg.to_json_obj(),
        }


DEFAULT_PROBE_CFG = ClosureConfig(Fraction(3), (-2, 2), Fraction(2))


def wakimoto_probe(chi: ChiSeries, cfg: ClosureConfig = DEFAULT_PROBE_CFG) -> Evidence:
    """Collect cyclicity and singular-candidate evidence within the window.

    The joint kernels are those of the raising modes n+: e(n) for n >= 0,
    h(n) and f(n) for n >= 1.  Two of them give every kernel, e(0) and
    f(1), picked by label from the closure family (``wakimoto_ops``).  A
    vector killed by two modes is killed by their bracket, and for modes
    summing to at least 1 the relations have no central term:

        [e(0), f(n)] = h(n),  [h(1), e(n)] = 2 e(n+1),  [h(1), f(n)] = -2 f(n+1).

    So a vector that e(0) and f(1) kill is killed by h(1), then by every
    e(n) and f(n), by induction on n, and by every h(n).  The relations
    hold on the Fock space for every twist (``affine_relation_check``
    tests them), so ker{e(0), f(1)} = ker(n+) on every piece.  The family holds f(1) once
    its bound floor(cfg.bound) is at least 1.  Below that every piece has
    weight 0, and f(1) acts on it by zero: its chi-free part would lower
    the weight below zero, and on a pole-free twist its twist terms
    -chi_j a*(1 - j), j <= 0, contract a-modes the piece does not hold.
    A twist with pole order p >= 1 takes no kernel: the weight-preserving
    part of f(p)v is -chi_p a*(0)v, nonzero for v != 0 since a*(0) maps
    distinct monomials to distinct monomials, so ker(n+) is 0 on every
    piece and there is no candidate.
    """
    action = WeylAction(chi)
    ops = wakimoto_ops(chi, cfg, action)
    states = enumerate_weyl_basis(cfg.weight_cutoff, cfg.charge_window)
    known = {WEYL_VACUUM}
    non_cyclic = []
    for st in states:
        if cyclic_probe(WeylVec.basis(st), known, ops, cfg, WEYL_SPACE):
            known.add(st)
        else:
            non_cyclic.append(str(st))
    ann = [(label, op) for label, op in ops if label in ("e(0)", "f(1)")]
    pieces: dict[tuple[int, int], list[WeylState]] = {}
    # on a twist with a pole every kernel is 0
    for st in () if pole_order(chi) else states:
        # the weight scale is 1, so a piece's JSON weight is an int
        pieces.setdefault((WEYL_SPACE.int_weight_of(st), WEYL_SPACE.charge_of(st)), []).append(st)
    candidates = []
    for (w, c), piece in sorted(pieces.items()):
        if (w, c) == (0, 0):
            continue
        kernel = joint_kernel(ann, piece, WEYL_SPACE)
        if kernel.dimension():
            candidates.append(
                {
                    "weight": w,
                    "charge": c,
                    "dimension": kernel.dimension(),
                    "vectors": [row.to_json_obj() for row in kernel.rows()],
                }
            )
    return Evidence(
        all_cyclic=not non_cyclic,
        non_cyclic=tuple(non_cyclic),
        candidates=tuple(candidates),
        probed=len(states),
        cfg=cfg,
    )


def evidence_agrees(verdict_status: str, evidence: Evidence) -> bool:
    """Does boson-side evidence line up with the classifier verdict?

    Irreducible verdicts demand full cyclicity; reducible ones demand a
    cyclicity failure or at least one singular candidate.
    """
    if verdict_status == "irreducible":
        return evidence.all_cyclic
    return (not evidence.all_cyclic) or bool(evidence.candidates)
