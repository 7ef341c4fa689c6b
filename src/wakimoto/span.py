"""Exact truncated span closure over graded sparse vectors.

The engine maintains a row-echelon basis of a subspace spanned by repeatedly
applying a finite family of mode operators to some generators, inside a
finite window: total weight at most ``bound``, cutoff plus excursion, and
charge inside ``charge_window``.  An operator result is admitted only when
*every* monomial of the result fits in the window, so each stored row is an
exact element of the module generated by the inputs — membership answers are
never polluted by dropped terms.  Consequently a positive membership answer
is a proof, while a negative answer is evidence scoped to the configuration.

A closure can stop early.  Its ``stop_at`` is a set of basis states, and
the closure returns as soon as one of them lies in the span.  In a fully
reduced span a state u lies there exactly when the row of pivot u is u
itself (the pure-row lemma): reducing u subtracts that row alone, and
nothing else can cancel u.  So the stop test is a dict lookup per stop
state, not a reduction.  ``cyclic_probe`` stops at every monomial already
proved cyclic, not at the vacuum alone: a row is an exact element of
⟨v⟩, so u ∈ ⟨v⟩ and |0⟩ ∈ ⟨u⟩ give |0⟩ ∈ ⟨v⟩.  Before any closure it
tries a one-step proof: if v itself, or its image under one op, is c·u
for a single monomial u already proved cyclic, and both v and c·u lie in
the window, then u ∈ ⟨v⟩ exactly, and the closure, which expands v first
with every op, would stop at that insert anyway.  Most probes of a
battery end there.  The one step applies no op whose image must be
heavier than every proved state: such an image is no c·u.

Scalar operators (e.g. central or diagonal mode actions) map a vector to a
multiple of itself and can never enlarge a span, so operator families only
need the genuinely shifting modes.

A truncated closure means K(v): the least subspace that holds the
generators and every op image, of each of its vectors, that fits the
window.  A closure inserts only such images, so its span lies in K(v),
and one that drops no image and declares no exterior modes is K(v)
itself.  A family that declares the weight its ops create has its rows
eliminated with the heaviest state as pivot, so no combination of rows is
lighter than its rows, and the weight rule keeps no op from a vector
whose image fits (``closure`` has the argument).  A negative answer is
then a fact about K(v) in the window.

A battery of probes also reuses the closures that failed (``failed``).
On a reducible module the monomials that are not cyclic reach no stop
state, so each of their closures runs to its end.  Once such a closure is
settled, its span S is K of its generator, and a later monomial v that S
holds as a pure row answers False with no closure, provided S holds no
state proved cyclic since: K is monotone, so K(v) lies in S.

An op may declare how it moves the grading, through a :class:`GradedLabel`
in place of its plain label: its charge shift, and either the int weight
it is sure to add to a vector's top weight (the boson family) or the
doubled modes of the single exterior modes it sums (the fermion family).
The closure and the one-step proof then skip each (row, op) pair whose
image must be zero or leave the window, without calling the op: every
image they skip, they would have dropped.  Three rules prove it (``closure``
has the arguments): the charge rule, the weight rule for ``creates``, and
for exterior modes a zero rule (every component annihilates a factor no
state of the row holds) and a top-component rule (the lowest component
creates a factor too heavy for the window on a top state that holds no
such factor yet).  The label is where the declaration lives because
wrappers of an op family, the benchmark's tracer among them, rebuild the
entries as ``(label, op')``.

Each unit of work is done once.  The closure reads each op's label once,
into a table of declarations, and expands a row again only after an insert
has rewritten it: the images of an unchanged row already lie in the span.
Rows are fully reduced, each holding its own pivot with coefficient 1 and
no other pivot, so ``reduce`` subtracts each hit row once, in a single
pass, and ``insert`` answers a one-term vector that the span holds as a
pure row with no reduction at all.

Arithmetic is over the integers.  A vector is int numerators over one
positive int denominator in lowest terms, so the mode actions sum ints and
the elimination is fraction-free in the manner of Bareiss: ``reduce``
scales by the lcm of the hit rows' denominators, ``insert`` divides by the
pivot numerator and rewrites other rows by cross-multiplying, and every
result is brought back to lowest terms by one gcd.  The window test
compares int weights (doubled on the fermion side) against a bound floored
once per closure, or per probe, in ints (``Space.int_bound``).  Fractions
appear only where a coefficient is read out.

:class:`SpanBasis` is the only Gaussian elimination here.  Its rows are
the unique fully reduced echelon basis for a total order on keys, and the
other exact questions are answered by eliminating under a derived order:
a boson closure's span by ordering the heaviest states first, the
subspace inside the weight cutoff (``restricted_rows``) by ordering the
states above the cutoff first, and the joint kernel of a family of maps
(``joint_kernel``) by ordering tagged images before the source keys.

Both Fock spaces share one grading.  A basis monomial is a
:class:`Monomial`, a tagged tuple ``(tag, lower, upper)`` of two int mode
tuples: its int weight is the sum of all modes (``int_weight``), its charge
``len(upper) - len(lower)`` (``charge``), and ``sort_key`` orders by the
two, then by the modes.  A :class:`Space` says how much one unit of weight
is in int weight (2 on the fermion side, whose half-odd modes are stored
doubled) and which total order the elimination uses.  All iteration is
sorted, so identical inputs produce identical bases.  Both Fock spaces share
one vector type, :class:`SparseVec`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import chain

from .scalars import format_rational, parse_rational

__all__ = [
    "ClosureConfig",
    "GradedLabel",
    "Monomial",
    "Proved",
    "Space",
    "SparseVec",
    "SpanBasis",
    "charge",
    "closure",
    "cyclic_probe",
    "int_weight",
    "joint_kernel",
]

OpFamily = Sequence[tuple[str, Callable[[object], object]]]


class Monomial(tuple):
    """A basis monomial ``(tag, lower, upper)``: an int tag, two int mode tuples.

    Hashing and equality are the tuple's own, and the tag keeps the
    monomials of two spaces apart from each other and from a bare tuple of
    modes.  A subclass sets the tag, validates its modes, and names and
    prints them.
    """

    __slots__ = ()

    def __getnewargs__(self):
        return self[1:]

    def sort_key(self):
        """Basis order: int weight, then charge, then the two mode tuples."""
        _, lower, upper = self
        return (sum(lower) + sum(upper), len(upper) - len(lower), lower, upper)


def int_weight(st: Monomial) -> int:
    """The sum of a monomial's modes: its weight times its space's scale."""
    return sum(st[1]) + sum(st[2])


def charge(st: Monomial) -> int:
    return len(st[2]) - len(st[1])


class GradedLabel(str):
    """An op's label that also declares how the op moves the grading.

    It equals and prints as its text.  ``charge_shift`` is the charge every
    image monomial has over its source: the op maps a monomial of charge c
    into the span of monomials of charge c + charge_shift.  ``creates`` is
    an int weight: when it is positive, the image of every nonzero vector
    of top int weight t holds a monomial of int weight at least
    t + creates.

    ``modes``, when given, says that the op is an int combination, with
    nonzero coefficients, of single exterior modes of one species, and
    lists their doubled modes; ``charge_shift`` is then +1 or -1.  A single
    exterior mode of doubled mode d acts on a monomial ``(tag, lower,
    upper)`` of strictly decreasing tuples as ``fock._psi_core`` does: for
    shift +1 (Psi+) it removes the factor d from ``lower`` when d > 0 and
    inserts the factor -d into ``upper`` when d < 0; for shift -1 (Psi-)
    it removes d from ``upper`` or inserts -d into ``lower``.  It is zero
    on a monomial that lacks the factor it removes or already holds the
    factor it inserts (it is *killed* there), and otherwise gives one
    monomial with sign ±1, int weight t - d from int weight t, and distinct
    monomials to distinct ones.

    ``closure`` and ``cyclic_probe`` read each label that is a
    ``GradedLabel`` to skip images that must be zero or leave the window;
    an op with a plain label is always applied.
    """

    def __new__(cls, text: str, charge_shift: int, creates: int = 0, modes: Iterable[int] = ()):
        label = super().__new__(cls, text)
        label.charge_shift = charge_shift
        label.creates = creates
        label.modes = tuple(sorted(modes))
        return label


def _lifted(terms: dict[object, int], k: int) -> dict[object, int]:
    """A copy of ``terms`` times the int k."""
    return {st: n * k for st, n in terms.items()} if k != 1 else dict(terms)


def _add_into(acc: dict[object, int], k: int, terms: dict[object, int]) -> None:
    """acc += k * terms, dropping the entries that cancel."""
    get = acc.get
    for st, n in terms.items():
        total = get(st, 0) + k * n
        if total:
            acc[st] = total
        else:
            del acc[st]


class SparseVec:
    """Sparse rational linear combination of basis states.

    ``terms`` maps each state to a nonzero int numerator, and ``den`` is one
    positive int denominator: the coefficient of a state is
    ``terms[state] / den``.  The form is canonical, with
    gcd(den, *numerators) = 1 and the zero vector ``{}`` over 1, so equal
    vectors have equal ``terms`` and ``den``.  The constructor takes any
    mapping of rationals; ``coeff``, ``sorted_items`` and ``to_json_obj``
    give Fractions back.  Operator actions sum int numerators and return
    them through ``_canonical``, which divides out one gcd.  A state orders
    itself through ``sort_key()`` and prints through ``str``, which is all
    the sorted and JSON views need, so one class serves every space.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[object, object] | None = None):
        coeffs = []
        if terms:
            for st, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    coeffs.append((st, c))
        # over the lcm of lowest-terms denominators, the numerators share no
        # prime with it: the coefficient whose denominator holds the highest
        # power of a prime keeps a numerator prime to it
        den = math.lcm(*(c.denominator for _, c in coeffs))
        self.terms = {st: c.numerator * (den // c.denominator) for st, c in coeffs}
        self.den = den

    @classmethod
    def _of(cls, terms: dict[object, int], den: int) -> "SparseVec":
        """Wrap nonzero int numerators over a den that are already canonical."""
        v = object.__new__(cls)
        v.terms = terms
        v.den = den
        return v

    @classmethod
    def _canonical(cls, terms: dict[object, int], den: int) -> "SparseVec":
        """Nonzero int numerators over a positive den, in lowest terms."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {st: n // g for st, n in terms.items()}
                den //= g
        return cls._of(terms, den)

    @classmethod
    def zero(cls) -> "SparseVec":
        return cls._of({}, 1)

    @classmethod
    def basis(cls, state) -> "SparseVec":
        return cls._of({state: 1}, 1)

    @classmethod
    def from_items(cls, items: Iterable[tuple[object, object]]) -> "SparseVec":
        """Sum (state, coefficient) pairs; repeated states add up."""
        acc: dict[object, Fraction] = {}
        for st, c in items:
            acc[st] = acc.get(st, 0) + Fraction(c)
        return cls(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, state) -> Fraction:
        return Fraction(self.terms.get(state, 0), self.den)

    def _combined(self, other: "SparseVec", sign: int) -> "SparseVec":
        den = math.lcm(self.den, other.den)
        data = _lifted(self.terms, den // self.den)
        _add_into(data, sign * (den // other.den), other.terms)
        return SparseVec._canonical(data, den)

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return self._combined(other, 1)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self._combined(other, -1)

    def __neg__(self) -> "SparseVec":
        return SparseVec._of({st: -n for st, n in self.terms.items()}, self.den)

    def _scaled(self, scalar) -> "SparseVec":
        s = scalar if isinstance(scalar, Fraction) else Fraction(scalar)
        if not s:
            return SparseVec.zero()
        k = s.numerator
        return SparseVec._canonical(
            {st: k * n for st, n in self.terms.items()}, self.den * s.denominator
        )

    def __mul__(self, scalar) -> "SparseVec":
        return self._scaled(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SparseVec":
        return self._scaled(1 / Fraction(scalar))

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self.den == other.den and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def sorted_items(self) -> list[tuple[object, Fraction]]:
        den = self.den
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        return [(st, Fraction(n, den)) for st, n in items]

    def to_json_obj(self) -> list[dict]:
        return [{"state": str(st), "value": format_rational(c)} for st, c in self.sorted_items()]

    def __repr__(self) -> str:
        if not self.terms:
            return "SparseVec(0)"
        body = " + ".join(f"({c})*{st}" for st, c in self.sorted_items())
        return f"SparseVec({body})"


class ClosureConfig(namedtuple("ClosureConfig", "weight_cutoff charge_window excursion")):
    """Truncation window for closures.

    ``weight_cutoff`` bounds the reported span; exploration is allowed the
    extra ``excursion`` headroom, so ``bound`` is the window's reach;
    ``charge_window`` is an inclusive (lo, hi) pair.
    """

    __slots__ = ()

    def __new__(cls, weight_cutoff=Fraction(4), charge_window=(-3, 3), excursion=Fraction(2)):
        self = super().__new__(cls, Fraction(weight_cutoff), charge_window, Fraction(excursion))
        lo, hi = charge_window
        if self.weight_cutoff < 0 or self.excursion < 0 or lo > hi:
            raise ValueError(f"bad closure config: {self}")
        return self

    @classmethod
    def _make(cls, fields):  # and so _replace, which copies through it
        return cls(*fields)

    @property
    def bound(self) -> Fraction:
        """The window's reach: no closure explores a state heavier than this."""
        return self.weight_cutoff + self.excursion

    def to_json_obj(self) -> dict:
        return {
            "weight_cutoff": str(self.weight_cutoff),
            "charge_window": list(self.charge_window),
            "excursion": str(self.excursion),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ClosureConfig":
        """Inverse of ``to_json_obj``: rational strings and two JSON ints."""
        lo, hi = obj["charge_window"]
        if type(lo) is not int or type(hi) is not int:
            raise TypeError(f"charge_window: expected two integers, got {[lo, hi]!r}")
        return cls(
            weight_cutoff=parse_rational(obj["weight_cutoff"], field="weight_cutoff"),
            charge_window=(lo, hi),
            excursion=parse_rational(obj["excursion"], field="excursion"),
        )


class Space(namedtuple("Space", "weight_scale sort_key", defaults=(Monomial.sort_key,))):
    """A graded basis of monomials: the weight scale and a total order.

    ``weight_of`` is the exact weight.  ``int_weight_of`` is the int
    ``weight_scale * weight_of``, which the window tests compare against a
    bound floored once (doubled weights on the fermion side).  ``sort_key``
    is the order the elimination uses, replaced for the derived orders of
    ``restricted_rows`` and ``joint_kernel``.
    """

    __slots__ = ()
    int_weight_of = staticmethod(int_weight)
    charge_of = staticmethod(charge)

    def weight_of(self, st: Monomial) -> Fraction:
        return Fraction(int_weight(st), self.weight_scale)

    def int_bound(self, weight) -> int:
        """The largest int weight of a state of weight at most ``weight``.

        Floored in ints: a closure and each probe read it.
        """
        return weight.numerator * self.weight_scale // weight.denominator


class SpanBasis:
    """Fully reduced row-echelon basis with pivot coefficient 1.

    A row is canonical, so pivot coefficient 1 reads ``terms[p] == den``.

    Rows are kept up to the window's ``bound``; reporting helpers
    describe the largest subspace supported inside the cutoff, which is
    representative-independent.  ``contains`` reduces a query against every
    row, which is sound because each row is an exact member of the
    underlying module.
    """

    def __init__(self, space: Space, cfg: ClosureConfig | None = None):
        self.space = space
        self.cfg = cfg
        self._rows: dict[object, object] = {}  # pivot key -> vector
        self.dropped = False  # set by ``closure``: an op image it applied left the window

    # -- construction -------------------------------------------------

    def _pivot(self, v):
        return min(v.terms, key=self.space.sort_key)

    def reduce(self, v):
        """Remainder of v after eliminating every known pivot component.

        Interior components matter too, not just the leading one: rows stay
        fully reduced so the row set is the unique reduced echelon basis of
        the span and restricted reporting cannot hide a low-weight row
        behind a high-weight tail.  Full reduction also makes one pass
        enough: row s holds its pivot s with coefficient 1 and no other
        pivot, so subtracting v[s]·row_s changes no other pivot's
        coefficient.  The remainder is v − Σ v[s]·row_s over the pivots s
        in v's support, in any order.  Over L, the lcm of the hit rows'
        denominators, it is (L·N − Σ N[s]·(L / d_s)·R_s) / (D·L) for
        v = N / D and row_s = R_s / d_s: one int sum.
        """
        rows = self._rows
        terms = v.terms
        hits = [s for s in terms if s in rows]
        if not hits:
            return v
        lift = math.lcm(*(rows[s].den for s in hits))
        data = _lifted(terms, lift)
        for s in hits:
            row = rows[s]
            _add_into(data, -terms[s] * (lift // row.den), row.terms)
        return SparseVec._canonical(data, v.den * lift)

    def insert(self, v) -> bool:
        """Insert a vector, keeping full reduction; True if the span grew.

        A row it rewrites becomes a new object, and a call that does not
        grow the span changes nothing; ``closure`` relies on both.  Dividing
        N / D by its pivot coefficient N[p] / D gives N over N[p]; a row
        R / e holding c = R[p] becomes (R·d − c·N') / (e·d), with N' over d
        the new row.

        A one-term vector c·u with u in the span (``_holds``) answers False
        with no reduction.
        """
        if len(v.terms) == 1 and self._holds(next(iter(v.terms))):
            return False
        v = self.reduce(v)
        terms = v.terms
        if not terms:
            return False
        p = self._pivot(v)
        lead = terms[p]
        g = math.gcd(*terms.values())
        if lead < 0:
            g = -g
        if g != 1:
            terms = {st: n // g for st, n in terms.items()}
        d = lead // g
        rows = self._rows
        for q, row in list(rows.items()):
            c = row.terms.get(p)
            if c:
                data = _lifted(row.terms, d)
                _add_into(data, -c, terms)
                rows[q] = SparseVec._canonical(data, row.den * d)
        rows[p] = SparseVec._of(terms, d)
        return True

    # -- queries ------------------------------------------------------

    def contains(self, v) -> bool:
        return self.reduce(v).is_zero()

    def _holds(self, u) -> bool:
        """Is the basis state u in the span?

        Exactly when its row is u alone (the pure-row lemma): the row of
        pivot u is the only one that u's reduction subtracts, so the
        remainder is zero just when that row is u (pivot coefficient 1).
        """
        row = self._rows.get(u)
        return row is not None and len(row.terms) == 1

    def holds_any(self, states: Collection) -> bool:
        """Does the span contain one of these basis states (``_holds``)?

        The scan runs over the given states or the rows, whichever is fewer.
        """
        rows = self._rows
        if len(states) <= len(rows):
            return any(map(self._holds, states))
        return any(len(r.terms) == 1 and p in states for p, r in rows.items())

    def rows(self) -> list:
        return [self._rows[p] for p in sorted(self._rows, key=self.space.sort_key)]

    def pivots(self) -> list:
        return sorted(self._rows, key=self.space.sort_key)

    def dimension(self) -> int:
        return len(self._rows)

    def restricted_rows(self) -> list:
        """Echelon basis of the largest subspace supported inside the cutoff.

        A row kept for exploration may carry a tail in the excursion zone
        even though some combination with other rows does not, so reporting
        must not depend on which representative the elimination kept.  The
        rows are eliminated once more under an order that puts every state
        above the cutoff first.  A row's support lies at or above its pivot,
        so a fully reduced row whose pivot lies inside the cutoff lies
        inside it entirely.  A vector of the span inside the cutoff has its
        pivot there too, so it is eliminated by such rows alone.  These rows
        are therefore the unique reduced echelon basis of that subspace.
        """
        if self.cfg is None:
            return self.rows()
        cutoff = self.space.int_bound(self.cfg.weight_cutoff)
        weight_of, key = self.space.int_weight_of, self.space.sort_key
        outside_first = SpanBasis(self.space._replace(sort_key=lambda s: (weight_of(s) <= cutoff, key(s))))
        for r in self._rows.values():
            outside_first.insert(r)
        return [outside_first._rows[p] for p in outside_first.pivots() if weight_of(p) <= cutoff]

    def graded_dimension(self) -> dict[tuple, int]:
        """Pivot counts per (weight, charge), restricted to the cutoff."""
        out: dict[tuple, int] = {}
        for r in self.restricted_rows():
            p = self._pivot(r)
            key = (self.space.weight_of(p), self.space.charge_of(p))
            out[key] = out.get(key, 0) + 1
        return out

    def report(self) -> dict:
        graded = self.graded_dimension()
        return {
            "cfg": self.cfg.to_json_obj() if self.cfg else None,
            "dimension": sum(graded.values()),
            "graded_dimension": [
                {"weight": str(w), "charge": c, "dim": d}
                for (w, c), d in sorted(graded.items())
            ],
        }


class Proved(set):
    """A battery's states proved cyclic, with ``heaviest``, their largest int weight.

    ``add``, the only way a battery grows the set, keeps ``heaviest`` up to
    date, so ``cyclic_probe`` reads its reach with no pass over the states.
    An empty set has ``heaviest`` 0, as the pass gives.
    """

    def __init__(self, states: Iterable = ()):
        super().__init__()
        self.heaviest = 0
        for st in states:
            self.add(st)

    def add(self, st) -> None:
        super().add(st)
        self.heaviest = max(self.heaviest, int_weight(st))


def _admissible(v, cfg: ClosureConfig, bound: int) -> bool:
    """Does every state of v lie in the window?  ``bound`` is ``int_bound(cfg.bound)``."""
    lo, hi = cfg.charge_window
    return all(int_weight(s) <= bound and lo <= charge(s) <= hi for s in v.terms)


def _exterior_facts(v, top: int) -> dict[int, tuple[set, set]]:
    """Per charge shift s of an exterior mode: (the factors that some state
    of v holds where a mode of shift s removes one, the factors that every
    state of v of int weight ``top`` holds where such a mode inserts one)."""
    lower: set = set()
    upper: set = set()
    top_lower = top_upper = None
    for st in v.terms:
        _, low, up = st
        lower.update(low)
        upper.update(up)
        if int_weight(st) == top:
            top_lower = set(low) if top_lower is None else top_lower.intersection(low)
            top_upper = set(up) if top_upper is None else top_upper.intersection(up)
    return {1: (lower, top_upper), -1: (upper, top_lower)}


def _declarations(ops: OpFamily) -> Iterator[tuple]:
    """``(op, charge shift, creates, modes)`` per op, in the family's order.

    Lazily: each label is read when its entry is reached.  An op with a
    plain label declares nothing, and its shift is None.
    """
    for label, op in ops:
        if isinstance(label, GradedLabel):
            yield op, label.charge_shift, label.creates, label.modes
        else:
            yield op, None, 0, ()


def _live(v, table: Iterable[tuple], cfg: ClosureConfig, reach: int) -> Iterator:
    """The ops whose image of the nonzero window vector v may matter.

    ``table`` holds the family's ``_declarations``: a list that a closure
    reads once, or the lazy iterator of a one-step proof.  An image matters
    only when it lies in the charge window and weighs at most ``reach``, an
    int weight no more than the window's bound: the bound itself for a
    closure, less for a one-step proof (``cyclic_probe``).  Lazily, in the
    family's order.  An op is left out when its declaration proves that the
    image is zero or holds a state that does not matter (``closure`` has
    the arguments, with ``reach`` for B).  ``room`` is reach minus v's top
    weight, or 0 when v is heavier than reach: every weight rule proves a
    state heavier than v, so an op that may lower the weight is still
    applied.
    """
    lo, hi = cfg.charge_window
    top = max(map(int_weight, v.terms))
    room = max(0, reach - top)
    charges = set(map(charge, v.terms))
    least, most = min(charges), max(charges)
    facts = None
    for op, shift, creates, modes in table:
        if shift is not None:
            if creates > room or most + shift < lo or least + shift > hi:
                continue
            if modes:
                if facts is None:
                    facts = _exterior_facts(v, top)
                held, kept = facts[shift]
                d = modes[0]
                if d > 0 and held.isdisjoint(modes):  # the zero rule
                    continue
                if -d > room and -d not in kept:  # the top-component rule
                    continue
        yield op


def closure(
    generators: Iterable,
    ops: OpFamily,
    cfg: ClosureConfig,
    space: Space,
    stop_at: Collection | None = None,
) -> SpanBasis:
    """Least fixpoint of the operator family inside the truncation window.

    Sweeps over the pivots, lightest first in the space's order, apply
    every operator to each row until a sweep adds nothing.  A row is
    expanded once per version: ``insert`` replaces a row by a new object
    whenever it rewrites it, and a row that is the same object as when it
    was last expanded is skipped.  Its images were inserted then, or left
    the window, and the span only grows, so they would reduce to zero now
    and change nothing.  So the inserts that grow the span are those of
    the full sweep.

    An op whose label is a :class:`GradedLabel` is not applied to a row r
    whose image must be zero or dropped (``_live``).  Let B be the int
    weight bound, t the top int weight of r and C its set of charges.

    * The charge rule: the op maps a state of charge c to states of charge
      c + shift, and states of distinct charges never cancel, so when
      c + shift lies outside the charge window for every c in C, so does
      every state of the image, which is zero or dropped.
    * The weight rule: when creates > B - t, the image holds a state of
      int weight at least t + creates > B, and is dropped.
    * The zero rule, for exterior modes: when every component annihilates
      (d > 0) and no state of r holds a factor one of them removes, every
      component is zero on every state of r, so the image is 0.
    * The top-component rule, for exterior modes: let d0 be the least
      doubled mode among the components.  When t - d0 > B and some state
      of r of int weight t is not killed by the component of mode d0, the
      image holds a state of int weight t - d0 > B, and is dropped.  That
      component maps the weight-t part of r to int weight t - d0, one
      state for each state it does not kill, with a nonzero coefficient
      times ±1, and distinct states to distinct ones, so no two of them
      cancel.  No other term reaches that weight: the same component on a
      lighter state lands lighter, and a component of mode d > d0 sends a
      state of int weight s <= t to s - d < t - d0.  As B - t >= 0, only
      a creator (d0 < 0) can meet t - d0 > B, and a creator is killed on
      exactly the states that already hold its factor.

    The other ops are applied in the family's order, so the sweeps'
    inserts are those the closure makes without the skip.  An op with a
    plain label is always applied, and an image the rules would skip is
    dropped.  For both families C is one charge when each generator has
    one: an op image of such a row has one charge, ``reduce`` subtracts
    only rows whose pivots lie in the vector's support, and ``insert``
    rewrites only rows that hold the new pivot.

    The closure reads each label once, into a table of declarations that
    ``_live`` reads for every row.

    When a label declares ``creates``, the rows are eliminated with the
    *heaviest* state as pivot: the basis orders the states by int weight,
    heaviest first, then in the space's order.  Then a closure that runs
    to its end is K(v), the least subspace that holds the generators and
    every op image, of each of its vectors, that fits the window, whenever
    it drops no image and no label declares exterior ``modes``, whose skip
    rules drop images unseen.  Every row is such an image or a combination
    of them, so the span lies in K(v); it is K(v) since it is *closed*:
    each op image of each of its vectors that fits the window lies in it.
    Once a sweep adds nothing, every row has been expanded with every op
    it did not skip, and since none was dropped each applied image lies in
    the span.  An op skipped by the charge rule sends a vector wholly
    outside the charge window, where no other image can cancel it, so it
    adds nothing to an image that fits.  Only the weight rule for
    ``creates`` = c > 0 is left.  With k = B - c, a vector x whose image
    fits has top weight at most k.  Write x = sum a_i r_i over rows r_i,
    a_i != 0.  The first of their pivots in the basis order, p, is the
    heaviest, and lies in its own row r_j alone, so x holds it with
    coefficient a_j; every other state of x lies in some r_i, none heavier
    than p.  So x's top weight is that of p, the largest top weight of its
    rows, and every r_i has top weight at most k.  The weight rule skipped
    the creator on none of them, so each image lies in the span, and so
    does x's, their combination.  In the space's order, with the lightest
    state as pivot, the heavy tails of two rows may cancel and leave a
    combination lighter than both, whose image no expansion of a row
    gives.  The other families keep the space's order.  Those with
    exterior modes are not K(v) in any case, their spans depend on the
    order, and certificates record them; those that declare nothing skip
    no op by weight.  A negative answer of a closure that is K(v) is a
    fact about K(v) in the window.

    ``stop_at`` is a collection of basis states.  When it is given, the
    closure returns as soon as one of them lies in the span: after the
    generators are inserted and after every insert that grows the span.
    By the pure-row lemma (``SpanBasis.holds_any``) each test is a row
    lookup, not a reduction, in any elimination order.  The partial basis
    already proves that the generators reach that state.  The basis
    records in ``dropped`` whether an image the closure applied held a
    state outside the window.
    """
    stop = frozenset(stop_at) if stop_at else None
    bound = space.int_bound(cfg.bound)
    table = list(_declarations(ops))
    order = space
    if any(creates > 0 for _, _, creates, _ in table):
        weight_of, key = space.int_weight_of, space.sort_key
        order = space._replace(sort_key=lambda s: (-weight_of(s), key(s)))
    basis = SpanBasis(order, cfg)
    for g in generators:
        if not g.is_zero() and _admissible(g, cfg, bound):
            basis.insert(g)
    if stop and basis.holds_any(stop):
        return basis
    expanded: dict[object, object] = {}  # pivot -> the row object last expanded
    changed = True
    while changed:
        changed = False
        # pivots are never removed, only their rows rewritten
        for pivot in sorted(basis._rows, key=space.sort_key):
            row = basis._rows[pivot]
            if expanded.get(pivot) is row:
                continue
            expanded[pivot] = row
            for op in _live(row, table, cfg, bound):
                w = op(row)
                if w.is_zero():
                    continue
                if not _admissible(w, cfg, bound):
                    basis.dropped = True
                    continue
                if basis.insert(w):
                    changed = True
                    if stop and basis.holds_any(stop):
                        return basis
    return basis


def cyclic_probe(v, cyclic: Collection, ops: OpFamily, cfg: ClosureConfig, space: Space,
                 failed: list | None = None) -> bool:
    """Does the truncated closure of ``[v]`` reach a state of ``cyclic``?

    ``cyclic`` holds basis states known to generate the vacuum, the vacuum
    among them.  The closure stops at the first of them it reaches.  Every
    row is an exact element of ⟨v⟩, so reaching u with |0⟩ ∈ ⟨u⟩ proves
    |0⟩ ∈ ⟨v⟩; a negative answer is scoped to the window.  It is a fact
    about K(v) in the window, K(v) holding no state of ``cyclic``, when the
    closure drops no image and no label declares exterior modes: the
    closure of a family that declares ``creates`` eliminates heaviest
    state first, so the weight rule keeps no op from a vector whose image
    fits (``closure``).  Otherwise it is a fact about the closure's span,
    which lies in K(v).
    A battery probes its states lighter first and adds each one it proves
    cyclic, so a later probe stops at the first proved state it reaches.

    Most probes are settled in at most one step, before any closure: if v
    lies in the window and v itself, or its image under one op, is c·u for
    a single monomial u of ``cyclic`` inside the window, then u ∈ ⟨v⟩ and
    the answer is True.  The closure would answer the same: it stops at
    once when v is such a c·u, and otherwise expands the generator row
    first, with every op in the family's order, inserts c·u, and stops once
    u is a pure row.  A v or an image outside the window settles nothing,
    since the closure drops it.  Nor does an image that holds a state
    heavier than ``reach``, the least of the window's int bound B and the
    heaviest int weight in ``cyclic``: c·u with u in ``cyclic`` inside the
    window weighs at most that.  So the one step skips, by ``closure``'s
    rules with ``reach`` for B, every op whose image of v must be zero,
    leave the charge window or hold a state heavier than ``reach``; on a
    battery that probes lighter states first, that is nearly every
    creator.  An op that may lower the weight is still tried when v is
    heavier than every state of ``cyclic`` (``_live`` keeps its room at
    least 0), and an empty ``cyclic`` settles nothing and raises nothing.
    A :class:`Proved` set carries its heaviest weight; for any other
    collection it takes one pass.  The closure keeps the full bound B, so
    every answer, and every closure run, is the one the window alone
    gives.  Each label is read only when the proof reaches it, so a proof
    that ends at the first ops reads no more of the family.

    ``failed``, a list that one battery passes to every probe, with one op
    family, window and space, keeps the closures that answered False and
    are *settled*: the closure ran to its end (it stops early only at a
    state of ``cyclic``), dropped no image it applied (``dropped``), and no
    label declares exterior ``modes``.  A settled closure of a generator g
    is K(g) (``closure``).  A later monomial v answers False with no
    closure of its own when a kept basis S holds v as a pure row and holds
    no state of the current ``cyclic``.  K is monotone: S is closed and
    holds v, so it holds K(v), which therefore reaches no state of
    ``cyclic``, and neither does the closure of v, which lies in K(v).
    """
    bound = space.int_bound(cfg.bound)
    if not v.is_zero() and _admissible(v, cfg, bound):
        heaviest = cyclic.heaviest if isinstance(cyclic, Proved) else max(map(int_weight, cyclic), default=0)
        reach = min(bound, heaviest)
        for w in chain([v], (op(v) for op in _live(v, _declarations(ops), cfg, reach))):
            if len(w.terms) == 1 and next(iter(w.terms)) in cyclic and _admissible(w, cfg, bound):
                return True
        if failed and len(v.terms) == 1 and any(
            basis.holds_any(v.terms) and not basis.holds_any(cyclic) for basis in failed
        ):
            return False
    # positional, so a wrapper of ``closure`` with its own keyword names works
    basis = closure([v], ops, cfg, space, cyclic)
    if basis.holds_any(cyclic):
        return True
    if failed is not None and not basis.dropped and not any(getattr(label, "modes", ()) for label, _ in ops):
        failed.append(basis)
    return False


def joint_kernel(ann_ops: OpFamily, piece: Sequence, space: Space) -> SpanBasis:
    """Exact joint kernel of the annihilators on the span of ``piece``.

    ``piece`` lists basis keys; the result is the reduced row-echelon basis
    (over those keys) of the simultaneous kernel.  Each key s becomes one
    augmented row: its image under operator j with every output key tagged
    j, plus s itself tagged past the last operator, so every image key sorts
    before every key of ``piece``.  In the fully reduced echelon form a row
    whose pivot is a key of ``piece`` has no image part left, since a row's
    support lies at or above its pivot, and a combination with zero image
    is eliminated by such rows alone.  So those rows, with their tags
    dropped, are the kernel's reduced echelon basis.  An augmented row is
    over the lcm of its images' denominators, which keeps it canonical as
    in the ``SparseVec`` constructor.
    """
    tag = len(ann_ops)
    # only the order of the augmented keys is read
    augmented = SpanBasis(space._replace(sort_key=lambda k: (k[0], space.sort_key(k[1]))))
    for s in piece:
        vec = SparseVec.basis(s)
        images = [op(vec) for _, op in ann_ops]
        den = math.lcm(*(w.den for w in images))
        terms = {(tag, s): den}
        for j, w in enumerate(images):
            lift = den // w.den
            for out, n in w.terms.items():
                terms[j, out] = n * lift
        augmented.insert(SparseVec._of(terms, den))
    kernel = SpanBasis(space)
    for (j, s), row in augmented._rows.items():
        if j == tag:
            kernel._rows[s] = SparseVec._of({st: n for (_, st), n in row.terms.items()}, row.den)
    return kernel
