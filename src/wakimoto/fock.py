"""Charged free-fermion Fock space over the rationals.

Two families of odd generators ``Psi+(r)`` and ``Psi-(r)`` indexed by
half-odd modes ``r`` satisfy

    {Psi+(r), Psi-(s)} = delta_{r+s,0},      {Psi±(r), Psi±(s)} = 0,

and positive modes kill the vacuum ``|0>``.  A basis vector is the canonical
word

    Psi-(-lam_1) ... Psi-(-lam_r) Psi+(-mu_1) ... Psi+(-mu_s) |0>

with ``lam`` and ``mu`` strictly decreasing tuples of positive half-odds.
The whole space F allows ``mu_j >= 1/2``; the charged subspace (the kernel
of ``Psi-(1/2)``) is spanned by words with ``mu_j >= 3/2``, and that smaller
space is where the twisted module structure lives.  Vectors carry no flag
for it: a vector lies in the charged subspace exactly when no term of its
support has a ``mu`` entry 1/2.  Vectors are the engine's
:class:`~wakimoto.span.SparseVec`.

Half-odd modes are stored as doubled odd integers so every index computation
stays integral.  So a monomial's int weight is its doubled weight, and
``FOCK_SPACE`` has weight scale 2; weights are returned as exact
``Fraction`` values.

A single mode ``Psi±(r)`` acts on one monomial in closed form
(``_psi_core``): an annihilator removes one entry from ``lam`` or ``mu``, a
creator inserts one, and the result is one monomial with an ``int`` sign, or
zero.  One loop over that core (``_psi_sum``) applies an int combination of
single modes to a vector, on int numerators over its denominator: one mode
for :func:`apply_psi_dmode` (which takes the doubled mode), the components
of a G± mode for ``superalg``.  The word rewriting oracle in the tests is
its reference.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import itemgetter

from .span import Monomial, Space, SparseVec, charge

__all__ = [
    "PLUS",
    "MINUS",
    "FermionState",
    "FOCK_SPACE",
    "VACUUM",
    "vacuum_vec",
    "parse_state",
    "vec_from_json_obj",
    "weight",
    "charge",
    "apply_psi_dmode",
    "enumerate_basis",
    "fmt_halfodd",
    "as_dmode",
]

PLUS = "+"
MINUS = "-"


def as_dmode(mode: Fraction | int | str) -> int:
    """Convert a half-odd mode to its doubled-integer representation."""
    if isinstance(mode, str):
        mode = Fraction(mode)
    d = 2 * Fraction(mode)
    if d.denominator != 1 or int(d) % 2 == 0:
        raise ValueError(f"mode must be half-odd, got {mode!r}")
    return int(d)


def fmt_halfodd(d: int) -> str:
    """Doubled odd integer -> literal like ``-3/2``."""
    return f"{d}/2"


_FERMION_TAG = 1


class FermionState(Monomial):
    """Canonical monomial ``(lam, mu)``: doubled, strictly decreasing, odd, >= 1.

    The :class:`~wakimoto.span.Monomial` ``(1, lam, mu)``: ``lam`` holds
    the Psi- modes and ``mu`` the Psi+ modes, so the charge is
    ``len(mu) - len(lam)``.
    """

    __slots__ = ()

    def __new__(cls, lam: tuple[int, ...] = (), mu: tuple[int, ...] = ()):
        for name, part in (("lam", lam), ("mu", mu)):
            last = None
            for d in part:
                if not isinstance(d, int) or d < 1 or d % 2 == 0:
                    raise ValueError(f"{name} entries must be positive doubled odd ints: {part}")
                if last is not None and d >= last:
                    raise ValueError(f"{name} must be strictly decreasing: {part}")
                last = d
        return tuple.__new__(cls, (_FERMION_TAG, lam, mu))

    lam = property(itemgetter(1))
    mu = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"FermionState(lam={self[1]!r}, mu={self[2]!r})"

    def __str__(self) -> str:
        parts = [f"Psi-(-{fmt_halfodd(d)})" for d in self.lam]
        parts += [f"Psi+(-{fmt_halfodd(d)})" for d in self.mu]
        parts.append("|0>")
        return " ".join(parts)


VACUUM = FermionState((), ())

FOCK_SPACE = Space(2)

weight = FOCK_SPACE.weight_of


def vacuum_vec() -> SparseVec:
    return SparseVec.basis(VACUUM)


_STATE_TOKEN_RE = re.compile(r"Psi([+-])\(-(\d+)/2\)\Z")


def parse_state(text: str) -> FermionState:
    """Inverse of ``str(FermionState)``; accepts only canonical words."""
    if not isinstance(text, str):
        raise ValueError(f"state text must be a string, got {text!r}")
    tokens = text.split()
    if not tokens or tokens[-1] != "|0>":
        raise ValueError(f"state text must end with |0>: {text!r}")
    lam: list[int] = []
    mu: list[int] = []
    for tok in tokens[:-1]:
        m = _STATE_TOKEN_RE.match(tok)
        if m is None:
            raise ValueError(f"bad factor {tok!r} in state text")
        (lam if m.group(1) == MINUS else mu).append(int(m.group(2)))
    return FermionState(tuple(lam), tuple(mu))


def vec_from_json_obj(obj) -> SparseVec:
    """Inverse of ``SparseVec.to_json_obj`` on fermion states."""
    from .scalars import parse_rational

    items = []
    for i, entry in enumerate(obj):
        state = parse_state(entry["state"])
        items.append((state, parse_rational(entry["value"], field=f"terms[{i}].value")))
    return SparseVec.from_items(items)


# ---------------------------------------------------------------------------
# single-generator action on one monomial
#
# On a basis monomial a single Psi mode gives zero or one monomial with sign
# +-1, and distinct monomials go to distinct monomials, so only a sum of
# several modes needs accumulation.  The core works on the ``lam``/``mu`` tuples
# directly; the word order is all of ``lam`` then all of ``mu``, and moving a
# generator past a factor costs a sign.
# ---------------------------------------------------------------------------

_tuple_new = tuple.__new__


def _state(lam: tuple[int, ...], mu: tuple[int, ...]) -> FermionState:
    """A FermionState from tuples that are canonical by construction."""
    return _tuple_new(FermionState, (_FERMION_TAG, lam, mu))


def _psi_core(sp: int, d: int, state: FermionState) -> tuple[FermionState, int] | None:
    """``Psi+(d/2)`` (sp = +1) or ``Psi-(d/2)`` (sp = -1) on one monomial.

    Returns ``(monomial, sign)`` or None for zero.  An annihilator (d > 0)
    contracts against the opposite-species factor of mode ``-d/2``: it
    removes ``d`` from ``lam`` for Psi+ and from ``mu`` for Psi-, and dies
    when that entry is absent.  A creator inserts ``-d`` into its own
    descending tuple, or vanishes by exclusion when the entry is present.
    The sign is (-1)^position of the factor in the word.
    """
    _, lam, mu = state
    if d > 0:
        part = lam if sp > 0 else mu
        if d not in part:
            return None
        i = part.index(d)
        rest = part[:i] + part[i + 1 :]
        if sp > 0:
            return _state(rest, mu), -1 if i & 1 else 1
        return _state(lam, rest), -1 if (len(lam) + i) & 1 else 1
    x = -d
    part = lam if sp < 0 else mu
    i = 0
    for e in part:
        if e <= x:
            if e == x:
                return None
            break
        i += 1
    grown = part[:i] + (x,) + part[i:]
    if sp < 0:
        return _state(grown, mu), -1 if i & 1 else 1
    return _state(lam, grown), -1 if (len(lam) + i) & 1 else 1


#: (doubled mode, int) components of a sum of single modes
Parts = Sequence[tuple[int, int]]


def _psi_sum(sp: int, parts: Parts, v: SparseVec, den: int = 1) -> SparseVec:
    """``sum (k / den) Psi<sp>(d/2) v`` over the (doubled mode d, int k) parts.

    Summed as ints: v's numerators times the parts' ints, over v's den times ``den``.
    """
    terms = v.terms
    acc: dict[FermionState, int] = {}
    for d, k in parts:
        for st, n in terms.items():
            hit = _psi_core(sp, d, st)
            if hit is not None:
                out, sign = hit
                if out in acc:
                    acc[out] += sign * k * n
                else:
                    acc[out] = sign * k * n
    if len(parts) > 1:
        # one mode maps distinct monomials to distinct ones; a sum can cancel
        acc = {st: n for st, n in acc.items() if n}
    # the surviving numerators may share a factor the lost ones did not
    return SparseVec._canonical(acc, v.den * den)


def apply_psi_dmode(species: str, dmode: int, v: SparseVec) -> SparseVec:
    """Apply ``Psi<species>(dmode/2)`` to a vector, in canonical form."""
    if species not in (PLUS, MINUS):
        raise ValueError(f"species must be '+' or '-', got {species!r}")
    if dmode % 2 == 0:
        raise ValueError(f"mode must be half-odd, got doubled value {dmode}")
    return _psi_sum(+1 if species == PLUS else -1, ((dmode, 1),), v)


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------


def _distinct_parts(min_d: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing tuples of odd ints >= min_d with sum <= budget."""
    yield ()
    p = min_d
    while p <= budget:
        for rest in _distinct_parts(p + 2, budget - p):
            yield (p,) + rest
        p += 2


def enumerate_basis(max_weight: Fraction, ambient: bool = False) -> list[FermionState]:
    """All basis monomials of weight <= max_weight, in the global basis order."""
    mw = Fraction(max_weight)
    if mw < 0:
        raise ValueError("max_weight must be >= 0")
    budget = int(2 * mw)  # floor of the doubled bound; exact for half-integral input
    mu_min = 1 if ambient else 3
    states: list[FermionState] = []
    for lam_asc in _distinct_parts(1, budget):
        rest = budget - sum(lam_asc)
        lam = tuple(reversed(lam_asc))
        for mu_asc in _distinct_parts(mu_min, rest):
            states.append(FermionState(lam, tuple(reversed(mu_asc))))
    states.sort(key=FermionState.sort_key)
    return states

