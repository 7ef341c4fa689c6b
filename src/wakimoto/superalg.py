"""Action of the N=4-style super mode algebra on the charged fermion space.

The algebra has even modes S(n), T(n), a central element C, and odd modes
G+(r), G-(r) with half-odd r, subject to

    {G+(r), G-(s)} = 2 S(r+s) + (r-s) T(r+s) + (C/3)(r^2 - 1/4) delta_{r+s,0},
    {G±(r), G±(s)} = 0,

with C acting as -3 here.  On the charged subspace twisted by a series chi
the odd modes act through the fermions:

    G+(i-1/2) = -i Psi+(i-1/2),
    G-(i-1/2) = (chi_0 - i) Psi-(i-1/2) + sum_{m != 0} chi_m Psi-(i-1/2-m),

and the even modes act by the scalars T(n) = -chi_n / 2 and
S(n) = -(n+1) chi_n / 4 (derived from the two auxiliary commuting currents,
one of which is twisted to zero).  Scalar modes never enlarge a span, so
operator families for closures consist of the odd modes only.

The module also provides the staircase vectors Omega_s, operator words of
G± modes, the lowering string ``G-(1/2) ... G-(ell-1/2)`` whose vacuum
coefficient on Omega_ell is a Schur polynomial value, the singular vector
of the vanishing case, and the operator family for span closures: what the
classifier and its verifier run.  Operator words hold G± modes only: a bare
fermion mode is not an element of the algebra.  ``lowering_string`` is the
one builder of the case-iii string; the classifier records it, and the
verifier derives it again rather than reading it from a certificate.  The
extraction onto staircase vectors and the ladder words of the paper's
proof are no runtime path; ``tests/oracles.py`` keeps them as the
reference the acceptance tests check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from .fock import (
    FOCK_SPACE,
    MINUS,
    PLUS,
    VACUUM,
    FermionState,
    Parts,
    _psi_sum,
    apply_psi_dmode,  # not called here: perfbench/tracer.py wraps superalg.apply_psi_dmode
    as_dmode,
    fmt_halfodd,
)
from .scalars import ChiSeries, ell_of
from .span import ClosureConfig, GradedLabel, SparseVec

__all__ = [
    "apply_Gplus",
    "apply_Gminus",
    "g_parts",
    "scalar_S",
    "scalar_T",
    "anticommutator_check",
    "same_species_anticommutator",
    "omega",
    "omega_vec",
    "OperatorWord",
    "apply_word",
    "lowering_string",
    "gminus_string_on_omega",
    "singular_w",
    "a_module_ops",
]

def g_parts(species: str, i: int, chi: ChiSeries | None) -> list[tuple[int, int]]:
    """The nonzero components of ``G<species>(i - 1/2)`` as (doubled mode, int) pairs.

    G+(i - 1/2) is the single component ``-i Psi+(i - 1/2)``, its int -i
    (none for i = 0); chi is not read.  Component m of G-(i - 1/2) is
    ``c_m Psi-(i - m - 1/2)``, with ``c_0 = chi_0 - i`` and ``c_m = chi_m``
    otherwise; its int is ``c_m * chi.denominator``.
    """
    if species == PLUS:
        return [(2 * i - 1, -i)] if i else []
    nums = chi.numerators
    parts = [(2 * i - 1, nums.get(0, 0) - i * chi.denominator)]
    parts += [(2 * (i - m) - 1, x) for m, x in nums.items() if m]
    return [(d, k) for d, k in parts if k]


def apply_Gplus(i: int, v: SparseVec) -> SparseVec:
    """Apply ``G+(i - 1/2)``, which acts as ``-i Psi+(i - 1/2)``."""
    return _psi_sum(+1, g_parts(PLUS, i, None), v)


def apply_Gminus(
    i: int, v: SparseVec, chi: ChiSeries, parts: Parts | None = None
) -> SparseVec:
    """Apply ``G-(i - 1/2)`` twisted by chi.

    The twist contributes one shifted ``Psi-`` mode per support index, so the
    sum is finite and exact — no truncation is involved.  ``parts`` is a
    subset of ``g_parts(MINUS, i, chi)`` to sum instead of all of them; the
    closure family passes the components that can act on its window.
    """
    if parts is None:
        parts = g_parts(MINUS, i, chi)
    return _psi_sum(-1, parts, v, chi.denominator)


def scalar_T(n: int, chi: ChiSeries) -> Fraction:
    """Scalar by which T(n) acts on the twisted charged subspace."""
    return -chi.coeff(n) / 2


def scalar_S(n: int, chi: ChiSeries) -> Fraction:
    """Scalar by which S(n) acts on the twisted charged subspace."""
    return -Fraction(n + 1) * chi.coeff(n) / 4


def anticommutator_check(r, s, v: SparseVec, chi: ChiSeries) -> bool:
    """Verify {G+(r), G-(s)} v against the even-mode scalars (C = -3)."""
    dr, ds = as_dmode(r), as_dmode(s)
    i, j = (dr + 1) // 2, (ds + 1) // 2
    lhs = apply_Gplus(i, apply_Gminus(j, v, chi)) + apply_Gminus(j, apply_Gplus(i, v), chi)
    n = (dr + ds) // 2
    scalar = 2 * scalar_S(n, chi) + Fraction(dr - ds, 2) * scalar_T(n, chi)
    if dr + ds == 0:
        scalar += -(Fraction(dr, 2) ** 2 - Fraction(1, 4))
    return lhs == scalar * v


def same_species_anticommutator(species: str, r, s, v: SparseVec, chi: ChiSeries) -> SparseVec:
    """{G(species)(r), G(species)(s)} v — must vanish identically."""
    dr, ds = as_dmode(r), as_dmode(s)
    i, j = (dr + 1) // 2, (ds + 1) // 2
    g = apply_Gplus if species == PLUS else partial(apply_Gminus, chi=chi)
    return g(i, g(j, v)) + g(j, g(i, v))


# ---------------------------------------------------------------------------
# staircase vectors
# ---------------------------------------------------------------------------


def omega(s: int) -> FermionState:
    """Staircase monomial ``Psi+(-s-1/2) ... Psi+(-3/2) |0>`` of charge s."""
    if s < 1:
        raise ValueError("omega(s) requires s >= 1")
    return FermionState((), tuple(range(2 * s + 1, 1, -2)))


def omega_vec(s: int) -> SparseVec:
    return SparseVec.basis(omega(s))


# ---------------------------------------------------------------------------
# operator words
# ---------------------------------------------------------------------------

_WORD_OPS = ("G+", "G-")


class OperatorWord(namedtuple("OperatorWord", "ops")):
    """A product of odd modes of the algebra, applied right to left.

    Entries are (label, doubled mode) pairs with label "G+" or "G-".
    """

    __slots__ = ()

    def __new__(cls, ops=()):
        for label, d in ops:
            if label not in _WORD_OPS:
                raise ValueError(f"unknown operator label {label!r}")
            if not isinstance(d, int) or d % 2 == 0:
                raise ValueError(f"mode must be a doubled odd integer, got {d!r}")
        return super().__new__(cls, ops)

    @classmethod
    def _make(cls, fields):  # and so _replace, which copies through it
        return cls(*fields)

    def to_json_obj(self) -> list[dict]:
        return [{"op": label, "mode": fmt_halfodd(d)} for label, d in self.ops]

    def __str__(self) -> str:
        if not self.ops:
            return "1"
        return " ".join(f"{label}({fmt_halfodd(d)})" for label, d in self.ops)


def apply_word(word: OperatorWord, v: SparseVec, chi: ChiSeries | None = None) -> SparseVec:
    """Apply an operator word (rightmost factor first)."""
    for label, d in reversed(word.ops):
        if label == "G+":
            v = apply_Gplus((d + 1) // 2, v)
        elif chi is None:
            raise ValueError("G- factors need a twist series")
        else:
            v = apply_Gminus((d + 1) // 2, v, chi)
    return v


# ---------------------------------------------------------------------------
# the lowering string and the singular vector
# ---------------------------------------------------------------------------


def lowering_string(ell: int) -> OperatorWord:
    """``G-(1/2) ... G-(ell-1/2)``, the string case iii applies to Omega_ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return OperatorWord(tuple(("G-", 2 * i - 1) for i in range(1, ell + 1)))


def gminus_string_on_omega(ell: int, chi: ChiSeries) -> Fraction:
    """Vacuum coefficient of ``lowering_string(ell)`` applied to Omega_ell.

    Requires a pole-free twist with ``chi_0 = ell + 1``.  All modes in the
    string annihilate, so the image lies on the vacuum line; the coefficient
    equals ``(-1)^ell ell! S_ell(-chi)``, which tests check independently.
    """
    if ell_of(chi) != ell:
        raise ValueError(f"twist must be pole-free with chi_0 = {ell + 1}")
    v = apply_word(lowering_string(ell), omega_vec(ell), chi)
    residue = {st for st in v.terms if st != VACUUM}
    if residue:
        raise RuntimeError(f"lowering string left non-vacuum terms: {sorted(map(str, residue))}")
    return v.coeff(VACUUM)


def singular_w(ell: int, chi: ChiSeries) -> SparseVec:
    """``w = G-(3/2) ... G-(ell-1/2) Omega_ell`` (just ``Omega_1`` for ell=1).

    That is the lowering string less its leftmost factor G-(1/2).  When ``S_ell(-chi) = 0`` this vector is annihilated by every positive
    G mode and generates a proper submodule.
    """
    if ell_of(chi) != ell:
        raise ValueError(f"twist must be pole-free with chi_0 = {ell + 1}")
    return apply_word(OperatorWord(lowering_string(ell).ops[1:]), omega_vec(ell), chi)


# ---------------------------------------------------------------------------
# operator family for span closures
# ---------------------------------------------------------------------------


def a_module_ops(chi: ChiSeries, cfg: ClosureConfig) -> list[tuple[str, object]]:
    """The odd modes, and the components of them, that can act in the window.

    A closure applies its family to window vectors alone, and it drops an
    image unless every monomial of it lies in the window.  Let B be the
    window's reach ``cfg.bound``, cutoff plus excursion.  Every factor of a
    window monomial weighs at most B, since factors have positive weight.  A
    single mode ``Psi±(d/2)`` annihilates a factor of weight d/2 (d > 0) or
    creates one of weight -d/2 (d < 0).  Each odd mode is the sum of its
    components ``g_parts``: G+(i-1/2) the single one -i Psi+(i-1/2), and
    G-(i-1/2) the c_m Psi-(i-m-1/2).  One rule serves both species:

    * A mode is omitted when one component with a nonzero coefficient
      *creates* a factor of weight -d/2 > B.  On window monomials that
      component is injective with signs ±1: no window monomial holds a
      factor that heavy, so nothing vanishes by exclusion, and removing
      the factor gives the monomial back.  No other component produces a
      monomial holding that factor: each other creator makes a factor of
      another mode, and an annihilator makes none.  So the image of a
      nonzero window vector keeps that component's terms, each heavier
      than B, and the closure drops it.
    * A kept mode sums only its components that can act on a window
      monomial.  A component that *annihilates* a factor heavier than B is
      zero on the window, so leaving it out changes no image of a window
      vector.  A mode with no component left is zero on the window and is
      omitted.

    So G+(i-1/2) is kept exactly for i != 0 and |2i - 1| <= 2B, with its
    single component whole.  Each kept component has |d| <= 2B, so a kept
    mode lies within B of m + 1/2 for some m in {0} and the support of chi,
    and only those are tried.  A tail index far below the window adds no
    mode: near it, the component ``chi_0 - i`` creates a factor of weight
    1/2 - i > B.  Every image the closure admits is the same as under the
    whole family, so the span, its reports and every certificate are
    unchanged.  S(n) and T(n) act as scalars and never enlarge a span, so
    they are deliberately absent.  The ops still call ``apply_Gplus`` and
    ``apply_Gminus``, the G- ops with their parts bound.

    Each label is a ``span.GradedLabel`` built from the bound components:
    charge shift +1 for G+ and -1 for G- (every Psi± component moves the
    charge by ±1), and the components' doubled modes.  With them the
    closure skips a row r on which the op is useless, by two rules that
    ``span.closure`` proves.  Zero rule: when every component annihilates
    and no monomial of r holds a factor one removes (in ``lam`` for Psi+,
    in ``mu`` for Psi-), the image is 0.  Top-component rule: let d0 be
    the least doubled mode, t the top int weight of r and B the doubled
    bound.  When t - d0 > B and the creator Psi±(d0/2) is not killed on
    some weight-t monomial of r (it is killed where its factor is already
    present), it maps the weight-t part of r injectively, with signs ±1,
    to int weight t - d0, and no other component reaches that weight from
    a monomial of r: the image holds a monomial heavier than B.  No
    ``creates`` is declared: a creator kills the monomials that hold its
    factor, so the image of a vector need not be heavier than the vector.
    """
    # the doubled weight bound: a factor weighs |d|/2 <= B iff |d| <= top
    top = FOCK_SPACE.int_bound(cfg.bound)
    # the j with |2j - 1| <= top: ceil((1 - top) / 2) <= j <= floor((1 + top) / 2)
    near = range(-((top - 1) // 2), (top + 1) // 2 + 1)
    tried = sorted({m + k for m in {0, *chi.support} for k in near})
    ops: list[tuple[str, object]] = []
    for species, shift, bind in (
        (PLUS, 1, lambda i, parts: partial(apply_Gplus, i)),
        (MINUS, -1, lambda i, parts: partial(apply_Gminus, i, chi=chi, parts=parts)),
    ):
        for i in tried:
            parts = g_parts(species, i, chi)
            # the lowest doubled mode: does a component create a factor heavier than B?
            if not parts or min(parts)[0] < -top:
                continue
            parts = tuple((d, k) for d, k in parts if d <= top)
            if parts:
                label = GradedLabel(f"G{species}({fmt_halfodd(2 * i - 1)})", shift,
                                    modes=(d for d, _ in parts))
                ops.append((label, bind(i, parts)))
    return ops
