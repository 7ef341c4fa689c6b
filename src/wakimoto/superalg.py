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

The module also provides the staircase vectors Omega_s, the extraction
procedure that maps any nonzero vector of the charged subspace onto a
staircase vector by raising modes, the lowering string
``G-(1/2) ... G-(ell-1/2)`` whose vacuum coefficient on Omega_ell is a Schur
polynomial value, and the ladder words connecting staircase vectors of
different heights.  Operator words hold G± modes only: a bare fermion mode
is not an element of the algebra.  ``lowering_string`` is the one builder of
the case-iii string; the classifier records it, and the verifier derives it
again rather than reading it from a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Optional

from .fock import (
    PLUS,
    VACUUM,
    FermionState,
    FermionVec,
    _psi_core,
    apply_psi_dmode,  # not called here: perfbench/tracer.py wraps superalg.apply_psi_dmode
    as_dmode,
    charge,
    check_tilde,
    fmt_halfodd,
    state_key,
    weight,
)
from .scalars import ChiSeries, ell_of
from .span import ClosureConfig, Space

__all__ = [
    "FOCK_SPACE",
    "apply_Gplus",
    "apply_Gminus",
    "scalar_S",
    "scalar_T",
    "anticommutator_check",
    "same_species_anticommutator",
    "omega",
    "omega_vec",
    "OperatorWord",
    "apply_word",
    "Extraction",
    "extract_omega",
    "lowering_string",
    "gminus_string_on_omega",
    "singular_w",
    "lowering_ladder_word",
    "raising_ladder_word",
    "vacuum_filling_word",
    "a_module_ops",
]

FOCK_SPACE = Space(weight_of=weight, charge_of=charge, sort_key=state_key)


def apply_Gplus(i: int, v: FermionVec) -> FermionVec:
    """Apply ``G+(i - 1/2)``, which acts as ``-i Psi+(i - 1/2)``."""
    if i == 0:
        return FermionVec.zero()
    d = 2 * i - 1
    out: dict[FermionState, Fraction] = {}
    for st, c in v.terms.items():
        hit = _psi_core(+1, d, st)
        if hit is not None:
            out[hit[0]] = c * (-i * hit[1])
    return FermionVec._of(out)


def apply_Gminus(i: int, v: FermionVec, chi: ChiSeries) -> FermionVec:
    """Apply ``G-(i - 1/2)`` twisted by chi.

    The twist contributes one shifted ``Psi-`` mode per support index, so the
    sum below is finite and exact — no truncation is involved.  Components
    that land on the same monomial are summed as ints over one common
    denominator, so each output coefficient is a single Fraction.
    """
    terms = v.terms
    if not terms:
        return FermionVec.zero()
    nums = chi.numerators
    # (doubled mode, component coefficient * chi.denominator)
    parts = [(2 * i - 1, nums.get(0, 0) - i * chi.denominator)]
    parts += [(2 * (i - m) - 1, x) for m, x in nums.items() if m]
    den = math.lcm(*(c.denominator for c in terms.values()))
    scaled = [(st, c.numerator * (den // c.denominator)) for st, c in terms.items()]
    acc: dict[FermionState, int] = {}
    get = acc.get
    for d, k in parts:
        if not k:
            continue
        for st, p in scaled:
            hit = _psi_core(-1, d, st)
            if hit is not None:
                out = hit[0]
                acc[out] = get(out, 0) + hit[1] * k * p
    den *= chi.denominator
    return FermionVec._of({st: Fraction(num, den) for st, num in acc.items() if num})


def scalar_T(n: int, chi: ChiSeries) -> Fraction:
    """Scalar by which T(n) acts on the twisted charged subspace."""
    return -chi.coeff(n) / 2


def scalar_S(n: int, chi: ChiSeries) -> Fraction:
    """Scalar by which S(n) acts on the twisted charged subspace."""
    return -Fraction(n + 1) * chi.coeff(n) / 4


def anticommutator_check(r, s, v: FermionVec, chi: ChiSeries) -> bool:
    """Verify {G+(r), G-(s)} v against the even-mode scalars (C = -3)."""
    dr, ds = as_dmode(r), as_dmode(s)
    i, j = (dr + 1) // 2, (ds + 1) // 2
    lhs = apply_Gplus(i, apply_Gminus(j, v, chi)) + apply_Gminus(j, apply_Gplus(i, v), chi)
    n = (dr + ds) // 2
    scalar = 2 * scalar_S(n, chi) + Fraction(dr - ds, 2) * scalar_T(n, chi)
    if dr + ds == 0:
        scalar += -(Fraction(dr, 2) ** 2 - Fraction(1, 4))
    return lhs == scalar * v


def same_species_anticommutator(species: str, r, s, v: FermionVec, chi: ChiSeries) -> FermionVec:
    """{G(species)(r), G(species)(s)} v — must vanish identically."""
    dr, ds = as_dmode(r), as_dmode(s)
    i, j = (dr + 1) // 2, (ds + 1) // 2
    if species == PLUS:
        return apply_Gplus(i, apply_Gplus(j, v)) + apply_Gplus(j, apply_Gplus(i, v))
    return apply_Gminus(i, apply_Gminus(j, v, chi), chi) + apply_Gminus(
        j, apply_Gminus(i, v, chi), chi
    )


# ---------------------------------------------------------------------------
# staircase vectors
# ---------------------------------------------------------------------------


def omega(s: int) -> FermionState:
    """Staircase monomial ``Psi+(-s-1/2) ... Psi+(-3/2) |0>`` of charge s."""
    if s < 1:
        raise ValueError("omega(s) requires s >= 1")
    return FermionState((), tuple(range(2 * s + 1, 1, -2)))


def omega_vec(s: int) -> FermionVec:
    return FermionVec.basis(omega(s))


# ---------------------------------------------------------------------------
# operator words
# ---------------------------------------------------------------------------

_WORD_OPS = ("G+", "G-")


@dataclass(frozen=True)
class OperatorWord:
    """A product of odd modes of the algebra, applied right to left.

    Entries are (label, doubled mode) pairs with label "G+" or "G-".
    """

    ops: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for label, d in self.ops:
            if label not in _WORD_OPS:
                raise ValueError(f"unknown operator label {label!r}")
            if not isinstance(d, int) or d % 2 == 0:
                raise ValueError(f"mode must be a doubled odd integer, got {d!r}")

    def __len__(self) -> int:
        return len(self.ops)

    def to_json_obj(self) -> list[dict]:
        return [{"op": label, "mode": fmt_halfodd(d)} for label, d in self.ops]

    def __str__(self) -> str:
        if not self.ops:
            return "1"
        return " ".join(f"{label}({fmt_halfodd(d)})" for label, d in self.ops)


def apply_word(word: OperatorWord, v: FermionVec, chi: Optional[ChiSeries] = None) -> FermionVec:
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
# extraction onto staircase vectors
# ---------------------------------------------------------------------------


class Extraction(NamedTuple):
    word: OperatorWord
    omega_index: Optional[int]  # None means the extraction lands on the vacuum
    scalar: Fraction


def extract_omega(v: FermionVec) -> Extraction:
    """Build a raising word sending v onto a nonzero multiple of a staircase.

    The word uses only G+ modes, hence is twist-independent.  Writing
    v = sum C_{lam,mu} v_{lam,mu}: take the longest lam (lexicographically
    largest on ties), annihilate it with G+(lam_i); among the surviving mu
    pick the shortest (again lexicographically largest), and top it up to a
    full staircase with creating G+ modes.  Every other term dies either for
    lack of a Psi- factor or by exclusion, so the image is exactly
    scalar * Omega_s (or scalar * |0> when only the bare minus-word remains).
    """
    if v.is_zero():
        raise ValueError("cannot extract from the zero vector")
    if not check_tilde(v):
        raise ValueError("extraction is defined on the charged subspace only")
    states = v.terms
    ell = max(len(st.lam) for st in states)
    lam_bar = max(st.lam for st in states if len(st.lam) == ell)
    t1 = sorted({st.mu for st in states if st.lam == lam_bar})
    ops: list[tuple[str, int]] = []
    if t1 == [()]:
        target = VACUUM
        index: Optional[int] = None
    else:
        ell1 = min(len(mu) for mu in t1)
        mu_bar = max(mu for mu in t1 if len(mu) == ell1)
        s = (max(mu[0] for mu in t1 if mu) - 1) // 2
        staircase = tuple(range(2 * s + 1, 1, -2))
        if ell1 == s:
            t: tuple[int, ...] = ()
        elif ell1 == 0:
            t = staircase
        else:
            t = tuple(sorted(set(staircase) - set(mu_bar), reverse=True))
        ops += [("G+", -d) for d in t]
        target = omega(s)
        index = s
    ops += [("G+", d) for d in lam_bar]
    word = OperatorWord(tuple(ops))
    image = apply_word(word, v)
    if set(image.terms) != {target}:
        raise RuntimeError(f"extraction inconsistency: image {image!r} is not a multiple of {target}")
    return Extraction(word, index, image.terms[target])


# ---------------------------------------------------------------------------
# lowering strings and ladders
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


def singular_w(ell: int, chi: ChiSeries) -> FermionVec:
    """``w = G-(3/2) ... G-(ell-1/2) Omega_ell`` (just ``Omega_1`` for ell=1).

    That is the lowering string less its leftmost factor G-(1/2).  When ``S_ell(-chi) = 0`` this vector is annihilated by every positive
    G mode and generates a proper submodule.
    """
    if ell_of(chi) != ell:
        raise ValueError(f"twist must be pole-free with chi_0 = {ell + 1}")
    return apply_word(OperatorWord(lowering_string(ell).ops[1:]), omega_vec(ell), chi)


def lowering_ladder_word(s: int, target: int) -> OperatorWord:
    """``G-(target+3/2) ... G-(s+1/2)`` taking Omega_s down to Omega_target.

    ``target = 0`` descends all the way to the vacuum.  Applied to Omega_s
    the word yields ``prod_{k=target+1}^{s} (ell - k)`` times the target
    vector, where ``ell = chi_0 - 1``.
    """
    if not 0 <= target < s:
        raise ValueError("need 0 <= target < s")
    return OperatorWord(tuple(("G-", 2 * i - 1) for i in range(target + 2, s + 2)))


def raising_ladder_word(s: int, target: int) -> OperatorWord:
    """``G+(-target-1/2) ... G+(-s-3/2)`` raising Omega_s up to Omega_target.

    ``s = 0`` starts from the vacuum.  The image is ``target!/s!`` times the
    target staircase vector.
    """
    if not 0 <= s < target:
        raise ValueError("need 0 <= s < target")
    return OperatorWord(tuple(("G+", -(2 * j + 1)) for j in range(target, s, -1)))


def vacuum_filling_word(n_top: int) -> OperatorWord:
    """``G-(-n-1/2) ... G-(-1/2)`` building the dense minus staircase from |0>."""
    if n_top < 0:
        raise ValueError("n_top must be >= 0")
    return OperatorWord(tuple(("G-", -(2 * k + 1)) for k in range(n_top, -1, -1)))


# ---------------------------------------------------------------------------
# operator family for span closures
# ---------------------------------------------------------------------------


def a_module_ops(chi: ChiSeries, cfg: ClosureConfig) -> list[tuple[str, object]]:
    """All odd modes that can act inside the truncation window.

    G+(i-1/2) shifts weight by 1/2 - i; G-(i-1/2) additionally carries the
    twist-shifted components 1/2 - i + m for m in the support of chi.  Modes
    whose every component shifts weight by more than the window's bound
    send each vector of the window to zero or outside it, so they are
    omitted.  S(n) and T(n) act as scalars and never enlarge a span, so they
    are deliberately absent.
    """
    bound = cfg.weight_cutoff + cfg.excursion
    half = Fraction(1, 2)
    ops: list[tuple[str, object]] = []
    lo_p = math.ceil(half - bound)
    hi_p = math.floor(half + bound)
    for i in range(lo_p, hi_p + 1):
        if i == 0:
            continue
        ops.append((f"G+({fmt_halfodd(2 * i - 1)})", partial(apply_Gplus, i)))
    # one small interval per index, not their hull: a far tail index adds
    # its own few modes instead of every mode in between
    modes: set[int] = set()
    for m in {0} | set(chi.support):
        modes.update(range(math.ceil(m + half - bound), math.floor(m + half + bound) + 1))
    for i in sorted(modes):
        ops.append((f"G-({fmt_halfodd(2 * i - 1)})", partial(apply_Gminus, i, chi=chi)))
    return ops
