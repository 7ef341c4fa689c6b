"""Exact scalars and the twist series chi.

Every coefficient in this package is an exact rational, nothing is ever
rounded: a ``fractions.Fraction`` where it is read or written, and int
numerators over one int denominator inside vectors and twists.  A *twist* is a finitely supported Laurent series

    chi(z) = sum_m chi_m z^(-m-1),

stored as a map from the integer index ``m`` to the rational coefficient
``chi_m``.  Indices ``m > 0`` form the pole part; a twist with no pole and
integral ``chi_0`` determines the level ``ell = chi_0 - 1`` that drives the
irreducibility criterion.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

__all__ = [
    "ChiParseError",
    "ChiSeries",
    "MAX_CHI_INDEX",
    "MAX_ELL",
    "MAX_ENUM_WEIGHT",
    "MAX_ENUM_WINDOW",
    "MAX_PROBE_SUPPORT",
    "MAX_RELATION_MODE",
    "MAX_RELATION_POLE_WEIGHT",
    "MAX_RELATION_TRIALS",
    "parse_rational",
    "format_rational",
    "parse_chi",
    "pole_order",
    "ell_of",
]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class ChiParseError(ValueError):
    """Raised for malformed twist documents or rational literals."""


def parse_rational(text: str, field: str = "value") -> Fraction:
    """Parse an exact rational literal ``"p"`` or ``"p/q"``.

    The error message names the offending ``field`` so callers can surface
    useful diagnostics for nested documents.
    """
    if not isinstance(text, str):
        raise ChiParseError(f"{field}: expected a string rational, got {type(text).__name__}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ChiParseError(f"{field}: not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        raise ChiParseError(f"{field}: rational literal too long") from None
    if d == 0:
        raise ChiParseError(f"{field}: zero denominator in {text!r}")
    return Fraction(n, d)


# Most decimal digits format_rational writes for a numerator or denominator:
# Python's own default cap on int -> str, fixed here so that whether a
# number prints does not depend on the interpreter or its environment.
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS


def format_rational(q) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` in lowest terms.

    A numerator or denominator longer than ``_MAX_DIGITS`` digits raises
    :class:`ChiParseError`, which the CLI turns into exit 2.
    """
    q = Fraction(q)
    if q.denominator >= _TOO_LONG or abs(q.numerator) >= _TOO_LONG:
        raise ChiParseError(f"output: a rational with more than {_MAX_DIGITS} digits")
    return str(q)


_ZERO = Fraction(0)

# Largest |m| that parse_chi accepts.  Operator families grow with the
# largest index (the boson side spans every mode up to it), so an absurd
# index would ask for billions of operators before any work starts.
MAX_CHI_INDEX = 1000

# Largest ell = chi_0 - 1 that ``classify``, ``verify`` and
# ``probe-wakimoto`` accept, and the largest ``schur --ell``.  The lowering
# string applies ell modes to a staircase of ell factors, and the Schur
# recurrence sums ell^2 terms: on a 2-vCPU Xeon one ``classify`` process
# took 0.4 s at ell = 200 and 18-21 s at ell = 1000.
MAX_ELL = 200

# Largest weight and charge half-width of an enumerated basis window
# (``enumerate --max-weight/--window``, ``relations --weight/--window``).
# The boson window grows exponentially with the weight: at both caps it
# holds 66,494 monomials, and ``enumerate --space weyl`` takes about a
# second on a 2-vCPU Xeon.
MAX_ENUM_WEIGHT = 16
MAX_ENUM_WINDOW = 3
# Largest ``relations --max-mode`` and ``--trials``.  Each sampled vector
# is checked at every pair of modes, and the boson action caches its images
# of every mode on every monomial it meets: at all four caps
# ``relations --suite affine`` took about 10 s and 300 MB there.
MAX_RELATION_MODE = 4
MAX_RELATION_TRIALS = 10
# Largest pole weight, the sum of the positive chi indices, of an affine
# suite's twist.  Each pole j puts a*(j - n) into every f(n), and f0's bracket
# against it has about (j - n)/2 terms on every sampled monomial, so time and
# the bracket table's memory grow with the sum of the poles, not with the
# largest one or with the tail.  On a 2-vCPU Xeon at all four caps above, a
# lone pole at 1000 takes 7.5 s and 84 MB, fourteen poles 9, 18, ..., 126 with
# a tail of 1001 terms 19 s and 83 MB, and poles 1..300 (weight 45150) 50 s
# and 194 MB; every index from -1000 to 1000 (weight 500500) took 200 s and
# 447 MB at the default settings.
MAX_RELATION_POLE_WEIGHT = 1024
# Most nonzero coefficients of a ``probe-wakimoto`` twist.  Each index puts an
# a* term into every f(n) of the boson family, and each pole adds f modes: at
# the default probe window on a 2-vCPU Xeon, every index from -1000 to 1000
# took 11.4 s, and 64 indices, poles or tail, take at most 0.06 s.
MAX_PROBE_SUPPORT = 64


class ChiSeries:
    """Finitely supported twist coefficients ``m -> chi_m``.

    Immutable and hashable; zero coefficients are dropped on construction so
    two series are equal iff they have identical support and values.  The
    common denominator of the coefficients and their integer numerators over
    it are computed once, for the operator actions that sum over ints.
    """

    __slots__ = ("_items", "_map", "_den", "_nums")

    def __init__(self, coeffs: Mapping[int, object] | Iterable[tuple] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for m, val in items:
            if isinstance(m, bool) or not isinstance(m, int):
                raise ChiParseError(f"m: index must be an integer, got {m!r}")
            q = val if isinstance(val, Fraction) else Fraction(val)
            if m in acc:
                raise ChiParseError(f"m: duplicate index {m}")
            if q:
                acc[m] = q
        self._items: tuple[tuple[int, Fraction], ...] = tuple(sorted(acc.items()))
        self._map = dict(self._items)
        self._den = math.lcm(*(q.denominator for _, q in self._items))
        nums = {m: q.numerator * (self._den // q.denominator) for m, q in self._items}
        self._nums = MappingProxyType(nums)

    def coeff(self, m: int) -> Fraction:
        return self._map.get(m, _ZERO)

    @property
    def denominator(self) -> int:
        """Least common denominator of the coefficients (1 when chi = 0)."""
        return self._den

    @property
    def numerators(self) -> Mapping[int, int]:
        """``m -> chi_m * denominator`` as ints, in ascending ``m``."""
        return self._nums

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self._items)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    def is_zero(self) -> bool:
        return not self._items

    def to_json_obj(self) -> dict:
        return {"coeffs": [{"m": m, "value": format_rational(v)} for m, v in self._items]}

    def __eq__(self, other) -> bool:
        return isinstance(other, ChiSeries) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{m}: {v}" for m, v in self._items)
        return f"ChiSeries({{{body}}})"


def pole_order(chi: ChiSeries) -> int:
    """Largest positive support index, or 0 when the pole part vanishes."""
    return max((m for m in chi.support if m > 0), default=0)


def ell_of(chi: ChiSeries) -> int | None:
    """``chi_0 - 1`` when the twist has no pole part and integral ``chi_0``.

    Returns ``None`` otherwise; the classifier treats that as the generically
    irreducible regime.
    """
    if pole_order(chi) != 0:
        return None
    c0 = chi.coeff(0)
    if c0.denominator != 1:
        return None
    return int(c0) - 1


def parse_chi(doc: str | Mapping) -> ChiSeries:
    """Parse ``{"coeffs": [{"m": <int>, "value": "<p/q>"}, ...]}``.

    Accepts a JSON text or an already-decoded mapping.  Malformed JSON, a
    non-integer index, an index with ``|m| > MAX_CHI_INDEX``, a duplicate
    index, or a bad rational (including zero denominators) raise
    :class:`ChiParseError` naming the offending field.
    """
    if isinstance(doc, str):
        try:
            obj = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ChiParseError(f"malformed JSON: {exc}") from exc
    else:
        obj = doc
    if not isinstance(obj, Mapping):
        raise ChiParseError("document: expected a JSON object with a 'coeffs' list")
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list):
        raise ChiParseError("coeffs: expected a list of {m, value} entries")
    seen: set[int] = set()
    pairs: list[tuple[int, Fraction]] = []
    for idx, entry in enumerate(coeffs):
        if not isinstance(entry, Mapping):
            raise ChiParseError(f"coeffs[{idx}]: expected an object with 'm' and 'value'")
        if "m" not in entry:
            raise ChiParseError(f"coeffs[{idx}].m: missing")
        m = entry["m"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise ChiParseError(f"coeffs[{idx}].m: expected an integer, got {m!r}")
        if abs(m) > MAX_CHI_INDEX:
            raise ChiParseError(f"coeffs[{idx}].m: index {m} exceeds the cap |m| <= {MAX_CHI_INDEX}")
        if m in seen:
            raise ChiParseError(f"coeffs[{idx}].m: duplicate index {m}")
        seen.add(m)
        if "value" not in entry:
            raise ChiParseError(f"coeffs[{idx}].value: missing")
        q = parse_rational(entry["value"], field=f"coeffs[{idx}].value")
        if q:
            pairs.append((m, q))
    return ChiSeries(pairs)
