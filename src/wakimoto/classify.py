"""Irreducibility classification of the twisted charged-fermion module.

``classify`` decides among five mutually exclusive cases by exact
arithmetic on the twist series chi, emits a certificate and reads the
verdict off it through one kind table.  Each certificate kind has one
derivation, ``_claims``: the claims such a certificate makes, in check
order, each with its condition on chi and the recorded fields it stands
on.  ``classify`` records those fields; ``decide`` takes only the scalar
claims, so it runs no closure; ``verify_certificate`` is one loop over the
claims of the certificate's kind, in the window the certificate records,
and a check passes when its condition holds and each of its fields is
recorded as derived:

* case "i"   — chi has a pole (some chi_m != 0 with m > 0): irreducible.
* case "ii"  — pole-free with chi_0 = 1 or chi_0 not an integer: irreducible.
* case "iii" — pole-free, ell = chi_0 - 1 >= 1 and S_ell(-chi) != 0:
  irreducible; the certificate records the lowering string
  G-(1/2) ... G-(ell-1/2), which sends the staircase vector Omega_ell to a
  nonzero multiple of the vacuum and which the verifier builds again.
* "schur_zero" — ell >= 1 but S_ell(-chi) = 0: reducible; the certificate
  carries the singular vector w annihilated by all positive modes, plus a
  truncated-closure run showing the vacuum is not reached from Omega_ell.
* "neg_ell"  — ell <= -1: reducible; with q = -ell - 1 the monomial
  Psi-(-q-1/2)|0> stays outside the truncated closure of the vacuum, whose
  graded dimension is strictly smaller than the full space in the window.

The scalar claims of the three irreducible kinds prove irreducibility of
the whole module, in no window (the triangular structure of G-, after
Adamović, CMP 270, 2007), so ``verify`` checks them and nothing else.  The
charged subspace F~ = ker Psi-(1/2) is the irreducible Fock module of the
Clifford algebra without the pair Psi+(-1/2), Psi-(1/2), so it is enough
that every other Psi± mode acts on F~ as an element of the G± algebra.
Psi+(i-1/2) = -G+(i-1/2)/i for i != 0.  G-(i-1/2) is triangular in the
Psi- modes: its lowest is Psi-(i-p-1/2) with coefficient chi_p at pole
order p >= 1, or Psi-(i-1/2) with chi_0 - i when p = 0.  So each Psi-(s)
is solved from G- lowest mode first, and on a vector of top weight W the
series ends once its modes pass W.  The lead coefficient vanishes only at
i = chi_0, an integer:

* at chi_0 = 1 the missing mode is Psi-(1/2), which is 0 on F~;
* at chi_0 = ell + 1 >= 2 the solve closes through Psi-(1/2).  Let lambda_r
  be the coefficient of Psi+(r) in u = sum_k S_k(-chi) Psi+(k + 1/2 - chi_0),
  which anticommutes with every G- mode.  Subtracting gamma Psi-(1/2), with
  gamma = lambda_{-s} / lambda_{-1/2}, first leaves a combination that u
  does not see, so the missing mode Psi-(ell+1/2) comes with coefficient 0;
  and lambda_{-1/2} = S_ell(-chi) != 0 in case iii.

``tests/oracles.py`` carries the solve out, and the tests check it against
``apply_Gminus``.

Positive closure facts (memberships) are exact proofs; negative facts are
evidence scoped to the closure window recorded in the certificate.  A fact
the window cannot show (a closure that never admitted Omega_ell, a state
past the window's reach) is recorded false, never vacuously true.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .fock import (
    FOCK_SPACE,
    FermionState,
    charge,
    enumerate_basis,
    fmt_halfodd,
    vacuum_vec,
    vec_from_json_obj,
    weight,
)
from .scalars import MAX_ENUM_WEIGHT, ChiParseError, ChiSeries, ell_of, format_rational, pole_order
from .schur import schur_at_minus_chi
from .span import ClosureConfig, SpanBasis, SparseVec, closure
from .span import cyclic_probe  # not called here: perfbench/tracer.py wraps classify.cyclic_probe
from .superalg import (
    a_module_ops,
    apply_Gminus,
    apply_Gplus,
    gminus_string_on_omega,
    lowering_string,
    omega,
    omega_vec,
    singular_w,
)

__all__ = [
    "DEFAULT_CFG",
    "Verdict",
    "Certificate",
    "Check",
    "Report",
    "classify",
    "decide",
    "recorded_cfg",
    "verify_certificate",
]

DEFAULT_CFG = ClosureConfig()


def _read_part(obj, part: str, fields: tuple[str, ...]) -> tuple:
    """The string ``fields`` and the ``data`` object of one document part."""
    if not isinstance(obj, dict):
        raise ChiParseError(f"{part}: expected an object")
    values = [obj[name] for name in fields]
    for name, value in zip(fields, values):
        if not isinstance(value, str):
            raise ChiParseError(f"{part}.{name}: expected a string")
    data = obj.get("data", {})
    if not isinstance(data, dict):
        raise ChiParseError(f"{part}.data: expected an object")
    return (*values, dict(data))


class Verdict(namedtuple("Verdict", "status case data")):
    # status "irreducible" | "reducible"; case "i" | "ii" | "iii" | "schur_zero" | "neg_ell"
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {"status": self.status, "case": self.case, "data": dict(self.data)}

    @classmethod
    def from_json_obj(cls, obj) -> "Verdict":
        return cls(*_read_part(obj, "verdict", ("status", "case")))


class Certificate(namedtuple("Certificate", "kind data")):
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "data": dict(self.data)}

    @classmethod
    def from_json_obj(cls, obj) -> "Certificate":
        return cls(*_read_part(obj, "certificate", ("kind",)))


# certificate kind -> (status, case, certificate fields the verdict repeats)
_KINDS = {
    "pole": ("irreducible", "i", ("pole_order", "chi_p")),
    "generic_weight": ("irreducible", "ii", ("chi0",)),
    "schur_nonzero": ("irreducible", "iii", ("ell", "schur_value")),
    "schur_zero": ("reducible", "schur_zero", ("ell",)),
    "neg_ell": ("reducible", "neg_ell", ("ell", "q")),
}


def _verdict_of(cert: Certificate) -> Verdict | None:
    """The verdict a certificate supports, or None for an unknown kind."""
    entry = _KINDS.get(cert.kind)
    if entry is None:
        return None
    status, case, fields = entry
    return Verdict(status, case, {name: cert.data.get(name) for name in fields})


def _same_json(recorded, derived) -> bool:
    """Are two values the same JSON text, so that ``true`` never stands in for 1?"""
    texts = [json.dumps(value, sort_keys=True, default=repr) for value in (recorded, derived)]
    return texts[0] == texts[1]


def _recorded(cert: Certificate, fields: dict) -> bool:
    """Does the certificate record each field as its derived JSON value?"""
    return all(_same_json(cert.data.get(name), value) for name, value in fields.items())


class Check(namedtuple("Check", "name passed detail", defaults=("",))):
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class Report(namedtuple("Report", "checks")):
    __slots__ = ()  # checks: a tuple of Check

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json_obj() for c in self.checks]}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _schur_zero_facts(
    ell: int, chi: ChiSeries, cfg: ClosureConfig, w: SparseVec
) -> tuple[SpanBasis, dict]:
    """The closure of Omega_ell and the facts a schur_zero certificate records.

    They are ``annihilation_range``, the G± modes n = 1..range checked on
    the witness ``w``, the ``annihilation_failures`` among them, ``omega``,
    ``vacuum_excluded`` and the report of Omega_ell's ``closure``.  A
    closure that never admitted Omega_ell, because Omega_ell lies outside
    the window, excludes nothing, so ``vacuum_excluded`` is false on it.
    """
    nmax = max(4, ell + 2)
    failures = []
    for n in range(1, nmax + 1):
        if not apply_Gplus(n, w).is_zero():
            failures.append(f"G+({fmt_halfodd(2 * n - 1)})")
        if not apply_Gminus(n, w, chi).is_zero():
            failures.append(f"G-({fmt_halfodd(2 * n - 1)})")
    basis = closure([omega_vec(ell)], a_module_ops(chi, cfg), cfg, FOCK_SPACE)
    return basis, {
        "annihilation_range": nmax,
        "annihilation_failures": failures,
        "omega": str(omega(ell)),
        "vacuum_excluded": basis.dimension() > 0 and not basis.contains(vacuum_vec()),
        "closure": basis.report(),
    }


def _neg_ell_facts(q: int, chi: ChiSeries, cfg: ClosureConfig) -> tuple[bool, dict]:
    """Is Psi-(-q-1/2)|0> heavier than the window?  And the neg_ell facts.

    The facts are the ``excluded_state``, whether the truncated closure of
    the vacuum misses it (``excluded``), the dimensions of that closure and
    of the charged window up to the cutoff, and the closure's report.  A
    state heavier than the window is never reached, so that shows nothing:
    ``excluded`` is false for it.
    """
    state = FermionState((2 * q + 1,), ())
    heavy = weight(state) > cfg.bound
    basis = closure([vacuum_vec()], a_module_ops(chi, cfg), cfg, FOCK_SPACE)
    excluded = not basis.contains(SparseVec.basis(state)) and not heavy
    lo, hi = cfg.charge_window
    full_dim = sum(1 for st in enumerate_basis(cfg.weight_cutoff) if lo <= charge(st) <= hi)
    report = basis.report()
    return heavy, {
        "excluded_state": str(state),
        "excluded": excluded,
        "closure_dimension": report["dimension"],
        "full_dimension": full_dim,
        "closure": report,
    }


def _kind(chi: ChiSeries) -> tuple[str, Fraction | None]:
    """The kind of chi's certificate, and S_ell(-chi) when ell >= 1 (else None).

    Exact arithmetic on chi alone.  This is the one evaluation of S_ell(-chi)
    in a call: ``_claims`` reads it from here.
    """
    p, ell = pole_order(chi), ell_of(chi)
    if p >= 1:
        return "pole", None
    if not ell:
        return "generic_weight", None
    if ell <= -1:
        return "neg_ell", None
    sval = schur_at_minus_chi(ell, chi)
    return ("schur_nonzero" if sval != 0 else "schur_zero"), sval


def _pick(facts: dict, *names: str) -> dict:
    return {name: facts[name] for name in names}


def _claims(
    kind: str, chi: ChiSeries, cfg: ClosureConfig, record: dict | None, sval: Fraction | None
):
    """The claims a certificate of ``kind`` makes about chi, in check order.

    Each claim is (name, holds, detail, fields): ``holds`` is its condition
    on chi, and ``fields`` maps each recorded field the claim stands on to
    its derivation.  Together the fields are everything such a certificate
    records.  ``sval`` is S_ell(-chi) as ``_kind`` evaluates it.  The
    schur_zero witness is checked as ``record`` holds it (as derived when
    ``record`` is None).  Claims are derived as they are taken, so the
    scalar ones come before any closure runs.
    """
    p, ell = pole_order(chi), ell_of(chi)
    if kind == "pole":
        # chi_p != 0 once p >= 1: chi holds no zero coefficient
        lead = format_rational(chi.coeff(p))
        yield "pole_order", p >= 1, f"pole_order={p}", {"pole_order": p}
        yield "pole_coefficient", p >= 1, f"chi_{p}={lead}", {"pole_order": p, "chi_p": lead}
        return
    if kind == "generic_weight":
        chi0 = chi.coeff(0)
        yield "pole_free", p == 0, f"pole_order={p}", {}
        yield (
            "weight_generic", chi0 == 1 or chi0.denominator != 1,
            f"chi0={format_rational(chi0)}", {"chi0": format_rational(chi0)},
        )
        return
    # the other three kinds rest on ell = chi_0 - 1 and claim nothing else without it
    fits = ell is not None and (ell <= -1 if kind == "neg_ell" else ell >= 1)
    yield "ell", fits, f"ell={ell}", {"ell": ell}
    if not fits:
        return
    if kind == "neg_ell":
        q = -ell - 1
        yield "q", True, f"q={q}", {"q": q}
        heavy, facts = _neg_ell_facts(q, chi, cfg)
        yield "excluded_state", True, facts["excluded_state"], _pick(facts, "excluded_state")
        detail = f"weight {fmt_halfodd(2 * q + 1)} monomial not reached"
        if heavy:
            detail += f"; heavier than the window bound {format_rational(cfg.bound)}"
        yield "state_excluded", facts["excluded"], detail, _pick(facts, "excluded")
        closure_dim, full_dim = facts["closure_dimension"], facts["full_dimension"]
        yield (
            "proper_within_window", closure_dim < full_dim, f"closure {closure_dim} < full {full_dim}",
            _pick(facts, "closure_dimension", "full_dimension", "closure"),
        )
        return
    schur = f"S_{ell}(-chi)={format_rational(sval)}"
    if kind == "schur_nonzero":
        yield "schur_nonzero", sval != 0, schur, {"schur_value": format_rational(sval)}
        coeff = gminus_string_on_omega(ell, chi)
        yield (
            "lowering_word_reaches_vacuum",
            coeff != 0 and coeff == math.factorial(ell) * (-1) ** ell * sval,
            f"coefficient={format_rational(coeff)}",
            {"lowering_word": lowering_string(ell).to_json_obj(),
             "vacuum_coefficient": format_rational(coeff)},
        )
        return
    yield "schur_vanishes", sval == 0, schur, {}
    derived_w = singular_w(ell, chi).to_json_obj()
    try:
        w = vec_from_json_obj(derived_w if record is None else record.get("w", []))
    except (ValueError, KeyError, TypeError) as exc:
        yield "witness_matches", False, f"unreadable witness: {exc}", {"w": derived_w}
        return
    # the verifier, not the certificate, sets the range it checks
    basis, facts = _schur_zero_facts(ell, chi, cfg, w)
    yield (
        "witness_matches", not w.is_zero(), f"{len(w.terms)} terms",
        {"omega": facts["omega"], "w": derived_w},
    )
    failures = facts["annihilation_failures"]
    yield (
        "witness_annihilated", not failures,
        f"modes n=1..{facts['annihilation_range']}" + (f"; failing: {failures}" if failures else ""),
        _pick(facts, "annihilation_range", "annihilation_failures"),
    )
    yield (
        "vacuum_excluded", facts["vacuum_excluded"], f"closure dimension {basis.dimension()}",
        _pick(facts, "vacuum_excluded", "closure"),
    )


def decide(chi: ChiSeries) -> Verdict:
    """The verdict ``classify`` returns, without building its certificate.

    It takes the claims only until they hold the verdict's fields, so the
    reducible cases run no closure.
    """
    kind, sval = _kind(chi)
    data = {}
    for *_, fields in _claims(kind, chi, DEFAULT_CFG, None, sval):
        data.update(fields)
        if data.keys() >= set(_KINDS[kind][2]):
            return _verdict_of(Certificate(kind, data))


def classify(chi: ChiSeries, cfg: ClosureConfig = DEFAULT_CFG) -> tuple[Verdict, Certificate]:
    """Decide irreducibility of the twisted module and build a certificate.

    The certificate records every field its kind's claims derive: the
    irreducible cases by scalar arithmetic alone, the reducible cases with
    closures inside ``cfg``.  The verdict is read off the certificate.
    """
    kind, sval = _kind(chi)
    data = {}
    for *_, fields in _claims(kind, chi, cfg, None, sval):
        data.update(fields)
    cert = Certificate(kind, {**data, "cfg": cfg.to_json_obj()})
    return _verdict_of(cert), cert


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def recorded_cfg(cert: Certificate) -> ClosureConfig:
    """The window recorded in the certificate: the one window verify checks in.

    A missing, malformed or inverted record raises ``ChiParseError`` naming
    ``certificate.data.cfg``, and so does a window whose reach (cutoff +
    excursion) exceeds ``MAX_ENUM_WEIGHT``.
    """
    if "cfg" not in cert.data:
        raise ChiParseError("certificate.data.cfg: missing; verify reads no other window")
    try:
        cfg = ClosureConfig.from_json_obj(cert.data["cfg"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ChiParseError(f"certificate.data.cfg: not a valid window: {exc!r}") from None
    if cfg.bound > MAX_ENUM_WEIGHT:
        raise ChiParseError(
            f"certificate.data.cfg: must be <= {MAX_ENUM_WEIGHT}, got {format_rational(cfg.bound)}"
        )
    return cfg


def verify_certificate(
    chi: ChiSeries, verdict: Verdict, cert: Certificate, start_weight: Fraction | None = None
) -> Report:
    """Check each claim of the certificate's kind on chi, in the recorded window.

    A claim passes when its condition holds and the certificate records each
    of its fields as derived.  Never raises on a failing claim — each one
    becomes a failed check in the report.  The irreducible kinds are checked
    by their scalar claims alone, which prove the whole module irreducible
    (see the module docstring): the pole coefficient, chi_0 = 1 or chi_0 not
    an integer, or ell >= 1 with S_ell(-chi) != 0 and the lowering word.
    The window is ``recorded_cfg(cert)``, which raises ``ChiParseError`` on a
    missing, malformed or oversized record.  ``start_weight`` bounds nothing:
    it is accepted because the certify benchmark passes ``--start-weight``,
    and one below 0 or above the weight cutoff still raises ``ChiParseError``.
    """
    cfg = recorded_cfg(cert)
    if start_weight is not None and not 0 <= start_weight <= cfg.weight_cutoff:
        raise ChiParseError(
            f"--start-weight: must be >= 0 and must not exceed the weight cutoff "
            f"{format_rational(cfg.weight_cutoff)}, got {format_rational(start_weight)}"
        )
    derived = _verdict_of(cert)
    checks = [Check(
        "verdict_matches_certificate",
        verdict == derived and _same_json(verdict.data, derived.data),
        f"kind={cert.kind}, case={verdict.case}, status={verdict.status}",
    )]
    if derived is None:
        return Report(tuple(checks))
    for name, holds, detail, fields in _claims(cert.kind, chi, cfg, cert.data, _kind(chi)[1]):
        checks.append(Check(name, bool(holds) and _recorded(cert, fields), detail))
    return Report(tuple(checks))
