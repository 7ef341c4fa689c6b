"""Irreducibility classification of the twisted charged-fermion module.

``classify`` decides among five mutually exclusive cases by exact
arithmetic on the twist series chi, emits a certificate and reads the
verdict off it through one kind table.  ``decide`` reads the same verdict
off the certificate's scalar fields alone, running no closure.
``verify_certificate`` re-derives every claim from chi, in the window the
certificate records, and compares the record against it:

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

Positive closure facts (memberships) are exact proofs; negative facts are
evidence scoped to the closure window recorded in the certificate.  Each
reducible kind derives its closure facts once, in one function: ``classify``
records them and the verifier derives them again.  A fact the window cannot
show (a closure that never admitted Omega_ell, a state past the window's
reach) is recorded false, never vacuously true.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .fock import (
    FOCK_SPACE,
    VACUUM,
    FermionState,
    charge,
    enumerate_basis,
    fmt_halfodd,
    parse_state,
    vacuum_vec,
    vec_from_json_obj,
    weight,
)
from .scalars import MAX_ENUM_WEIGHT, ChiParseError, ChiSeries, ell_of, format_rational, pole_order
from .schur import schur_at_minus_chi
from .span import ClosureConfig, SpanBasis, SparseVec, closure, cyclic_probe
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


def _recorded(cert: Certificate, facts: dict, *names: str) -> bool:
    """Does the certificate record each named fact as its derived JSON value?"""
    return all(_same_json(cert.data.get(name), facts[name]) for name in names)


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


def _scalar_kind(chi: ChiSeries) -> tuple[str, dict]:
    """The certificate kind and the scalar fields its verdict repeats.

    Exact arithmetic on chi alone: no closure and no fermion vector.
    """
    p = pole_order(chi)
    ell = ell_of(chi)
    if p >= 1:
        return "pole", {"pole_order": p, "chi_p": format_rational(chi.coeff(p))}
    if ell is None or ell == 0:
        return "generic_weight", {"chi0": format_rational(chi.coeff(0))}
    if ell >= 1:
        sval = schur_at_minus_chi(ell, chi)
        if sval != 0:
            return "schur_nonzero", {"ell": ell, "schur_value": format_rational(sval)}
        return "schur_zero", {"ell": ell}
    return "neg_ell", {"ell": ell, "q": -ell - 1}


def decide(chi: ChiSeries) -> Verdict:
    """The verdict ``classify`` returns, without building its certificate.

    It is read off a certificate that holds only the scalar fields, so the
    reducible cases run no closure.
    """
    return _verdict_of(Certificate(*_scalar_kind(chi)))


def classify(chi: ChiSeries, cfg: ClosureConfig = DEFAULT_CFG) -> tuple[Verdict, Certificate]:
    """Decide irreducibility of the twisted module and build a certificate.

    The irreducible cases are settled by scalar arithmetic alone; the
    reducible cases additionally run the span engine inside ``cfg`` to
    attach concrete witness data.  The verdict is read off the certificate.
    """
    kind, data = _scalar_kind(chi)
    ell = data.get("ell")
    if kind == "schur_nonzero":
        data.update(
            lowering_word=lowering_string(ell).to_json_obj(),
            vacuum_coefficient=format_rational(gminus_string_on_omega(ell, chi)),
        )
    elif kind == "schur_zero":
        w = singular_w(ell, chi)
        data.update(_schur_zero_facts(ell, chi, cfg, w)[1], w=w.to_json_obj())
    elif kind == "neg_ell":
        data.update(_neg_ell_facts(data["q"], chi, cfg)[1])
    cert = Certificate(kind, {**data, "cfg": cfg.to_json_obj()})
    return _verdict_of(cert), cert


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _cyclic_probes(chi: ChiSeries, cfg: ClosureConfig, start_weight: Fraction) -> Check:
    """Probe every charged basis vector up to start_weight for cyclicity.

    The vacuum is cyclic by definition, so a window that admits no other
    generator shows nothing and fails the check.  States are probed in
    basis order, lighter first, and a probe stops at any state already
    proved cyclic.
    """
    ops = a_module_ops(chi, cfg)
    lo, hi = cfg.charge_window
    states = [st for st in enumerate_basis(start_weight) if lo <= charge(st) <= hi]
    known = {VACUUM}
    failures = []
    for st in states:
        if cyclic_probe(SparseVec.basis(st), known, ops, cfg, FOCK_SPACE):
            known.add(st)
        else:
            failures.append(str(st))
    n = len(states)
    detail = f"{n - len(failures)}/{n} generators cyclic"
    if not any(st != VACUUM for st in states):
        return Check("cyclic_probes", False, detail + "; no generator besides the vacuum")
    return Check("cyclic_probes", not failures, detail)


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


def _ell_fits(kind: str, p: int, ell: int | None, recorded) -> bool:
    """Is chi pole-free with ell on the kind's side, and is ell recorded?"""
    if p != 0 or ell is None:
        return False
    return (ell <= -1 if kind == "neg_ell" else ell >= 1) and _same_json(recorded, ell)


def _witness_checks(add, chi: ChiSeries, cert: Certificate, cfg: ClosureConfig, ell: int) -> None:
    """schur_zero: S_ell(-chi) vanishes, and the recorded w is singular."""
    sval = schur_at_minus_chi(ell, chi)
    add("schur_vanishes", sval == 0, f"S_{ell}(-chi)={format_rational(sval)}")
    try:
        recorded_w = vec_from_json_obj(cert.data.get("w", []))
    except (ValueError, KeyError, TypeError) as exc:
        add("witness_matches", False, f"unreadable witness: {exc}")
        return
    # the verifier, not the certificate, sets the range it checks
    basis, facts = _schur_zero_facts(ell, chi, cfg, recorded_w)
    add(
        "witness_matches",
        _recorded(cert, facts, "omega") and not recorded_w.is_zero()
        and _same_json(cert.data.get("w"), singular_w(ell, chi).to_json_obj()),
        f"{len(recorded_w.terms)} terms",
    )
    failures = facts["annihilation_failures"]
    add(
        "witness_annihilated",
        not failures and _recorded(cert, facts, "annihilation_range", "annihilation_failures"),
        f"modes n=1..{facts['annihilation_range']}"
        + (f"; failing: {failures}" if failures else ""),
    )
    add(
        "vacuum_excluded",
        facts["vacuum_excluded"] and _recorded(cert, facts, "vacuum_excluded", "closure"),
        f"closure dimension {basis.dimension()}",
    )


def _excluded_state_checks(add, chi: ChiSeries, cert: Certificate, cfg: ClosureConfig, ell: int) -> None:
    """neg_ell: the vacuum's closure misses Psi-(-q-1/2)|0> and is proper."""
    q = -ell - 1
    add("q", _same_json(cert.data.get("q"), q), f"q={q}")
    try:
        recorded_state = parse_state(cert.data.get("excluded_state", ""))
    except ValueError as exc:
        add("excluded_state", False, f"unreadable state: {exc}")
        return
    heavy, facts = _neg_ell_facts(q, chi, cfg)
    add("excluded_state", _recorded(cert, facts, "excluded_state"), str(recorded_state))
    detail = f"weight {fmt_halfodd(2 * q + 1)} monomial not reached"
    if heavy:
        detail += f"; heavier than the window bound {format_rational(cfg.bound)}"
    add("state_excluded", facts["excluded"] and _recorded(cert, facts, "excluded"), detail)
    closure_dim, full_dim = facts["closure_dimension"], facts["full_dimension"]
    add(
        "proper_within_window",
        closure_dim < full_dim
        and _recorded(cert, facts, "closure_dimension", "full_dimension", "closure"),
        f"closure {closure_dim} < full {full_dim}",
    )


def verify_certificate(
    chi: ChiSeries, verdict: Verdict, cert: Certificate, start_weight: Fraction | None = None
) -> Report:
    """Re-derive every certificate claim from chi, in the recorded window.

    Never raises on a failing claim — each one becomes a failed check in the
    report.  The window is ``recorded_cfg(cert)``, which raises
    ``ChiParseError`` on a missing, malformed or oversized record;
    ``start_weight`` bounds the generators probed for cyclicity in the
    irreducible cases (default: min(5/2, weight cutoff)).
    """
    cfg = recorded_cfg(cert)
    if start_weight is None:
        start_weight = min(Fraction(5, 2), cfg.weight_cutoff)
    checks: list[Check] = []

    def add(name: str, passed, detail: str = "") -> bool:
        checks.append(Check(name, bool(passed), detail))
        return bool(passed)

    kind = cert.kind
    derived = _verdict_of(cert)
    detail = f"kind={kind}, case={verdict.case}, status={verdict.status}"
    add(
        "verdict_matches_certificate",
        verdict == derived and _same_json(verdict.data, derived.data),
        detail,
    )
    if derived is None:
        return Report(tuple(checks))

    p = pole_order(chi)
    ell = ell_of(chi)

    if kind == "pole":
        ok_p = p >= 1 and _same_json(cert.data.get("pole_order"), p)
        add("pole_order", ok_p, f"pole_order={p}")
        lead = chi.coeff(p) if p >= 1 else Fraction(0)
        add(
            "pole_coefficient",
            ok_p and lead != 0 and format_rational(lead) == cert.data.get("chi_p"),
            f"chi_{p}={format_rational(lead)}",
        )
    elif kind == "generic_weight":
        add("pole_free", p == 0, f"pole_order={p}")
        chi0 = chi.coeff(0)
        add(
            "weight_generic",
            format_rational(chi0) == cert.data.get("chi0")
            and (chi0 == 1 or chi0.denominator != 1),
            f"chi0={format_rational(chi0)}",
        )
    # the other three kinds rest on ell = chi_0 - 1 and check nothing else without it
    elif add("ell", _ell_fits(kind, p, ell, cert.data.get("ell")), f"ell={ell}"):
        if kind == "schur_zero":
            _witness_checks(add, chi, cert, cfg, ell)
        elif kind == "neg_ell":
            _excluded_state_checks(add, chi, cert, cfg, ell)
        else:
            sval = schur_at_minus_chi(ell, chi)
            add(
                "schur_nonzero",
                sval != 0 and format_rational(sval) == cert.data.get("schur_value"),
                f"S_{ell}(-chi)={format_rational(sval)}",
            )
            coeff = gminus_string_on_omega(ell, chi)
            recorded = cert.data.get("vacuum_coefficient")
            add(
                "lowering_word_reaches_vacuum",
                cert.data.get("lowering_word") == lowering_string(ell).to_json_obj()
                and coeff != 0
                and coeff == math.factorial(ell) * (-1) ** ell * sval
                and recorded == format_rational(coeff),
                f"coefficient={recorded}",
            )
    # an irreducible verdict is only as good as the cyclicity it shows
    if derived.status == "irreducible":
        checks.append(_cyclic_probes(chi, cfg, start_weight))
    return Report(tuple(checks))
