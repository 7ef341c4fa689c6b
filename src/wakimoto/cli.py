"""Command-line interface.

Subcommands:

* ``classify``        — classify a twist and emit a certificate document.
* ``verify``          — re-check a certificate document in its recorded window.
* ``schur``           — evaluate the Schur polynomial S_r.
* ``enumerate``       — graded dimensions of the fermion or boson spaces.
* ``probe-wakimoto``  — boson-side evidence vs. the classifier verdict.
* ``relations``       — randomized relation suites (clifford, super, affine).

``main`` builds its argument parser on its first call and reuses it for
every later call in the process; the parser is never changed after it is
built.  ``build_parser()`` returns a fresh parser on each call.

All output is JSON on stdout with sorted keys, so identical invocations
produce byte-identical output.  Exit status: 0 on success, 1 when a check
fails (verification, agreement, or relation failures), 2 on usage or parse
errors, including a malformed or negative bound, a size past its cap (ell
above ``MAX_ELL`` among them) and a result with a number too long to write.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections import Counter
from fractions import Fraction

from .classify import (
    DEFAULT_CFG,
    Certificate,
    Verdict,
    classify,
    decide,
    verify_certificate,
)
from .fock import FOCK_SPACE, apply_psi_dmode, enumerate_basis, fmt_halfodd
from .scalars import (
    MAX_ELL,
    MAX_ENUM_WEIGHT,
    MAX_ENUM_WINDOW,
    MAX_PROBE_SUPPORT,
    MAX_RELATION_MODE,
    MAX_RELATION_POLE_WEIGHT,
    MAX_RELATION_TRIALS,
    ChiParseError,
    ChiSeries,
    ell_of,
    format_rational,
    parse_chi,
    parse_rational,
)
from .schur import schur_rec, schur_at_minus_chi
from .span import ClosureConfig, SparseVec
from .superalg import anticommutator_check, same_species_anticommutator
from .weyl import (
    DEFAULT_PROBE_CFG,
    WEYL_SPACE,
    WeylAction,
    affine_relation_check,
    enumerate_weyl_basis,
    evidence_agrees,
    wakimoto_probe,
)

__all__ = ["main"]


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _read_text(path: str, flag: str) -> str:
    """The UTF-8 text of the file at ``path``; unreadable input names ``flag``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChiParseError(f"{flag}: {exc}") from None


def _chi_from_args(args) -> tuple[ChiSeries | None, str | None]:
    """The twist of ``--chi`` or ``--chi-file`` and that flag, which its errors name."""
    if getattr(args, "chi", None) is not None:
        return parse_chi(args.chi), "--chi"
    if getattr(args, "chi_file", None) is not None:
        return parse_chi(_read_text(args.chi_file, "--chi-file")), "--chi-file"
    return None, None


def _ell_capped(chi: ChiSeries, field: str) -> ChiSeries:
    """``chi``, unless ell = chi_0 - 1 exceeds ``MAX_ELL``."""
    ell = ell_of(chi)
    if ell is not None and ell > MAX_ELL:
        raise ChiParseError(f"{field}: ell = chi_0 - 1 must be <= {MAX_ELL}, got {ell}")
    return chi


def _classified_twist(args) -> tuple[ChiSeries, str]:
    """The twist ``classify`` and ``probe-wakimoto`` read, ell inside its cap, and its flag."""
    chi, field = _chi_from_args(args)
    if chi is None:
        raise ChiParseError("a twist is required (--chi or --chi-file)")
    return _ell_capped(chi, field), field


def _cfg_from_args(args, base: ClosureConfig) -> ClosureConfig:
    """``base`` with each of ``--cutoff/--window/--excursion`` given applied.

    The base is ``DEFAULT_CFG`` for ``classify`` and ``DEFAULT_PROBE_CFG``
    for the probe.  Each flag is read on its own, so the error names the
    one that does not parse or fit: ``--cutoff`` and ``--excursion`` are
    rationals p or p/q, >= 0, as every other bound.  Both commands close
    states up to the window's ``bound``, capped at ``MAX_ENUM_WEIGHT``.
    """
    cutoff, window, excursion = base
    if args.cutoff is not None:
        cutoff = _bound(args.cutoff, "--cutoff")
    if args.window is not None:
        if args.window < 0:
            raise ChiParseError(f"--window: must be >= 0, got {args.window}")
        window = (-args.window, args.window)
    if args.excursion is not None:
        excursion = _bound(args.excursion, "--excursion")
    cfg = ClosureConfig(cutoff, window, excursion)
    _capped(cfg.bound, MAX_ENUM_WEIGHT, "--cutoff + --excursion")
    return cfg


def _bound(text: str, field: str) -> Fraction:
    value = parse_rational(text, field=field)
    if value < 0:
        raise ChiParseError(f"{field}: must be >= 0, got {text!r}")
    return value


def _capped(value, cap: int, field: str):
    """``value``, unless it exceeds the size cap of its flag."""
    if value > cap:
        raise ChiParseError(f"{field}: must be <= {cap}, got {format_rational(value)}")
    return value


def _enum_window(weight_text: str, weight_field: str, window: int) -> tuple[Fraction, int]:
    """The weight bound and charge half-width of an enumerated basis window."""
    weight = _capped(_bound(weight_text, weight_field), MAX_ENUM_WEIGHT, weight_field)
    if window < 0:
        raise ChiParseError(f"--window: must be >= 0, got {window}")
    return weight, _capped(window, MAX_ENUM_WINDOW, "--window")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    chi, _ = _classified_twist(args)
    verdict, cert = classify(chi, _cfg_from_args(args, DEFAULT_CFG))
    _emit(
        {
            "chi": chi.to_json_obj(),
            "verdict": verdict.to_json_obj(),
            "certificate": cert.to_json_obj(),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    if args.certificate == "-":
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise ChiParseError(f"--certificate: {exc}") from None
    else:
        text = _read_text(args.certificate, "--certificate")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChiParseError(f"malformed certificate JSON: {exc}") from exc
    try:
        chi = _ell_capped(parse_chi(doc["chi"]), "chi")
        verdict = Verdict.from_json_obj(doc["verdict"])
        cert = Certificate.from_json_obj(doc["certificate"])
    except (KeyError, TypeError) as exc:
        raise ChiParseError(f"certificate document missing field: {exc}") from exc
    start = None if args.start_weight is None else _bound(args.start_weight, "--start-weight")
    report = verify_certificate(chi, verdict, cert, start_weight=start)
    _emit(
        {
            "chi": chi.to_json_obj(),
            "verdict": verdict.to_json_obj(),
            "report": report.to_json_obj(),
        }
    )
    return 0 if report.ok else 1


def _cmd_schur(args) -> int:
    if args.ell < 0:
        raise ChiParseError(f"ell: must be >= 0, got {args.ell}")
    _capped(args.ell, MAX_ELL, "ell")
    if args.at is not None:
        xs = [
            parse_rational(part.strip(), field=f"at[{i}]")
            for i, part in enumerate(args.at.split(","))
        ]
        # S_0 reads no value, and --at cannot be empty
        if args.ell >= 1 and len(xs) != args.ell:
            raise ChiParseError(f"--at: expected {args.ell} values x_1..x_{args.ell}, got {len(xs)}")
        value = schur_rec(args.ell, xs)
        _emit({"ell": args.ell, "xs": [format_rational(x) for x in xs], "value": format_rational(value)})
        return 0
    chi, _ = _chi_from_args(args)
    if chi is None:
        raise ChiParseError("schur needs --at or a twist (--chi/--chi-file)")
    value = schur_at_minus_chi(args.ell, chi)
    _emit({"ell": args.ell, "chi": chi.to_json_obj(), "value": format_rational(value)})
    return 0


def _cmd_enumerate(args) -> int:
    max_weight, window = _enum_window(args.max_weight, "max-weight", args.window)
    if args.space == "weyl":
        states = enumerate_weyl_basis(max_weight, (-window, window))
        space = WEYL_SPACE
    else:
        states = enumerate_basis(max_weight, ambient=args.space == "ambient")
        space = FOCK_SPACE
    graded = Counter((space.weight_of(st), space.charge_of(st)) for st in states)
    doc = {
        "space": args.space,
        "max_weight": format_rational(max_weight),
        "count": len(states),
        "graded": [
            {"weight": format_rational(w), "charge": c, "dim": d}
            for (w, c), d in sorted(graded.items())
        ],
    }
    if args.states:
        doc["states"] = [str(st) for st in states]
    _emit(doc)
    return 0


def _cmd_probe(args) -> int:
    chi, field = _classified_twist(args)
    if len(chi.support) > MAX_PROBE_SUPPORT:
        raise ChiParseError(
            f"{field}: a probe takes at most {MAX_PROBE_SUPPORT} nonzero coefficients,"
            f" got {len(chi.support)}"
        )
    cfg = _cfg_from_args(args, DEFAULT_PROBE_CFG)
    # the probe enumerates its window and closes each state in it
    _capped(cfg.charge_window[1], MAX_ENUM_WINDOW, "--window")
    verdict = decide(chi)
    evidence = wakimoto_probe(chi, cfg)
    agrees = evidence_agrees(verdict.status, evidence)
    _emit(
        {
            "chi": chi.to_json_obj(),
            "verdict": verdict.to_json_obj(),
            "evidence": evidence.to_json_obj(),
            "agrees": agrees,
        }
    )
    return 0 if agrees else 1


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _sample_vecs(rng, states, trials):
    out = []
    for _ in range(trials):
        picks = rng.sample(states, k=min(len(states), rng.randint(1, 3)))
        out.append(SparseVec({st: _random_rational(rng) for st in picks}))
    return out


def _cmd_relations(args) -> int:
    rng = random.Random(args.seed)
    bound, window = _enum_window(args.weight, "weight", args.window)
    # each bound must leave something to check: a suite that checks
    # nothing must not pass
    least = 0 if args.suite == "affine" else 1
    if args.max_mode < least:
        raise ChiParseError(
            f"--max-mode: must be >= {least} for suite {args.suite!r}, got {args.max_mode}"
        )
    _capped(args.max_mode, MAX_RELATION_MODE, "--max-mode")
    if args.trials < 1:
        raise ChiParseError(f"--trials: must be >= 1, got {args.trials}")
    _capped(args.trials, MAX_RELATION_TRIALS, "--trials")
    modes = [2 * k - 1 for k in range(-args.max_mode + 1, args.max_mode + 1)]
    chi, field = _chi_from_args(args)
    failures: list[str] = []
    checked = 0
    if args.suite == "clifford":
        vecs = _sample_vecs(rng, enumerate_basis(bound, ambient=True), args.trials)
        for v in vecs:
            for dr in modes:
                for ds in modes:
                    for sp1, sp2 in (("+", "-"), ("+", "+"), ("-", "-")):
                        lhs = apply_psi_dmode(
                            sp1, dr, apply_psi_dmode(sp2, ds, v)
                        ) + apply_psi_dmode(sp2, ds, apply_psi_dmode(sp1, dr, v))
                        want = v if (sp1 != sp2 and dr + ds == 0) else SparseVec.zero()
                        checked += 1
                        if lhs != want:
                            failures.append(
                                f"{{Psi{sp1}({fmt_halfodd(dr)}),Psi{sp2}({fmt_halfodd(ds)})}}"
                            )
    elif args.suite == "super":
        if chi is None:
            raise ChiParseError("suite 'super' needs a twist (--chi/--chi-file)")
        vecs = _sample_vecs(rng, enumerate_basis(bound), args.trials)
        for v in vecs:
            for dr in modes:
                r = Fraction(dr, 2)
                for ds in modes:
                    s = Fraction(ds, 2)
                    checked += 3
                    if not anticommutator_check(r, s, v, chi):
                        failures.append(f"{{G+({fmt_halfodd(dr)}),G-({fmt_halfodd(ds)})}}")
                    for sp in ("+", "-"):
                        if not same_species_anticommutator(sp, r, s, v, chi).is_zero():
                            failures.append(
                                f"{{G{sp}({fmt_halfodd(dr)}),G{sp}({fmt_halfodd(ds)})}}"
                            )
    else:  # affine
        if chi is None:
            raise ChiParseError("suite 'affine' needs a twist (--chi/--chi-file)")
        pole_weight = sum(j for j in chi.support if j > 0)
        if pole_weight > MAX_RELATION_POLE_WEIGHT:
            raise ChiParseError(
                f"{field}: suite 'affine' takes poles summing to <= {MAX_RELATION_POLE_WEIGHT},"
                f" got {pole_weight}"
            )
        action = WeylAction(chi)
        states = enumerate_weyl_basis(bound, (-window, window))
        for v in _sample_vecs(rng, states, args.trials):
            for m in range(-args.max_mode, args.max_mode + 1):
                for n in range(-args.max_mode, args.max_mode + 1):
                    for name, ok in affine_relation_check(m, n, v, chi, action):
                        checked += 1
                        if not ok:
                            failures.append(f"{name} at (m,n)=({m},{n})")
    _emit(
        {
            "suite": args.suite,
            "seed": args.seed,
            "checked": checked,
            "failures": sorted(set(failures)),
        }
    )
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    chi_parent = argparse.ArgumentParser(add_help=False)
    group = chi_parent.add_mutually_exclusive_group()
    group.add_argument("--chi", help="twist as inline JSON {\"coeffs\": [...]}")
    group.add_argument("--chi-file", help="path to a twist JSON document")

    # omitted flags keep the command's base window (see _cfg_from_args)
    cfg_parent = argparse.ArgumentParser(add_help=False)
    cfg_parent.add_argument("--cutoff", help="weight cutoff (rational p or p/q, >= 0)")
    cfg_parent.add_argument("--window", type=int, help="half-width of the charge window")
    cfg_parent.add_argument("--excursion", help="extra exploration headroom (rational p or p/q)")

    parser = argparse.ArgumentParser(
        prog="wakimoto",
        description="Exact classification tools for twisted fermion modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[chi_parent, cfg_parent], help="classify a twist")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="re-check a certificate document in its recorded window")
    p.add_argument("--certificate", required=True, help="certificate JSON path ('-' for stdin)")
    p.add_argument("--start-weight",
                   help="accepted and range-checked; bounds nothing (the certify benchmark passes it)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("schur", parents=[chi_parent], help="evaluate the Schur polynomial")
    p.add_argument("--ell", type=int, required=True, help=f"degree r of S_r (at most {MAX_ELL})")
    p.add_argument("--at", default=None, help="comma-separated rationals x_1,...,x_r (r of them)")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("enumerate", help="graded dimensions of a basis window")
    p.add_argument(
        "--space",
        choices=["charged", "ambient", "weyl"],
        default="charged",
        help="which space to enumerate",
    )
    p.add_argument(
        "--max-weight", default="4", help=f"weight bound (rational, at most {MAX_ENUM_WEIGHT})"
    )
    p.add_argument(
        "--window", type=int, default=3,
        help=f"charge half-width (weyl only, at most {MAX_ENUM_WINDOW})",
    )
    p.add_argument("--states", action="store_true", help="also list the monomials")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "probe-wakimoto",
        parents=[chi_parent, cfg_parent],
        help="compare boson-side evidence with the verdict",
    )
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser(
        "relations", parents=[chi_parent], help="randomized relation suites"
    )
    p.add_argument("--suite", choices=["clifford", "super", "affine"], required=True)
    p.add_argument(
        "--max-mode", type=int, default=3,
        help=f"mode bound (default 3, at most {MAX_RELATION_MODE})",
    )
    p.add_argument(
        "--weight", default="3",
        help=f"weight bound for sampled vectors (at most {MAX_ENUM_WEIGHT})",
    )
    p.add_argument(
        "--window", type=int, default=3,
        help=f"charge half-width (affine only, at most {MAX_ENUM_WINDOW})",
    )
    p.add_argument(
        "--trials", type=int, default=5,
        help=f"number of sampled vectors (at most {MAX_RELATION_TRIALS})",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=_cmd_relations)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads with, built on first use, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ChiParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
