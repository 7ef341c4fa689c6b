"""Workloads: twist shapes, seeded inputs, one operation each, output checks.

A *shape* fixes a twist's support, its chi_0 and hence its case; the seed
only draws the free coefficient values.  A *round* runs every shape of a
workload once, and a run always attempts whole rounds, so the mix of work
and the share of expected failures do not depend on the seed or on how
long the run lasts.  No twist repeats within a run.

The operations call ``wakimoto`` through module attributes looked up at
call time (``cli.main``, ``weyl.affine_relation_check``), so the tracer can
wrap those names.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

# Window of the certify workload: larger than the CLI default (cutoff 4), so
# that a reducible operation runs its two closures for about 0.3-0.6 s.
CERTIFY_WINDOW = ("5", "3", "2")  # weight cutoff, charge half-width, excursion
# verify probes every charged generator up to this weight for cyclicity
# (default 5/2), so that closures, not argument parsing and JSON, make up
# most of an irreducible operation.
CERTIFY_START_WEIGHT = "7/2"
# Window of the crosscheck workload: smaller than the probe default
# (cutoff 3), which takes 5-23 s per twist.
CROSSCHECK_WINDOW = ("2", "2", "1")
# Relations: all six brackets at every |m|, |n| <= 3, on vectors from the
# weight <= 3, |charge| <= 3 boson window (72 monomials).
RELATION_MODES = range(-3, 4)
RELATION_WINDOW = (3, (-3, 3))

# A seeded value of round r is +-(p/q + 4r), p in 1..4, q in 1..3: its size
# lies in [4r + 1/3, 4r + 4], so a twist never repeats an earlier round's,
# however long the run.  Relation vectors draw +-p/q (round 0).
NUMERATORS = (1, 2, 3, 4)
DENOMINATORS = (1, 2, 3)
SPREAD = 4
# A shape whose draws keep leaving its case (a case-iii draw on the Schur
# zero locus) is a fault in this file, not a reason to loop.
MAX_DRAWS = 100


@dataclass(frozen=True)
class Shape:
    """A twist shape: its case, fixed coefficients and seeded ones.

    ``solve`` names the index whose coefficient is solved for so that
    S_ell(-chi) = 0 (Schur-zero shapes).
    """

    name: str
    case: str
    fixed: dict = field(default_factory=dict)
    free: tuple = ()
    solve: int | None = None
    # relations only: basis monomials (indices into the 72-state window) of
    # each vector the operation checks.
    vectors: tuple = ()


CERTIFY = (
    # irreducible
    Shape("pole2", "i", {0: 3}, (2, -1)),
    Shape("pole1_far", "i", {}, (1, -18)),
    Shape("generic", "ii", {0: Fraction(5, 2)}, (-1, -2)),
    Shape("chi0_one_far", "ii", {0: 1}, (-21,)),
    Shape("iii_l1", "iii", {0: 2}, (-1, -12)),
    Shape("iii_l2", "iii", {0: 3}, (-1, -2)),
    Shape("iii_l3_far", "iii", {0: 4}, (-1, -3, -25)),
    # reducible
    Shape("schur_zero_l2", "schur_zero", {0: 3}, (-1, -14), solve=-2),
    Shape("schur_zero_l1_far", "schur_zero", {0: 2}, (-2, -13)),
    Shape("neg_ell_l1", "neg_ell", {}, (-1, -10)),
    Shape("neg_ell_l2", "neg_ell", {0: -1}, (-1,)),
    Shape("neg_ell_l4", "neg_ell", {0: -3}, (-2,)),
)

CROSSCHECK = (
    # irreducible
    Shape("pole1", "i", {0: 2}, (1, -1)),
    Shape("generic", "ii", {0: Fraction(1, 2)}, (-1,)),
    Shape("iii_l1", "iii", {0: 2}, (-1,)),
    Shape("iii_l2", "iii", {0: 3}, (-1, -2)),
    Shape("chi0_one", "ii", {0: 1}, (-2,)),
    # reducible
    Shape("schur_zero_l1", "schur_zero", {0: 2}, (-2,)),
    Shape("schur_zero_l2", "schur_zero", {0: 3}, (-1,), solve=-2),
    Shape("schur_zero_l1_tail", "schur_zero", {0: 2}, (-2, -3)),
    # fails on every twist: the probe never checks that the vacuum
    # generates the window, so its evidence cannot show reducibility.
    Shape("neg_ell_l4", "neg_ell", {0: -3}, (-1,)),
)

RELATIONS = (
    # irreducible
    Shape("pole1", "i", {0: 2}, (1, -1), vectors=((5, 40), (22,))),
    Shape("generic", "ii", {0: Fraction(1, 2)}, (-1, -2), vectors=((12, 33), (50,))),
    Shape("iii_l2", "iii", {0: 3}, (-1, -2), vectors=((8, 47), (29,))),
    # reducible
    Shape("schur_zero_l2", "schur_zero", {0: 3}, (-1,), solve=-2, vectors=((17, 55), (3,))),
    Shape("neg_ell_l1", "neg_ell", {}, (-1, -3), vectors=((26, 44), (9,))),
    Shape("neg_ell_l4", "neg_ell", {0: -3}, (-1,), vectors=((14, 59), (35,))),
)

SHAPES = {"certify": CERTIFY, "crosscheck": CROSSCHECK, "relations": RELATIONS}


def _draw(rng: random.Random, round_no: int = 0) -> Fraction:
    size = Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS)) + SPREAD * round_no
    return rng.choice((-1, 1)) * size


def _make_twist(shape: Shape, rng: random.Random, round_no: int) -> dict[int, Fraction] | None:
    """One twist of the shape, or None when the draw left the shape."""
    chi = {m: Fraction(c) for m, c in shape.fixed.items()}
    for m in shape.free:
        chi[m] = _draw(rng, round_no)
    if shape.solve is not None:
        # S_ell is x_ell / ell plus a polynomial in x_1..x_{ell-1}, and
        # x_ell = -chi_{-ell}; solve for chi_{-ell} on the zero locus.
        ell = -shape.solve
        rest = oracle.schur_at_minus_chi(ell, chi)
        if rest == 0:
            return None
        chi[shape.solve] = ell * rest
        if oracle.schur_at_minus_chi(ell, chi) != 0:
            raise AssertionError(f"solved twist {chi} is off the Schur zero locus")
    # e.g. an accidental zero of S_ell on a case-iii shape: redraw
    return chi if oracle.expected_verdict(chi)[1] == shape.case else None


def chi_key(chi: dict[int, Fraction]) -> tuple:
    return tuple(sorted(chi.items()))


def chi_text(chi: dict[int, Fraction]) -> str:
    coeffs = [{"m": m, "value": str(c)} for m, c in sorted(chi.items())]
    return json.dumps({"coeffs": coeffs})


class Inputs:
    """Seeded twist stream: round r holds one new twist per shape."""

    def __init__(self, workload: str, seed: int):
        self.shapes = SHAPES[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.vec_rng = random.Random(f"{workload}:{seed}:vectors")
        self.seen: set[tuple] = set()
        self.rounds = 0

    def next_round(self) -> list[tuple[Shape, dict[int, Fraction], list]]:
        out = []
        for shape in self.shapes:
            for _ in range(MAX_DRAWS):
                chi = _make_twist(shape, self.rng, self.rounds)
                if chi is not None:
                    break
            else:
                raise AssertionError(f"shape {shape.name} left its case {MAX_DRAWS} times")
            if chi_key(chi) in self.seen:
                raise AssertionError(f"shape {shape.name} repeated the twist {chi}")
            self.seen.add(chi_key(chi))
            coeffs = [[_draw(self.vec_rng) for _ in states] for states in shape.vectors]
            out.append((shape, chi, coeffs))
        self.rounds += 1
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _run_cli(cli, argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    out = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


class Runner:
    """Prepared state for one workload; ``run(item)`` is one operation."""

    def __init__(self, workload: str):
        import wakimoto
        from wakimoto import cli, weyl

        self.workload = workload
        self.wakimoto = wakimoto
        self.cli = cli
        self.weyl = weyl
        if workload == "relations":
            cutoff, window = RELATION_WINDOW
            self.relation_states = weyl.enumerate_weyl_basis(cutoff, window)

    def run(self, item) -> dict:
        shape, chi, coeffs = item
        text = chi_text(chi)
        if self.workload == "certify":
            cutoff, window, excursion = CERTIFY_WINDOW
            code, cert = _run_cli(
                self.cli,
                ["classify", "--chi", text, "--cutoff", cutoff, "--window", window,
                 "--excursion", excursion],
            )
            vcode, report = _run_cli(
                self.cli,
                ["verify", "--certificate", "-", "--start-weight", CERTIFY_START_WEIGHT],
                cert,
            )
            return {"failed": code != 0 or vcode != 0, "code": code, "cert": cert,
                    "vcode": vcode, "report": report}
        if self.workload == "crosscheck":
            cutoff, window, excursion = CROSSCHECK_WINDOW
            code, doc = _run_cli(
                self.cli,
                ["probe-wakimoto", "--chi", text, "--cutoff", cutoff, "--window", window,
                 "--excursion", excursion],
            )
            return {"failed": code != 0, "code": code, "doc": doc}
        series = self.wakimoto.ChiSeries(chi)
        action = self.weyl.WeylAction(series)
        checked, bad = 0, []
        for states, values in zip(shape.vectors, coeffs):
            v = self.weyl.WeylVec(
                {self.relation_states[i]: c for i, c in zip(states, values)}
            )
            for m in RELATION_MODES:
                for n in RELATION_MODES:
                    for name, ok in self.weyl.affine_relation_check(m, n, v, series, action):
                        checked += 1
                        if not ok:
                            bad.append(f"{name} at ({m},{n})")
        return {"failed": bool(bad), "checked": checked, "bad": bad}


# ---------------------------------------------------------------------------
# checks against the oracle
# ---------------------------------------------------------------------------


def _expect(problems: list[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _same_chi(doc_chi: dict, chi: dict[int, Fraction]) -> bool:
    got = {e["m"]: Fraction(e["value"]) for e in doc_chi["coeffs"]}
    return got == chi


def check(workload: str, item, result: dict) -> list[str]:
    """Problems with one operation's output; empty when it is correct.

    A failed operation is checked only for failing in the expected way.
    """
    shape, chi, _ = item
    status, case = oracle.expected_verdict(chi)
    tag = f"{shape.name} {chi_text(chi)}"
    problems: list[str] = []
    if workload == "certify":
        if result["failed"]:
            return [f"{tag}: classify exit {result['code']}, verify exit {result['vcode']}"]
        doc = json.loads(result["cert"])
        report = json.loads(result["report"])["report"]
        verdict, cert = doc["verdict"], doc["certificate"]
        data = cert["data"]
        _expect(problems, _same_chi(doc["chi"], chi), "chi echoed")
        _expect(problems, (verdict["status"], verdict["case"]) == (status, case),
                f"verdict {verdict['status']}/{verdict['case']}, want {status}/{case}")
        _expect(problems, report["ok"] and all(c["passed"] for c in report["checks"]),
                "verify report not ok")
        if case == "iii":
            ell = int(chi[0]) - 1
            _expect(problems, Fraction(data["vacuum_coefficient"]) == oracle.vacuum_coefficient(ell, chi),
                    "vacuum_coefficient")
            _expect(problems, Fraction(data["schur_value"]) == oracle.schur_at_minus_chi(ell, chi),
                    "schur_value")
        elif case == "schur_zero":
            # a closure that never admitted Omega_ell would exclude the vacuum vacuously
            _expect(problems, data["vacuum_excluded"] is True and not data["annihilation_failures"]
                    and data["closure"]["dimension"] > 0, "singular witness")
        elif case == "neg_ell":
            cutoff, window, _ = CERTIFY_WINDOW
            full = oracle.charged_dimension(Fraction(cutoff), -int(window), int(window))
            _expect(problems, data["full_dimension"] == full,
                    f"full_dimension {data['full_dimension']}, want {full}")
            _expect(problems, data["closure_dimension"] < full, "closure not proper")
    elif workload == "crosscheck":
        doc = json.loads(result["doc"])
        verdict, evidence = doc["verdict"], doc["evidence"]
        _expect(problems, _same_chi(doc["chi"], chi), "chi echoed")
        _expect(problems, (verdict["status"], verdict["case"]) == (status, case),
                f"verdict {verdict['status']}/{verdict['case']}, want {status}/{case}")
        cutoff, window, _ = CROSSCHECK_WINDOW
        states = oracle.boson_dimension(int(cutoff), -int(window), int(window))
        _expect(problems, evidence["probed"] == states,
                f"probed {evidence['probed']}, want {states}")
        if status == "irreducible":
            fits = evidence["all_cyclic"]
        else:
            fits = not evidence["all_cyclic"] or bool(evidence["candidates"])
        _expect(problems, doc["agrees"] == fits, "agrees flag")
        if result["failed"]:
            # the known fault: every neg_ell twist looks cyclic to the probe
            _expect(problems, case == "neg_ell" and result["code"] == 1 and not fits,
                    f"unexpected failure, exit {result['code']}")
        else:
            _expect(problems, fits and result["code"] == 0, "evidence does not fit the verdict")
    else:
        want = 6 * len(RELATION_MODES) ** 2 * len(shape.vectors)
        _expect(problems, result["checked"] == want, f"checked {result['checked']}, want {want}")
        if result["failed"]:
            problems.append(f"relations failed: {result['bad'][:3]}")
    return [f"{tag}: {p}" for p in problems]
