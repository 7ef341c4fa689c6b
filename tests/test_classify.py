import importlib
import json
import random
import re
import time
from fractions import Fraction

import pytest

from oracles import hull_a_module_ops, interval_a_module_ops, seeded_twist
from wakimoto import (
    DEFAULT_CFG,
    Certificate,
    ChiParseError,
    ChiSeries,
    ClosureConfig,
    Verdict,
    a_module_ops,
    classify,
    decide,
    recorded_cfg,
    schur_at_minus_chi,
    vec_from_json_obj,
    verify_certificate,
)

CLASSIFY = importlib.import_module("wakimoto.classify")


def classify_case(coeffs):
    verdict, cert = classify(ChiSeries(coeffs))
    return verdict.status, verdict.case, cert.kind


@pytest.mark.parametrize(
    "coeffs, status, case, kind",
    [
        ({1: 1}, "irreducible", "i", "pole"),
        ({1: Fraction(1, 2)}, "irreducible", "i", "pole"),
        ({2: 1}, "irreducible", "i", "pole"),
        # a pole wins even when chi_0 would suggest another case
        ({0: 3, 1: 1}, "irreducible", "i", "pole"),
        ({0: Fraction(1, 2)}, "irreducible", "ii", "generic_weight"),
        ({0: 1}, "irreducible", "ii", "generic_weight"),
        ({0: Fraction(-7, 3), -1: 1}, "irreducible", "ii", "generic_weight"),
        ({0: 2, -1: 1}, "irreducible", "iii", "schur_nonzero"),
        ({0: 3, -2: 1}, "irreducible", "iii", "schur_nonzero"),
        ({0: 2}, "reducible", "schur_zero", "schur_zero"),
        ({0: 3, -1: 1, -2: 1}, "reducible", "schur_zero", "schur_zero"),
        ({0: -3}, "reducible", "neg_ell", "neg_ell"),
        ({}, "reducible", "neg_ell", "neg_ell"),
    ],
)
def test_case_battery(coeffs, status, case, kind):
    assert classify_case(coeffs) == (status, case, kind)


class TestCertificatePayloads:
    def test_pole(self):
        verdict, cert = classify(ChiSeries({2: Fraction(1, 3)}))
        assert verdict.data == {"pole_order": 2, "chi_p": "1/3"}
        assert cert.data["pole_order"] == 2
        assert cert.data["chi_p"] == "1/3"
        assert "cfg" in cert.data

    def test_generic_weight(self):
        _, cert = classify(ChiSeries({0: Fraction(1, 2)}))
        assert cert.data["chi0"] == "1/2"

    def test_schur_nonzero(self):
        verdict, cert = classify(ChiSeries({0: 3, -2: 1}))
        assert verdict.data == {"ell": 2, "schur_value": "-1/2"}
        assert cert.data["lowering_word"] == [
            {"op": "G-", "mode": "1/2"},
            {"op": "G-", "mode": "3/2"},
        ]
        # (-1)^2 * 2! * (-1/2)
        assert cert.data["vacuum_coefficient"] == "-1"

    def test_schur_zero(self):
        _, cert = classify(ChiSeries({0: 2}))
        assert cert.data["ell"] == 1
        assert cert.data["omega"] == "Psi+(-3/2) |0>"
        assert cert.data["w"] == [{"state": "Psi+(-3/2) |0>", "value": "1"}]
        assert cert.data["annihilation_range"] == 4
        assert cert.data["annihilation_failures"] == []
        assert cert.data["vacuum_excluded"] is True
        assert cert.data["closure"]["dimension"] == 6
        assert {
            (g["weight"], g["charge"]) for g in cert.data["closure"]["graded_dimension"]
        } == {("3/2", 1), ("2", 0), ("3", 0), ("7/2", -1), ("4", 0), ("4", 2)}

    def test_neg_ell(self):
        verdict, cert = classify(ChiSeries({0: -3}))
        assert verdict.data == {"ell": -4, "q": 3}
        assert cert.data["excluded_state"] == "Psi-(-7/2) |0>"
        assert cert.data["excluded"] is True
        assert cert.data["closure_dimension"] == 18
        assert cert.data["full_dimension"] == 20

    def test_zero_series_is_neg_ell_with_q_zero(self):
        verdict, cert = classify(ChiSeries())
        assert verdict.data == {"ell": -1, "q": 0}
        assert cert.data["excluded_state"] == "Psi-(-1/2) |0>"


@pytest.mark.parametrize("case", ["i", "ii", "iii", "schur_zero", "neg_ell"])
def test_decide_is_the_verdict_classify_returns(case):
    rng = random.Random(f"decide:{case}")
    cfg = ClosureConfig(Fraction(2), (-2, 2), Fraction(1))
    for _ in range(4):
        chi = seeded_twist(case, rng)
        verdict, classified = decide(chi), classify(chi, cfg)[0]
        assert verdict == classified and verdict.case == case
        # the same fields, types and order
        assert json.dumps(verdict.to_json_obj()) == json.dumps(classified.to_json_obj())


CHIS_BY_KIND = {
    "pole": ChiSeries({1: 1}),
    "generic_weight": ChiSeries({0: Fraction(1, 2)}),
    "schur_nonzero": ChiSeries({0: 3, -2: 1}),
    "schur_zero": ChiSeries({0: 2}),
    "neg_ell": ChiSeries({0: -3}),
}


@pytest.mark.parametrize("kind", sorted(CHIS_BY_KIND))
def test_verify_round_trip(kind):
    chi = CHIS_BY_KIND[kind]
    verdict, cert = classify(chi)
    verdict = Verdict.from_json_obj(json.loads(json.dumps(verdict.to_json_obj())))
    cert = Certificate.from_json_obj(json.loads(json.dumps(cert.to_json_obj())))
    assert cert.kind == kind
    report = verify_certificate(chi, verdict, cert)
    assert report.ok, report.to_json_obj()
    assert report.checks[0].name == "verdict_matches_certificate"


def test_verify_report_json_shape():
    chi = CHIS_BY_KIND["pole"]
    verdict, cert = classify(chi)
    obj = verify_certificate(chi, verdict, cert).to_json_obj()
    assert obj["ok"] is True
    assert all(set(c) == {"name", "passed", "detail"} for c in obj["checks"])
    names = [c["name"] for c in obj["checks"]]
    assert names == ["verdict_matches_certificate", "pole_order", "pole_coefficient", "cyclic_probes"]


def test_verify_with_explicit_small_window():
    chi = ChiSeries({1: 1})
    cfg = ClosureConfig(weight_cutoff=Fraction(5, 2), charge_window=(-2, 2), excursion=Fraction(2))
    verdict, cert = classify(chi, cfg)
    report = verify_certificate(chi, verdict, cert)
    assert report.ok


def test_recorded_window_else_refusal():
    cfg = ClosureConfig(weight_cutoff=Fraction(5, 2), charge_window=(-1, 2), excursion=Fraction(1))
    verdict, cert = classify(ChiSeries({1: 1}), cfg)
    assert recorded_cfg(cert) == cfg
    # verify reads no other window, so a certificate that records none is refused
    data = {k: v for k, v in cert.data.items() if k != "cfg"}
    for call in (recorded_cfg, lambda c: verify_certificate(ChiSeries({1: 1}), verdict, c)):
        with pytest.raises(ChiParseError, match=r"^certificate\.data\.cfg: missing"):
            call(Certificate(cert.kind, data))


def test_recorded_window_is_capped_before_any_work():
    # cutoff 40 + excursion 2: verify would run for minutes in that window
    chi = CHIS_BY_KIND["schur_zero"]
    verdict, cert = classify(chi)
    data = dict(cert.data, cfg=dict(cert.data["cfg"], weight_cutoff="40"))
    start = time.perf_counter()
    with pytest.raises(ChiParseError, match=r"^certificate\.data\.cfg: must be <= 16, got 42$"):
        verify_certificate(chi, verdict, Certificate(cert.kind, data))
    assert time.perf_counter() - start < 1


def test_start_weight_is_bounded_by_the_verifier():
    # at weight 24 the probes would enumerate some 18,000 states
    chi = CHIS_BY_KIND["pole"]
    verdict, cert = classify(chi)
    for start_weight in (Fraction(24), Fraction(-1)):
        start = time.perf_counter()
        with pytest.raises(ChiParseError, match=r"^--start-weight: must be >= 0 and must not "
                           r"exceed the weight cutoff 4, got -?\d+$"):
            verify_certificate(chi, verdict, cert, start_weight=start_weight)
        assert time.perf_counter() - start < 1
    # both ends are inclusive
    cfg = ClosureConfig(Fraction(2), (-2, 2), Fraction(1))
    verdict, cert = classify(chi, cfg)
    for start_weight in (Fraction(0), Fraction(2)):
        check = _check(verify_certificate(chi, verdict, cert, start_weight=start_weight),
                       "cyclic_probes")
        assert check.detail.endswith("generators cyclic" if start_weight else
                                     "; no generator besides the vacuum")


def _failed_names(report):
    return [c.name for c in report.checks if not c.passed]


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


class TestTampering:
    def test_mismatched_kind_fails_first_check(self):
        chi = CHIS_BY_KIND["pole"]
        verdict, _ = classify(chi)
        _, wrong_cert = classify(CHIS_BY_KIND["neg_ell"])
        report = verify_certificate(chi, verdict, wrong_cert)
        assert not report.ok
        assert not report.checks[0].passed

    def test_wrong_twist_fails_pole_check(self):
        verdict, cert = classify(CHIS_BY_KIND["pole"])
        report = verify_certificate(ChiSeries({0: Fraction(1, 2)}), verdict, cert)
        assert "pole_order" in _failed_names(report)

    def test_tampered_schur_value(self):
        chi = CHIS_BY_KIND["schur_nonzero"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["schur_value"] = "7"
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert "schur_nonzero" in _failed_names(report)

    def test_tampered_vacuum_coefficient(self):
        chi = CHIS_BY_KIND["schur_nonzero"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["vacuum_coefficient"] = "5"
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert "lowering_word_reaches_vacuum" in _failed_names(report)

    def test_tampered_witness_vector(self):
        chi = CHIS_BY_KIND["schur_zero"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["w"] = [{"state": "Psi+(-5/2) |0>", "value": "1"}]
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        failed = _failed_names(report)
        assert "witness_matches" in failed
        assert "witness_annihilated" in failed  # Psi+(-5/2)|0> is not singular

    def test_witness_outside_charged_subspace_fails(self):
        # parsed without complaint, then refused by the exact comparison
        chi = CHIS_BY_KIND["schur_zero"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["w"] = [{"state": "Psi+(-1/2) |0>", "value": "1"}]
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert "witness_matches" in _failed_names(report)
        assert not report.ok

    @pytest.mark.parametrize("recorded", [4, 0, -5, 10**9])
    def test_verifier_sets_the_annihilation_range(self, recorded):
        # the verifier checks n = 1..max(4, ell + 2), and any other recorded range fails
        chi = CHIS_BY_KIND["schur_zero"]
        verdict, cert = classify(chi)
        assert cert.data["annihilation_range"] == 4
        data = dict(cert.data, annihilation_range=recorded)
        check = _check(verify_certificate(chi, verdict, Certificate(cert.kind, data)),
                       "witness_annihilated")
        assert (check.passed, check.detail) == (recorded == 4, "modes n=1..4")
        data["w"] = [{"state": "Psi+(-5/2) |0>", "value": "1"}]
        check = _check(verify_certificate(chi, verdict, Certificate(cert.kind, data)),
                       "witness_annihilated")
        assert not check.passed
        assert check.detail.startswith("modes n=1..4; failing: ")

    def test_empty_closure_does_not_exclude_the_vacuum(self):
        chi = CHIS_BY_KIND["schur_zero"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["cfg"] = dict(data["cfg"], weight_cutoff="0", excursion="0")
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        check = _check(report, "vacuum_excluded")
        assert not check.passed
        assert check.detail == "closure dimension 0"
        assert not report.ok

    @pytest.mark.parametrize(
        "coeffs, window, detail",
        [
            ({0: 3, -2: 1}, [-3, 3], "1/1 generators cyclic"),
            ({1: 1}, [-3, 3], "1/1 generators cyclic"),
            ({0: Fraction(1, 2)}, [1, 2], "0/0 generators cyclic"),
        ],
    )
    def test_vacuum_alone_proves_no_cyclicity(self, coeffs, window, detail):
        chi = ChiSeries(coeffs)
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["cfg"] = dict(data["cfg"], weight_cutoff="0", charge_window=window)
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        check = _check(report, "cyclic_probes")
        assert not check.passed
        assert check.detail == detail + "; no generator besides the vacuum"
        assert not report.ok

    def test_state_heavier_than_the_window_is_not_excluded(self):
        # q = 3: the excluded state has weight 7/2, above cutoff + excursion = 3
        chi = ChiSeries({0: -3, -1: 5})
        verdict, cert = classify(chi, ClosureConfig(Fraction(2), (-2, 2), Fraction(1)))
        check = _check(verify_certificate(chi, verdict, cert), "state_excluded")
        assert not check.passed
        assert check.detail == (
            "weight 7/2 monomial not reached; heavier than the window bound 3"
        )
        verdict, cert = classify(chi)
        check = _check(verify_certificate(chi, verdict, cert), "state_excluded")
        assert check.passed
        assert check.detail == "weight 7/2 monomial not reached"

    def test_unreadable_witness_fails_cleanly(self):
        chi = CHIS_BY_KIND["schur_zero"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["w"] = [{"state": "garbage", "value": "1"}]
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert "witness_matches" in _failed_names(report)
        assert "unreadable" in [c.detail for c in report.checks if c.name == "witness_matches"][0]

    def test_tampered_closure_dimension(self):
        chi = CHIS_BY_KIND["neg_ell"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["closure_dimension"] = 20
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert "proper_within_window" in _failed_names(report)

    def test_tampered_excluded_state(self):
        chi = CHIS_BY_KIND["neg_ell"]
        verdict, cert = classify(chi)
        data = dict(cert.data)
        data["excluded_state"] = "Psi-(-1/2) |0>"
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert "excluded_state" in _failed_names(report)

    def test_state_excluded_reads_the_derived_state(self):
        # the vacuum's closure reaches the forged Psi-(-1/2)|0>, but the
        # verifier checks the state it derives from q, not the recorded one
        chi = CHIS_BY_KIND["neg_ell"]
        verdict, cert = classify(chi)
        data = dict(cert.data, excluded_state="Psi-(-1/2) |0>")
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert _failed_names(report) == ["excluded_state"]
        assert _check(report, "state_excluded").detail == "weight 7/2 monomial not reached"

    def test_recorded_exclusion_must_hold(self):
        chi = CHIS_BY_KIND["neg_ell"]
        verdict, cert = classify(chi)
        for recorded in (False, None, 1):
            data = dict(cert.data, excluded=recorded)
            report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
            assert _failed_names(report) == ["state_excluded"]

    def test_forged_lowering_word_fails(self):
        # Psi-(3/2) sends Omega_1 to the vacuum with the honest coefficient,
        # but a bare fermion mode is not an element of the algebra
        chi = ChiSeries({0: 2, -1: 1})
        verdict, cert = classify(chi)
        for word in (
            [{"op": "Psi-", "mode": "3/2"}],
            cert.data["lowering_word"] + [{"op": "G+", "mode": "-1/2"}],
        ):
            data = dict(cert.data, lowering_word=word)
            report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
            assert _failed_names(report) == ["lowering_word_reaches_vacuum"]
            assert _check(report, "lowering_word_reaches_vacuum").detail == "coefficient=1"

    def test_unknown_kind_fails(self):
        chi = CHIS_BY_KIND["schur_zero"]
        _, cert = classify(chi)
        forged = Verdict("reducible", None, {})
        report = verify_certificate(chi, forged, Certificate("bogus", cert.data))
        assert _failed_names(report) == ["verdict_matches_certificate"]
        assert len(report.checks) == 1

    def test_verdict_data_must_repeat_the_certificate(self):
        chi = CHIS_BY_KIND["neg_ell"]
        verdict, cert = classify(chi)
        for data in ({}, dict(verdict.data, q=verdict.data["q"] + 1), dict(verdict.data, x=1)):
            report = verify_certificate(chi, Verdict(verdict.status, verdict.case, data), cert)
            assert _failed_names(report) == ["verdict_matches_certificate"]

    def test_verdict_status_flip_detected(self):
        chi = CHIS_BY_KIND["schur_zero"]
        verdict, cert = classify(chi)
        flipped = Verdict("irreducible", verdict.case, verdict.data)
        report = verify_certificate(chi, flipped, cert)
        assert not report.checks[0].passed


def test_classification_is_deterministic():
    chi = ChiSeries({0: 3, -1: 1, -2: 1})
    a = [json.dumps(x.to_json_obj(), sort_keys=True) for x in classify(chi)]
    b = [json.dumps(x.to_json_obj(), sort_keys=True) for x in classify(chi)]
    assert a == b


# -- the odd-mode family against its convex-hull oracle ---------------------

FAR_TAILS = [
    ({1: 1, -40: 1}, ClosureConfig(Fraction(2), (-2, 2), Fraction(1))),
    ({0: Fraction(1, 2), -37: 2}, ClosureConfig(Fraction(2), (-2, 2), Fraction(1))),
    ({0: 2, -1: 1, -40: 3}, ClosureConfig(Fraction(2), (-2, 2), Fraction(1))),
    ({0: -3, -40: 1}, DEFAULT_CFG),
    ({0: 2, -1000: 1}, DEFAULT_CFG),
]


def _verified_json(chi, cfg, start_weight=None):
    verdict, cert = classify(chi, cfg)
    report = verify_certificate(chi, verdict, cert, start_weight=start_weight)
    assert report.ok
    return json.dumps([verdict.to_json_obj(), cert.to_json_obj(), report.to_json_obj()],
                      sort_keys=True)


@pytest.mark.parametrize("coeffs, cfg", FAR_TAILS)
def test_family_matches_hull_family_on_far_tails(coeffs, cfg, monkeypatch):
    chi = ChiSeries(coeffs)
    union = {label for label, _ in a_module_ops(chi, cfg)}
    hull = {label for label, _ in hull_a_module_ops(chi, cfg)}
    assert union < hull
    expected = _verified_json(chi, cfg)
    monkeypatch.setattr(importlib.import_module("wakimoto.classify"), "a_module_ops",
                        hull_a_module_ops)
    assert _verified_json(chi, cfg) == expected


# the certify benchmark's window and start weight
CERTIFY_WINDOW = (ClosureConfig(Fraction(5), (-3, 3), Fraction(2)), Fraction(7, 2))
FAMILY_TWISTS = [
    *(seeded_twist(case, random.Random(f"family:{case}"))
      for case in ("i", "ii", "iii", "schur_zero", "neg_ell")),
    *(ChiSeries(coeffs) for coeffs, _ in FAR_TAILS),
]


@pytest.mark.parametrize("window", [(DEFAULT_CFG, None), CERTIFY_WINDOW],
                         ids=["default", "certify"])
@pytest.mark.parametrize("chi", FAMILY_TWISTS, ids=repr)
def test_family_matches_interval_family(chi, window, monkeypatch):
    # the family drops whole G- modes and components of kept ones, which
    # must change no verdict, certificate or report
    cfg, start_weight = window
    kept = {label for label, _ in a_module_ops(chi, cfg)}
    assert kept <= {label for label, _ in interval_a_module_ops(chi, cfg)}
    expected = _verified_json(chi, cfg, start_weight)
    monkeypatch.setattr(importlib.import_module("wakimoto.classify"), "a_module_ops",
                        interval_a_module_ops)
    assert _verified_json(chi, cfg, start_weight) == expected


def test_far_tail_adds_only_its_own_modes():
    chi = ChiSeries({0: 2, -1000: 1})
    # 11 G+ modes and 11 G- modes around index 0: near -1000 the component
    # chi_0 - i creates a factor heavier than the window, and G-(3/2) is
    # zero on it (chi_0 - 2 = 0, and Psi-(2003/2) annihilates nothing there)
    assert len(a_module_ops(chi, DEFAULT_CFG)) == 22
    assert len(interval_a_module_ops(chi, DEFAULT_CFG)) == 35
    assert len(hull_a_module_ops(chi, DEFAULT_CFG)) == 1023


# -- each recorded closure fact is the one the verifier derives --------------


def _schur_zero_twist(ell, coeffs):
    """chi_0 = ell + 1 with chi_-ell solved onto the zero locus of S_ell(-chi).

    S_ell is x_ell / ell plus a polynomial in x_1..x_{ell-1}, with x_ell = -chi_-ell.
    """
    coeffs = {0: ell + 1, **coeffs}
    coeffs[-ell] = ell * schur_at_minus_chi(ell, ChiSeries(coeffs))
    chi = ChiSeries(coeffs)
    assert schur_at_minus_chi(ell, chi) == 0
    return chi


FACT_TWISTS = [
    _schur_zero_twist(1, {-2: Fraction(3, 2)}),
    _schur_zero_twist(2, {-1: Fraction(-2, 3), -3: 1}),
    *(ChiSeries({0: chi0}) for chi0 in (0, -1, -3, -5)),
]
FACT_WINDOWS = {
    "default": DEFAULT_CFG,
    "certify": ClosureConfig(Fraction(5), (-3, 3), Fraction(2)),
    "small": ClosureConfig(Fraction(2), (-2, 2), Fraction(1)),
}


@pytest.mark.parametrize("cfg", FACT_WINDOWS.values(), ids=FACT_WINDOWS)
@pytest.mark.parametrize("chi", FACT_TWISTS, ids=repr)
def test_recorded_facts_are_the_derived_ones(chi, cfg):
    verdict, cert = classify(chi, cfg)
    data = cert.data
    if cert.kind == "schur_zero":
        w = vec_from_json_obj(data["w"])
        basis, facts = CLASSIFY._schur_zero_facts(data["ell"], chi, cfg, w)
        assert facts["closure"] == basis.report()
        passed = {"witness_annihilated": not facts["annihilation_failures"],
                  "vacuum_excluded": facts["vacuum_excluded"]}
    else:
        assert cert.kind == "neg_ell"
        _, facts = CLASSIFY._neg_ell_facts(data["q"], chi, cfg)
        passed = {"state_excluded": facts["excluded"],
                  "proper_within_window": facts["closure_dimension"] < facts["full_dimension"]}
    assert {name: data[name] for name in facts} == facts
    # the verifier's checks pass exactly when the derived facts hold
    report = verify_certificate(chi, verdict, cert)
    assert {c.name: c.passed for c in report.checks if c.name in passed} == passed


@pytest.mark.parametrize("chi0", [4, 5])
def test_classify_records_no_vacuous_vacuum_exclusion(chi0):
    # Omega_3 and Omega_4 weigh 15/2 and 12, past the default window's reach 6
    chi = ChiSeries({0: chi0})
    verdict, cert = classify(chi)
    assert cert.data["vacuum_excluded"] is False
    assert cert.data["closure"]["dimension"] == 0
    check = _check(verify_certificate(chi, verdict, cert), "vacuum_excluded")
    assert (check.passed, check.detail) == (False, "closure dimension 0")


@pytest.mark.parametrize("chi0, weight", [(-6, "13/2"), (-7, "15/2")])
def test_classify_records_no_vacuous_state_exclusion(chi0, weight):
    chi = ChiSeries({0: chi0})
    verdict, cert = classify(chi)
    assert cert.data["excluded"] is False
    check = _check(verify_certificate(chi, verdict, cert), "state_excluded")
    assert not check.passed
    assert check.detail == f"weight {weight} monomial not reached; heavier than the window bound 6"


# -- every recorded field is held to its derivation -------------------------

FORGERY_TWISTS = [
    *CHIS_BY_KIND.values(),
    _schur_zero_twist(2, {-1: Fraction(-2, 3), -3: 1}),
    ChiSeries({0: -2}),  # neg_ell with q = 2
]


def _other(value):
    """Another value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, str)):
        return value + type(value)(1)
    if isinstance(value, list):
        return value[:-1] if value else ["G+(99/2)"]
    key = min(value)
    return dict(value, **{key: _other(value[key])})


def _nested_bit_as_bool(value):
    """``value`` with its first nested 0 or 1 written as false or true, or None."""
    text = json.dumps(value, sort_keys=True)
    forged = re.sub(r'(": )([01])\b', lambda m: m[1] + ["false", "true"][int(m[2])], text,
                    count=1)
    return None if forged == text else json.loads(forged)


@pytest.mark.parametrize("window", ["default", "certify"])
@pytest.mark.parametrize("chi", FORGERY_TWISTS, ids=repr)
def test_every_forged_record_fails(chi, window):
    verdict, cert = classify(chi, FACT_WINDOWS[window])
    assert verify_certificate(chi, verdict, cert).ok
    forgeries = []
    for name, value in cert.data.items():
        if name != "cfg":
            forgeries.append((name, _other(value)))
            if _nested_bit_as_bool(value) is not None:
                forgeries.append((name, _nested_bit_as_bool(value)))
    # every field but cfg, and an integer inside the closure report as a boolean
    assert len(forgeries) == len(cert.data) - 1 + ("closure" in cert.data)
    # the same state and the same rationals, written as other text
    if "excluded_state" in cert.data:
        spaced = " " + cert.data["excluded_state"].replace(" ", "   ") + " "
        forgeries.append(("excluded_state", spaced))
    if "w" in cert.data:
        head, *rest = cert.data["w"]
        c = Fraction(head["value"])
        forgeries.append(("w", [dict(head, value=f"{2 * c.numerator}/{2 * c.denominator}"), *rest]))
    for name, forged in forgeries:
        data = dict(cert.data, **{name: forged})
        report = verify_certificate(chi, verdict, Certificate(cert.kind, data))
        assert not report.ok, (name, forged)


# -- one derivation per kind: classify records it, verify loops over it -----

CLAIM_WINDOWS = {"default": DEFAULT_CFG, "certify": FACT_WINDOWS["certify"]}


@pytest.mark.parametrize("window", sorted(CLAIM_WINDOWS))
@pytest.mark.parametrize("kind", sorted(CHIS_BY_KIND))
def test_claims_cover_every_recorded_field(kind, window):
    chi, cfg = CHIS_BY_KIND[kind], CLAIM_WINDOWS[window]
    _, cert = classify(chi, cfg)
    claims = list(CLASSIFY._claims(kind, chi, cfg, cert.data, CLASSIFY._kind(chi)[1]))
    fields = {}
    for _, holds, _, claimed in claims:
        assert holds
        fields.update(claimed)
    # no recorded field escapes comparison, and each is recorded as derived
    assert set(fields) == set(cert.data) - {"cfg"}
    for name, value in fields.items():
        assert json.dumps(cert.data[name], sort_keys=True) == json.dumps(value, sort_keys=True)
    report = verify_certificate(chi, *classify(chi, cfg))
    assert [c.name for c in report.checks] == [
        "verdict_matches_certificate", *(name for name, *_ in claims),
        *(["cyclic_probes"] if kind in ("pole", "generic_weight", "schur_nonzero") else []),
    ]


def _counted(monkeypatch, name):
    calls = []
    fn = getattr(CLASSIFY, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(CLASSIFY, name, counted)
    return calls


@pytest.mark.parametrize("kind", sorted(CHIS_BY_KIND))
def test_each_call_derives_once(kind, monkeypatch):
    # the cyclicity probes close through span.closure, so these count only
    # the closures of the reducible kinds' facts
    chi = CHIS_BY_KIND[kind]
    closures = _counted(monkeypatch, "closure")
    schur = _counted(monkeypatch, "schur_at_minus_chi")
    want = (int(kind in ("schur_zero", "neg_ell")), int(kind.startswith("schur")))
    verdict, cert = classify(chi)
    assert (len(closures), len(schur)) == want
    closures.clear(), schur.clear()
    assert verify_certificate(chi, verdict, cert).ok
    assert (len(closures), len(schur)) == want
    closures.clear(), schur.clear()
    assert decide(chi) == verdict
    assert (len(closures), len(schur)) == (0, want[1])
