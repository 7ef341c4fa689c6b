import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from wakimoto import DEFAULT_CFG, ClosureConfig, cli, recorded_cfg
from wakimoto.cli import main
from wakimoto.scalars import (
    MAX_ELL,
    MAX_ENUM_WEIGHT,
    MAX_ENUM_WINDOW,
    MAX_PROBE_SUPPORT,
    MAX_RELATION_MODE,
    MAX_RELATION_POLE_WEIGHT,
    MAX_RELATION_TRIALS,
)

CHI_SCHUR_NONZERO = json.dumps(
    {"coeffs": [{"m": 0, "value": "3"}, {"m": -2, "value": "1"}]}
)
CHI_SCHUR_ZERO = json.dumps({"coeffs": [{"m": 0, "value": "2"}]})
CHI_POLE = json.dumps({"coeffs": [{"m": 1, "value": "1"}]})
CHI_MIXED = json.dumps(
    {
        "coeffs": [
            {"m": 1, "value": "2"},
            {"m": 0, "value": "-3/2"},
            {"m": -2, "value": "5"},
        ]
    }
)
SMALL_CFG = ["--cutoff", "3", "--window", "2"]


def twist_text(coeffs):
    return json.dumps({"coeffs": [{"m": m, "value": str(v)} for m, v in coeffs.items()]})


# ell = chi_0 - 1 one past its cap
CHI_ELL_PAST_CAP = twist_text({0: MAX_ELL + 2, -1: "1/3"})
# S_2(-chi) has about 6000 digits, S_MAX_ELL(-chi) about 5600
CHI_LONG_TAIL = twist_text({0: 3, -1: "7" * 3000})
CHI_HUGE_TAIL = twist_text({0: 2, -1: 10**30})
# every index the parser takes: a tail of 1001 terms and 1000 poles
CHI_EVERY_INDEX = twist_text({m: 1 for m in range(-1000, 1001)})
CHI_WIDE_TAIL = twist_text({0: 2, **{-j: 1 for j in range(1, 1001)}})
# two poles, each below the affine suite's pole weight cap, summing past it
CHI_POLES_PAST_CAP = twist_text({1000: 1, MAX_RELATION_POLE_WEIGHT - 999: 1})


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def classify_document(capsys, chi_text, extra=SMALL_CFG):
    code, out, err = run_cli(capsys, ["classify", "--chi", chi_text, *extra])
    assert code == 0 and err == ""
    return out


class TestClassifyVerify:
    def test_classify_document_shape(self, capsys):
        out = classify_document(capsys, CHI_SCHUR_NONZERO)
        doc = json.loads(out)
        assert sorted(doc) == ["certificate", "chi", "verdict"]
        assert doc["chi"] == {
            "coeffs": [{"m": -2, "value": "1"}, {"m": 0, "value": "3"}]
        }
        assert doc["verdict"] == {
            "case": "iii",
            "data": {"ell": 2, "schur_value": "-1/2"},
            "status": "irreducible",
        }
        assert doc["certificate"]["kind"] == "schur_nonzero"

    def test_classify_then_verify_exits_zero(self, capsys, tmp_path):
        out = classify_document(capsys, CHI_SCHUR_NONZERO)
        path = tmp_path / "cert.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run_cli(capsys, ["verify", "--certificate", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["ok"] is True
        assert [c["name"] for c in doc["report"]["checks"]] == [
            "verdict_matches_certificate",
            "ell",
            "schur_nonzero",
            "lowering_word_reaches_vacuum",
            "cyclic_probes",
        ]
        assert all(c["passed"] for c in doc["report"]["checks"])

    def test_verify_reads_stdin(self, capsys, monkeypatch):
        out = classify_document(capsys, CHI_SCHUR_NONZERO)
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, err = run_cli(capsys, ["verify", "--certificate", "-"])
        assert code == 0
        assert json.loads(out)["report"]["ok"] is True

    def test_tampered_value_flips_exit_status(self, capsys, tmp_path):
        doc = json.loads(classify_document(capsys, CHI_SCHUR_NONZERO))
        path = tmp_path / "tampered.json"
        # the verdict repeats the certificate's value, so tampering with one
        # side fails the match too; tampering with both fails only the value
        for parts, failing in (
            (["certificate"], ["verdict_matches_certificate", "schur_nonzero"]),
            (["certificate", "verdict"], ["schur_nonzero"]),
        ):
            for part in parts:
                doc[part]["data"]["schur_value"] = "7"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run_cli(capsys, ["verify", "--certificate", str(path)])
            assert code == 1
            report = json.loads(out)["report"]
            assert report["ok"] is False
            assert [c["name"] for c in report["checks"] if not c["passed"]] == failing

    @pytest.mark.parametrize("kind", ["absent", "directory", "non-utf8"])
    @pytest.mark.parametrize(
        "command, flag", [("verify", "--certificate"), ("classify", "--chi-file")]
    )
    def test_unreadable_input_file(self, capsys, tmp_path, kind, command, flag):
        # unreadable input is a usage error, exit 2; exit 1 means a check failed
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b'{"coeffs": [\xff\xfe]}')
        code, out, err = run_cli(capsys, [command, flag, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}:")
        if kind == "absent":
            assert "No such file" in err

    def test_non_utf8_stdin(self):
        # a strict stdin raises while decoding, before any JSON is read
        proc = subprocess.run(
            [sys.executable, "-m", "wakimoto.cli", "verify", "--certificate", "-"],
            input=b"\xff",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: --certificate: 'utf-8' codec can't decode")

    def test_malformed_certificate_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all", encoding="utf-8")
        code, out, err = run_cli(capsys, ["verify", "--certificate", str(path)])
        assert code == 2
        assert "malformed certificate JSON" in err

    def test_certificate_missing_field(self, capsys, tmp_path):
        doc = json.loads(classify_document(capsys, CHI_SCHUR_NONZERO))
        del doc["verdict"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, ["verify", "--certificate", str(path)])
        assert code == 2
        assert "certificate document missing field: 'verdict'" in err


# (argv, recorded window written into a pole certificate for verify, name in the error)
MALFORMED_BOUNDS = [
    (["classify", "--chi", CHI_POLE, "--cutoff", "abc"], None, "--cutoff"),
    (["classify", "--chi", CHI_POLE, "--cutoff", "1/0"], None, "--cutoff"),
    (["classify", "--chi", CHI_POLE, "--cutoff", "-1"], None, "--cutoff"),
    (["classify", "--chi", CHI_POLE, "--window", "-1"], None, "--window"),
    (["classify", "--chi", CHI_POLE, "--excursion=-1/2"], None, "--excursion"),
    (["probe-wakimoto", "--chi", CHI_POLE, "--cutoff", "x"], None, "--cutoff"),
    (["probe-wakimoto", "--chi", CHI_POLE, "--window", "-1"], None, "--window"),
    # --cutoff and --excursion read p or p/q, as every other bound does
    *(([command, "--chi", CHI_POLE, f"--{flag}", text], None, f"--{flag}")
      for command in ("classify", "probe-wakimoto")
      for flag in ("cutoff", "excursion") for text in ("1e1", "2.5", "1_0", "1e10000000")),
    (["verify"], {"charge_window": [-2, 2]}, "certificate.data.cfg"),
    (["verify"], "4", "certificate.data.cfg"),
    (["verify"], [], "certificate.data.cfg"),
    (["verify"], {"weight_cutoff": "3", "charge_window": [2, -2], "excursion": "2"},
     "certificate.data.cfg"),
    (["verify"], {"weight_cutoff": "1/0", "charge_window": [-2, 2], "excursion": "2"},
     "certificate.data.cfg"),
    (["verify"], {"weight_cutoff": "3", "charge_window": 2, "excursion": "2"},
     "certificate.data.cfg"),
    (["enumerate", "--max-weight", "-1"], None, "max-weight"),
    (["relations", "--suite", "clifford", "--weight", "-1"], None, "weight"),
    (["schur", "--ell", "-1", "--at", "1"], None, "ell"),
    (["verify", "--start-weight", "-1"], None, "--start-weight"),
    (["verify", "--start-weight", "100"], None, "--start-weight"),
    (["verify", "--start-weight", "5/2"], {"weight_cutoff": "2", "charge_window": [-2, 2],
                                           "excursion": "2"}, "--start-weight"),
    (["verify", "--start-weight", "1" + "0" * 5000], None, "--start-weight"),
    # a recorded window holds rational strings and two JSON ints, nothing it could be read as
    *((["verify"], {"weight_cutoff": "3", "charge_window": [-2, 2], "excursion": "2", **bad},
       "certificate.data.cfg") for bad in (
        {"charge_window": [-2.9, 2.9]}, {"charge_window": ["-3", "3"]},
        {"charge_window": [True, 3]}, {"weight_cutoff": 2.5}, {"weight_cutoff": "1e1"},
        {"excursion": True})),
    # a relation suite that would check nothing, or only zero vectors
    (["relations", "--suite", "clifford", "--max-mode", "-1"], None, "--max-mode"),
    (["relations", "--suite", "clifford", "--max-mode", "0"], None, "--max-mode"),
    (["relations", "--suite", "super", "--chi", CHI_POLE, "--max-mode", "0"], None, "--max-mode"),
    (["relations", "--suite", "affine", "--chi", CHI_POLE, "--max-mode", "-1"], None, "--max-mode"),
    (["relations", "--suite", "clifford", "--trials", "0"], None, "--trials"),
    (["relations", "--suite", "affine", "--chi", CHI_POLE, "--trials", "-2"], None, "--trials"),
    (["relations", "--suite", "affine", "--chi", CHI_POLE, "--window", "-1"], None, "--window"),
    # a window or suite past its size cap, which would hang or exhaust memory
    (["enumerate", "--space", "weyl", "--max-weight", "1000"], None, "max-weight"),
    (["enumerate", "--max-weight", "33/2"], None, "max-weight"),
    (["enumerate", "--space", "weyl", "--window", "4"], None, "--window"),
    (["enumerate", "--space", "weyl", "--window", "-1"], None, "--window"),
    (["relations", "--suite", "affine", "--chi", CHI_POLE, "--window", "1000"], None, "--window"),
    (["relations", "--suite", "affine", "--chi", CHI_POLE, "--weight", "17"], None, "weight"),
    (["relations", "--suite", "clifford", "--max-mode", "5"], None, "--max-mode"),
    (["relations", "--suite", "clifford", "--trials", "11"], None, "--trials"),
    (["probe-wakimoto", "--chi", CHI_POLE, "--cutoff", "1000"], None, "--cutoff + --excursion"),
    (["probe-wakimoto", "--chi", CHI_POLE, "--cutoff", "14", "--excursion", "5/2"], None,
     "--cutoff + --excursion"),
    (["probe-wakimoto", "--chi", CHI_POLE, "--excursion", "14"], None, "--cutoff + --excursion"),
    (["probe-wakimoto", "--chi", CHI_POLE, "--window", "4"], None, "--window"),
    # a closure window past the same cap, from a flag or from the certificate
    (["classify", "--chi", CHI_POLE, "--cutoff", "1000"], None, "--cutoff + --excursion"),
    (["classify", "--chi", CHI_POLE, "--excursion", "13"], None, "--cutoff + --excursion"),
    (["verify"], {"weight_cutoff": "2", "charge_window": [-2, 2], "excursion": "20"},
     "certificate.data.cfg"),
    (["verify"], {"weight_cutoff": "40", "charge_window": [-2, 2], "excursion": "2"},
     "certificate.data.cfg"),
    (["verify"], {"weight_cutoff": "29/2", "charge_window": [-2, 2], "excursion": "5/2"},
     "certificate.data.cfg"),
    # ell past its cap, an --at list of the wrong length, a number too long to write
    (["classify", "--chi", CHI_ELL_PAST_CAP], None, "--chi"),
    (["probe-wakimoto", "--chi", CHI_ELL_PAST_CAP], None, "--chi"),
    (["schur", "--ell", str(MAX_ELL + 1)], None, "ell"),
    (["schur", "--ell", "100000", "--at", "1"], None, "ell"),
    (["schur", "--ell", "2000", "--chi", twist_text({0: 2, -1: "3/7"})], None, "ell"),
    (["schur", "--ell", "3", "--at", "1,2"], None, "--at"),
    (["schur", "--ell", "2", "--at", "1,2,3,4"], None, "--at"),
    # an affine suite whose poles each put a heavy a* mode into f
    (["relations", "--suite", "affine", "--chi", CHI_EVERY_INDEX, "--max-mode", "0",
      "--trials", "1"], None, "--chi"),
    (["relations", "--suite", "affine", "--chi", CHI_POLES_PAST_CAP], None, "--chi"),
    # a probe whose every f(n) would carry thousands of a* terms
    (["probe-wakimoto", "--chi", CHI_EVERY_INDEX], None, "--chi"),
    (["probe-wakimoto", "--chi", CHI_WIDE_TAIL], None, "--chi"),
    (["classify", "--chi", CHI_LONG_TAIL], None, "output"),
    (["schur", "--ell", str(MAX_ELL), "--chi", CHI_HUGE_TAIL], None, "output"),
]


@pytest.mark.parametrize("argv, recorded, name", MALFORMED_BOUNDS)
def test_malformed_bound_exits_two(capsys, tmp_path, argv, recorded, name):
    if argv[0] == "verify":
        doc = json.loads(classify_document(capsys, CHI_POLE))
        if recorded is not None:
            doc["certificate"]["data"]["cfg"] = recorded
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--certificate", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, err


def test_size_caps_are_inclusive(capsys):
    # the fermion spaces and the Clifford suite stay small at the caps
    argv = ["enumerate", "--max-weight", str(MAX_ENUM_WEIGHT), "--window", str(MAX_ENUM_WINDOW)]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 2065
    code, out, err = run_cli(capsys, [
        "relations", "--suite", "clifford", "--weight", "1", "--window", str(MAX_ENUM_WINDOW),
        "--max-mode", str(MAX_RELATION_MODE), "--trials", str(MAX_RELATION_TRIALS),
    ])
    assert (code, err) == (0, "")
    assert json.loads(out)["failures"] == []


def test_probe_caps_are_inclusive(capsys, monkeypatch):
    # a probe at the caps would run for hours, so the engine is stubbed out
    class Reached(Exception):
        pass

    windows = []

    def recorded(chi, cfg):
        windows.append(cfg)
        raise Reached

    monkeypatch.setattr(cli, "wakimoto_probe", recorded)
    argv = ["probe-wakimoto", "--chi", CHI_POLE, "--cutoff", str(MAX_ENUM_WEIGHT - 2),
            "--excursion", "2", "--window", str(MAX_ENUM_WINDOW)]
    with pytest.raises(Reached):
        main(argv)
    assert windows == [ClosureConfig(
        Fraction(MAX_ENUM_WEIGHT - 2), (-MAX_ENUM_WINDOW, MAX_ENUM_WINDOW), Fraction(2))]
    # a twist of MAX_PROBE_SUPPORT indices, poles among them, reaches the probe
    at_cap = twist_text({m: 1 for m in range(1 - MAX_PROBE_SUPPORT // 2, MAX_PROBE_SUPPORT // 2 + 1)})
    with pytest.raises(Reached):
        main(["probe-wakimoto", "--chi", at_cap])
    assert len(windows) == 2


def test_closure_caps_are_inclusive(capsys, tmp_path, monkeypatch):
    # classify and verify at the cap would run for seconds, so the engine is stubbed out
    class Reached(Exception):
        pass

    windows = []

    def classified(chi, cfg):
        windows.append(cfg)
        raise Reached

    def verified(chi, verdict, cert, **kwargs):
        windows.append(recorded_cfg(cert))
        raise Reached

    at_cap = ClosureConfig(Fraction(MAX_ENUM_WEIGHT - 2), (-2, 2), Fraction(2))
    doc = json.loads(classify_document(capsys, CHI_POLE))
    doc["certificate"]["data"]["cfg"] = at_cap.to_json_obj()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(cli, "classify", classified)
    monkeypatch.setattr(cli, "verify_certificate", verified)
    for argv in (["classify", "--chi", CHI_POLE, "--cutoff", str(MAX_ENUM_WEIGHT - 2),
                  "--window", "2"],
                 ["verify", "--certificate", str(path)]):
        with pytest.raises(Reached):
            main(argv)
    assert windows == [at_cap, at_cap]


def test_affine_suite_takes_a_wide_tail_and_poles_up_to_the_cap(capsys, tmp_path):
    # f(n) carries 1001 twist terms; its bracket table stays linear in them
    code, out, err = run_cli(capsys, [
        "relations", "--suite", "affine", "--chi", CHI_WIDE_TAIL,
        "--max-mode", "1", "--trials", "1",
    ])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"checked": 54, "failures": [], "seed": 0, "suite": "affine"}
    # the cap is on the sum of the poles: a lone pole at the largest index
    # passes, and so do poles summing to the cap beside a wide tail
    lone = twist_text({1000: 1})
    at_cap = twist_text({
        1000: 1, MAX_RELATION_POLE_WEIGHT - 1000: 1, **{-j: 1 for j in range(200)},
    })
    for chi in (lone, at_cap):
        code, out, err = run_cli(capsys, [
            "relations", "--suite", "affine", "--chi", chi, "--max-mode", "1", "--trials", "1",
        ])
        assert (code, err) == (0, "")
        assert json.loads(out)["failures"] == []
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(CHI_POLES_PAST_CAP, encoding="utf-8")
    argv = ["relations", "--suite", "affine", "--chi-file", str(chi_file)]
    code, out, err = run_cli(capsys, argv)
    past = (
        f"suite 'affine' takes poles summing to <= {MAX_RELATION_POLE_WEIGHT},"
        f" got {MAX_RELATION_POLE_WEIGHT + 1}"
    )
    assert (code, out, err) == (2, "", f"error: --chi-file: {past}\n")


def test_ell_cap_is_inclusive_and_read_from_every_source(capsys, tmp_path):
    at_cap = twist_text({0: MAX_ELL + 1, -1: "1/3"})
    path = tmp_path / "cert.json"
    path.write_text(classify_document(capsys, at_cap, extra=[]), encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify", "--certificate", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["data"]["ell"] == MAX_ELL
    past = f"ell = chi_0 - 1 must be <= {MAX_ELL}, got {MAX_ELL + 1}\n"
    # verify reads the twist of the certificate document
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["chi"] = json.loads(CHI_ELL_PAST_CAP)
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify", "--certificate", str(path)])
    assert (code, out, err) == (2, "", f"error: chi: {past}")
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(CHI_ELL_PAST_CAP, encoding="utf-8")
    for command in ("classify", "probe-wakimoto"):
        code, out, err = run_cli(capsys, [command, "--chi-file", str(chi_file)])
        assert (code, out, err) == (2, "", f"error: --chi-file: {past}")
    code, out, err = run_cli(capsys, ["schur", "--ell", str(MAX_ELL), "--chi", at_cap])
    assert (code, err) == (0, "")


def test_start_weight_widens_the_probes(capsys, tmp_path):
    # the certify benchmark's window: cutoff 5, start weight 7/2
    path = tmp_path / "cert.json"
    path.write_text(classify_document(
        capsys, CHI_POLE, extra=["--cutoff", "5", "--window", "3", "--excursion", "2"]))
    probes = {}
    for extra in ([], ["--start-weight", "7/2"]):
        code, out, err = run_cli(capsys, ["verify", "--certificate", str(path), *extra])
        assert (code, err) == (0, "")
        checks = json.loads(out)["report"]["checks"]
        probes[len(extra)] = next(c["detail"] for c in checks if c["name"] == "cyclic_probes")
    # `enumerate` counts 8 charged states up to weight 5/2 and 14 up to 7/2
    assert probes == {0: "8/8 generators cyclic", 2: "14/14 generators cyclic"}


def test_window_flags_fill_from_the_base(capsys):
    base = ClosureConfig(Fraction(5), (-1, 2), Fraction(3))
    parse = cli.build_parser().parse_args
    args = parse(["classify", "--excursion", "5/2"])
    assert cli._cfg_from_args(args, base) == ClosureConfig(Fraction(5), (-1, 2), Fraction(5, 2))
    args = parse(["probe-wakimoto", "--window", "4", "--cutoff", "7/2"])
    assert cli._cfg_from_args(args, base) == ClosureConfig(Fraction(7, 2), (-4, 4), Fraction(3))
    assert cli._cfg_from_args(parse(["classify"]), base) == base
    doc = json.loads(classify_document(capsys, CHI_POLE, extra=[]))
    assert doc["certificate"]["data"]["cfg"] == DEFAULT_CFG.to_json_obj()


def test_verify_takes_no_window_flag(capsys):
    # verify checks in the window the certificate records and nowhere else
    for flag in ("--cutoff", "--window", "--excursion"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--certificate", "-", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


CHI_NEG_ELL = json.dumps({"coeffs": [{"m": 0, "value": "-1"}]})
_WORD = ("certificate", "data", "lowering_word")
_COEFF = ("certificate", "data", "vacuum_coefficient")

# (twist, path of the value in a classify document, the value written there,
# exit code, failing check (exit 1) or field named in the error (exit 2))
MALFORMED_INPUTS = [
    (CHI_SCHUR_NONZERO, _WORD, [{"op": "Q", "mode": "1/2"}], 1, "lowering_word_reaches_vacuum"),
    (CHI_SCHUR_NONZERO, _WORD, [{"op": "G-", "mode": "1"}], 1, "lowering_word_reaches_vacuum"),
    (CHI_SCHUR_NONZERO, _WORD, ["x"], 1, "lowering_word_reaches_vacuum"),
    (CHI_SCHUR_NONZERO, _WORD, 5, 1, "lowering_word_reaches_vacuum"),
    (CHI_SCHUR_NONZERO, _COEFF, "abc", 1, "lowering_word_reaches_vacuum"),
    (CHI_SCHUR_NONZERO, _COEFF, "1/0", 1, "lowering_word_reaches_vacuum"),
    (CHI_NEG_ELL, ("certificate", "data", "excluded_state"), 5, 1, "excluded_state"),
    (CHI_NEG_ELL, ("certificate", "data", "excluded_state"), None, 1, "excluded_state"),
    (CHI_SCHUR_ZERO, ("certificate", "data", "w"), [{"state": 5, "value": "1"}], 1,
     "witness_matches"),
    (CHI_SCHUR_NONZERO, ("certificate", "data"), "abc", 2, "certificate.data"),
    (CHI_SCHUR_NONZERO, ("certificate", "data"), [["ell", 1]], 2, "certificate.data"),
    (CHI_SCHUR_NONZERO, ("certificate", "kind"), ["x"], 2, "certificate.kind"),
    (CHI_SCHUR_NONZERO, ("certificate",), "abc", 2, "certificate"),
    (CHI_SCHUR_NONZERO, ("verdict", "data"), "ab", 2, "verdict.data"),
    (CHI_SCHUR_NONZERO, ("verdict", "data"), [["ell", 2]], 2, "verdict.data"),
    (CHI_SCHUR_NONZERO, ("verdict", "status"), 5, 2, "verdict.status"),
    (CHI_SCHUR_NONZERO, ("verdict", "case"), None, 2, "verdict.case"),
    # verify reads no window but the recorded one
    (CHI_SCHUR_NONZERO, ("certificate", "data"),
     {"ell": 2, "schur_value": "-1/2", "vacuum_coefficient": "-1",
      "lowering_word": [{"op": "G-", "mode": "1/2"}, {"op": "G-", "mode": "3/2"}]},
     2, "certificate.data.cfg"),
]


def verify_edited(capsys, monkeypatch, chi_text, path, value):
    doc = json.loads(classify_document(capsys, chi_text))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    return run_cli(capsys, ["verify", "--certificate", "-"])


@pytest.mark.parametrize(
    "chi_text, path, value, code, name",
    MALFORMED_INPUTS,
    ids=[f"{i:02d}-{'.'.join(case[1])}" for i, case in enumerate(MALFORMED_INPUTS)],
)
def test_malformed_certificate_input(capsys, monkeypatch, chi_text, path, value, code, name):
    # main returns instead of raising, so no traceback can reach the user
    got, out, err = verify_edited(capsys, monkeypatch, chi_text, path, value)
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        failed = [c["name"] for c in json.loads(out)["report"]["checks"] if not c["passed"]]
        assert failed == [name]


CHI_ELL_ONE = json.dumps({"coeffs": [{"m": 0, "value": "2"}, {"m": -1, "value": "1"}]})


# (twist, integer field the verdict repeats, the checks a boolean there fails)
BOOLEAN_FIELDS = [
    (CHI_ELL_ONE, "ell", ["ell"]),
    (CHI_NEG_ELL, "q", ["q"]),
    (CHI_POLE, "pole_order", ["pole_order", "pole_coefficient"]),
]


@pytest.mark.parametrize("chi_text, field, failing", BOOLEAN_FIELDS,
                         ids=[field for _, field, _ in BOOLEAN_FIELDS])
def test_boolean_is_not_an_integer(capsys, monkeypatch, chi_text, field, failing):
    # JSON true equals 1 in Python; the verifier must not take one for the other
    doc = json.loads(classify_document(capsys, chi_text))
    assert doc["certificate"]["data"][field] == 1
    doc["verdict"]["data"][field] = True
    for parts, failed_checks in (
        (("verdict",), ["verdict_matches_certificate"]),
        (("verdict", "certificate"), failing),
    ):
        for part in parts:
            doc[part]["data"][field] = True
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, ["verify", "--certificate", "-"])
        assert (code, err) == (1, "")
        failed = [c["name"] for c in json.loads(out)["report"]["checks"] if not c["passed"]]
        assert failed == failed_checks


def test_forged_certificates_are_refused(capsys, monkeypatch):
    word = [{"op": "Psi-", "mode": "3/2"}]
    code, out, err = verify_edited(capsys, monkeypatch, CHI_ELL_ONE, _WORD, word)
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["report"]["checks"] if not c["passed"]]
    assert failed == ["lowering_word_reaches_vacuum"]
    # a verdict without a case is a document of the wrong shape; with a case
    # it still fails, since no kind "bogus" supports any verdict
    doc = json.loads(classify_document(capsys, CHI_SCHUR_ZERO))
    doc["certificate"]["kind"] = "bogus"
    for case, code in ((None, 2), ("schur_zero", 1)):
        doc["verdict"] = {"status": "reducible", "case": case}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        got, out, err = run_cli(capsys, ["verify", "--certificate", "-"])
        assert got == code
        if code == 2:
            assert (out, err) == ("", "error: verdict.case: expected a string\n")
        else:
            checks = json.loads(out)["report"]["checks"]
            assert [(c["name"], c["passed"]) for c in checks] == [
                ("verdict_matches_certificate", False)
            ]


class TestSchur:
    def test_direct_evaluation(self, capsys):
        code, out, err = run_cli(capsys, ["schur", "--ell", "3", "--at", "1,2,3"])
        assert code == 0
        assert json.loads(out) == {"ell": 3, "value": "13/6", "xs": ["1", "2", "3"]}

    def test_twist_evaluation_hits_zero(self, capsys):
        chi = json.dumps(
            {
                "coeffs": [
                    {"m": 0, "value": "3"},
                    {"m": -1, "value": "1"},
                    {"m": -2, "value": "1"},
                ]
            }
        )
        code, out, err = run_cli(capsys, ["schur", "--ell", "2", "--chi", chi])
        assert code == 0
        assert json.loads(out)["value"] == "0"

    def test_bad_rational_names_entry(self, capsys):
        code, out, err = run_cli(capsys, ["schur", "--ell", "2", "--at", "bogus,1"])
        assert code == 2
        assert err == "error: at[0]: not a rational literal: 'bogus'\n"

    def test_at_takes_ell_values(self, capsys):
        # S_0 reads no value; from ell = 1 on --at holds x_1..x_ell (any
        # other length exits 2, see MALFORMED_BOUNDS)
        for ell, at, value in (("0", "5", "1"), ("1", "5", "5"), ("2", "1,1", "1")):
            code, out, err = run_cli(capsys, ["schur", "--ell", ell, "--at", at])
            assert (code, err) == (0, "")
            assert json.loads(out)["value"] == value

    def test_requires_a_source(self, capsys):
        code, out, err = run_cli(capsys, ["schur", "--ell", "2"])
        assert code == 2
        assert "schur needs --at or a twist" in err


class TestEnumerate:
    def test_charged_window(self, capsys):
        code, out, err = run_cli(
            capsys, ["enumerate", "--space", "charged", "--max-weight", "5/2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["space"] == "charged"
        assert doc["max_weight"] == "5/2"
        assert doc["count"] == 8
        assert doc["graded"] == [
            {"charge": 0, "dim": 1, "weight": "0"},
            {"charge": -1, "dim": 1, "weight": "1/2"},
            {"charge": -1, "dim": 1, "weight": "3/2"},
            {"charge": 1, "dim": 1, "weight": "3/2"},
            {"charge": -2, "dim": 1, "weight": "2"},
            {"charge": 0, "dim": 1, "weight": "2"},
            {"charge": -1, "dim": 1, "weight": "5/2"},
            {"charge": 1, "dim": 1, "weight": "5/2"},
        ]
        assert "states" not in doc

    def test_ambient_window(self, capsys):
        code, out, err = run_cli(
            capsys, ["enumerate", "--space", "ambient", "--max-weight", "2"]
        )
        assert code == 0
        assert json.loads(out)["count"] == 10

    def test_weyl_window_with_states(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "enumerate",
                "--space",
                "weyl",
                "--max-weight",
                "2",
                "--window",
                "2",
                "--states",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 24
        assert len(doc["states"]) == 24
        assert doc["states"][:3] == ["|0>", "a*(0) |0>", "a*(0)^2 |0>"]
        assert sum(entry["dim"] for entry in doc["graded"]) == 24


class TestProbeWakimoto:
    def test_pole_twist_agrees(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["probe-wakimoto", "--chi", CHI_POLE, "--cutoff", "2", "--window", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees"] is True
        assert doc["verdict"]["status"] == "irreducible"
        assert doc["evidence"]["all_cyclic"] is True
        assert doc["evidence"]["probed"] == 15
        assert doc["evidence"]["candidates"] == []

    def test_reducible_twist_agrees(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "probe-wakimoto",
                "--chi",
                CHI_SCHUR_ZERO,
                "--cutoff",
                "2",
                "--window",
                "2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees"] is True
        assert doc["verdict"]["status"] == "reducible"
        assert doc["evidence"]["all_cyclic"] is False
        assert doc["evidence"]["non_cyclic"] == ["a(-1) |0>", "a(-1)^2 |0>"]
        assert doc["evidence"]["probed"] == 24
        assert doc["evidence"]["candidates"] == [
            {
                "charge": -1,
                "dimension": 1,
                "vectors": [[{"state": "a(-1) |0>", "value": "1"}]],
                "weight": 1,
            }
        ]

    @pytest.mark.parametrize(
        "coeffs, status",
        [
            ([{"m": 0, "value": "2"}, {"m": -1000, "value": "1"}], "reducible"),
            ([{"m": 1000, "value": "1"}], "irreducible"),
        ],
    )
    def test_far_index_stays_small(self, capsys, coeffs, status):
        # the current family grows with the pole indices only, and by a
        # few f modes each, so neither twist builds thousands of operators
        chi = json.dumps({"coeffs": coeffs})
        code, out, err = run_cli(
            capsys,
            ["probe-wakimoto", "--chi", chi, "--cutoff", "2", "--window", "2", "--excursion", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees"] is True
        assert doc["verdict"]["status"] == status
        assert doc["evidence"]["probed"] == 24


class TestRelations:
    def test_clifford_suite(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "relations",
                "--suite",
                "clifford",
                "--max-mode",
                "2",
                "--trials",
                "2",
                "--weight",
                "2",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"checked": 96, "failures": [], "seed": 7, "suite": "clifford"}

    def test_super_suite(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "relations",
                "--suite",
                "super",
                "--chi",
                CHI_MIXED,
                "--max-mode",
                "1",
                "--trials",
                "2",
                "--weight",
                "2",
                "--seed",
                "11",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 24
        assert doc["failures"] == []

    def test_affine_suite(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "relations",
                "--suite",
                "affine",
                "--chi",
                CHI_MIXED,
                "--max-mode",
                "1",
                "--trials",
                "2",
                "--weight",
                "2",
                "--window",
                "1",
                "--seed",
                "3",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 108
        assert doc["failures"] == []

    def test_super_requires_twist(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["relations", "--suite", "super", "--max-mode", "1", "--trials", "1"],
        )
        assert code == 2
        assert "suite 'super' needs a twist" in err


class TestInterface:
    def test_byte_identical_reruns(self, capsys):
        first = classify_document(capsys, CHI_SCHUR_ZERO)
        second = classify_document(capsys, CHI_SCHUR_ZERO)
        assert first == second
        args = ["relations", "--suite", "clifford", "--trials", "2", "--seed", "5"]
        code1, out1, _ = run_cli(capsys, args)
        code2, out2, _ = run_cli(capsys, args)
        assert (code1, out1) == (code2, out2)

    def test_inline_bad_rational_names_field(self, capsys):
        chi = json.dumps({"coeffs": [{"m": 0, "value": "bogus"}]})
        code, out, err = run_cli(capsys, ["classify", "--chi", chi])
        assert code == 2
        assert err == "error: coeffs[0].value: not a rational literal: 'bogus'\n"

    def test_classify_requires_twist(self, capsys):
        code, out, err = run_cli(capsys, ["classify"])
        assert code == 2
        assert "a twist is required" in err

    def test_chi_file_matches_inline(self, capsys, tmp_path):
        inline = classify_document(capsys, CHI_SCHUR_NONZERO)
        path = tmp_path / "chi.json"
        path.write_text(CHI_SCHUR_NONZERO, encoding="utf-8")
        code, out, err = run_cli(
            capsys, ["classify", "--chi-file", str(path), *SMALL_CFG]
        )
        assert code == 0
        assert out == inline

    @pytest.mark.parametrize("command", ["classify", "probe-wakimoto"])
    def test_huge_index_is_a_parse_error(self, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("a capped twist must not reach the engine")

        monkeypatch.setattr(cli, "classify", never)
        monkeypatch.setattr(cli, "decide", never)
        monkeypatch.setattr(cli, "wakimoto_probe", never)
        chi = json.dumps({"coeffs": [{"m": 0, "value": "2"}, {"m": -10**9, "value": "1"}]})
        code, out, err = run_cli(capsys, [command, "--chi", chi])
        assert code == 2 and out == ""
        assert err.startswith("error: coeffs[1].m: index -1000000000 exceeds")

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_chi_and_chi_file_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(CHI_POLE, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--chi", CHI_POLE, "--chi-file", str(path)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        built = []
        fresh = cli.build_parser

        def counted():
            built.append(fresh())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            argv = ["schur", "--ell", "2", "--at", "1,1"]
            assert run_cli(capsys, argv) == run_cli(capsys, argv)
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()
        # a direct caller still gets a parser of its own
        assert fresh() is not fresh()

    def test_parser_is_not_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from wakimoto import cli; print(cli._parser.cache_info().currsize)"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_module_invocation_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wakimoto.cli", "schur", "--ell", "2", "--at", "1,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"ell": 2, "value": "1", "xs": ["1", "1"]}
