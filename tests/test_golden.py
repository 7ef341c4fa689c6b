"""Golden CLI outputs: exact stdout and exit code of a fixed command corpus.

``golden/cli.json`` lists commands run in process through ``cli.main``.  An
entry with ``"pipe": true`` reads the previous entry's recorded stdout on
stdin, so each ``verify`` checks the certificate its ``classify`` recorded.
The corpus covers ``classify`` -> ``verify`` on every case (far tails and a
far pole included) at the default window and a small one, ``probe-wakimoto``
on every case, the three relation suites, the three enumerated spaces and
``schur``.

A change that alters output by design regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says in its notes which entries changed and why.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from wakimoto.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def run(argv, stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def piped_input(index: int) -> str:
    return CASES[index - 1]["stdout"] if CASES[index].get("pipe") else ""


@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_golden_output(index):
    case = CASES[index]
    code, out, err = run(case["argv"], piped_input(index))
    assert out == case["stdout"]
    assert code == case["code"]
    assert err == ""


def test_corpus_covers_every_case_and_command():
    cases = {
        json.loads(c["stdout"])["verdict"]["case"]
        for c in CASES
        if c["argv"][0] in ("verify", "probe-wakimoto")
    }
    assert cases == {"i", "ii", "iii", "schur_zero", "neg_ell"}
    commands = {c["argv"][0] for c in CASES}
    assert commands == {"classify", "verify", "probe-wakimoto", "relations", "enumerate", "schur"}
    assert all(CASES[i - 1]["argv"][0] == "classify" for i, c in enumerate(CASES) if c.get("pipe"))


def expect(index: int) -> tuple[int, str, str]:
    return CASES[index]["code"], CASES[index]["stdout"], ""


# one probe-wakimoto entry per classifier case
PROBES = {
    json.loads(c["stdout"])["verdict"]["case"]: i
    for i, c in enumerate(CASES)
    if c["argv"][0] == "probe-wakimoto"
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_probe_builds_no_certificate(case, monkeypatch):
    # the verdict holds scalar fields only, so no fermion-side engine runs
    def engine(*args, **kwargs):
        raise AssertionError("probe-wakimoto built a certificate")

    module = importlib.import_module("wakimoto.classify")
    for name in ("closure", "singular_w", "gminus_string_on_omega"):
        monkeypatch.setattr(module, name, engine)
    index = PROBES[case]
    assert run(CASES[index]["argv"], "") == expect(index)


def test_corpus_replays_in_reverse_order():
    # one process, the reverse order: no output depends on an earlier call
    for index in reversed(range(len(CASES))):
        assert run(CASES[index]["argv"], piped_input(index)) == expect(index), index


@pytest.mark.parametrize("bad", ["unknown-command", "chi-and-chi-file"])
def test_argparse_exit_leaves_no_state(bad, tmp_path):
    # argparse exits 2 through SystemExit mid-parse; the reused parser must
    # read the next command as a fresh one would
    argv = CASES[0]["argv"]
    assert argv[:2] == ["classify", "--chi"] and CASES[1].get("pipe")
    if bad == "unknown-command":
        bad_argv = ["frobnicate", *argv[1:]]
    else:
        path = tmp_path / "chi.json"
        path.write_text(argv[2], encoding="utf-8")
        bad_argv = [*argv, "--chi-file", str(path)]
    errors = []
    for _ in range(2):
        err = io.StringIO()
        with pytest.raises(SystemExit) as excinfo, contextlib.redirect_stderr(err):
            main(bad_argv)
        assert excinfo.value.code == 2
        errors.append(err.getvalue())
        assert run(argv, "") == expect(0)
        assert run(CASES[1]["argv"], piped_input(1)) == expect(1)
    assert errors[0] == errors[1] and "error:" in errors[0]


if __name__ == "__main__":
    for i, case in enumerate(CASES):
        case["code"], case["stdout"], _ = run(case["argv"], piped_input(i))
    GOLDEN.write_text(json.dumps(CASES, indent=1, sort_keys=True) + "\n", encoding="utf-8")
