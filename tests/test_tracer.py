"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` wraps package functions by the names their callers
look up, so renaming one breaks every traced benchmark run.  This runs one
operation of each benchmark workload under the tracer and checks that each
layer was counted and that ``remove`` puts the package's own functions back.
The tracer rebuilds every op family entry as ``(label, counted op)``, so the
boson family's declarations, which live on its labels, must survive that.
"""

import importlib
import json
from fractions import Fraction
from pathlib import Path

from wakimoto import ChiSeries, ClosureConfig, WeylAction, WeylState, cli, span, weyl

CHI_SCHUR_ZERO = json.dumps({"coeffs": [{"m": 0, "value": "2"}]})


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracer").Tracer()


def test_tracer_counts_every_workload_and_removes_cleanly(monkeypatch, tmp_path, capsys):
    tracer = _tracer(monkeypatch)
    tracer.install()
    saved = list(tracer._saved)
    try:
        # certify: classify | verify on a Schur-zero twist
        assert cli.main(["classify", "--chi", CHI_SCHUR_ZERO, "--cutoff", "2"]) == 0
        path = tmp_path / "cert.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert cli.main(["verify", "--certificate", str(path)]) == 0
        # crosscheck: the boson probe
        assert cli.main(["probe-wakimoto", "--chi", CHI_SCHUR_ZERO, "--cutoff", "1"]) == 0
        # relations: one call of the suite, as the workload makes it
        chi = ChiSeries({0: 2})
        v = weyl.WeylVec.basis(WeylState((1,), (0,)))
        assert all(ok for _, ok in weyl.affine_relation_check(1, -1, v, chi, WeylAction(chi)))
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert metrics["span.closure_calls"] > 0
    assert metrics["weyl.apply_calls"] > 0
    assert tracer.stats["weyl.relation_check"][0] > 0
    assert saved and all(getattr(owner, attr) is own for owner, attr, own in saved)


def _closure_applications(monkeypatch, chi, cfg, family=None):
    """The probe's evidence and the op applications inside its closures.

    They are counted as the tracer counts them, by a wrapper around each op
    that ``span.closure`` receives.  ``family`` replaces ``wakimoto_ops``.
    """
    applied = [0]
    close = span.closure

    def counted(op):
        def apply(v):
            applied[0] += 1
            return op(v)

        return apply

    def counting(generators, ops, cfg, space, stop_at=None):
        return close(generators, [(label, counted(op)) for label, op in ops], cfg, space, stop_at)

    with monkeypatch.context() as mp:
        mp.setattr(span, "closure", counting)
        if family is not None:
            mp.setattr(weyl, "wakimoto_ops", family)
        evidence = weyl.wakimoto_probe(chi, cfg)
    return evidence, applied[0]


def test_traced_probe_skips_what_the_untraced_probe_skips(monkeypatch):
    chi = ChiSeries({0: 2})  # reducible: some probes run their closures
    cfg = ClosureConfig(Fraction(2), (-2, 2), Fraction(1))
    ops = weyl.wakimoto_ops(chi, cfg, WeylAction(chi))
    # entries unpack as pairs, with labels that read as the plain text
    assert [label for label, _ in ops] == [f"{k}({n})" for n in range(-3, 4) for k in "ehf"]
    assert [json.dumps(label) for label, _ in ops] == [json.dumps(str(label)) for label, _ in ops]
    evidence, applied = _closure_applications(monkeypatch, chi, cfg)
    # the count is not vacuous: with plain labels the closures skip nothing
    declared = weyl.wakimoto_ops
    plain, every = _closure_applications(
        monkeypatch, chi, cfg, lambda *args: [(str(label), op) for label, op in declared(*args)]
    )
    assert plain == evidence and applied < every
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        traced = weyl.wakimoto_probe(chi, cfg)
    finally:
        tracer.remove()
    assert traced == evidence and not evidence.all_cyclic
    assert tracer.counts["span.op_applications"] == applied
