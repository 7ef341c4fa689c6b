"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` wraps package functions by the names their callers
look up, so renaming one breaks every traced benchmark run.  This runs one
operation of each benchmark workload under the tracer and checks that each
layer was counted and that ``remove`` puts the package's own functions back.
"""

import importlib
import json
from pathlib import Path

from wakimoto import ChiSeries, WeylAction, WeylState, cli, weyl

CHI_SCHUR_ZERO = json.dumps({"coeffs": [{"m": 0, "value": "2"}]})


def test_tracer_counts_every_workload_and_removes_cleanly(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
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
