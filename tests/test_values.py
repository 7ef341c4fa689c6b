"""The value classes are immutable namedtuples, checked on every way in.

They are ``Verdict``, ``Certificate``, ``Check`` and ``Report``,
``ClosureConfig`` and ``Space``, ``OperatorWord`` and ``Evidence``.  None
of them needs ``dataclasses`` or ``typing``, so the CLI's import loads
neither.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wakimoto
from wakimoto import (
    DEFAULT_CFG,
    DEFAULT_PROBE_CFG,
    FOCK_SPACE,
    Certificate,
    Check,
    ClosureConfig,
    Evidence,
    OperatorWord,
    Report,
    Verdict,
)

# the stdlib the CLI needs anyway is loaded first, so only what the
# package itself pulls in is counted
COLD_IMPORT = """
import sys
import argparse, json, fractions, random, re, functools, itertools
before = set(sys.modules)
import wakimoto.cli, wakimoto.weyl
print(sorted({"dataclasses", "inspect", "typing"} & (set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # -S: site hooks may load typing before the package is imported
    src = str(Path(wakimoto.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_IMPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_closure_config_validates_every_construction():
    for build in (
        lambda: ClosureConfig(4, (1, -1), 2),
        lambda: ClosureConfig(charge_window=(1, -1)),
        lambda: DEFAULT_CFG._replace(charge_window=(1, -1)),
        lambda: DEFAULT_CFG._replace(excursion=-1),
        lambda: ClosureConfig._make((4, (1, -1), 2)),
    ):
        with pytest.raises(ValueError):
            build()
    for cfg in (ClosureConfig(5, (-1, 1), 1), DEFAULT_CFG._replace(weight_cutoff=5, excursion=1)):
        assert (type(cfg.weight_cutoff), type(cfg.excursion)) == (Fraction, Fraction)
        assert (cfg.weight_cutoff, cfg.excursion, cfg.bound) == (5, 1, 6)
    with pytest.raises(ValueError):
        DEFAULT_CFG._replace(cutoff=5)
    assert copy.copy(DEFAULT_CFG) == pickle.loads(pickle.dumps(DEFAULT_CFG)) == DEFAULT_CFG


def test_operator_word_validates_every_construction():
    bad = (("G+", 2),)
    for build in (
        lambda: OperatorWord(bad),
        lambda: OperatorWord()._replace(ops=bad),
        lambda: OperatorWord._make((bad,)),
        lambda: OperatorWord((("G", 1),)),
    ):
        with pytest.raises(ValueError):
            build()
    word = OperatorWord((("G-", 1),))
    assert word._replace(ops=(("G+", -3),)) == OperatorWord((("G+", -3),))


CHECK = Check("vacuum_excluded", True)
VALUES = [
    Verdict("irreducible", "i", {}),
    Certificate("pole", {}),
    CHECK,
    Report((CHECK,)),
    DEFAULT_CFG,
    FOCK_SPACE,
    OperatorWord(),
    Evidence(True, (), (), 0, DEFAULT_PROBE_CFG),
]


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_values_are_immutable(value):
    assert isinstance(value, tuple) and not hasattr(value, "__dict__")
    for name in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == copy.copy(value)


def test_fields_keep_their_defaults():
    assert CHECK.detail == ""
    assert ClosureConfig() == ClosureConfig(Fraction(4), (-3, 3), Fraction(2))
    assert OperatorWord().ops == ()
    assert repr(CHECK) == "Check(name='vacuum_excluded', passed=True, detail='')"
