"""Golden CLI outputs of the exact expansions.

The files under ``golden/`` were written by the CLI before the transport and
Sternberg solvers were rewritten around one graded recurrence.  The ground
and |m| >= 2 excited expansions must stay byte-identical.  Two outputs were
meant to change, and the tests pin exactly how:

* ``phi_0`` for |m| = 1 loses its degree-D slice, which needs ``S_0`` at
  degree D + 1 and was wrong (it is now labelled at D - 1);
* ``sternberg`` gains the degree-``degree`` terms its old solver dropped.

``golden/model_2d.json`` is a 2D rational model with cubic and quartic
couplings drawn from a fixed seed; its frequencies (1, 3/2) are free of the
resonances the excited levels and the Sternberg map below would hit.
"""

import json
from pathlib import Path

import pytest

from anharmonic.cli import main
from anharmonic.series import PolySeries

GOLDEN = Path(__file__).parent / "golden"
MODEL_2D = str(GOLDEN / "model_2d.json")

BYTE_IDENTICAL = [
    ("ground_quartic.json",
     ["expand-ground", "--model", "builtin:quartic", "--order", "8"]),
    ("ground_sectic.json",
     ["expand-ground", "--model", "builtin:sectic", "--order", "6"]),
    ("ground_model_2d.json",
     ["expand-ground", "--model", MODEL_2D, "--order", "4"]),
    ("excited_quartic.json",
     ["expand-excited", "--model", "builtin:quartic", "--levels", "2",
      "--order", "4"]),
    ("excited_sectic.json",
     ["expand-excited", "--model", "builtin:sectic", "--levels", "3",
      "--order", "3"]),
    ("excited_model_2d.json",
     ["expand-excited", "--model", MODEL_2D, "--levels", "1,1",
      "--order", "3"]),
]

LEVEL_ONE = [
    ("excited_quartic_m1.json",
     ["expand-excited", "--model", "builtin:quartic", "--levels", "1",
      "--order", "3"]),
    ("excited_model_2d_m1.json",
     ["expand-excited", "--model", MODEL_2D, "--levels", "0,1",
      "--order", "2"]),
]

STERNBERG = [
    ("sternberg_quartic.json",
     ["sternberg", "--model", "builtin:quartic", "--degree", "7"]),
    ("sternberg_model_2d.json",
     ["sternberg", "--model", MODEL_2D, "--degree", "6"]),
]


def run(tmp_path, argv) -> bytes:
    dest = tmp_path / "out.json"
    assert main([*argv, "--output", str(dest)]) == 0
    return dest.read_bytes()


def below(series: PolySeries, degree: int) -> PolySeries:
    """The terms of ``series`` of total degree < ``degree``."""
    return PolySeries(series.dim, series.trunc,
                      {k: c for k, c in series.items() if sum(k) < degree})


@pytest.mark.parametrize("name, argv", BYTE_IDENTICAL,
                         ids=[name for name, _ in BYTE_IDENTICAL])
def test_output_is_byte_identical(tmp_path, name, argv):
    assert run(tmp_path, argv) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", LEVEL_ONE,
                         ids=[name for name, _ in LEVEL_ONE])
def test_level_one_phi0_loses_only_its_top_slice(tmp_path, name, argv):
    new = json.loads(run(tmp_path, argv))
    old = json.loads((GOLDEN / name).read_text())
    old_phi0 = PolySeries.from_json(old["corrections"][0])
    new_phi0 = PolySeries.from_json(new["corrections"][0])
    top = old_phi0.trunc
    assert new_phi0 == below(old_phi0, top).with_truncation(top - 1)
    assert new["corrections"][1:] == old["corrections"][1:]
    new.pop("corrections")
    old.pop("corrections")
    assert new == old


@pytest.mark.parametrize("name, argv", STERNBERG,
                         ids=[name for name, _ in STERNBERG])
def test_sternberg_gains_only_its_top_degree(tmp_path, name, argv):
    new = json.loads(run(tmp_path, argv))
    old = json.loads((GOLDEN / name).read_text())
    assert new["residual_is_zero"] is True
    assert new["degree"] == old["degree"]
    top = new["degree"]
    gained = 0
    for new_c, old_c in zip(new["components"], old["components"]):
        new_mu = PolySeries.from_json(new_c)
        old_mu = PolySeries.from_json(old_c)
        assert below(new_mu, top) == old_mu
        gained += len(list(new_mu.items())) - len(list(old_mu.items()))
    assert gained > 0
