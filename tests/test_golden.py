"""Golden CLI outputs of the exact expansions, byte for byte.

``golden/model_2d.json`` is a 2D rational model with cubic and quartic
couplings drawn from a fixed seed; its frequencies (1, 3/2) are free of the
resonances the excited levels and the Sternberg map below would hit.
"""

from pathlib import Path

import pytest

from anharmonic.cli import main

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
    ("excited_quartic_m1.json",
     ["expand-excited", "--model", "builtin:quartic", "--levels", "1",
      "--order", "3"]),
    ("excited_model_2d_m1.json",
     ["expand-excited", "--model", MODEL_2D, "--levels", "0,1",
      "--order", "2"]),
    ("sternberg_quartic.json",
     ["sternberg", "--model", "builtin:quartic", "--degree", "7"]),
    ("sternberg_model_2d.json",
     ["sternberg", "--model", MODEL_2D, "--degree", "6"]),
]


def run(tmp_path, argv) -> bytes:
    dest = tmp_path / "out.json"
    assert main([*argv, "--output", str(dest)]) == 0
    return dest.read_bytes()


@pytest.mark.parametrize("name, argv", BYTE_IDENTICAL,
                         ids=[name for name, _ in BYTE_IDENTICAL])
def test_output_is_byte_identical(tmp_path, name, argv):
    assert run(tmp_path, argv) == (GOLDEN / name).read_bytes()
