"""Command-line interface: outputs, formats, and exit codes."""

import argparse
import csv
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from anharmonic import variational
from anharmonic.cli import main
from flowcheck import decay_bound_satisfied


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def degenerate_model_file(tmp_path):
    """Equal frequencies plus an x1^2 x2^2 coupling: excited levels with
    m = (2, 0) hit a resonant divisor."""
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({
        "dim": 2,
        "mass": "1",
        "omega": ["1", "1"],
        "A": {"terms": [{"k": [2, 2], "c": "1"}], "trunc": 10},
    }))
    return str(path)


def model_1d(**fields) -> bytes:
    """A 1D harmonic model file with ``fields`` replaced or added."""
    return json.dumps({"dim": 1, "mass": "1", "omega": ["1"], **fields}).encode()


class TestExpand:
    def test_expand_ground_json(self, capsys):
        code, out, _ = run_cli(capsys, "expand-ground",
                               "--model", "builtin:quartic", "--order", "4")
        assert code == 0
        data = json.loads(out)
        assert data["convention"] == "hbar^k/k!"
        assert data["series"][:3] == ["1/2", "3/4", "-21/8"]

    def test_expand_excited_json(self, capsys):
        code, out, _ = run_cli(capsys, "expand-excited",
                               "--model", "builtin:quartic",
                               "--levels", "1", "--order", "2")
        assert code == 0
        data = json.loads(out)
        assert data["quantum_numbers"] == [1]
        assert data["gap_series"][:2] == ["1", "3"]

    def test_expand_excited_order_zero(self, capsys):
        """Order 0 is phi_0 and the harmonic gap alone; the ground hierarchy
        behind it is still solved to order 1."""
        code, out, _ = run_cli(capsys, "expand-excited",
                               "--model", "builtin:quartic",
                               "--levels", "1", "--order", "0")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 0
        assert data["gaps"] == ["1"]
        assert data["total_series"] == ["3/2"]

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "expand-ground",
                               "--model", "builtin:quartic", "--order", "2",
                               "--output", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["series"][0] == "1/2"


class TestRSAndCompare:
    def test_rs_json(self, capsys):
        code, out, _ = run_cli(capsys, "rs", "--kappa", "3", "--order", "2")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == ["1/2", "15/8", "-3495/64"]

    def test_rs_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rs", "--kappa", "2", "--order", "3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["order", "coefficient", "float"]
        assert rows[2][1] == "3/4"

    @pytest.mark.parametrize("n", ["0", "1", "2"])
    def test_compare_agrees(self, capsys, n):
        code, out, err = run_cli(capsys, "compare",
                                 "--model", "builtin:quartic",
                                 "--order", "6", "--n", n)
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True
        assert "AGREE through order 6" in err

    def test_compare_mismatch_names_the_hbar_order(self, capsys, monkeypatch):
        """A wrong RS c_1 of the sectic (kappa - 1 = 2) shows at hbar order 2."""
        from anharmonic import cli
        real = cli.rs_expand

        def wrong_c1(kappa, n, order):
            rs = real(kappa, n, order)
            rs.coefficients[1] += 1
            return rs

        monkeypatch.setattr(cli, "rs_expand", wrong_c1)
        code, out, err = run_cli(capsys, "compare", "--model", "builtin:sectic",
                                 "--order", "4")
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is False
        assert data["first_mismatch"]["order"] == 1
        assert data["first_mismatch"]["hbar_order"] == 2
        assert err.strip() == "MISMATCH at order 2"

    @pytest.mark.parametrize("argv", [
        ("rs", "--kappa", "1000", "--order", "2"),
        ("compare", "--model", "MODEL", "--order", "2"),
    ], ids=["rs", "compare"])
    def test_kappa_beyond_the_budget_is_2_quickly(self, capsys, tmp_path, argv):
        """x^34 (kappa 17) is one past the largest kappa RS accepts, and
        compare checks it before any transport work."""
        path = tmp_path / "model.json"
        path.write_bytes(model_1d(A={"terms": [{"k": [34], "c": "1"}]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *(str(path) if a == "MODEL" else a
                                           for a in argv))
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "OrderTooHigh"
        assert payload["payload"] == {"maximum": 16}


class TestNumerics:
    def test_variational_json(self, capsys):
        code, out, _ = run_cli(capsys, "variational",
                               "--model", "builtin:quartic",
                               "--point", "0.5", "--nodes", "32")
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True
        assert data["action"] > 0.125  # strictly above the harmonic value

    def test_scan_closed_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--model", "builtin:quartic",
                               "--grid=-1:1:5", "--engine", "closed")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "S0", "S1", "S2", "Q",
                           "phi0", "u1", "u2", "psi"]
        assert len(rows) == 6
        assert float(rows[3][0]) == 0.0

    def test_scan_variational_threads(self, capsys):
        argv = ("scan", "--model", "builtin:quartic", "--grid", "0.2:0.6:3",
                "--engine", "variational", "--nodes", "16")
        code, out, _ = run_cli(capsys, *argv, "--threads", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["x1", "action"]
        assert len(rows) == 4
        # --threads has no effect: the output is the same to the byte
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0 and plain == out

    def test_flow_backward(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--model", "builtin:quartic",
                               "--point", "0.8", "--nodes", "20",
                               "--t-span", "6.0")
        assert code == 0
        data = json.loads(out)
        assert data["deviation_from_minimizer"] < 1e-6
        assert data["escape_time"] is None

    def test_flow_backward_stops_at_the_origin(self, capsys):
        """Even an astronomically long backward span ends where |gamma|
        reaches the arrival radius, within the decay bound."""
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "flow", "--model", "builtin:quartic",
                               "--point", "0.5", "--t-span", "1e300")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        data = json.loads(out)
        traj = variational.FlowTrajectory(times=np.array(data["times"]),
                                          points=np.array(data["points"]))
        assert decay_bound_satisfied(traj, 1.0, 0.1)
        assert data["times"][0] > -30.0

    def test_flow_forward_escapes(self, capsys):
        """V = x^2/2 + x^4 has grad S_0 = x (1 + 2 x^2)^(1/2), so the flow
        from 0.8 reaches |x| = 1e3 at asinh(1/(0.8 sqrt 2)) - asinh(1/(1e3
        sqrt 2))."""
        code, out, _ = run_cli(capsys, "flow", "--model", "builtin:quartic",
                               "--point", "0.8", "--forward")
        assert code == 0
        data = json.loads(out)
        exact = math.asinh(1.0 / (0.8 * math.sqrt(2.0))) \
            - math.asinh(1.0 / (1e3 * math.sqrt(2.0)))
        assert data["escape_time"] == pytest.approx(exact, abs=1e-6)
        assert data["deviation_from_minimizer"] is None

    @pytest.mark.parametrize("argv", [
        ("scan", "--grid", "0.2:0.8:5", "--engine", "variational"),
        ("flow", "--point", "0.5,0.4"),
        ("flow", "--point", "0.5,0.4", "--forward"),
        ("variational", "--point", "0.5,0.4"),
    ], ids=["scan-5x5", "flow", "flow-forward", "variational"])
    def test_one_discretized_model_per_command(self, capsys, monkeypatch,
                                               tmp_path, argv):
        """Every minimization of a command shares one jet of V."""
        path = tmp_path / "convex.json"
        path.write_text(json.dumps({
            "dim": 2, "mass": "1", "omega": ["1", "3/2"],
            "A": {"terms": [{"k": [4, 0], "c": "1/4"}, {"k": [2, 2], "c": "1/4"},
                            {"k": [0, 4], "c": "1/3"}], "trunc": 8},
        }))
        built = []
        real = variational._ModelEval.__init__

        def counted(self, model):
            built.append(model)
            real(self, model)

        monkeypatch.setattr(variational._ModelEval, "__init__", counted)
        code, _, err = run_cli(capsys, argv[0], "--model", str(path), *argv[1:])
        assert code == 0, err
        assert len(built) == 1

    def test_resum_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "resum",
                               "--series", "builtin:quartic-ground",
                               "--mu", "0.1")
        assert code == 0
        data = json.loads(out)
        assert data["discrepancy"] < 1e-4
        assert data["reference_energy"] == pytest.approx(
            0.5591463271835196, abs=1e-9)

    def test_resum_basis_size(self, capsys):
        """The n = 30 level at mu = 1 moves by 1.7e-5 when the default 200
        basis states double; from 400 it holds."""
        argv = ("resum", "--series", "builtin:quartic-ground", "--mu", "1",
                "--kappa", "2", "--n", "30")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "NotConverged"
        assert payload["payload"]["delta"] == pytest.approx(1.735e-5, rel=1e-3)
        code, out, _ = run_cli(capsys, *argv, "--basis", "400")
        assert code == 0
        assert json.loads(out)["reference_energy"] == pytest.approx(
            133.78326027, abs=1e-8)

    def test_resum_series_file(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(["1/2", "3/4", "-21/8", "333/16",
                                    "-30885/128"]))
        code, out, _ = run_cli(capsys, "resum", "--series", str(path),
                               "--mu", "0.05", "--pade", "2,2")
        assert code == 0
        assert 0.5 < json.loads(out)["borel_pade_value"] < 0.6


class TestStructure:
    def test_sternberg_residual_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sternberg",
                               "--model", "builtin:quartic", "--degree", "7")
        assert code == 0
        data = json.loads(out)
        assert data["residual_is_zero"] is True
        assert len(data["components"]) == 1

    def test_check_model(self, capsys):
        code, out, _ = run_cli(capsys, "check-model",
                               "--model", "builtin:quartic")
        assert code == 0
        data = json.loads(out)
        assert data["kappa"] == 2
        assert data["anharmonic_degree"] == 4
        assert data["hypotheses"]["convexity_ok"] is True


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "expand-ground")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "no-such-command")
        assert code == 1

    @pytest.mark.parametrize("argv", [("variational", "--point", "1"),
                                      ("scan", "--grid", "0:1:2")],
                             ids=["variational", "scan"])
    def test_tol_is_not_an_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--model", "builtin:quartic",
                                 "--tol", "1e-3")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --tol 1e-3" in err

    def test_engine_error_is_2_with_json(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "expand-excited",
            "--model", degenerate_model_file(tmp_path),
            "--levels", "2,0", "--order", "2", "--trunc", "10")
        assert code == 2
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "DegenerateEigenvalue"
        assert payload["payload"]["monomial"] == [0, 2]

    @pytest.mark.parametrize("content, error", [
        (b"\xff\xfe not utf-8", "ModelFormatError"),
        (model_1d(mass="1/0"), "ModelFormatError"),
        (model_1d(mass="0"), "ModelFormatError"),
        (model_1d(omega=["-1"]), "ModelFormatError"),
        (model_1d(A={"terms": [{"k": [2], "c": "1"}]}), "ModelFormatError"),
        (model_1d(A={"terms": [{"k": [3, 1], "c": "1"}]}), "DimensionMismatch"),
        (model_1d(A={"terms": [{"k": ["a"], "c": "1"}]}), "ModelFormatError"),
        (model_1d(A={"terms": [{"k": [4.7], "c": "1"}]}), "ModelFormatError"),
        (model_1d(A=[1]), "ModelFormatError"),
        (model_1d(dim=1.5), "ModelFormatError"),
        (model_1d(dim=True), "ModelFormatError"),
        (model_1d(A={"trunc": 4.9, "terms": [{"k": [4], "c": "1"}]}),
         "ModelFormatError"),
        (model_1d(A={"terms": [{"k": [4], "c": True}]}), "ModelFormatError"),
        (model_1d(A={"trunc": 1 << 16, "terms": [{"k": [4], "c": "1"}]}),
         "DegreeOutOfRange"),
    ], ids=["undecodable", "zero-denominator", "mass-0", "omega-negative",
            "degree-2-term", "two-index-term", "text-exponent",
            "fractional-exponent", "A-not-object", "fractional-dim",
            "boolean-dim", "fractional-trunc", "boolean-coefficient",
            "trunc-beyond-a-slot"])
    def test_bad_model_file_is_2_with_json(self, capsys, tmp_path, content, error):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "expand-ground", "--model", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("trunc", [3, 4, 8])
    def test_model_trunc_below_a_term_is_2(self, capsys, tmp_path, trunc):
        """A.trunc 3 used to drop the x^4 term: check-model reported no
        anharmonicity and expand-ground solved the harmonic oscillator."""
        path = tmp_path / "model.json"
        path.write_bytes(model_1d(A={"trunc": trunc, "terms": [{"k": [4], "c": "1"}]}))
        code, out, err = run_cli(capsys, "check-model", "--model", str(path))
        if trunc >= 4:
            assert code == 0
            assert json.loads(out)["anharmonic_degree"] == 4
            return
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ModelFormatError"
        assert payload["payload"] == {"term": [4], "trunc": 3}

    def test_missing_model_file_is_2(self, capsys):
        code, _, err = run_cli(capsys, "expand-ground",
                               "--model", "/nonexistent/model.json")
        assert code == 2
        assert json.loads(err.strip())["error"] == "ModelFormatError"

    @pytest.mark.parametrize("argv", [
        ("expand-excited", "--model", "builtin:quartic", "--levels", "a"),
        ("check-model", "--model", "builtin:quartic", "--box=abc"),
        ("check-model", "--model", "builtin:quartic", "--box=nan:1"),
        ("check-model", "--model", "builtin:quartic", "--box=0:inf"),
        # values are checked while parsing, before required options are
        ("variational", "--model", "/nonexistent/model.json"),
    ], ids=["levels", "box", "box-nan", "box-inf", "model-before-point"])
    @pytest.mark.filterwarnings("error")
    def test_malformed_value_is_2_with_json(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err.strip())["error"] == "ModelFormatError"

    @pytest.mark.filterwarnings("error")
    def test_box_overflow_is_2_with_json(self, capsys):
        code, out, err = run_cli(capsys, "check-model", "--model",
                                 "builtin:quartic", "--box=1e308:0.7")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainExceeded"

    @pytest.mark.parametrize("argv", [
        ("--t-span", "-1"), ("--t-span", "0"), ("--t-span", "nan"),
        ("--forward", "--t-span", "-1"),
    ], ids=" ".join)
    def test_bad_t_span_is_2_with_json(self, capsys, argv):
        """A backward span of -1 used to run outward and report deviation
        0.0; a span of 0 returned one point."""
        code, out, err = run_cli(capsys, "flow", "--model", "builtin:quartic",
                                 "--point", "0.5", *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ModelFormatError"

    @pytest.mark.parametrize("argv", [
        ("expand-ground", "--model", "builtin:quartic", "--order", "2"),
        ("rs", "--kappa", "2", "--order", "3", "--format", "csv"),
        # no "AGREE" verdict line before the error
        ("compare", "--model", "builtin:quartic", "--order", "2"),
    ], ids=["json", "csv", "compare"])
    def test_unwritable_output_is_2_with_json(self, capsys, tmp_path, argv):
        dest = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *argv, "--output", str(dest))
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ModelFormatError"
        assert payload["message"].startswith("cannot write output file")
        assert not dest.parent.exists()

    @pytest.mark.parametrize("argv", [
        (*command, *grid)
        for command in (("variational", "--point", "0.5"),
                        ("scan", "--grid", "0.2:0.4:2", "--engine", "variational"),
                        ("flow", "--point", "0.5"))
        # the dense Newton matrices grow as nodes^2: reject before allocating
        for grid in (("--nodes", "0"), ("--nodes", "3"), ("--nodes", "257"),
                     ("--nodes", "1000000"))
    ], ids=" ".join)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_grid_is_2_with_json(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--model", "builtin:quartic")
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err.strip())["error"] == "ModelFormatError"

    @pytest.mark.parametrize("command", ["variational", "flow"])
    @pytest.mark.parametrize("omega2", ["1.4142", "1.41421356237309504881"])
    def test_mode_beyond_degree_is_2_with_json(self, capsys, tmp_path,
                                               command, omega2):
        """omega2 = 1.4142 = 7071/5000 makes s^7071 a linear mode, beyond
        every allowed degree; twenty decimals take the exponent past int64."""
        path = tmp_path / "decimal.json"
        path.write_text(json.dumps({
            "dim": 2, "mass": "1", "omega": ["1", omega2],
            "A": {"terms": [{"k": [4, 0], "c": "1/4"}], "trunc": 8},
        }))
        code, out, err = run_cli(capsys, command, "--model", str(path),
                                 "--point", "0.7,0.8", "--nodes", "256")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err.strip())["error"] == "ModelFormatError"

    @pytest.mark.parametrize("argv, error", [
        (("--model", "NEGATIVE"), "ModelFormatError"),
        (("--model", "NEGATIVE", "--engine", "auto"), "ModelFormatError"),
        (("--hbar", "0"), "ModelFormatError"),
        (("--hbar", "nan"), "ModelFormatError"),
        (("--hbar", "-1"), "ModelFormatError"),
        (("--grid=1e200:1e200:1",), "DomainExceeded"),
        (("--model", "builtin:sectic", "--grid=1e100:1e100:1"), "DomainExceeded"),
        (("--model", "WEAK", "--n", "400", "--grid=1e10:1e10:1"), "DomainExceeded"),
        (("--n", "2", "--hbar", "1e200"), "DomainExceeded"),
        (("--n", "100000", "--grid=0.2:2:2"), None),
    ], ids=["negative-g-closed", "negative-g-auto", "hbar-0", "hbar-nan",
            "hbar-negative", "overflow-u", "overflow-V", "overflow-phi0",
            "overflow-psi", "n-100000"])
    def test_closed_scan_inputs(self, capsys, tmp_path, argv, error):
        """A bad coupling, hbar or grid exits 2 with one JSON line; a high
        level stays finite.  The case's options override the defaults."""
        models = {}
        for name, coupling in (("NEGATIVE", "-1"), ("WEAK", "1/100")):
            models[name] = tmp_path / f"{name}.json"
            models[name].write_text(json.dumps({
                "dim": 1, "mass": "1", "omega": ["1"],
                "A": {"terms": [{"k": [4], "c": coupling}], "trunc": 8}}))
        code, out, err = run_cli(
            capsys, "scan", "--model", "builtin:quartic", "--engine", "closed",
            "--grid=0:1:2", *(str(models.get(a, a)) for a in argv))
        if error is None:
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert len(rows) == 2
            assert all(math.isfinite(float(v)) for row in rows for v in row)
        else:
            assert code == 2
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert json.loads(err)["error"] == error

    def test_infinite_action_is_2_with_json(self, capsys):
        """An overflowing action is rejected quietly: the JSON error is the
        only line on stderr."""
        for argv, error in ((["variational"], "NoConvergence"),
                            (["flow"], "NoConvergence"),
                            (["flow", "--forward"], "GradientProviderFailure")):
            code, out, err = run_cli(capsys, *argv, "--model", "builtin:quartic",
                                     "--point", "1e200")
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == error

    def test_resum_negative_mu_pole_is_2_with_json(self, capsys):
        code, out, err = run_cli(capsys, "resum", "--series",
                                 "builtin:quartic-ground", "--mu", "-0.5")
        assert code == 2
        assert out == ""
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "PoleOnRay"
        assert all(t > 0 for t in payload["payload"]["poles"])

    def test_resum_builtin_keeps_given_level(self, capsys):
        """The builtin series defaults kappa only; --n 500 is out of range."""
        code, out, err = run_cli(capsys, "resum", "--series",
                                 "builtin:quartic-ground", "--mu", "0.1",
                                 "--n", "500")
        assert code == 2
        assert out == ""
        assert json.loads(err.strip())["error"] == "IndexOutOfRange"

    @pytest.mark.parametrize("argv, error", [
        (("--pade", "30,30", "--kappa", "0"), "UnsupportedKappa"),
        (("--basis", "40"), "NotConverged"),
        (("--n", "200"), "IndexOutOfRange"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_resum_checks_reference_before_pade(self, capsys, monkeypatch, argv,
                                                error):
        """kappa, n and the basis size are checked before any Pade solve:
        [30/30] would need 61 of the builtin's 12 coefficients, and the
        basis floor fails without paying for the Pade table first."""
        from anharmonic import resummation

        def unreachable(*_args):
            raise AssertionError("pade_coefficients called")

        monkeypatch.setattr(resummation, "pade_coefficients", unreachable)
        code, out, err = run_cli(capsys, "resum", "--series",
                                 "builtin:quartic-ground", "--mu", "0.3", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err.strip())["error"] == error

    @pytest.mark.parametrize("kappa", ["1", "3", "4"])
    def test_resum_builtin_is_the_quartic(self, capsys, monkeypatch, kappa):
        """The builtin series is the quartic's, so a reference at any other
        kappa would judge it against another model; rejected before any
        Pade solve."""
        from anharmonic import resummation

        def unreachable(*_args):
            raise AssertionError("pade_coefficients called")

        monkeypatch.setattr(resummation, "pade_coefficients", unreachable)
        code, out, err = run_cli(capsys, "resum", "--series",
                                 "builtin:quartic-ground", "--mu", "0.2",
                                 "--kappa", kappa, "--n", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err.strip())["error"] == "UnsupportedKappa"

    def test_non_finite_error_payload_is_strict_json(self, capsys, tmp_path):
        """An overflowing Laplace integrand makes the error estimate NaN;
        the payload holds null instead, so a strict parser reads it."""
        path = tmp_path / "series.json"
        path.write_text(json.dumps(["1", "2", "3", "4", "5"]))
        code, out, err = run_cli(capsys, "resum", "--series", str(path),
                                 "--mu", "1e300", "--pade", "2,2")
        assert code == 2 and out == ""

        def reject_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(err, parse_constant=reject_constant)
        assert payload["error"] == "NotConverged"
        assert payload["payload"]["error_estimate"] is None

    @pytest.mark.parametrize("argv, error", [
        (("--kappa", "-1"), "UnsupportedKappa"),
        (("--kappa", "0"), "UnsupportedKappa"),
        (("--kappa", "2", "--n", "500"), "IndexOutOfRange"),
        (("--kappa", "2", "--n", "-1"), "IndexOutOfRange"),
        (("--kappa", "120"), "NotConverged"),  # x^240 overflows
        (("--mu", "inf"), "ModelFormatError"),
        (("--mu", "nan"), "ModelFormatError"),
        (("--mu", "inf", "--kappa", "2"), "ModelFormatError"),
        (("--mu", "nan", "--kappa", "2"), "ModelFormatError"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    @pytest.mark.filterwarnings("error")
    def test_bad_resum_input_is_2_with_json(self, capsys, tmp_path, argv, error):
        """With --mu given twice argparse keeps the last one."""
        path = tmp_path / "series.json"
        path.write_text(json.dumps(["1/2", "3/4", "-21/8", "333/16", "-30885/128"]))
        code, out, err = run_cli(capsys, "resum", "--series", str(path),
                                 "--mu", "0.1", "--pade", "2,2", *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("series, index", [
        ([None], 0), (["1/2", "1/0"], 1), ({"a": 1}, None), (["1/2", True], 1),
    ], ids=["null", "zero-denominator", "not-a-list", "boolean"])
    def test_bad_series_file_is_2_with_json(self, capsys, tmp_path, series, index):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series))
        code, out, err = run_cli(capsys, "resum", "--series", str(path),
                                 "--mu", "0.1")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ModelFormatError"
        assert payload.get("payload", {}).get("index") == index

    @pytest.mark.parametrize("argv, error, message", [
        (("expand-ground", "--order", "-1"),
         "IndexOutOfRange", "order must be >= 1, got -1"),
        (("expand-excited", "--levels", "1", "--order", "-1"),
         "IndexOutOfRange", "order must be >= 0, got -1"),
        (("expand-excited", "--levels", "-3"),
         "IndexOutOfRange", "got [-3]"),
        (("compare", "--order", "-2"),
         "OrderTooHigh", "order must be >= 0, got -2"),
        (("compare", "--n", "-5", "--order", "0"),
         "OrderTooHigh", "got -5"),
        (("sternberg", "--degree", "0"),
         "BadTruncation", "truncation degree must be >= 1, got 0"),
    ], ids=["expand-ground", "expand-excited", "excited-levels", "compare",
            "compare-n", "sternberg"])
    def test_bad_value_is_named_as_given(self, capsys, argv, error, message):
        """A bad --order, --levels, --n or --degree is reported as passed,
        not as the truncation degree derived from it."""
        code, out, err = run_cli(capsys, argv[0], "--model", "builtin:quartic",
                                 *argv[1:])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == error
        assert message in payload["message"]

    def test_kappa_required_subcommand_is_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compare",
                               "--model", degenerate_model_file(tmp_path))
        assert code == 2
        assert json.loads(err.strip())["error"] == "UnsupportedKappa"


def test_main_reuses_one_parser(capsys, monkeypatch):
    """Consecutive calls in one process share the cached parser and print
    what fresh parsers print: after a usage error, and with an option given
    in one call and left out of the next."""
    from anharmonic import cli

    calls = [("expand-ground",),
             ("expand-ground", "--model", "builtin:quartic", "--order", "2"),
             ("expand-ground", "--model", "builtin:quartic", "--order", "2",
              "--trunc", "8"),
             ("expand-ground", "--model", "builtin:quartic", "--order", "2")]
    assert cli.build_parser() is cli.build_parser()
    reused = [run_cli(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]
    assert reused[1] == reused[3] != reused[2]


def test_every_option_is_passed_in_this_file():
    """Each option string of each subcommand appears in this file, so no
    option goes untested (help aside)."""
    from anharmonic import cli

    source = Path(__file__).read_text(encoding="utf-8")
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in sub.choices.values() for a in p._actions
               if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings}
    missing = [opt for opt in sorted(options)
               if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", source)]
    assert missing == []


def test_every_error_code_is_its_class_name():
    """The JSON ``error`` field of every engine error is its class name."""
    from anharmonic.errors import EngineError

    classes = EngineError.__subclasses__()
    assert len(classes) == 19
    for cls in [EngineError, *classes]:
        assert cls.code == cls.__name__
        assert cls("message").to_json()["error"] == cls.__name__


def test_error_payload_maps_non_finite_floats_to_null():
    from anharmonic.errors import NotConverged

    exc = NotConverged("message", delta=float("nan"), poles=[float("inf"), 0.5],
                       basis_size=200)
    assert exc.to_json()["payload"] == {"delta": None, "poles": [None, 0.5],
                                        "basis_size": 200}
    assert math.isnan(exc.payload["delta"])  # the exception keeps its values
