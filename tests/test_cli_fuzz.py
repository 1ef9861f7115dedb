"""CLI grammar fuzz: every argv drawn from the subcommands and, per option,
a valid value or a malformed token ends in exit 0, 1 or 2, never in a
traceback, a warning or a silent non-finite number."""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from anharmonic.cli import main

TOKENS = ["", "a", "nan", "inf", "-1", "0", "1e308"]
FLAG = None  # an option that takes no value
# a token also goes into one field of these options' values
SEPARATORS = {"--grid": ":", "--box": ":", "--point": ",", "--pade": ",",
              "--levels": ","}

# BADDIM and BADTRUNC hold a fractional dim and A.trunc, HUGEMODEL and
# HUGESERIES a rational past the double range
MODELS = ["builtin:quartic", "builtin:sectic", "MODEL2D", "BADDIM", "BADTRUNC",
          "HUGEMODEL"]
# input files that no run may accept (the partial sums read every entry)
BAD_FILES = {"BADDIM", "BADTRUNC", "BADSERIES", "BOOLSERIES", "HUGESERIES"}
POINTS = ["0.5", "-0.8", "1.5", "0.5,-0.3"]
# Valid values stop where only the run time would grow: orders <= 8, grids
# of at most 3 points, --nodes <= 64 and a backward --t-span <= 2.  The
# malformed tokens go everywhere except a backward --t-span of 1e308, which
# is valid and only slow.  --output is tested in test_cli.py: a token here
# would write files into the working directory.
NODES = ["8", "24", "64"]
GRAMMAR = {
    "expand-ground": {"--model": MODELS, "--order": ["0", "2", "8"],
                      "--trunc": ["6", "12"]},
    "expand-excited": {"--model": MODELS, "--order": ["0", "2"],
                       "--levels": ["1", "2", "0,1"], "--trunc": ["10"]},
    "rs": {"--kappa": ["2", "3"], "--n": ["0", "1", "3"],
           "--order": ["0", "4", "8"], "--format": ["json", "csv"]},
    "compare": {"--model": MODELS, "--order": ["2", "6"], "--n": ["0", "1"]},
    "variational": {"--model": MODELS, "--point": POINTS, "--nodes": NODES},
    "scan": {"--model": MODELS, "--grid": ["0.2:0.6:3", "-1:1:2", "0.5:0.5:1"],
             "--engine": ["auto", "closed", "variational"], "--n": ["0", "2"],
             "--hbar": ["0.5", "1"], "--nodes": NODES, "--threads": ["2"]},
    "flow": {"--model": MODELS, "--point": POINTS, "--t-span": ["1", "2"],
             "--nodes": NODES, "--forward": FLAG},
    "resum": {"--series": ["builtin:quartic-ground", "SERIES", "BADSERIES",
                           "BOOLSERIES", "HUGESERIES"],
              "--mu": ["0.05", "0.1", "1", "1e-320"], "--pade": ["2,2", "5,5"],
              "--kappa": ["2"], "--n": ["0", "1"], "--basis": ["100", "200"]},
    "sternberg": {"--model": MODELS, "--degree": ["3", "7"]},
    "check-model": {"--model": MODELS, "--box": ["-0.7:0.7", "0:1"]},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for option, valid in GRAMMAR[command].items():
        if valid is FLAG:
            argv += [option] * draw(st.booleans())
            continue
        kind = draw(st.sampled_from(["omit"] + ["valid"] * 6 + ["token"] * 2))
        if kind == "omit":
            continue
        value = draw(st.sampled_from(valid))
        if kind == "token":
            token = draw(st.sampled_from(TOKENS))
            sep = SEPARATORS.get(option)
            if sep and draw(st.booleans()):
                fields = value.split(sep)
                fields[draw(st.integers(0, len(fields) - 1))] = token
                token = sep.join(fields)
            value = token
        argv += [option, value]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = root / "model2d.json"
    model.write_text(json.dumps({
        "dim": 2, "mass": "1", "omega": ["1", "2"],
        "A": {"terms": [{"k": [2, 1], "c": "1/4"}, {"k": [0, 4], "c": "1"}],
              "trunc": 8}}))
    series = root / "series.json"
    series.write_text(json.dumps(["1/2", "3/4", "-21/8", "333/16", "-30885/128"]))
    bad = root / "bad-series.json"
    bad.write_text(json.dumps(["1/2", "3/4", None, "1/0"]))
    boolean = root / "boolean-series.json"
    boolean.write_text(json.dumps(["1/2", True, "3/4"]))
    quartic = {"mass": "1", "omega": ["1"], "A": {"terms": [{"k": [4], "c": "1"}]}}
    bad_dim = root / "bad-dim.json"
    bad_dim.write_text(json.dumps({**quartic, "dim": 1.5}))
    bad_trunc = root / "bad-trunc.json"
    bad_trunc.write_text(json.dumps({**quartic, "dim": 1, "A": {
        "trunc": 4.9, "terms": [{"k": [4], "c": "1"}]}}))
    huge_model = root / "huge-model.json"
    huge_model.write_text(json.dumps({**quartic, "dim": 1, "A": {
        "terms": [{"k": [4], "c": "1e400"}]}}))
    huge_series = root / "huge-series.json"
    huge_series.write_text(json.dumps(["1", "1e400", "1", "1", "1", "1"]))
    return {"MODEL2D": str(model), "SERIES": str(series), "BADSERIES": str(bad),
            "BOOLSERIES": str(boolean), "BADDIM": str(bad_dim),
            "BADTRUNC": str(bad_trunc), "HUGEMODEL": str(huge_model),
            "HUGESERIES": str(huge_series)}


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the JSON output")


# "nan" in these closed-scan columns marks a factor that has no closed form
# at the drawn kappa or level (S1, S2, Q for kappa > 2; u1, u2 at n = 0)
NOT_DEFINED = {"S1", "S2", "Q", "u1", "u2"}


def assert_finite_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
    for row in rows[1:]:
        for column, cell in zip(rows[0], row):
            if column in NOT_DEFINED and cell == "nan":
                continue
            try:
                value = float(cell)
            except ValueError:
                continue  # an exact rational such as 3/4
            assert math.isfinite(value), row


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_drawn_argv_exits_0_1_or_2(files, argv):
    rejected = BAD_FILES.intersection(argv)
    argv = [files.get(a, a) for a in argv]
    if argv[0] == "flow" and "--t-span" in argv and "--forward" not in argv:
        assume(argv[argv.index("--t-span") + 1] != "1e308")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert not (rejected and code == 0), argv
    if code == 2:
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert "error" in json.loads(lines[0])
    elif code == 0:
        assert not caught, [str(w.message) for w in caught]
        csv_output = argv[0] == "scan" or (argv[0] == "rs" and "csv" in argv)
        if csv_output:
            assert_finite_csv(out)
        else:
            json.loads(out, parse_constant=reject_constant)
        # compare reports its status line on stderr; nothing else may
        allowed = err.startswith(("AGREE", "MISMATCH")) and argv[0] == "compare"
        assert err == "" or (allowed and len(err.splitlines()) == 1), err
