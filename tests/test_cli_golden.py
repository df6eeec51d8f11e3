"""Golden CLI documents: each argv's exit code and exact stdout, byte for byte.

`tests/golden/cli_documents.json` holds, for every argv in ARGV, the exit
code and stdout of `cli.main`.  The documents promise to be byte-identical
across refactors, so a change to any of them is a change of output that
must be made on purpose: regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change which documents moved and why.  Relative paths in
ARGV are read from the repository root.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from weylchar.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_documents.json"

_A2_POINT = "pi/5:pi/5:-2pi/5"
_SWEEP_A2 = ["sweep", "--group", "A2", "--weight", "1,1", "--point", _A2_POINT]

ARGV = [
    # the README examples
    ["roots", "--group", "G2"],
    ["weyl", "--group", "E6"],
    ["dim", "--group", "A2", "--weight", "1,1"],
    ["char", "--group", "A1", "--weight", "2", "--point", "pi"],
    ["char", "--group", "A2", "--weight", "1,1", "--point", _A2_POINT],
    _SWEEP_A2 + ["--kmax", "20", "--format", "csv"],
    ["certificate", "--group", "G2", "--weight", "1,0", "--point", "0:pi/7"],
    ["sweep", "--group", "A1xA1", "--counterexample", "--point", "pi/2;0:0", "--kmax", "20"],
    ["spectral", "--group", "A1", "--l", "20", "--gens", "docs/examples/free_pair.json",
     "--moments", "6", "--format", "csv"],
    # two cycles of the benchmark's `cli` script at seed 1
    ["roots", "--group", "E6"],
    ["weyl", "--group", "E6", "--enumerate"],
    ["dim", "--group", "E7", "--weight", "1,0,4,0,3,5,1"],
    ["char", "--group", "F4", "--weight", "0,0,1,0", "--point=6pi/11:1pi/1:39pi/29:52pi/29"],
    ["char", "--group", "D5", "--weight", "1,1,3,3,3",
     "--point=-13pi/29:24pi/13:72pi/37:45pi/47:84pi/47"],
    ["char", "--group", "B4", "--weight", "0,3,2,2", "--point=1pi/1:1pi/3:1pi/3:1pi/3"],
    ["sweep", "--group", "B3", "--weight", "1,1,1", "--point=3pi/2:1pi/2:1pi/2", "--kmax", "8"],
    ["certificate", "--group", "F4", "--weight", "1,0,0,2",
     "--point=3pi/2:3pi/1:13pi/3:29pi/12"],
    ["spectral", "--group", "A1", "--l", "20"],
    ["dim", "--group", "Z9", "--weight", "1"],
    ["dim", "--group", "A2", "--weight", "1,-8"],
    ["weyl", "--group", "E8", "--enumerate"],
    ["roots", "--group", "F4"],
    ["weyl", "--group", "E6", "--enumerate"],
    ["dim", "--group", "E7", "--weight", "2,0,0,2,5,3,0"],
    ["char", "--group", "F4", "--weight", "1,0,0,0", "--point=12pi/31:10pi/17:-74pi/41:-73pi/43"],
    ["char", "--group", "D5", "--weight", "3,2,0,2,4",
     "--point=1pi/1:-22pi/13:-7pi/17:23pi/37:-52pi/31"],
    ["char", "--group", "B4", "--weight", "0,3,3,4", "--point=1pi/1:1pi/1:1pi/1:1pi/2"],
    ["sweep", "--group", "B3", "--weight", "0,1,2", "--point=1pi/1:1pi/1:1pi/1", "--kmax", "8"],
    ["certificate", "--group", "F4", "--weight", "3,3,1,4", "--point=3pi/2:11pi/4:4pi/1:9pi/4"],
    ["spectral", "--group", "A1", "--l", "20"],
    ["dim", "--group", "Z2", "--weight", "1"],
    ["dim", "--group", "A2", "--weight", "1,-6"],
    ["weyl", "--group", "E8", "--enumerate"],
    # acceptance criterion 13, at both --threads values
    *[argv + ["--threads", threads] for threads in ("1", "5") for argv in (
        ["char", "--group", "A2", "--weight", "2,1", "--point", _A2_POINT],
        _SWEEP_A2 + ["--kmax", "6"],
        ["spectral", "--group", "A1", "--l", "3", "--moments", "3", "--sample", "400",
         "--seed", "11"],
    )],
    # csv and table formats
    ["char", "--group", "F4", "--weight", "1,0,0,0", "--point=pi/7:pi/11:pi/13:pi/17",
     "--format", "csv"],
    ["char", "--group", "B3", "--weight", "1,1,0", "--point=pi/2:0:0", "--format", "table"],
    ["dim", "--group", "G2", "--weight", "2,3", "--format", "table"],
    ["roots", "--group", "B2", "--format", "csv"],
    ["weyl", "--group", "D4", "--enumerate", "--format", "table"],
    _SWEEP_A2 + ["--kmax", "5", "--format", "table"],
    ["certificate", "--group", "A2", "--weight", "1,1", "--point", _A2_POINT,
     "--format", "csv"],
    ["spectral", "--group", "A1", "--l", "1", "--moments", "4", "--format", "table"],
    # product groups
    ["char", "--group", "A1xB2", "--weight", "2,1,1", "--point=pi/3;pi/5:pi/7"],
    ["dim", "--group", "A2xG2", "--weight", "1,1,0,1"],
    # floating points: near a wall (snapped), on a wall, and regular
    ["char", "--group", "A2", "--weight", "3,2",
     "--point=0.6283185307179586:0.6283185307179587:-1.2566370614359172"],
    ["char", "--group", "A2", "--weight", "3,2", "--point", "0.3:0.3:-0.6"],
    ["char", "--group", "G2", "--weight", "1,1", "--point", "0.1:0.25"],
    # exact points with denominators whose exponent arithmetic leaves int64
    # true division (2D past 2**53) and int64 altogether (2D past 2**62)
    ["char", "--group", "A2", "--weight", "2,1",
     "--point=pi/1000000007:2pi/1000000007:-3pi/1000000007"],
    ["char", "--group", "A2", "--weight", "2,1",
     "--point=pi/9007199254740997:2pi/9007199254740997:-3pi/9007199254740997"],
    ["char", "--group", "A2", "--weight", "2,1",
     "--point=pi/1152921504606847009:2pi/1152921504606847009:-3pi/1152921504606847009"],
    # sweep variants
    _SWEEP_A2 + ["--kmax", "6", "--plot-data"],
    _SWEEP_A2 + ["--schedule", "1,2,4,8,16"],
    ["sweep", "--group", "B2", "--weight", "1,0", "--point", "pi/2:0", "--kmax", "6",
     "--grow-all"],
    ["sweep", "--group", "A1xA1", "--counterexample", "--point", "pi/2;0:0", "--kmax", "6",
     "--carrier", "1", "--plot-data"],
    # typed errors
    ["char", "--group", "A2", "--point", "pi/3:-pi/3:0"],
    ["char", "--group", "A2", "--weight", "1,1"],
    ["dim", "--group", "A2"],
    ["spectral", "--group", "A1"],
    ["dim", "--group", "A2", "--weight", "1,x"],
    ["dim", "--group", "A2", "--weight", "1/0,1,2"],
    ["char", "--group", "A2", "--weight", "1,1", "--point", "pi/0:pi:pi"],
    ["spectral", "--group", "A1", "--l", "x"],
    ["sweep", "--group", "A2", "--point", _A2_POINT, "--schedule", "1,x"],
    ["char", "--group", "B2", "--weight", "1,1", "--point", "pi"],
    ["char", "--group", "G2", "--weight", "1,0", "--point", "pi/3"],
    ["dim", "--group", "A2", "--weight", "1,1", "--bogus"],
    ["dim", "--group", "A2", "--weight", "1,1", "--cap-weyl", "x"],
    ["char", "--group", "A2", "--weight"],
    ["dim"],
    ["spectral", "--group", "A1", "--l", "1", "--gens", "docs/examples/missing.json"],
    ["sweep", "--group", "A1xA1", "--counterexample", "--point=pi/2;0:0", "--carrier", "5"],
    ["roots", "--group", "Q2"],
    ["roots", "--group", "A0"],
    ["roots", "--group", "A?"],
    ["roots", "--group", "A²"],
    ["char", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5"],
    ["char", "--group", "A1xA1", "--weight", "1,1", "--point", "pi/3"],
    ["char", "--group", "A1xA1xA1", "--weight", "1,1,1", "--point", "pi/3;pi/3"],
    ["dim", "--group", "A2", "--weight", "1,1,1", "--weight-basis", "fundamental"],
    ["dim", "--group", "A2", "--weight", "1,1", "--weight-basis", "ambient"],
    ["roots", "--group", "A1xA1"],
    ["weyl", "--group", "A1xA1"],
    ["sweep", "--group", "A1xA1", "--point", "pi/3;pi/3"],
    ["certificate", "--group", "A1xA1", "--weight", "1,1", "--point", "pi/3;pi/3"],
    ["spectral", "--group", "A1xA1", "--weight", "1,1"],
    ["spectral", "--group", "A2", "--weight", "1,1"],
    ["spectral", "--group", "A2", "--weight", "1,1", "--gens", "docs/examples/free_pair.json"],
    ["spectral", "--group", "A1", "--l", "1", "--sample", "3"],
    _SWEEP_A2 + ["--kmax", "0"],
    _SWEEP_A2 + ["--kmax", "-3"],
    _SWEEP_A2 + ["--schedule", "0"],
    _SWEEP_A2 + ["--schedule", "3,-1,5"],
    ["spectral", "--group", "A1", "--l", "1", "--moments", "-1"],
    ["spectral", "--group", "A1", "--l", "1", "--moments", "0"],
    ["spectral", "--group", "A1", "--l", "1", "--moments", "1"],
    ["char", "--group", "A2", "--weight", "1,1", "--point", "inf:0:0"],
    ["char", "--group", "F4", "--cap-weyl", "10", "--weight", "1,0,0,0",
     "--point=pi/7:pi/11:pi/13:pi/17"],
    # a float type-A point off the sum-zero hyperplane by 1e-8 is refused; the
    # same point on it is evaluated near the wall
    ["char", "--group", "A2", "--weight", "1,1", "--point", "0.3:0.30000001:-0.6"],
    ["char", "--group", "A2", "--weight", "1,1", "--point", "0.3:0.30000001:-0.60000001"],
]


def run_argv(argv):
    """(exit code, stdout) of `cli.main(argv)`, run in-process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_argv_list(golden):
    assert [doc["argv"] for doc in golden] == ARGV


@pytest.mark.parametrize("i", range(len(ARGV)), ids=[" ".join(argv) for argv in ARGV])
def test_cli_document_is_byte_identical(i, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_argv(ARGV[i]) == (golden[i]["exit"], golden[i]["stdout"])


def _strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, which are not JSON (jq refuses them too)."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_every_json_document_is_strict_json(golden):
    # a sweep whose tail has fewer than two nonzero ratios fits no slope: null, not NaN
    code, out = run_argv(["sweep", "--group", "B3", "--weight", "1,1,1",
                          "--point", "3pi/2:1pi/2:1pi/2", "--kmax", "5"])
    assert code == 0 and _strict_json(out)["result"]["fitted_slope"] is None
    docs = [doc["stdout"] for doc in golden if not {"csv", "table"} & set(doc["argv"])]
    assert len(docs) == 94
    for text in docs:
        _strict_json(text)


#: For each golden `char` document that evaluates, per factor: the path that
#: `charcalc._choose_path` names, and the step that produced the factor's
#: value when the documents were pinned ("oracle" where the precision gate
#: replaced a Weyl-path value by the oracle's).  They differ only where the
#: gate rejects a value; the last floating point's condition was certain to
#: fail it, so the dispatcher names the oracle, which produced that value.
CHAR_PATHS = {
    "char --group A1 --weight 2 --point pi": [("regular", "regular")],
    "char --group A2 --weight 1,1 --point pi/5:pi/5:-2pi/5": [("coset", "coset")],
    "char --group F4 --weight 0,0,1,0 --point=6pi/11:1pi/1:39pi/29:52pi/29":
        [("regular", "regular")],
    "char --group D5 --weight 1,1,3,3,3 --point=-13pi/29:24pi/13:72pi/37:45pi/47:84pi/47":
        [("regular", "regular")],
    "char --group B4 --weight 0,3,2,2 --point=1pi/1:1pi/3:1pi/3:1pi/3": [("coset", "coset")],
    "char --group F4 --weight 1,0,0,0 --point=12pi/31:10pi/17:-74pi/41:-73pi/43":
        [("regular", "regular")],
    "char --group D5 --weight 3,2,0,2,4 --point=1pi/1:-22pi/13:-7pi/17:23pi/37:-52pi/31":
        [("regular", "regular")],
    "char --group B4 --weight 0,3,3,4 --point=1pi/1:1pi/1:1pi/1:1pi/2": [("coset", "coset")],
    "char --group A2 --weight 2,1 --point pi/5:pi/5:-2pi/5 --threads 1": [("coset", "coset")],
    "char --group A2 --weight 2,1 --point pi/5:pi/5:-2pi/5 --threads 5": [("coset", "coset")],
    "char --group F4 --weight 1,0,0,0 --point=pi/7:pi/11:pi/13:pi/17 --format csv":
        [("regular", "oracle")],
    "char --group B3 --weight 1,1,0 --point=pi/2:0:0 --format table": [("coset", "coset")],
    "char --group A1xB2 --weight 2,1,1 --point=pi/3;pi/5:pi/7":
        [("regular", "regular"), ("regular", "regular")],
    "char --group A2 --weight 3,2 "
    "--point=0.6283185307179586:0.6283185307179587:-1.2566370614359172": [("coset", "coset")],
    "char --group A2 --weight 3,2 --point 0.3:0.3:-0.6": [("coset", "coset")],
    "char --group G2 --weight 1,1 --point 0.1:0.25": [("float", "float")],
    "char --group A2 --weight 2,1 --point=pi/1000000007:2pi/1000000007:-3pi/1000000007":
        [("regular", "oracle")],
    "char --group A2 --weight 2,1 "
    "--point=pi/9007199254740997:2pi/9007199254740997:-3pi/9007199254740997":
        [("regular", "oracle")],
    "char --group A2 --weight 2,1 --point=pi/1152921504606847009:2pi/1152921504606847009:"
    "-3pi/1152921504606847009": [("regular", "oracle")],
    "char --group A2 --weight 1,1 --point 0.3:0.30000001:-0.60000001": [("oracle", "oracle")],
}


def test_the_dispatcher_names_the_path_that_produced_each_char_document(golden, monkeypatch):
    from weylchar import charcalc

    choose, fallback, log = charcalc._choose_path, charcalc._fallback, []

    def named(*args):
        log.append([choose(*args), None])
        return log[-1][0]

    def fell_back(*args):
        log[-1][1] = "oracle"
        return fallback(*args)

    monkeypatch.setattr(charcalc, "_choose_path", named)
    monkeypatch.setattr(charcalc, "_fallback", fell_back)
    seen = set()
    for doc in golden:
        if doc["argv"][0] != "char":
            continue
        log.clear()
        assert run_argv(doc["argv"]) == (doc["exit"], doc["stdout"])
        key = " ".join(doc["argv"])
        seen.add(key)
        assert [(path, produced or path) for path, produced in log] == CHAR_PATHS.get(key, [])
    assert set(CHAR_PATHS) <= seen


if __name__ == "__main__":
    os.chdir(ROOT)
    docs = []
    for argv in ARGV:
        code, stdout = run_argv(argv)
        docs.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
