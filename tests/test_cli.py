"""CLI: parsing, documents, exit codes, reproducibility."""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar.cli import (
    RunConfig,
    build_parser,
    main,
    parse_point,
    parse_point_entry,
    parse_weight,
    render,
    run,
)
from weylchar.errors import ConfigError
from weylchar.rootsys import build_root_system, weyl_order

FREE_PAIR = str(Path(__file__).resolve().parents[1] / "docs" / "examples" / "free_pair.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_point_entries():
    assert parse_point_entry("pi") == F(1)
    assert parse_point_entry("2pi") == F(2)
    assert parse_point_entry("-2pi/5") == F(-2, 5)
    assert parse_point_entry("pi/7") == F(1, 7)
    assert parse_point_entry("3/4*pi") == F(3, 4)
    assert parse_point_entry("0") == 0.0
    assert parse_point_entry("1.25") == 1.25
    with pytest.raises(ConfigError):
        parse_point_entry("pi/0x")


def test_parse_point_exactness_rules():
    a2 = build_root_system("A2")
    h = parse_point("pi/5:pi/5:-2pi/5", a2)
    assert h.exact and h.coords == (F(1, 5), F(1, 5), F(-2, 5))
    h = parse_point("1.0:1.0:-2.0", a2)
    assert not h.exact
    # mixed entries degrade to floating, converted to radians
    h = parse_point("pi/5:0.62831853:-1.2566370", a2)
    assert not h.exact
    assert abs(h.coords[0] - math.pi / 5) < 1e-12


def test_parse_point_su2_theta_shorthand():
    h = parse_point("pi", build_root_system("A1"))
    assert h.exact and h.coords == (F(1, 2), F(-1, 2))
    for name in ("B2", "C2", "D2", "G2"):
        with pytest.raises(ConfigError) as info:
            parse_point("pi", build_root_system(name))
        assert info.value.field == "point"


def test_parse_weight_fundamental_and_ambient():
    rs = build_root_system("A2")
    lam = parse_weight("1,1", [rs], "auto")[0]
    assert lam == rs.weyl_vector
    amb = parse_weight("1,0,-1", [rs], "auto")[0]
    assert amb == rs.weyl_vector
    for i, a in enumerate(rs.simple_roots):
        q = 2 * rs.inner(lam, a) / rs.inner(a, a)
        assert q == 1
    with pytest.raises(ConfigError) as info:  # unreachable from argv: argparse checks choices
        parse_weight("1,1", [rs], "polar")
    assert info.value.field == "weight_basis"


def test_parse_weight_product_groups():
    factors = [build_root_system("A1"), build_root_system("A1")]
    w = parse_weight("0,4", factors, "fundamental")
    assert w[0] == (0, 0) and w[1] == (F(2), F(-2))


# ---------------------------------------------------------------------------
# documents and exit codes
# ---------------------------------------------------------------------------


def test_dim_examples(capsys):
    code, doc = run_json(capsys, "dim", "--group", "A2", "--weight", "1,1")
    assert code == 0 and doc["result"]["dim"] == 8
    code, doc = run_json(capsys, "dim", "--group", "A2", "--weight", "0,0")
    assert code == 0 and doc["result"]["dim"] == 1


def test_char_su2_at_pi(capsys):
    code, doc = run_json(capsys, "char", "--group", "A1", "--weight", "2",
                         "--point", "pi")
    assert code == 0
    assert abs(doc["result"]["value"]["re"] + 1) < 1e-9
    assert abs(doc["result"]["value"]["im"]) < 1e-12
    assert doc["result"]["dim"] == 3


def test_char_singular_document_fields(capsys):
    code, doc = run_json(capsys, "char", "--group", "A2", "--weight", "1,1",
                         "--point", "pi/5:pi/5:-2pi/5")
    assert code == 0
    res = doc["result"]
    assert res["degenerate_roots"] == 1
    assert abs(res["value"]["re"] - (4 + 4 * math.cos(3 * math.pi / 5))) < 1e-9
    assert res["condition"] < 1e-9
    assert doc["config"]["subcommand"] == "char"


def test_roots_document_golden(capsys):
    code, doc = run_json(capsys, "roots", "--group", "A2")
    assert code == 0
    assert doc["result"]["simple_roots"] == [["1", "-1", "0"], ["0", "1", "-1"]]
    assert doc["result"]["cartan_matrix"] == [[2, -1], [-1, 2]]


def test_weyl_order_document(capsys):
    code, doc = run_json(capsys, "weyl", "--group", "E6")
    assert code == 0 and doc["result"]["order"] == 51840


def test_parse_error_exit_2(capsys):
    code, doc = run_json(capsys, "dim", "--group", "Q9", "--weight", "1")
    assert code == 2 and doc["error"]["code"] == "ConfigError"


def test_capacity_error_exit_3(capsys):
    code, doc = run_json(capsys, "weyl", "--group", "E8", "--enumerate")
    assert code == 3 and doc["error"]["code"] == "CapacityError"


def test_domain_error_exit_4(capsys):
    code, doc = run_json(capsys, "dim", "--group", "A2", "--weight", "1,-1")
    assert code == 4
    assert doc["error"]["code"] == "DomainError"


def test_sampling_requires_seed(capsys):
    code, doc = run_json(capsys, "spectral", "--group", "A1", "--l", "2",
                         "--moments", "2", "--sample", "500")
    assert code == 2


def test_sweep_document_and_plot_data(capsys):
    code, doc = run_json(capsys, "sweep", "--group", "A2", "--weight", "1,1",
                         "--point", "pi/5:pi/5:-2pi/5", "--kmax", "8",
                         "--plot-data")
    assert code == 0
    entries = doc["result"]["entries"]
    assert [e["k"] for e in entries] == list(range(1, 9))
    assert entries[0]["dim"] == 8
    assert all(0 <= e["ratio_abs"] <= 1 for e in entries)
    assert doc["result"]["plot_data"]


def test_a_floating_point_is_read_once_per_evaluation(capsys, monkeypatch):
    # one pass of float pairings gives the near-wall test and the sines that
    # the float path's denominator and condition read, for every row of a sweep
    from weylchar import asymptotics, charcalc
    from weylchar.rootsys import RootSystem

    calls = {"read": 0, "pairings": 0}
    read, pairings = charcalc.read_point, RootSystem.float_pairings

    def counted_read(*args):
        calls["read"] += 1
        return read(*args)

    def counted_pairings(self, coords):
        calls["pairings"] += 1
        return pairings(self, coords)

    for module in (charcalc, asymptotics):
        monkeypatch.setattr(module, "read_point", counted_read)
    monkeypatch.setattr(RootSystem, "float_pairings", counted_pairings)
    point = ("--group", "G2", "--weight", "1,1", "--point", "0.1:0.25")
    assert run_cli(capsys, "char", *point)[0] == 0
    assert calls == {"read": 1, "pairings": 1}
    calls.update(read=0, pairings=0)
    assert run_cli(capsys, "sweep", *point, "--kmax", "10")[0] == 0
    assert calls == {"read": 1, "pairings": 1}


def test_sweep_counterexample(capsys):
    code, doc = run_json(capsys, "sweep", "--group", "A1xA1", "--counterexample",
                         "--point", "pi/2;0:0", "--kmax", "6")
    assert code == 0
    assert all(e["ratio_abs"] == 1.0 for e in doc["result"]["entries"])


def test_certificate_document(capsys):
    code, doc = run_json(capsys, "certificate", "--group", "A2", "--weight", "1,1",
                         "--point", "pi/5:pi/5:-2pi/5")
    assert code == 0
    assert doc["result"]["construction"] == "direct"
    assert doc["result"]["root"] == ["0", "1", "-1"]


def test_spectral_document(capsys):
    code, doc = run_json(capsys, "spectral", "--group", "A1", "--l", "5",
                         "--moments", "4")
    assert code == 0
    res = doc["result"]
    assert res["s"] == 4 and res["free"] == "asserted"
    assert abs(res["delta_opt"] - math.sqrt(3) / 2) < 1e-12
    by_m = {row["m"]: row for row in res["moments"]}
    assert by_m[0]["moment"] == 1.0
    assert abs(by_m[2]["km"] - 0.25) < 1e-15


def test_csv_and_table_formats(capsys):
    code, out = run_cli(capsys, "dim", "--group", "A2", "--weight", "1,1",
                        "--format", "csv")
    assert code == 0 and out.splitlines() == ["dim", "8"]
    code, out = run_cli(capsys, "spectral", "--group", "A1", "--l", "2",
                        "--moments", "2", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "m,moment,km,abs_diff"
    assert lines[-1].startswith("norm_estimate,")
    code, out = run_cli(capsys, "char", "--group", "A1", "--weight", "2",
                        "--point", "pi", "--format", "table")
    assert code == 0 and out.splitlines()[0].startswith("re")


def test_threads_flag_never_changes_output(capsys):
    runs = []
    for threads in ("1", "8"):
        code, out = run_cli(capsys, "char", "--group", "A2", "--weight", "3,2",
                            "--point", "pi/7:pi/7:-2pi/7", "--threads", threads)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_round_trip_reruns_bit_identical(capsys):
    code, doc = run_json(capsys, "sweep", "--group", "A2", "--weight", "1,1",
                         "--point", "pi/5:pi/5:-2pi/5", "--kmax", "6")
    assert code == 0
    cfg = doc["config"]
    cfg2 = RunConfig(cfg.pop("subcommand"), cfg.pop("group"), cfg)
    doc2 = run(cfg2)
    rendered = render(doc2, "json")
    assert json.loads(rendered)["result"] == doc["result"]


def test_spectral_nonsymmetric_warning(capsys, tmp_path):
    from weylchar.spectral import haar_generator_set

    from _helpers import generator_set_to_json

    gens = haar_generator_set(2, 3, seed=5)
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(generator_set_to_json(gens)))
    code, doc = run_json(capsys, "spectral", "--group", "A1", "--l", "2",
                         "--moments", "2", "--gens", str(path))
    assert code == 0
    assert "not symmetric" in doc["result"]["warning"]


def test_documents_validate_against_shipped_schemas(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    cases = {
        "roots": ["roots", "--group", "G2"],
        "weyl": ["weyl", "--group", "B3"],
        "dim": ["dim", "--group", "A2", "--weight", "1,1"],
        "char": ["char", "--group", "A2", "--weight", "1,1",
                 "--point", "pi/5:pi/5:-2pi/5"],
        "sweep": ["sweep", "--group", "A2", "--weight", "1,1",
                  "--point", "pi/5:pi/5:-2pi/5", "--kmax", "6"],
        "certificate": ["certificate", "--group", "A2", "--weight", "1,1",
                        "--point", "pi/5:pi/5:-2pi/5"],
        "spectral": ["spectral", "--group", "A1", "--l", "2", "--moments", "2"],
    }
    for name, argv in cases.items():
        code, doc = run_json(capsys, *argv)
        assert code == 0
        schema = json.loads((schema_dir / f"{name}.schema.json").read_text())
        jsonschema.validate(doc, schema)
    code, doc = run_json(capsys, "dim", "--group", "Z1", "--weight", "1")
    schema = json.loads((schema_dir / "error.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_cap_weyl_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WEYLCHAR_CAP_WEYL", "5")
    code, doc = run_json(capsys, "weyl", "--group", "A2", "--enumerate")
    assert code == 3
    monkeypatch.delenv("WEYLCHAR_CAP_WEYL")


@pytest.mark.parametrize("value", ["x", "-1", "0"])
@pytest.mark.parametrize("argv", [
    ["weyl", "--group", "A2", "--enumerate"],
    ["char", "--group", "A2", "--weight", "1,1", "--point=pi/7:pi/11:-18pi/77"],
])
def test_cap_weyl_env_below_one_or_not_an_integer_is_a_config_error(capsys, monkeypatch,
                                                                    argv, value):
    from weylchar import charcalc, weylgroup

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the Weyl group was enumerated")

    # past the lru cache, which may hold A2's group from an earlier test
    monkeypatch.setattr(charcalc, "cached_weyl_group", weylgroup.generate_weyl_group)
    monkeypatch.setattr(weylgroup, "_closure", no_enumeration)
    monkeypatch.setenv("WEYLCHAR_CAP_WEYL", value)
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["error"]["code"] == "ConfigError"
    assert doc["error"]["field"] == "WEYLCHAR_CAP_WEYL"
    assert "WEYLCHAR_CAP_WEYL" in doc["error"]["message"]


@pytest.mark.parametrize("argv,field", [
    (["char", "--group", "A2", "--point", "pi/5:pi/5:-2pi/5"], "weight"),
    (["char", "--group", "A2", "--weight", "1,1"], "point"),
    (["sweep", "--group", "A2", "--weight", "1,1"], "point"),
    (["certificate", "--group", "A2", "--point", "pi/5:pi/5:-2pi/5"], "weight"),
    (["dim", "--group", "A2"], "weight"),
    (["spectral", "--group", "A1"], "weight"),
    (["dim", "--group", "A2", "--weight", "1,x"], "weight"),
    (["dim", "--group", "A2", "--weight", "1/0,1,2"], "weight"),
    (["char", "--group", "A2", "--weight", "1,1", "--point", "pi/0:pi:pi"], "point"),
    (["spectral", "--group", "A1", "--l", "x"], "l"),
    (["sweep", "--group", "A2", "--point", "pi/5:pi/5:-2pi/5", "--schedule", "1,x"],
     "schedule"),
    # a single angle is the SU(2) shorthand: A1 only, not every 2-dim ambient space
    (["char", "--group", "B2", "--weight", "1,1", "--point", "pi"], "point"),
    (["char", "--group", "G2", "--weight", "1,0", "--point", "pi/3"], "point"),
    # argparse's own errors, an unreadable generator file, a carrier out of range
    (["dim", "--group", "A2", "--weight", "1,1", "--bogus"], "argv"),
    (["weyl", "--group", "A2", "--cap-weyl", "x"], "cap_weyl"),
    (["char", "--group", "A2", "--weight"], "weight"),
    (["dim"], "group"),
    (["spectral", "--group", "A1", "--l", "1", "--gens", "/nonexistent.json"], "gens"),
    (["sweep", "--group", "A1xA1", "--counterexample", "--point=pi/2;0:0", "--carrier", "5"],
     "carrier"),
    # an unknown family, a rank out of bounds, an unparsable name, a non-ASCII digit
    (["roots", "--group", "Q2"], "group"),
    (["roots", "--group", "A0"], "group"),
    (["roots", "--group", "A?"], "group"),
    (["roots", "--group", "A\u00b2"], "group"),
    # coordinate and factor counts
    (["char", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5"], "point"),
    (["char", "--group", "A1xA1", "--weight", "1,1", "--point", "pi/3"], "point"),
    (["char", "--group", "A1xA1xA1", "--weight", "1,1,1", "--point", "pi/3;pi/3"], "point"),
    (["dim", "--group", "A2", "--weight", "1,1,1", "--weight-basis", "fundamental"], "weight"),
    (["dim", "--group", "A2", "--weight", "1,1", "--weight-basis", "ambient"], "weight"),
    # subcommands that take a single simple group
    (["roots", "--group", "A1xA1"], "group"),
    (["weyl", "--group", "A1xA1"], "group"),
    (["sweep", "--group", "A1xA1", "--point", "pi/3;pi/3"], "group"),
    (["certificate", "--group", "A1xA1", "--weight", "1,1", "--point", "pi/3;pi/3"], "group"),
    (["spectral", "--group", "A1xA1", "--weight", "1,1"], "group"),
    # generator sets and sampling
    (["spectral", "--group", "A2", "--weight", "1,1"], "gens"),
    (["spectral", "--group", "A2", "--weight", "1,1", "--gens",
      str(Path(__file__).resolve().parents[1] / "docs" / "examples" / "free_pair.json")], "gens"),
    (["spectral", "--group", "A1", "--l", "1", "--sample", "3"], "seed"),
    # non-positive sweep schedules, and too few moments for the norm estimate
    (["sweep", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5:-2pi/5",
      "--kmax", "0"], "kmax"),
    (["sweep", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5:-2pi/5",
      "--kmax", "-3"], "kmax"),
    (["sweep", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5:-2pi/5",
      "--schedule", "0"], "schedule"),
    (["sweep", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5:-2pi/5",
      "--schedule", "3,-1,5"], "schedule"),
    (["spectral", "--group", "A1", "--l", "1", "--moments", "-1"], "moments"),
    (["spectral", "--group", "A1", "--l", "1", "--moments", "0"], "moments"),
    (["spectral", "--group", "A1", "--l", "1", "--moments", "1"], "moments"),
    # an empty schedule, and a repeated k value
    (["sweep", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5:-2pi/5",
      "--schedule", ""], "schedule"),
    (["sweep", "--group", "A2", "--weight", "1,1", "--point", "pi/5:pi/5:-2pi/5",
      "--schedule", "3,3,1"], "schedule"),
    # an empty group factor, alone or beside a named one
    (["dim", "--group", "x", "--weight="], "group"),
    (["char", "--group", "x", "--weight=", "--point="], "group"),
    (["dim", "--group", "A1xx", "--weight", "1"], "group"),
    (["dim", "--group", "", "--weight", "1"], "group"),
    # a cap below 1, which no group meets
    (["weyl", "--group", "A2", "--cap-weyl", "-1", "--enumerate"], "cap_weyl"),
    (["weyl", "--group", "A2", "--cap-weyl", "0", "--enumerate"], "cap_weyl"),
    # a counterexample runs k = 1..N only, and sampling takes a seed of at least 0
    (["sweep", "--group", "A1xA1", "--counterexample", "--point=pi/2;0:0", "--schedule", "3,5"],
     "schedule"),
    (["spectral", "--group", "A1", "--l", "1", "--moments", "10", "--sample", "200",
      "--seed", "-20"], "seed"),
    # --seed and --cap-weyl on a subcommand that would ignore them
    (["dim", "--group", "A2", "--weight", "1,1", "--seed", "1"], "argv"),
    (["roots", "--group", "A2", "--cap-weyl", "5"], "argv"),
    # --seed or --sample where every order is enumerated and no word is drawn
    (["spectral", "--group", "A1", "--l", "1", "--moments", "3", "--seed", "4"], "seed"),
    (["spectral", "--group", "A1", "--l", "3", "--moments", "3", "--sample", "400",
      "--seed", "11"], "sample"),
    # spectral reads eigenphases of unitary matrices as SU(N) points: type A only
    *[(["spectral", "--group", g, "--weight", "1,0", "--gens", FREE_PAIR, "--moments", "4"],
       "group") for g in ("B2", "C2", "G2")],
])
def test_missing_or_malformed_options_give_typed_errors(capsys, argv, field):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["code"] == "ConfigError"
    assert doc["error"]["field"] == field
    jsonschema.validate(doc, json.loads((schema_dir / "error.schema.json").read_text()))


def _count_snaps_and_splits(monkeypatch):
    from weylchar import charcalc, rootsys

    calls = {"snap": 0, "split": 0}
    snap, split = charcalc._snap, rootsys.RootSystem.degenerate_split

    def counting_snap(*args, **kwargs):
        calls["snap"] += 1
        return snap(*args, **kwargs)

    def counting_split(self, h0):
        calls["split"] += 1
        return split(self, h0)

    monkeypatch.setattr(charcalc, "_snap", counting_snap)
    monkeypatch.setattr(rootsys.RootSystem, "degenerate_split", counting_split)
    return calls


def test_near_wall_char_snaps_once_and_splits_once(capsys, monkeypatch):
    # A near-wall floating point is snapped once onto its stratum, and that
    # reading gives both the value and the degenerate count.
    from weylchar import charcalc
    from weylchar.torus import float_point

    calls = _count_snaps_and_splits(monkeypatch)
    code, doc = run_json(capsys, "char", "--group", "A2", "--weight", "3,2",
                         "--point", "0.3:0.3:-0.6")
    assert code == 0 and doc["result"]["degenerate_roots"] == 1
    assert calls == {"snap": 1, "split": 1}
    rs = build_root_system("A2")
    cv = charcalc.character(rs, rs.weight_from_fundamental((3, 2)),
                            float_point([0.3, 0.3, -0.6]))
    assert doc["result"]["value"] == {"re": cv.value.real, "im": cv.value.imag}


@pytest.mark.parametrize("argv", [
    ["certificate", "--group", "A2", "--weight", "1,1"],
    ["sweep", "--group", "A2", "--weight", "1,1", "--kmax", "6"],
])
def test_near_wall_certificate_and_sweep_snap_once_and_split_once(capsys, monkeypatch, argv):
    calls = _count_snaps_and_splits(monkeypatch)
    assert run_cli(capsys, *argv, "--point", "0.3:0.3:-0.6")[0] == 0
    assert calls == {"snap": 1, "split": 1}


def test_certificate_reads_its_point_like_char(capsys):
    # A near-wall point that does not snap is refused by certificate as by
    # char; one that snaps certifies its snap, as the exact point does.
    for sub in ("certificate", "char"):
        code, doc = run_json(capsys, sub, "--group", "A2", "--weight", "1,1",
                             "--point=1.0000000003:1:-2.0000000003")
        assert code == 4 and doc["error"]["code"] == "SnapError"
    code, near = run_json(capsys, "certificate", "--group", "A2", "--weight", "1,1",
                          "--point", "0.6283185307179586:0.6283185307179587:-1.2566370614359172")
    assert code == 0
    code, exact = run_json(capsys, "certificate", "--group", "A2", "--weight", "1,1",
                           "--point", "pi/5:pi/5:-2pi/5")
    assert code == 0 and near["result"] == exact["result"]


def test_non_finite_float_point_is_a_domain_error(capsys):
    code, doc = run_json(capsys, "char", "--group", "A2", "--weight", "1,1",
                         "--point", "inf:0:0")
    assert code == 4 and doc["error"]["code"] == "DomainError"


def _error_document(capsys, argv, code, kind):
    """The schema-valid error document of argv, which must exit `code` with a `kind` error."""
    jsonschema = pytest.importorskip("jsonschema")
    schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    got, doc = run_json(capsys, *argv)
    assert (got, doc["error"]["code"]) == (code, kind)
    jsonschema.validate(doc, json.loads((schema_dir / "error.schema.json").read_text()))
    return doc["error"]


@pytest.mark.parametrize("argv, overflow", [
    # pairing e1 - e2 = 2e308; was exit 0 with NaN value, condition and normalized_abs
    (["--group", "A2", "--point=1e308:-1e308:0"], "a root pairing (alpha|h)"),
    # the partial sum 2e308; was an OverflowError traceback from fsum
    (["--group", "A2", "--point=1e308:1e308:-1e308"], "the coordinate sum"),
    # pairing e1 + e2 = 2e308; was exit 0 with value 16 = dim, snapped onto the centre
    (["--group", "B2", "--point=1e308:1e308"], "a root pairing (alpha|h)"),
])
def test_float_point_beyond_the_float_range_is_a_domain_error(capsys, argv, overflow):
    err = _error_document(capsys, ["char", "--weight", "1,1", *argv], 4, "DomainError")
    assert err["message"] == (f"floating torus point out of range: {overflow} overflows "
                              "the largest float 1.7976931348623157e+308")


@pytest.mark.parametrize("argv", [
    ["--group", "B2", "--weight", "0,1", "--point=pi/2:-1e308"],
    ["--group", "A1", "--weight", "2", "--point=1.7e308"],
])
def test_float_point_whose_weyl_phases_overflow_is_a_domain_error(capsys, argv):
    # the root pairings are finite, but some (eta|w h) is not: were exit 0 with NaN
    err = _error_document(capsys, ["char", *argv], 4, "DomainError")
    assert err["message"] == ("floating torus point out of range: a phase (eta|w h) overflows "
                              "the largest float 1.7976931348623157e+308")


@pytest.mark.parametrize("point", ["--point=0.1:0.2:-0.3", "--point=pi/7:pi/11:-18pi/77"])
def test_char_of_a_weight_whose_dimension_overflows_a_float_is_a_domain_error(capsys, point):
    # were OverflowError tracebacks: float(lam + rho) on the float path, and
    # |chi| / dim on the exact one
    err = _error_document(capsys, ["char", "--group", "A2", "--weight", "1e400,1", point],
                          4, "DomainError")
    assert "the largest float 1.7976931348623157e+308" in err["message"]
    code, doc = run_json(capsys, "dim", "--group", "A2", "--weight", "1e400,1")
    assert code == 0
    assert doc["result"]["dim"] == (10**400 + 1) * 2 * (10**400 + 3) // 2


@pytest.mark.parametrize("argv", [
    # the dim at the largest k of a plain sweep, on the float and the exact path
    ["sweep", "--group", "A2", "--weight", "1e400,1", "--point=0.1:0.2:-0.3", "--kmax", "2"],
    ["sweep", "--group", "A2", "--weight", "1e300,1", "--point=pi/5:pi/5:-2pi/5",
     "--kmax", "2"],
    ["spectral", "--group", "A1", "--weight", "1e400", "--moments", "2"],
])
def test_sweep_and_spectral_refuse_a_dimension_beyond_the_float_range(capsys, argv):
    # were OverflowError tracebacks, exit 1
    err = _error_document(capsys, argv, 4, "DomainError")
    assert "the largest float 1.7976931348623157e+308" in err["message"]


@pytest.mark.parametrize("argv", [
    ["dim", "--group", "A2", "--weight", "1e5000,1"],
    ["dim", "--group", "A2", "--weight", "1e5000,1", "--format", "csv"],
    ["certificate", "--group", "A2", "--weight", "1,1e5000", "--point=pi/5:pi/5:-2pi/5"],
])
def test_a_number_past_the_int_to_str_digit_limit_is_a_domain_error(capsys, argv):
    # were ValueError tracebacks from int-to-str conversion, exit 1
    err = _error_document(capsys, argv, 4, "DomainError")
    assert f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}" in err["message"]
    # the limit is refused, not raised: a dim just within it prints in full
    code, doc = run_json(capsys, "dim", "--group", "A1", "--weight", str(10**4299 - 2))
    assert code == 0 and doc["result"]["dim"] == 10**4299 - 1


@pytest.mark.parametrize("argv", [
    ["dim", "--group", "A2", "--weight=-1e5000,1"],
    ["char", "--group", "A2", "--weight=-1e5000,1", "--point=pi/5:pi/5:-2pi/5"],
])
def test_a_non_dominant_weight_past_the_digit_limit_is_a_domain_error(capsys, argv):
    # were ValueError tracebacks from the repr of the weight in the dominance refusal
    err = _error_document(capsys, argv, 4, "DomainError")
    assert err["message"] == (f"a weight with a coordinate of more than "
                              f"{sys.get_int_max_str_digits()} digits is not a dominant "
                              "integral weight for A2")


@pytest.mark.parametrize("l", ["1e300", "290589"])
def test_spectral_refuses_a_weight_past_the_trace_kernel_bound(capsys, l):
    err = _error_document(capsys, ["spectral", "--group", "A1", "--l", l, "--moments", "2"],
                          4, "DomainError")
    assert err["message"] == ("weight out of range for the trace kernel of A1: its error "
                              "bound exceeds 0.0001 of the dimension")


@pytest.mark.parametrize("group, weight", [("A5", "24,0,0,0,0"), ("A8", "1,0,0,0,0,0,0,1")])
def test_spectral_runs_small_weights_of_larger_su_n(capsys, tmp_path, group, weight):
    # were refused with exit 4 by a bound that grew as N! (lambda_1 + N)^N
    from weylchar.spectral import haar_generator_set

    from _helpers import generator_set_to_json

    n = int(group[1:]) + 1
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(generator_set_to_json(haar_generator_set(n, 2, seed=n))))
    code, doc = run_json(capsys, "spectral", "--group", group, "--weight", weight,
                         "--moments", "2", "--gens", str(path))
    assert code == 0
    assert [row["m"] for row in doc["result"]["moments"]] == [0, 1, 2]


@pytest.mark.parametrize("argv", [
    ["dim", "--group", "A1000000", "--weight", "1"],  # was a ConfigError: numpy's 7.28 TiB
    ["roots", "--group", "D100000"],
    ["char", "--group", "B200000xA1", "--weight", "1", "--point=pi"],
])
def test_root_system_past_physical_memory_refuses_before_any_allocation(capsys, monkeypatch,
                                                                        argv):
    from weylchar import rootsys

    def no_tables(*args, **kwargs):
        raise AssertionError("root tables were allocated")

    monkeypatch.setattr(rootsys, "_classical_data", no_tables)
    err = _error_document(capsys, argv, 3, "CapacityError")
    assert "bytes of physical memory" in err["message"]


@pytest.mark.parametrize("point, kind", [
    ("pi/3:2pi/3:pi", "exact"),
    ("1.0:2.0:3.0", "floating"),  # was evaluated at -1:0:1
    ("0.3:0.30000001:-0.6", "floating"),
])
def test_type_a_point_off_the_sum_zero_hyperplane_is_a_domain_error(capsys, point, kind):
    code, doc = run_json(capsys, "char", "--group", "A2", "--weight", "1,1", "--point", point)
    assert code == 4 and doc["error"]["code"] == "DomainError"
    assert doc["error"]["message"].startswith(
        f"type A {kind} torus points must have zero coordinate sum")


# ---------------------------------------------------------------------------
# --cap-weyl and subcommand-scoped imports
# ---------------------------------------------------------------------------

F4_POINT = "--point=pi/7:pi/11:pi/13:pi/17"


@pytest.mark.parametrize("argv", [
    ["char", "--group", "F4", "--cap-weyl", "10", "--weight", "1,0,0,0", F4_POINT],
    ["char", "--group", "A1xF4", "--cap-weyl", "10", "--weight", "1,1,0,0,0",
     "--point=pi/3;pi/7:pi/11:pi/13:pi/17"],
    ["sweep", "--group", "B3", "--cap-weyl", "47", "--weight", "1,0,0",
     "--point", "pi/2:0:0", "--kmax", "3"],
    ["spectral", "--group", "A1", "--cap-weyl", "1", "--l", "2", "--moments", "2"],
    ["weyl", "--group", "A2", "--cap-weyl", "5", "--enumerate"],
])
def test_cap_weyl_below_the_order_refuses_before_any_work(capsys, monkeypatch, argv):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    from weylchar import charcalc, weylgroup

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(charcalc, "cached_weyl_group", no_enumeration)
    monkeypatch.setattr(weylgroup, "_closure", no_enumeration)
    code, doc = run_json(capsys, *argv)
    assert code == 3 and doc["error"]["code"] == "CapacityError"
    assert "above the cap" in doc["error"]["message"]
    schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    jsonschema.validate(doc, json.loads((schema_dir / "error.schema.json").read_text()))


@pytest.mark.parametrize("argv", [
    ["weyl", "--group", "B10", "--enumerate", "--cap-weyl", "4000000000"],  # ~430 GB
    ["weyl", "--group", "E8", "--enumerate", "--cap-weyl", "1000000000"],  # ~54 GB
])
def test_enumeration_past_physical_memory_refuses_before_any_work(capsys, monkeypatch, argv):
    import os

    from weylchar import weylgroup

    rs = build_root_system(argv[2])
    need = weyl_order(rs.spec) * (rs.ambient_dim ** 2 + rs.ambient_dim + 5)
    if need <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        pytest.skip(f"this machine has more than {need} bytes of physical memory")

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(weylgroup, "_closure", no_enumeration)
    code, doc = run_json(capsys, *argv)
    assert code == 3 and doc["error"]["code"] == "CapacityError"
    assert "physical memory" in doc["error"]["message"]


def test_cap_weyl_at_the_order_changes_only_the_config(capsys):
    base = ["char", "--group", "F4", "--weight", "1,0,0,0", F4_POINT]
    code, plain = run_json(capsys, *base)
    assert code == 0
    code, capped = run_json(capsys, *base, "--cap-weyl", "1152")
    assert code == 0
    assert capped["config"].pop("cap_weyl") == 1152
    assert capped == plain
    # weyl enumerates W only with --enumerate; dim never does, and takes no cap
    assert run_cli(capsys, "weyl", "--group", "E8", "--cap-weyl", "1")[0] == 0
    assert run_cli(capsys, "dim", "--group", "E7", "--cap-weyl", "1",
                   "--weight", "1,0,0,0,0,0,0")[0] == 2


def test_seed_and_cap_weyl_are_options_of_the_subcommands_that_read_them():
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    takes = {flag: sorted(name for name, sp in sub.choices.items()
                          if flag in sp._option_string_actions)
             for flag in ("--seed", "--cap-weyl")}
    assert takes == {"--seed": ["spectral"],
                     "--cap-weyl": ["char", "spectral", "sweep", "weyl"]}


@pytest.mark.parametrize("argv,absent", [
    (["roots", "--group", "A2"],
     ("charcalc", "weylgroup", "asymptotics", "spectral")),
    (["weyl", "--group", "A2", "--enumerate"], ("charcalc", "asymptotics", "spectral")),
    (["dim", "--group", "Z3", "--weight", "1"],
     ("charcalc", "weylgroup", "asymptotics", "spectral")),
    (["dim", "--group", "A2", "--weight", "1,-1"], ("asymptotics", "spectral")),
])
def test_subcommands_import_only_the_modules_they_use(argv, absent):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import json, sys; from weylchar.cli import main; code = main(sys.argv[1:]); "
             "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("WEYLCHAR_CAP_WEYL", None)
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code in (0, 2, 4)
    json.loads(proc.stdout)
    assert not {f"weylchar.{m}" for m in absent} & set(modules)


# ---------------------------------------------------------------------------
# every argv gets a document
# ---------------------------------------------------------------------------

#: A small valid --weight and --point per group.
_FUZZ_GROUPS = {"A1": ("2", "pi/3"), "A2": ("1,1", "pi/5:pi/5:-2pi/5"), "B2": ("0,1", "pi/2:0")}

#: Huge entries, one of which may replace an entry of --weight, --point or --l:
#: past the float range, past the int-to-str digit limit, and at both signs.
_FUZZ_HUGE = {"weight": ("1e300", "-1e300", "1e400", "1e5000", "-1e5000"),
              "l": ("1e300", "-1e400", "1e5000"),
              "point": ("1e300", "-1e308", "1.7e308", "1e5000", "-1e5000")}

#: Small valid values per option; --group, --weight and --point come from the group.
_FUZZ_VALUES = {
    "format": ("json",), "seed": ("1",), "threads": ("1",), "cap_weyl": ("1", "8"),
    "weight_basis": ("auto", "fundamental", "ambient"), "kmax": ("3",), "schedule": ("1,2",),
    "carrier": ("0", "1"), "l": ("1", "1/2"), "moments": ("2",), "sample": ("3",),
    "gens": ("catalog", str(Path(__file__).resolve().parents[1] / "docs" / "examples"
                             / "free_pair.json")),
}


def _fuzz_options():
    """Per subcommand, its options as (flag, dest, takes a value)."""
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    return {name: [(a.option_strings[-1], a.dest, a.nargs != 0)
                   for a in parser._actions if a.option_strings and a.dest != "help"]
            for name, parser in sub.choices.items()}


@st.composite
def _argv(draw, options):
    """A subcommand with valid or omitted options, then up to two corruptions."""
    name = draw(st.sampled_from(sorted(options)))
    group = draw(st.sampled_from(sorted(_FUZZ_GROUPS)))
    values = dict(zip(("group", "weight", "point"), (group, *_FUZZ_GROUPS[group])))
    argv = [name]
    for flag, dest, takes_value in options[name]:
        if dest in values:
            keep = draw(st.sampled_from((True, True, True, False)))
        else:
            keep = draw(st.booleans())
        if keep and takes_value:
            value = values.get(dest) or draw(st.sampled_from(_FUZZ_VALUES[dest]))
            if dest in _FUZZ_HUGE and draw(st.booleans()):
                sep = ":" if dest == "point" else ","
                entries = value.split(sep)
                entries[draw(st.integers(0, len(entries) - 1))] = \
                    draw(st.sampled_from(_FUZZ_HUGE[dest]))
                value = sep.join(entries)
            argv.append(f"{flag}={value}")
        elif keep:
            argv.append(flag)
    for _ in range(draw(st.integers(0, 2))):
        flag, _, _ = draw(st.sampled_from(options[name]))
        bad = draw(st.sampled_from(([flag], [f"{flag}=x"], ["--bogus"])))
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = bad
    return argv


_OPTIONS = _fuzz_options()


def _not_a_json_number(name):
    raise AssertionError(f"the document holds {name}, which JSON has no number for")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_argv(_OPTIONS))
def test_every_argv_gets_a_schema_valid_document(argv):
    jsonschema = pytest.importorskip("jsonschema")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    doc = json.loads(out.getvalue(), parse_constant=_not_a_json_number)
    schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    name = argv[0] if code == 0 else "error"
    assert code in (0, 2, 3, 4)
    if code == 2:  # a ConfigError: every one names its option
        assert doc["error"]["field"]
    jsonschema.validate(doc, json.loads((schema_dir / f"{name}.schema.json").read_text()))


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["char", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: weylchar" in capsys.readouterr().out
