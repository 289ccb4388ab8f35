"""CLI surface: documented flag combinations, JSON schemas, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pathforge import bijections
from pathforge.cli import main
from pathforge.paths import enumerate_alt_motzkin, enumerate_dyck


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("kind,k,count", [
    ("dyck", 3, 5),
    ("dyck", 6, 132),
    ("dyck", 40, 2622127042276492108820),
    ("altmotzkin", 40, 2622127042276492108820),
])
def test_enumerate_count_only(capsys, kind, k, count):
    code, out, _ = run(capsys, "enumerate", "--kind", kind, "--k", str(k), "--count-only")
    assert code == 0
    assert out.strip() == str(count)


def test_enumerate_json_schema(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "dyck", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data == {"kind": "dyck", "k": 2, "count": 2, "paths": ["UUDD", "UDUD"]}
    assert out == json.dumps(data, indent=2) + "\n"


def test_enumerate_csv_one_path_per_line(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "altmotzkin", "--k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["LLLL", "LUDL"]


def test_stats_json_schema(capsys):
    code, out, _ = run(capsys, "stats", "--path", "LUDL", "--kind", "altmotzkin")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "kind": "altmotzkin",
        "k": 2,
        "path": "LUDL",
        "R": [1, 0],
        "V": [4, 1, 0],
        "L": [1, 0],
        "r": 1,
    }


def test_stats_csv(capsys):
    code, out, _ = run(capsys, "stats", "--path", "UDUDUD", "--kind", "dyck", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,k,path,R,V,L,r"
    assert lines[1] == "dyck,3,UDUDUD,3 0 0,4 3 0 0,,3"


def test_stats_multiple_paths(capsys):
    code, out, _ = run(
        capsys, "stats", "--path", "UUDD", "--path", "UDUD", "--kind", "dyck"
    )
    assert code == 0
    data = json.loads(out)
    assert [d["path"] for d in data] == ["UUDD", "UDUD"]


def test_map_default_tuple_b(capsys):
    code, out, _ = run(capsys, "map", "--construction", "B")
    assert code == 0
    data = json.loads(out)
    assert data["path"] == "UUDDUD"
    assert data["middle_altitude"] == 1


def test_map_explicit_input(capsys):
    blob = json.dumps({"p1": "UDUD", "p2": "UUDD", "i": 0, "mark1": 1, "mark2": 4})
    code, out, _ = run(capsys, "map", "--construction", "A", "--input", blob)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "construction": "A",
        "path": "UUUDDUDD",
        "middle_altitude": 2,
        "rises": 4,
    }


def test_map_construction_c_needs_input(capsys):
    code, _, err = run(capsys, "map", "--construction", "C")
    assert code == 1
    assert "no valid input" in err


def test_map_invert_round_trip(capsys):
    code, out, _ = run(capsys, "map", "--construction", "D")
    data = json.loads(out)
    code, out, _ = run(capsys, "invert", "--construction", "D", "--path", data["path"])
    assert code == 0
    back = json.loads(out)
    assert back == {
        "construction": "D",
        "p1": "LL",
        "p2": "LL",
        "i": 0,
        "mark1": 2,
        "mark2": 1,
    }


def test_verify_identity1_contains_worked_value(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "1", "--k-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][-1] == {
        "id": "thm1",
        "k": 3,
        "lhs": "107/25",
        "rhs": "107/25",
        "equal": True,
    }


def test_verify_identity4_prints_both_variants(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "4", "--k-max", "3")
    assert code == 0
    data = json.loads(out)
    variants = {(r["k"], r["rhs_index"]): r for r in data["reports"]}
    assert variants[(3, "k-1")]["equal"] is True
    assert variants[(3, "k-1")]["default_convention"] is True
    assert variants[(3, "k")]["equal"] is False


def test_verify_identity4_exit_code_follows_selected_convention(capsys):
    code, _, _ = run(capsys, "verify", "--identity", "4", "--k-max", "3", "--rhs-index", "k")
    assert code == 1
    code, _, _ = run(capsys, "verify", "--identity", "4", "--k-max", "3", "--rhs-index", "k-1")
    assert code == 0


def test_verify_identity3_polynomial_wire_format(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "3", "--k-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][-1]["lhs"] == ["0", "9", "39", "44", "14", "1"]


def test_walk_to_and_from(capsys):
    code, out, _ = run(capsys, "walk", "--to", "--path", "LUDL")
    assert code == 0
    data = json.loads(out)
    assert data == {"path": "LUDL", "kind": "altmotzkin", "nodes": [0, 0, 1, 0, 0], "walk": "0,0,1,0,0"}
    code, out, _ = run(capsys, "walk", "--from", "--path", "0,0,1,0,0")
    assert code == 0
    assert json.loads(out)["path"] == "LUDL"


def test_walk_kind_override(capsys):
    code, out, _ = run(capsys, "walk", "--to", "--path", "UDUD", "--kind", "dyck")
    assert code == 0
    assert json.loads(out)["nodes"] == [0, 1, 0, 1, 0]


def test_walk_invalid_path_is_reported(capsys):
    code, _, err = run(capsys, "walk", "--to", "--path", "UU")
    assert code == 1
    assert "error" in err


def test_mc_json_schema_and_determinism(capsys):
    args = ("mc", "--ensemble", "wishart", "--k", "2", "--n", "40", "--m", "20",
            "--trials", "3", "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    data = json.loads(out1)
    assert set(data) == {"ensemble", "k", "n", "m", "trials", "seed", "estimate", "stderr", "target"}
    assert data["target"] == 1.5
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_mc_wigner_m_rejected(capsys):
    code, _, err = run(capsys, "mc", "--ensemble", "wigner", "--k", "2", "--n", "10", "--m", "5")
    assert code == 1
    assert "wishart" in err


def test_report_sweep(capsys):
    code, out, _ = run(capsys, "report", "--k-max", "2", "--identities", "1,4")
    assert code == 0
    data = json.loads(out)
    ids = {r["id"] for r in data["reports"]}
    assert ids == {"thm1", "thm4"}


def test_report_csv_header(capsys):
    code, out, _ = run(capsys, "report", "--k-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,k,rhs_index,lhs,rhs,equal"


@pytest.mark.parametrize("identity", [1, 2, 3, 4, 5])
def test_verify_kmax6_exits_zero_under_defaults(capsys, identity):
    code, _, _ = run(capsys, "verify", "--identity", str(identity), "--k-max", "6")
    assert code == 0


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "hexagon", "--k", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "9", "--k-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "dyck", "--k", "3", "--frobnicate"])
    assert exc.value.code == 2
    for extra in ([], ["--count-only"]):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--kind", "dyck", "--k", "-1", *extra])
        assert exc.value.code == 2


def test_computation_errors_exit_1(capsys):
    code, _, err = run(capsys, "stats", "--path", "UDX", "--kind", "dyck")
    assert code == 1
    assert "invalid character" in err


@pytest.mark.parametrize("text", [
    '[1,2]',
    '{"p1": 5, "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
    '{"p1": "UD", "p2": "UD", "i": 0, "mark1": 1.7, "mark2": 2}',
    '{"p1": "UD", "p2": "UD", "i": true, "mark1": 1, "mark2": 2}',
])
def test_map_rejects_malformed_input(capsys, text):
    code, out, err = run(capsys, "map", "--construction", "A", "--input", text)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "4", "--k-max", "1"],
    ["report", "--identities", "4,5", "--k-max", "1"],
    ["report", "--k-max", "0"],
])
def test_checking_nothing_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nothing to check" in err


def test_truncated_empty_report_still_exits_zero(capsys):
    # a negative budget is spent before the first report
    code, out, _ = run(capsys, "report", "--k-max", "3", "--time-budget", "-1")
    assert code == 0
    assert json.loads(out) == {"reports": [], "truncated": True}


# generated input for the fuzz below: valid five-tuples, the same with one
# field moved by a little, doubled paths, and arbitrary text, missing keys
# and wrong types
_VALID_TUPLES = [(t.construction, t.to_json_dict()) for c in "ABCD" for k in (1, 2, 3)
                 for t in bijections.five_tuples(c, k)]
_SMALL_PATHS = [p.render() for k in range(4) for p in (*enumerate_dyck(k), *enumerate_alt_motzkin(k))]
_DYCK_DOUBLED = [p.render() for k in range(1, 5) for p in enumerate_dyck(k)]
_AM_DOUBLED = [p.render() for k in range(1, 5) for p in enumerate_alt_motzkin(k)]
_DOUBLED_PATHS = {"A": _DYCK_DOUBLED, "B": _DYCK_DOUBLED, "C": _AM_DOUBLED, "D": _AM_DOUBLED}
_PATH_TEXT = st.one_of(st.sampled_from(_SMALL_PATHS), st.text(alphabet="UDLX", max_size=8))
_WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                        st.lists(st.integers(-1, 8), max_size=2))
_FIELDS = {"p1": _PATH_TEXT, "p2": _PATH_TEXT, "i": st.integers(-1, 3),
           "mark1": st.integers(-1, 8), "mark2": st.integers(-1, 8)}
_ANY_TUPLE = st.fixed_dictionaries({}, optional={name: st.one_of(values, _WRONG_TYPE)
                                                 for name, values in _FIELDS.items()})


def _moved(ct, field, delta):
    construction, data = ct
    return construction, json.dumps({**data, field: data[field] + delta})


_MAP_INPUT = st.one_of(
    st.sampled_from(_VALID_TUPLES).map(lambda ct: (ct[0], json.dumps(ct[1]))),
    st.builds(_moved, st.sampled_from(_VALID_TUPLES), st.sampled_from(["i", "mark1", "mark2"]),
              st.integers(-2, 2)),
    st.tuples(st.sampled_from("ABCD"), _ANY_TUPLE.map(json.dumps)),
    st.tuples(st.sampled_from("ABCD"), st.text(max_size=10)),
)
_INVERT_INPUT = st.sampled_from("ABCD").flatmap(lambda c: st.tuples(
    st.just(c), st.one_of(st.sampled_from(_DOUBLED_PATHS[c]), st.text(max_size=12))))


def run_any(*argv):
    """Exit code, stdout and stderr of main; argparse's SystemExit counts
    as an exit code, any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(_MAP_INPUT.map(lambda x: ("map", *x)), _INVERT_INPUT.map(lambda x: ("invert", *x))))
def test_fuzz_map_and_invert(case):
    command, construction, text = case
    flag = "--input" if command == "map" else "--path"
    code, out, err = run_any(command, "--construction", construction, flag, text)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if code != 0:
        return
    record = json.loads(out)
    if command == "map":
        back_code, back, _ = run_any("invert", "--construction", construction, "--path", record["path"])
        assert back_code == 0
        assert json.loads(back) == {**json.loads(text), "construction": construction}
    else:
        again_code, again, _ = run_any("map", "--construction", construction, "--input", out)
        assert again_code == 0
        assert json.loads(again)["path"] == text.strip()
