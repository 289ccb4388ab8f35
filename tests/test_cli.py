"""CLI surface: documented flag combinations, JSON schemas, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pathforge import bijections
from pathforge.cli import K_MAX_LIMIT, main
from pathforge.numeric import catalan
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
    ("altmotzkin", 7152, catalan(7152)),  # 4300 digits, the most Python prints by default
])
def test_enumerate_count_only(capsys, kind, k, count):
    code, out, _ = run(capsys, "enumerate", "--kind", kind, "--k", str(k), "--count-only")
    assert code == 0
    assert out.strip() == str(count)


@pytest.mark.parametrize("extra", [[], ["--count-only"]])
def test_enumerate_count_too_long_to_print_is_refused(capsys, extra):
    # Catalan(7153) has 4301 digits, one more than Python prints by default;
    # the refusal comes before the count is computed
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--kind", "dyck", "--k", "7153", *extra)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: --k 7153: the path count has more than 4300 digits"), err
    assert len(err.splitlines()) == 1


def test_enumerate_csv_streams_at_any_k():
    # CSV has no count, so no size refuses it: the first path comes at once
    proc = _pathforge(["enumerate", "--kind", "dyck", "--k", "20000", "--format", "csv"],
                      subprocess.PIPE)
    first = proc.stdout.readline()
    proc.kill()
    proc.communicate(timeout=120)
    assert first == b"U" * 20000 + b"D" * 20000 + b"\n"


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


@pytest.mark.parametrize("identity", ["1", "2", "3"])
def test_verify_rhs_index_without_variants_is_a_usage_error(capsys, identity):
    # identities 1-3 have one right-hand side; the option is refused, not ignored
    code, out, err = run(capsys, "verify", "--identity", identity, "--k-max", "2",
                         "--rhs-index", "k")
    assert (code, out) == (2, "")
    assert err == "error: --rhs-index applies to identities 4 and 5 only\n"


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


def test_walk_lowercase_path_is_refused(capsys):
    # parse accepts the capitals U, D, L alone, whatever kind is guessed
    code, out, err = run(capsys, "walk", "--to", "--path", "ludl")
    assert (code, out) == (1, "")
    assert err == "error: invalid character 'l' at position 1\n"


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
    # an ensemble without its --m, or with one it does not take, is a usage error
    for argv in (("--ensemble", "wigner", "--m", "5"), ("--ensemble", "wishart")):
        code, out, err = run(capsys, "mc", *argv, "--k", "2", "--n", "10")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --m ") and "wishart" in err


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would reach stderr
@pytest.mark.parametrize("argv,code,message", [
    # an n too large to allocate: 800 TiB is beyond any 47-bit address space
    (["--ensemble", "wigner", "--k", "2", "--n", "10000000", "--trials", "1"], 1, "Unable to allocate"),
    # C_520, the target of k = 1040, is above the largest float; the refusal
    # does no big-int work, however large k is
    (["--ensemble", "wigner", "--k", "1040", "--n", "2", "--trials", "2"], 2, "--k 1040 "),
    (["--ensemble", "wishart", "--k", "1040", "--n", "2", "--m", "2"], 2, "--k 1040 "),
    (["--ensemble", "wigner", "--k", "1000000", "--n", "2"], 2, "--k 1000000 "),
    # below the limit, an estimate, stderr or target that overflows
    (["--ensemble", "wigner", "--k", "600", "--n", "4", "--trials", "2"], 1, "stderr"),
    (["--ensemble", "wigner", "--k", "600", "--n", "4", "--trials", "2", "--format", "csv"], 1,
     "stderr"),
    (["--ensemble", "wishart", "--k", "200", "--n", "2", "--m", "100", "--trials", "1"], 1,
     "target"),
])
def test_mc_out_of_range_is_one_error_line(capsys, argv, code, message):
    start = time.perf_counter()
    got, out, err = run(capsys, "mc", *argv)
    assert time.perf_counter() - start < 5
    # nothing reaches stdout, so no Infinity, inf or NaN either
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err


def test_mc_k_above_the_limit_needs_no_numpy():
    script = ("import sys; sys.modules['numpy'] = None; from pathforge.cli import main; "
              "sys.exit(main(['mc', '--ensemble', 'wigner', '--k', '1040', '--n', '2']))")
    proc = _pathforge(["-c", script], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err.decode().startswith("error: --k 1040 ") and len(err.decode().splitlines()) == 1


def test_report_sweep(capsys):
    code, out, _ = run(capsys, "report", "--k-max", "2", "--identities", "1,4")
    assert code == 0
    data = json.loads(out)
    ids = {r["id"] for r in data["reports"]}
    assert ids == {"thm1", "thm4"}


def test_report_repeated_identity_is_a_usage_error(capsys):
    # a repeat would print every report of that identity twice
    with pytest.raises(SystemExit) as exc:
        main(["report", "--identities", "1,1", "--k-max", "1"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument --identities: identity 1 is repeated" in err


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
    for bad in (["--n", "0"], ["--n", "10", "--trials", "0"], ["--k", "0"], ["--k", "x"],
                ["--seed", "-1"], ["--ensemble", "wishart", "--m", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--ensemble", "wigner", "--k", "2", "--n", "10", *bad])
        assert exc.value.code == 2
    for budget in ("-1", "nan", "inf", "soon"):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--k-max", "3", "--time-budget", budget])
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
    # no field is overridden, ignored or read as a bare KeyError
    '{"construction": "B", "p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
    '{"p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2, "bogus": 7}',
    '{"p1": "UD", "i": 0, "mark1": 1, "mark2": 2}',
])
def test_map_rejects_malformed_input(capsys, text):
    code, out, err = run(capsys, "map", "--construction", "A", "--input", text)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_map_input_names_the_fields_it_refuses(capsys):
    for blob, message in [
        ('{"p1": "UD", "i": 0, "mark1": 1, "mark2": 2}', "field 'p2' is missing"),
        ('{"p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2, "bogus": 7}',
         "field 'bogus' is unknown"),
        ('{"construction": "B", "p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
         "names construction 'B', but --construction is A"),
    ]:
        code, out, err = run(capsys, "map", "--construction", "A", "--input", blob)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(f"{message}\n"), err


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


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "1", "--k-max", str(K_MAX_LIMIT + 1)],
    ["verify", "--identity", "1", "--k-max", "1000000"],
    ["report", "--k-max", str(K_MAX_LIMIT + 1)],
])
def test_k_max_above_the_limit_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"limit of {K_MAX_LIMIT}" in err and "report --time-budget" in err


def test_k_max_at_the_limit_runs(capsys):
    code, out, err = run(capsys, "verify", "--identity", "1", "--k-max", str(K_MAX_LIMIT))
    assert (code, err) == (0, "")
    assert [r["k"] for r in json.loads(out)["reports"]] == list(range(1, K_MAX_LIMIT + 1))
    # under a time budget the limit does not apply
    code, out, _ = run(capsys, "report", "--k-max", str(K_MAX_LIMIT + 1), "--time-budget", "0")
    assert code == 0 and json.loads(out)["truncated"] is True


def test_truncated_empty_report_still_exits_zero(capsys):
    # a zero budget is spent before the first report
    code, out, _ = run(capsys, "report", "--k-max", "3", "--time-budget", "0")
    assert code == 0
    assert json.loads(out) == {"reports": [], "truncated": True}


def test_truncated_csv_report_says_so_on_stderr(capsys):
    # the table is the same as for a sweep that finished; stderr tells them apart
    code, out, err = run(capsys, "report", "--k-max", "1", "--time-budget", "0", "--format", "csv")
    assert code == 0
    assert out == "id,k,rhs_index,lhs,rhs,equal\r\n"
    assert err == "note: sweep truncated by --time-budget after 0 reports\n"
    code, out, err = run(capsys, "report", "--k-max", "2", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 11
    assert err == ""


# sha256 of stdout, the reports recorded while every size was still folded in
# a DP pass of its own and the listings while each kind had an enumerator of
# its own; any change to an exact value, a path order or the output format
# shows here
_PINNED_OUTPUTS = {
    "enumerate --kind dyck --k 10": "69ce3ffd1c2eedce26b0dbc4c0c66ac477df47e2f35c650395a62a07215088da",
    "enumerate --kind altmotzkin --k 10": "b531282f3233d1ef67c57e2d4748e0e8773bef456bc37273eea4249d336b77f9",
    "enumerate --kind dyck --k 11 --format csv": "dfba36bc75f1eb70f53bcba42cea451a3c4228ad926450da114095fd86d6f264",
    "enumerate --kind altmotzkin --k 11 --format csv": "29d5c0f7f9f450b2040f37a63c50741c00d90de33199cb45c33a85efe04fecc2",
    "enumerate --kind dyck --k 0": "8dae2fa481106eb20e975b601ac5900d70dfa19507a1e2af30d60c69851cca42",
    "enumerate --kind altmotzkin --k 0": "e7df1a5024c7838ad501310f4dea5495adc517f66ccf874a79fb21d60417fa25",
    "enumerate --kind dyck --k 1": "697c2552a3faf332a4bc9b33db22ea77e3db0a0fc2327ccc4e0571db67c50276",
    "enumerate --kind altmotzkin --k 1": "d8b9b6c594249b59ceb8a12aac46824986f682d2ae39e67a12380644980c5dec",
    "report --k-max 30": "fd0857789ed21eef3c7fe34ee87e24b91c3dcc9bed35a60880ade8edcca6a552",
    "report --k-max 30 --format csv": "cb168fcf51f6390904a89429a5ae376758e8435757a536d5ab5a48e1a643426f",
    "verify --identity 1 --k-max 30": "9e3d2f575fcf1222fabcbef9b8fb08d34220db0fad97f390dd424355752b7ce9",
    "verify --identity 2 --k-max 30": "f4d1f9e8352f790909624d91cd4e53c2cbf2356d6b2031159f3a92d547e76dcc",
    "verify --identity 3 --k-max 30": "a6136df57024d03fb8c3b2f1c9dd7e7ba43f0f6c9dabadedcdbfd5e0b8087671",
    "verify --identity 4 --k-max 30": "e2217adf46675ed9fc6766abe8c3f3303af241038d02aefaf889877dfbd9bff9",
    "verify --identity 5 --k-max 30": "42fc402bb55cbf4a85bc983dcd6d76e0c05719e48cdf43d63685759d83134f7a",
}


@pytest.mark.parametrize("command", _PINNED_OUTPUTS)
def test_exact_outputs_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_OUTPUTS[command]


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


def _pathforge(argv, stdout, module=True):
    """Start ``python -m pathforge ARGV``, or ``python ARGV`` without module,
    with this checkout's src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as a pipe has it by default
    prefix = ["-m", "pathforge"] if module else []
    return subprocess.Popen([sys.executable, *prefix, *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "dyck", "--k", "10"],
    ["report", "--k-max", "25"],
    # streams: a listing that built every half of length k first would
    # hold about 2**30 strings before its first line
    ["enumerate", "--kind", "dyck", "--k", "30"],
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # like `| head -1`: each output is far larger than a pipe buffer, so a
    # write fails once the reader has gone
    proc = _pathforge(argv, subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"{\n"
    assert "Traceback" not in err and "Error" not in err, err


# starts pathforge with the given arguments and its own stdout and stderr,
# then writes exit code, wall seconds and peak RSS in KiB as stderr's last line
_MEASURE_SCRIPT = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "pathforge", *sys.argv[1:]])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, time.perf_counter() - start, usage.ru_maxrss, file=sys.stderr)
"""


def test_huge_k_max_under_a_time_budget_stays_cheap():
    # the budget binds between folds, and the folds grow in passes from
    # small sizes, so no step is sized for k-max.  A small interpreter
    # starts the command: a child forked from this test process would
    # count the test process's memory in its peak RSS.
    argv = ["report", "--k-max", "1000000", "--time-budget", "0.5"]
    proc = _pathforge(["-c", _MEASURE_SCRIPT, *argv], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    code, wall, rss_kib = err.decode().splitlines()[-1].split()
    assert code == "0"
    assert json.loads(out)["truncated"] is True
    assert float(wall) < 5
    assert int(rss_kib) / 1024 < 100


# each command runs in the same fresh interpreter; only mc may import numpy
_IMPORT_GRAPH_SCRIPT = """
import contextlib, io, sys
from pathforge.cli import main
for argv in [
    ["stats", "--path", "UDUD", "--kind", "dyck"],
    ["map", "--construction", "B"],
    ["invert", "--construction", "A", "--path", "UUUDDUDD"],
    ["walk", "--to", "--path", "LUDL"],
    ["verify", "--identity", "4", "--k-max", "6"],
    ["report", "--k-max", "6", "--format", "csv"],
    ["enumerate", "--kind", "altmotzkin", "--k", "4"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code, "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["mc", "--ensemble", "wigner", "--k", "2", "--n", "4", "--trials", "2"])
print("mc", code, "numpy" in sys.modules)
"""


def test_only_mc_imports_numpy():
    proc = _pathforge(["-c", _IMPORT_GRAPH_SCRIPT], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.decode().splitlines() == [
        "stats 0 False", "map 0 False", "invert 0 False", "walk 0 False", "verify 0 False",
        "report 0 False", "enumerate 0 False", "mc 0 True",
    ]


# the pathforge modules each command loads, in a fresh interpreter: a
# command imports what it runs, so the fold loads for report and verify alone
_MODULES_SCRIPT = """
import contextlib, io, sys
from pathforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m == "numpy" or m.startswith("pathforge.")))
"""
_BASE = ["pathforge.cli", "pathforge.numeric", "pathforge.paths"]
_LOADS = {
    "enumerate": _BASE,
    "stats": _BASE,
    "report": _BASE + ["pathforge.fold", "pathforge.identities"],
    "verify": _BASE + ["pathforge.fold", "pathforge.identities"],
    "map": _BASE + ["pathforge.bijections"],
    "invert": _BASE + ["pathforge.bijections"],
    "walk": _BASE + ["pathforge.walks"],
    "mc": _BASE + ["pathforge.moments", "numpy"],
}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "altmotzkin", "--k", "4"],
    ["enumerate", "--kind", "dyck", "--k", "4", "--format", "csv"],
    ["stats", "--path", "UDUD", "--kind", "dyck"],
    ["report", "--k-max", "6", "--format", "csv"],
    ["verify", "--identity", "4", "--k-max", "6"],
    ["map", "--construction", "B"],
    ["invert", "--construction", "A", "--path", "UUUDDUDD"],
    ["walk", "--to", "--path", "LUDL"],
    ["mc", "--ensemble", "wigner", "--k", "2", "--n", "4", "--trials", "2"],
], ids=" ".join)
def test_each_command_loads_only_what_it_runs(argv):
    proc = _pathforge(["-c", _MODULES_SCRIPT, *argv], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.decode().split() == ["0", *sorted(_LOADS[argv[0]])]


def test_mc_without_numpy_is_one_error_line():
    script = ("import sys; sys.modules['numpy'] = None; from pathforge.cli import main; "
              "sys.exit(main(['mc', '--ensemble', 'wigner', '--k', '2', '--n', '4']))")
    proc = _pathforge(["-c", script], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert out == b""
    assert err.decode().startswith("error: mc needs numpy"), err
    assert len(err.decode().splitlines()) == 1


def test_mc_usage_error_needs_no_numpy():
    script = ("import sys; sys.modules['numpy'] = None; from pathforge.cli import main; "
              "sys.exit(main(['mc', '--ensemble', 'wigner', '--k', '2', '--n', '4', '--m', '5']))")
    proc = _pathforge(["-c", script], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert out == b""
    assert err.decode() == "error: --m applies to the wishart ensemble only\n"


def test_stdout_closed_before_a_short_output_exits_1_quietly():
    # the whole output fits the stdout buffer, so the write that fails is
    # the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _pathforge(["verify", "--identity", "1", "--k-max", "3"], write_end)
    os.close(write_end)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == ""


# the fuzz below drives mc, report and verify at tiny sizes, as generated or
# with one word of the command line replaced by an out-of-range number or by
# junk; junk has no decimal digit, so it never parses as a number that asks
# for unbounded work
_JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
_OUT_OF_RANGE = ["-1", "0", "1", "6", "-0", "nan", "inf", "1e400"]


def _flag(flag, values):
    return values.map(lambda v: (flag, str(v)))


def _option(flag, values):
    return st.one_of(st.just(()), _flag(flag, values))


def _argv(command, *parts):
    def spoil(args):
        argv, i, word = args
        i = 1 + i % (len(argv) - 1)
        return (*argv[:i], word, *argv[i + 1:])

    argvs = st.tuples(*parts).map(lambda ps: (command, *(a for p in ps for a in p)))
    words = st.one_of(st.sampled_from(_OUT_OF_RANGE), _JUNK)
    return st.one_of(argvs, st.tuples(argvs, st.integers(0, 15), words).map(spoil))


_FORMAT = _option("--format", st.sampled_from(["json", "csv"]))
_MC_ARGV = _argv(
    "mc",
    st.one_of(
        st.just(("--ensemble", "wigner")),
        _flag("--m", st.integers(2, 8)).map(lambda m: ("--ensemble", "wishart", *m)),
        st.sampled_from([("--ensemble", "wigner", "--m", "3"), ("--ensemble", "wishart")]),
    ),
    _flag("--k", st.integers(1, 9)),
    _flag("--n", st.integers(2, 8)),
    _option("--trials", st.integers(1, 3)),
    _option("--seed", st.integers(0, 5)),
    _FORMAT,
)
_REPORT_ARGV = _argv(
    "report",
    _flag("--k-max", st.integers(1, 6)),
    _option("--identities", st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
        lambda ids: ",".join(map(str, ids)))),
    _option("--time-budget", st.one_of(st.floats(0, 30), st.just("1e-6"))),
    _FORMAT,
)
_VERIFY_ARGV = _argv(
    "verify",
    _flag("--identity", st.integers(1, 5)),
    _flag("--k-max", st.integers(1, 6)),
    _option("--rhs-index", st.sampled_from(["k", "k-1"])),
    _FORMAT,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(_MC_ARGV, _REPORT_ARGV, _VERIFY_ARGV))
def test_fuzz_mc_report_and_verify(argv):
    code, out, err = run_any(*argv)
    assert code in (0, 1, 2)
    if code == 2:
        return
    if code == 1 and err:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        return
    # exit 0, or exit 1 from a verify or report that printed a failed verdict
    assert code == 0 or argv[0] != "mc"
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and len({len(row) for row in rows}) == 1
        assert code == 0 or any(row[-1] == "False" for row in rows[1:])
    else:
        data = json.loads(out)
        assert isinstance(data, dict)
        assert code == 0 or any(r["equal"] is False for r in data["reports"])


# enumerate lists every path only up to k=8; --count-only takes any k
_ENUMERATE_ARGV = _argv(
    "enumerate",
    _flag("--kind", st.sampled_from(["dyck", "altmotzkin"])),
    st.one_of(_flag("--k", st.integers(0, 8)),
              _flag("--k", st.integers(0, 3000)).map(lambda k: (*k, "--count-only"))),
    _FORMAT,
)
_STATS_ARGV = _argv(
    "stats",
    st.lists(_PATH_TEXT, min_size=1, max_size=3).map(
        lambda paths: tuple(a for p in paths for a in ("--path", p))),
    _flag("--kind", st.sampled_from(["dyck", "altmotzkin"])),
    _FORMAT,
)
_NODES = st.lists(st.integers(-1, 3), max_size=9).map(lambda nodes: ",".join(map(str, nodes)))
_WALK_ARGV = _argv(
    "walk",
    st.one_of(_PATH_TEXT.map(lambda p: ("--to", "--path", p)),
              st.one_of(_NODES, _JUNK).map(lambda w: ("--from", "--path", w))),
    _option("--kind", st.sampled_from(["dyck", "altmotzkin"])),
    _FORMAT,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(_ENUMERATE_ARGV, _STATS_ARGV, _WALK_ARGV))
def test_fuzz_enumerate_stats_and_walk(argv):
    code, out, err = run_any(*argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if code != 0:
        return
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and len({len(row) for row in rows}) == 1
    else:
        json.loads(out)
