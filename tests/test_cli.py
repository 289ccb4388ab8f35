"""CLI surface: documented flag combinations, JSON schemas, exit codes."""

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pathforge import bijections, cli, identities, walks
from pathforge.cli import K_MAX_LIMIT, main
from pathforge.identities import verify
from pathforge.numeric import catalan
from pathforge.paths import enumerate_alt_motzkin, enumerate_dyck, parse

from oracles import five_tuples


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# construction B's first five-tuple at k = 1
_TUPLE_B = '{"construction":"B","p1":"UD","p2":"UD","i":0,"mark1":0,"mark2":0}'


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
    # the refusal comes before the count is computed, and points to the CSV
    # listing, which takes this k
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--kind", "dyck", "--k", "7153", *extra)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: --k 7153: the path count has more than 4300 digits"), err
    assert err.endswith("; --format csv lists the paths without it\n"), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("k", [10**306, 10**400, 2**62], ids=["10**306", "10**400", "2**62"])
@pytest.mark.parametrize("extra,message", [
    (["--count-only"], "the path count has more than 4300 digits"),
    ([], "the path count has more than 4300 digits"),
    (["--format", "csv"], "a path of 2k steps is longer than Python can index"),
], ids=["count-only", "json", "csv"])
def test_enumerate_refuses_a_k_past_a_float_or_an_index(capsys, k, extra, message):
    # lgamma takes no k past about 1e305 and no float holds 10**400; a CSV
    # listing's 2k steps pass sys.maxsize at 2**62, so no refusal points to it
    code, out, err = run(capsys, "enumerate", "--kind", "dyck", "--k", str(k), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --k {k}: {message}"), err
    assert "--format csv" not in err, err
    assert len(err.splitlines()) == 1


def test_enumerate_csv_streams_at_any_k():
    # CSV has no count, so no size Python can index refuses it: the first
    # path comes at once
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
    code, out, _ = run(capsys, "stats", "--path", "LUDL")
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
    code, out, _ = run(capsys, "stats", "--path", "UDUDUD", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,k,path,R,V,L,r"
    assert lines[1] == "dyck,3,UDUDUD,3 0 0,4 3 0 0,,3"


def test_stats_multiple_paths(capsys):
    code, out, _ = run(
        capsys, "stats", "--path", "UUDD", "--path", "UDUD"
    )
    assert code == 0
    data = json.loads(out)
    assert [d["path"] for d in data] == ["UUDD", "UDUD"]


def test_map_explicit_input(capsys):
    blob = json.dumps({"construction": "A", "p1": "UDUD", "p2": "UUDD", "i": 0, "mark1": 1, "mark2": 4})
    code, out, _ = run(capsys, "map", "--input", blob)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "construction": "A",
        "path": "UUUDDUDD",
        "middle_altitude": 2,
        "rises": 4,
    }


@pytest.mark.parametrize("argv", [
    ["map"],
    ["map", "--construction", "A", "--input", _TUPLE_B],
    ["map", "--construction", "B", "--input", _TUPLE_B],
])
def test_map_takes_its_construction_from_input_alone(argv):
    # --input is required, and the five-tuple names its construction
    code, out, err = run_any(*argv)
    assert (code, out) == (2, "") and "Traceback" not in err


def test_map_invert_round_trip(capsys):
    tuple_d = {"construction": "D", "p1": "LL", "p2": "LL", "i": 0, "mark1": 2, "mark2": 1}
    code, out, _ = run(capsys, "map", "--input", json.dumps(tuple_d))
    data = json.loads(out)
    code, out, _ = run(capsys, "invert", "--path", data["path"])
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
    code, out, _ = run(capsys, "report", "--identities", "1", "--k-max", "3")
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
    code, out, _ = run(capsys, "report", "--identities", "4", "--k-max", "3")
    assert code == 0
    data = json.loads(out)
    variants = {(r["k"], r["rhs_index"]): r for r in data["reports"]}
    assert variants[(3, "k-1")]["equal"] is True
    assert variants[(3, "k-1")]["default_convention"] is True
    assert variants[(3, "k")]["equal"] is False


@pytest.mark.parametrize("identity", ["1", "4", "5"])
def test_verify_has_no_rhs_index(capsys, identity):
    # the default convention alone gates the exit code; the other variant
    # of identities 4 and 5 is printed, never selected
    with pytest.raises(SystemExit) as exc:
        main(["report", "--identities", identity, "--k-max", "2", "--rhs-index", "k"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


def test_verify_identity3_polynomial_wire_format(capsys):
    code, out, _ = run(capsys, "report", "--identities", "3", "--k-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][-1]["lhs"] == ["0", "9", "39", "44", "14", "1"]


def test_walk_to_and_from(capsys):
    code, out, _ = run(capsys, "walk", "--path", "LUDL")
    assert code == 0
    data = json.loads(out)
    assert data == {"path": "LUDL", "kind": "altmotzkin", "nodes": [0, 0, 1, 0, 0], "walk": "0,0,1,0,0"}
    code, out, _ = run(capsys, "walk", "--path", "0,0,1,0,0")
    assert code == 0
    assert json.loads(out)["path"] == "LUDL"


def test_walk_kind_override(capsys):
    # a path or a walk states its kind, so walk takes no --kind
    for argv in (("--path", "UDUD"), ("--path", "0,1,0,1,0")):
        with pytest.raises(SystemExit) as exc:
            main(["walk", *argv, "--kind", "dyck"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err


def test_walk_invalid_path_is_reported(capsys):
    code, _, err = run(capsys, "walk", "--path", "UU")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("nodes", ("1,2,1", "1,0,1"))
def test_walk_from_refuses_a_walk_not_from_node_0(capsys, nodes):
    code, out, err = run(capsys, "walk", "--path", nodes)
    assert (code, out) == (1, "")
    assert err == "error: walk starts at node 1, not at node 0\n"


@pytest.mark.parametrize("argv,message", [
    pytest.param(["stats", "--path", " UD"], "invalid character ' ' at position 1", id="stats"),
    pytest.param(["invert", "--path", "UUUDDUDD "], "invalid character ' ' at position 9", id="invert"),
    pytest.param(["walk", "--path", " UD"], "invalid character ' ' at position 1", id="walk path"),
    pytest.param(["walk", "--path", " 0,1,0"], "walk must be comma-separated integers: ' 0' is not an "
                 "integer written as ASCII -?[0-9]+", id="walk nodes"),
])
def test_a_path_or_walk_is_read_as_written(capsys, argv, message):
    # no command strips its argument: whitespace is refused like any other character
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_walk_lowercase_path_is_refused(capsys):
    # parse accepts the capitals U, D, L alone, whatever kind is guessed
    code, out, err = run(capsys, "walk", "--path", "ludl")
    assert (code, out) == (1, "")
    assert err == "error: invalid character 'l' at position 1\n"


def test_walk_and_invert_take_the_kind_from_the_path(monkeypatch):
    # every U/D/L string of up to 6 steps: stats and walk run exactly when
    # the string parses as the kind it states, and invert prints what
    # bijections.invert gives under the one construction that takes the
    # string parsed as its kind, or exits 1 with nothing on stdout when none
    # does.  One parser serves all 3,279 runs: building it is most of a
    # run's time.
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    for n in range(7):
        for text in map("".join, itertools.product("UDL", repeat=n)):
            try:
                parses = parse(text, cli._kind_of("L" in text)) is not None
            except ValueError:
                parses = False
            assert (run_any("walk", "--path", text)[0] == 0) is parses, text
            assert (run_any("stats", "--path", text)[0] == 0) is parses, text
            inverses = []
            for c in "ABCD":
                with contextlib.suppress(ValueError):
                    inverses.append(bijections.invert(c, parse(text, bijections._construction(c).kind)))
            assert len(inverses) <= 1, text
            code, out, _ = run_any("invert", "--path", text)
            if inverses:
                assert (code, out) == (0, json.dumps(inverses[0].to_json_dict(), indent=2) + "\n"), text
            else:
                assert (code, out) == (1, ""), text
    # stats has no --kind to repeat or refuse what the path states
    code, out, err = run_any("stats", "--path", "UD", "--kind", "dyck")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --kind dyck"), err


def test_invert_refuses_a_path_of_another_kind(capsys):
    # LUDLLL is an alternating Motzkin path: invert tries it under C, of its
    # kind and even middle altitude, never under a Dyck construction, and C
    # refuses its length
    code, out, err = run(capsys, "invert", "--path", "LUDLLL")
    assert (code, out, err) == (1, "", "error: path length must be 4k with k >= 1, got 6\n")


def test_walk_reads_a_digit_as_a_walk(monkeypatch):
    # every U/D/L string of up to 8 steps is read as a path and every node
    # list of up to 6 nodes in -1..3 as a walk: walk prints what
    # path_to_walk or walk_to_path gives, or exits 1 with their error, in
    # both spellings of the option (--path X for JSON, --path=X for CSV)
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    texts = ["".join(t) for n in range(9) for t in itertools.product("UDL", repeat=n)]
    texts += [",".join(map(str, t)) for n in range(1, 7) for t in itertools.product(range(-1, 4), repeat=n)]
    for text in texts:
        try:
            if any(c.isdigit() for c in text):
                walk = walks.Walk.parse(text)
                path = walks.walk_to_path(walk, cli._kind_of(0 in walk.moves()))
                line = path.render()
                record = {"walk": walk.render(), "kind": path.kind.value, "path": line}
            else:
                path = parse(text, cli._kind_of("L" in text))
                walk = walks.path_to_walk(path)
                line = walk.render()
                record = {"path": path.render(), "kind": path.kind.value, "nodes": list(walk.nodes),
                          "walk": line}
        except ValueError as exc:
            expected = (1, "", f"error: {exc}\n")
            assert run_any("walk", "--path", text) == expected, text
            assert run_any("walk", f"--path={text}", "--format", "csv") == expected, text
        else:
            assert run_any("walk", "--path", text) == (0, json.dumps(record, indent=2) + "\n", ""), text
            assert run_any("walk", f"--path={text}", "--format", "csv") == (0, line + "\n", ""), text


def test_walk_takes_a_node_list_that_starts_below_zero():
    # argparse takes a value that starts with "-" and a digit as walk's
    # --path, so the walk itself refuses its first node, as with --path=;
    # one that starts with "-" and no digit is still read as an option
    expected = (1, "", "error: node at time 0 must be nonnegative, got -1\n")
    assert run_any("walk", "--path", "-1,0,-1") == expected
    assert run_any("walk", "--path=-1,0,-1") == expected
    for command in ("walk", "stats", "invert"):
        code, out, err = run_any(command, "--path", "-UD")
        assert (code, out) == (2, "") and "Traceback" not in err
        assert err.splitlines()[-1].endswith("error: argument --path: expected one argument"), err


def test_invert_undoes_map_at_every_tuple(monkeypatch):
    # every five-tuple of A-D at k <= 3: invert reads the construction from
    # the path that map prints and gives the tuple back, which map reads as
    # invert prints it
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    for data in _VALID_TUPLES:
        code, mapped, _ = run_any("map", "--input", json.dumps(data))
        assert code == 0
        code, out, _ = run_any("invert", "--path", json.loads(mapped)["path"])
        assert (code, json.loads(out)) == (0, data), data
        assert run_any("map", "--input", out) == (0, mapped, ""), data


def test_map_reads_what_invert_prints(monkeypatch):
    # invert --path P | map --input - prints P's record, for every doubled
    # path of k <= 4 that inverts
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    inverted = 0
    for text in _DOUBLED_PATHS:
        code, out, _ = run_any("invert", "--path", text)
        if code:
            continue
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, mapped, err = run_any("map", "--input", "-")
        assert (code, err) == (0, ""), text
        record = json.loads(mapped)
        assert (record["construction"], record["path"]) == (json.loads(out)["construction"], text)
        inverted += 1
    assert inverted == 27  # of the 44


# spellings of 1 that int() takes: a sign, spaces, an underscore, and
# Arabic-Indic and fullwidth digits
@pytest.mark.parametrize("one", ["+1", " 1", "1 ", "0_1", "\u0661", "\uff11"])
def test_integers_are_ascii_digits_alone(one):
    for argv in (["enumerate", "--kind", "dyck", "--k", one, "--count-only"],
                 ["report", "--k-max", one],
                 ["report", "--identities", one, "--k-max", "1"]):
        code, out, err = run_any(*argv)
        assert (code, out) == (2, ""), argv
        assert "Traceback" not in err and f"got {one!r}" in err, err
    code, out, err = run_any("walk", "--path", f"0,{one},0")
    assert (code, out) == (1, "")
    # the node as given and the rule that refuses it, not int()'s words
    assert err == f"error: walk must be comma-separated integers: {one!r} is not an integer " \
                  f"written as ASCII -?[0-9]+\n"


def test_k_max_reads_as_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--k-max", "x"])
    assert exc.value.code == 2
    assert "error: argument --k-max: expected an integer, got 'x'" in capsys.readouterr().err
    # a negative --k-max still checks nothing, as 0 does
    assert run(capsys, "report", "--k-max", "-1")[:2] == run(capsys, "report", "--k-max", "0")[:2]


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
    # an n too large to allocate (800 TiB) is refused by the work bound first
    (["--ensemble", "wigner", "--k", "2", "--n", "10000000", "--trials", "1"], 2,
     "mc run estimated above the limit"),
    # C_520, the target of k = 1040, is above the largest float; the refusal
    # does no big-int work, however large k is
    (["--ensemble", "wigner", "--k", "1040", "--n", "2", "--trials", "2"], 2, "--k 1040 "),
    (["--ensemble", "wishart", "--k", "1040", "--n", "2", "--m", "2"], 2, "--k 1040 "),
    (["--ensemble", "wigner", "--k", "1000000", "--n", "2"], 2, "--k 1000000 "),
    # below the limit, an estimate, stderr or target that overflows: at
    # k = 1000 a trial's trace passes the largest float
    (["--ensemble", "wigner", "--k", "1000", "--n", "4", "--trials", "2"], 1, "stderr"),
    (["--ensemble", "wigner", "--k", "1000", "--n", "4", "--trials", "2", "--format", "csv"], 1,
     "stderr"),
    (["--ensemble", "wishart", "--k", "200", "--n", "2", "--m", "100", "--trials", "1"], 1,
     "target"),
    # a Wishart trial's cost grows with min(m, n) alone, so an n past the
    # float range passes the work bound and is refused by wishart_moment
    (["--ensemble", "wishart", "--k", "2", "--n", "1" + "0" * 400, "--m", "2"], 1,
     "m and n must be at most the largest float"),
])
def test_mc_out_of_range_is_one_error_line(capsys, argv, code, message):
    start = time.perf_counter()
    got, out, err = run(capsys, "mc", *argv)
    assert time.perf_counter() - start < 5
    # nothing reaches stdout, so no Infinity, inf or NaN either
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err


def test_mc_statistics_of_finite_values_are_finite(capsys):
    # the squared deviations of these trials pass the largest float, and
    # their stderr does not
    code, out, err = run(capsys, "mc", "--ensemble", "wigner", "--k", "600", "--n", "50",
                         "--trials", "3", "--seed", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["stderr"] == pytest.approx(8.6314e178, rel=1e-4)


def test_mc_k_above_the_limit_needs_no_numpy():
    script = ("import sys; sys.modules['numpy'] = None; from pathforge.cli import main; "
              "sys.exit(main(['mc', '--ensemble', 'wigner', '--k', '1040', '--n', '2']))")
    proc = _pathforge(["-c", script], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err.decode().startswith("error: --k 1040 ") and len(err.decode().splitlines()) == 1


def test_mc_above_the_work_bound_needs_no_numpy():
    script = ("import sys; sys.modules['numpy'] = None; from pathforge.cli import main; "
              "sys.exit(main(['mc', '--ensemble', 'wigner', '--k', '4', '--n', '100000', "
              "'--trials', '20']))")
    proc = _pathforge(["-c", script], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err.decode().startswith("error: mc run estimated above the limit of 60 s ")
    assert len(err.decode().splitlines()) == 1


def test_mc_above_the_byte_bound_needs_no_numpy():
    # inside the time bound (44.7 s estimated), but three quarters of a
    # 61,000-square matrix, the block form a trial holds, are about 21 GiB
    script = ("import sys; sys.modules['numpy'] = None; from pathforge.cli import main; "
              "sys.exit(main(['mc', '--ensemble', 'wigner', '--k', '2', '--n', '61000', "
              "'--trials', '1']))")
    proc = _pathforge(["-c", script], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err.decode().startswith("error: mc run estimated to hold 20.9 GiB at once, above the "
                                   "limit of 2 GiB ")
    assert len(err.decode().splitlines()) == 1


def test_mc_work_bound_keeps_a_tenfold_margin():
    # the acceptance cases, the largest runs of tests/test_moments.py and
    # the largest k, inside the time and the byte bound; the estimates
    # alone run, no trial
    limit = cli._MC_SECONDS * 10**12
    for case in [("wigner", 4, 2000, None, 20), ("wishart", 2, 2000, 1000, 20),
                 ("wigner", 6, 1000, None, 20), ("wishart", 3, 1000, 1000, 20),
                 ("wishart", 4, 200000, 100000, 20),
                 ("wigner", 1039, 8, None, 20), ("wishart", 1039, 8, 8, 20)]:
        picoseconds, held = cli._mc_trial(*case[:4])
        assert 10 * case[4] * picoseconds <= limit, case
        assert 10 * held <= cli._MC_BYTES, case
    # the cost grows with every argument, and a huge n neither overflows nor
    # passes: the estimate is an int
    assert 10**8 * cli._mc_trial("wigner", 2, 2, None)[0] > limit
    picoseconds, held = cli._mc_trial("wigner", 3, 10**1000, None)
    assert picoseconds > limit and held > cli._MC_BYTES
    assert cli._mc_trial("wishart", 4, 4000, 2000)[0] > cli._mc_trial(
        "wishart", 2, 4000, 2000)[0] > cli._mc_trial("wishart", 2, 4000, 1000)[0]


def test_mc_trial_estimate_is_pinned():
    # (picoseconds, bytes) of one trial for k = 1..8: from k = 3 _wigner_trace
    # adds products, and holds two powers and a product term beside the
    # matrix from k = 5;
    # the Wishart walk grows with k and k**2, and its bytes with neither
    assert [cli._mc_trial("wigner", k, 100, None) for k in range(1, 9)] == [
        (271_200_000, 264_800), (271_200_000, 264_800), (293_200_000, 264_800),
        (293_200_000, 264_800), *[(304_200_000, 404_800)] * 4]
    assert [cli._mc_trial("wishart", k, 100, 50) for k in range(1, 9)] == [
        (164_150_000, 1_050_976), (172_600_000, 1_050_976), (181_350_000, 1_050_976),
        (190_400_000, 1_050_976), (199_750_000, 1_050_976), (209_400_000, 1_050_976),
        (219_350_000, 1_050_976), (229_600_000, 1_050_976)]


def test_mc_wishart_runs_at_any_matrix_size(capsys):
    # a trial draws the 2p - 1 chi variables of the tridiagonal model, not
    # the m-by-n G, so this run is inside both bounds (it was estimated at
    # 886,000 s when a trial drew G and took powers of G G^T) and near its
    # target
    code, out, err = run(capsys, "mc", "--ensemble", "wishart", "--k", "4", "--n", "200000",
                         "--m", "100000", "--trials", "20")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["target"] == 5.625  # N_4(1/2) = 1 + 6/2 + 6/4 + 1/8
    assert abs(rec["estimate"] - rec["target"]) <= 4 * rec["stderr"]


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


@pytest.mark.parametrize("identity", ["1", "2", "3", "4", "5"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("k_max", ["0", "3", str(K_MAX_LIMIT + 1)])
def test_verify_is_report_of_one_identity(capsys, identity, fmt, k_max):
    # report --identities N prints identities.verify's report of thmN at
    # each size from its first to --k-max, in every variant, and refuses a
    # --k-max that leaves nothing to check or is above the limit
    code, out, err = run(capsys, "report", "--identities", identity, "--k-max", k_max, "--format", fmt)
    if k_max != "3":
        assert (code, out) == (2, "") and err.startswith("error: --k-max ") and err.count("\n") == 1
        return
    name = f"thm{identity}"
    row = identities._row(name)
    records = [cli._report_record(verify(name, k, v)) for k in range(row.k_min, 4) for v in row.variants]
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out) == {"reports": records}
    else:
        header = ["id", "k", "rhs_index", "lhs", "rhs", "equal"]
        cells = [["" if r.get(h) is None else str(cli._csv_cell(r[h])) for h in header] for r in records]
        assert list(csv.reader(io.StringIO(out))) == [header, *cells]


def test_report_csv_header(capsys):
    code, out, _ = run(capsys, "report", "--k-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,k,rhs_index,lhs,rhs,equal"


@pytest.mark.parametrize("identity", [1, 2, 3, 4, 5])
def test_verify_kmax6_exits_zero_under_defaults(capsys, identity):
    code, _, _ = run(capsys, "report", "--identities", str(identity), "--k-max", "6")
    assert code == 0


def test_verify_command_is_retired(capsys):
    # report --identities N is the one command line that checks identities
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "1", "--k-max", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: pathforge ") and "Traceback" not in err
    assert "error: argument command: invalid choice: 'verify'" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "hexagon", "--k", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["report", "--identities", "9", "--k-max", "3"])
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
    code, _, err = run(capsys, "stats", "--path", "UDX")
    assert code == 1
    assert "invalid character" in err


def test_an_allocation_failing_without_a_message_says_so(capsys, monkeypatch):
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_stats", fail)
    assert run(capsys, "stats", "--path", "UD") == (1, "", "error: out of memory\n")


def test_a_key_error_in_a_command_escapes_main(monkeypatch):
    # no command raises KeyError on bad input, so one is a defect: main
    # gives no exit code for it, and its traceback shows where it was raised
    def fail(args):
        raise KeyError("name")

    monkeypatch.setattr(cli, "_cmd_stats", fail)
    with pytest.raises(KeyError):
        main(["stats", "--path", "UD"])


@pytest.mark.parametrize("text", [
    '[1,2]',
    '{"p1": 5, "p2": "UD", "i": 0, "mark1": 1, "mark2": 2, "construction": "A"}',
    '{"p1": "UD", "p2": "UD", "i": 0, "mark1": 1.7, "mark2": 2, "construction": "A"}',
    '{"p1": "UD", "p2": "UD", "i": true, "mark1": 1, "mark2": 2, "construction": "A"}',
    # B marks vertices, and vertex 1 of UD is at altitude 1, not i
    '{"construction": "B", "p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
    # no field is ignored or read as a bare KeyError
    '{"p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2, "bogus": 7, "construction": "A"}',
    '{"p1": "UD", "i": 0, "mark1": 1, "mark2": 2}',
])
def test_map_rejects_malformed_input(capsys, text):
    code, out, err = run(capsys, "map", "--input", text)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_map_input_nested_too_deeply_is_one_error_line():
    # json.loads gives up past the interpreter's recursion limit: an input
    # error, not a traceback
    depth = 100_000
    proc = _pathforge(["map", "--input", "-"], subprocess.PIPE, stdin=subprocess.PIPE)
    text = '{"construction": "A", "p1": ' + "[" * depth + "]" * depth + "}"
    out, err = proc.communicate(text.encode(), timeout=60)
    assert (proc.returncode, out) == (1, b"")
    assert err.decode() == "error: --input is nested too deeply to parse\n"


def test_map_input_names_the_fields_it_refuses(capsys):
    for blob, message in [
        ('{"construction": "A", "p1": "UD", "i": 0, "mark1": 1, "mark2": 2}', "field 'p2' is missing"),
        ('{"p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}', "field 'construction' is missing"),
        ('{"construction": "A", "p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2, "bogus": 7}',
         "field 'bogus' is unknown"),
        # a path is read as written, as --path reads it: whitespace is refused
        ('{"construction": "A", "p1": " UD ", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
         "error: p1: invalid character ' ' at position 1"),
        ('{"construction": "A", "p1": "UD", "p2": "UD\\n", "i": 0, "mark1": 1, "mark2": 2}',
         "error: p2: invalid character '\\n' at position 3"),
        # a path that does not parse is named by its field
        ('{"construction": "A", "p1": "UX", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
         "error: p1: invalid character 'X' at position 2"),
        ('{"construction": "A", "p1": "UD", "p2": "UX", "i": 0, "mark1": 1, "mark2": 2}',
         "error: p2: invalid character 'X' at position 2"),
        ('{"construction": "A", "p1": "UUD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2}',
         "error: p1: path length must be even, got 3"),
        # a field named twice is refused, where json.loads alone keeps the last and runs
        ('{"construction": "A", "p1": "UD", "p2": "UUDD", "i": 0, "mark1": 1, "mark2": 4, "p1": "UDUD"}',
         "error: --input names field 'p1' twice"),
        ('{"construction": "A", "construction": "A", "p1": "UDUD", "p2": "UUDD", "i": 0, "mark1": 1, '
         '"mark2": 4}', "error: --input names field 'construction' twice"),
        # and text that is not JSON is refused as --input
        ("", "error: --input is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"construction": "A",}', "error: --input is not valid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 22 (char 21)"),
    ]:
        code, out, err = run(capsys, "map", "--input", blob)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(f"{message}\n"), err


@pytest.mark.parametrize("argv", [
    ["report", "--identities", "4", "--k-max", "1"],
    ["report", "--identities", "4,5", "--k-max", "1"],
    ["report", "--k-max", "0"],
])
def test_checking_nothing_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nothing to check" in err


@pytest.mark.parametrize("argv", [
    ["report", "--identities", "1", "--k-max", str(K_MAX_LIMIT + 1)],
    ["report", "--identities", "1", "--k-max", "1000000"],
    ["report", "--k-max", str(K_MAX_LIMIT + 1)],
])
def test_k_max_above_the_limit_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"limit of {K_MAX_LIMIT}" in err and "report --time-budget" in err


def test_k_max_at_the_limit_runs(capsys):
    code, out, err = run(capsys, "report", "--identities", "1", "--k-max", str(K_MAX_LIMIT))
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
    "report --identities 1 --k-max 30": "9e3d2f575fcf1222fabcbef9b8fb08d34220db0fad97f390dd424355752b7ce9",
    "report --identities 2 --k-max 30": "f4d1f9e8352f790909624d91cd4e53c2cbf2356d6b2031159f3a92d547e76dcc",
    "report --identities 3 --k-max 30": "a6136df57024d03fb8c3b2f1c9dd7e7ba43f0f6c9dabadedcdbfd5e0b8087671",
    "report --identities 4 --k-max 30": "e2217adf46675ed9fc6766abe8c3f3303af241038d02aefaf889877dfbd9bff9",
    "report --identities 5 --k-max 30": "42fc402bb55cbf4a85bc983dcd6d76e0c05719e48cdf43d63685759d83134f7a",
}


@pytest.mark.parametrize("command", _PINNED_OUTPUTS)
def test_exact_outputs_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_OUTPUTS[command]


class _CountingRaw(io.RawIOBase):
    """An unbuffered binary stream that keeps what it is given and counts
    the write calls, each one a system call on a real file."""

    def __init__(self):
        self.writes = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


@pytest.mark.parametrize("command", [
    "enumerate --kind dyck --k 10",
    "enumerate --kind altmotzkin --k 10",
    "enumerate --kind dyck --k 11 --format csv",
    "enumerate --kind altmotzkin --k 11 --format csv",
])
def test_listing_writes_blocks_to_an_unbuffered_stdout(monkeypatch, command):
    # the stdout that python -u builds: each write goes through to the raw
    # stream at once, so a write per path would make thousands
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", newline="\n",
                                                        write_through=True))
    assert main(command.split()) == 0
    assert raw.writes <= 64
    assert hashlib.sha256(raw.data).hexdigest() == _PINNED_OUTPUTS[command]


# generated input for the fuzz below: valid five-tuples, the same with one
# field moved by a little, doubled paths, and arbitrary text, missing keys
# and wrong types
_VALID_TUPLES = [t.to_json_dict() for c in "ABCD" for k in (1, 2, 3)
                 for t in five_tuples(c, k)]
_SMALL_PATHS = [p.render() for k in range(4) for p in (*enumerate_dyck(k), *enumerate_alt_motzkin(k))]
_DOUBLED_PATHS = [p.render() for k in range(1, 5) for p in (*enumerate_dyck(k), *enumerate_alt_motzkin(k))]
_PATH_TEXT = st.one_of(st.sampled_from(_SMALL_PATHS), st.text(alphabet="UDLX", max_size=8))
_WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                        st.lists(st.integers(-1, 8), max_size=2))
_FIELDS = {"construction": st.sampled_from("ABCDE"), "p1": _PATH_TEXT, "p2": _PATH_TEXT,
           "i": st.integers(-1, 3), "mark1": st.integers(-1, 8), "mark2": st.integers(-1, 8)}
_ANY_TUPLE = st.fixed_dictionaries({}, optional={name: st.one_of(values, _WRONG_TYPE)
                                                 for name, values in _FIELDS.items()})


def _moved(data, field, delta):
    return json.dumps({**data, field: data[field] + delta})


_MAP_INPUT = st.one_of(
    st.sampled_from(_VALID_TUPLES).map(json.dumps),
    st.builds(_moved, st.sampled_from(_VALID_TUPLES), st.sampled_from(["i", "mark1", "mark2"]),
              st.integers(-2, 2)),
    _ANY_TUPLE.map(json.dumps),
    st.text(max_size=10),
)
_INVERT_INPUT = st.one_of(st.sampled_from(_DOUBLED_PATHS), st.text(max_size=12))


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
@given(st.one_of(_MAP_INPUT.map(lambda x: ("map", "--input", x)),
                 _INVERT_INPUT.map(lambda x: ("invert", "--path", x))))
def test_fuzz_map_and_invert(case):
    command, _, text = case
    code, out, err = run_any(*case)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if code != 0:
        return
    record = json.loads(out)
    if command == "map":
        back_code, back, _ = run_any("invert", "--path", record["path"])
        assert back_code == 0
        assert json.loads(back) == json.loads(text)
    else:
        again_code, again, _ = run_any("map", "--input", out)
        assert again_code == 0
        assert json.loads(again)["path"] == text


def _pathforge(argv, stdout, module=True, stdin=None):
    """Start ``python -m pathforge ARGV``, or ``python ARGV`` without module,
    with this checkout's src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as a pipe has it by default
    prefix = ["-m", "pathforge"] if module else []
    return subprocess.Popen([sys.executable, *prefix, *argv], env=env,
                            stdin=stdin, stdout=stdout, stderr=subprocess.PIPE)


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
    ["stats", "--path", "UDUD"],
    ["map", "--input", '{"construction":"B","p1":"UD","p2":"UD","i":0,"mark1":0,"mark2":0}'],
    ["invert", "--path", "UUUDDUDD"],
    ["walk", "--path", "LUDL"],
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
        "stats 0 False", "map 0 False", "invert 0 False", "walk 0 False", "report 0 False",
        "enumerate 0 False", "mc 0 True",
    ]


# the pathforge modules each command loads, in a fresh interpreter: a
# command imports what it runs, so the fold loads for report alone
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
    "map": _BASE + ["pathforge.bijections"],
    "invert": _BASE + ["pathforge.bijections"],
    "walk": _BASE + ["pathforge.walks"],
    "mc": _BASE + ["pathforge.moments", "numpy"],
}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "altmotzkin", "--k", "4"],
    ["enumerate", "--kind", "dyck", "--k", "4", "--format", "csv"],
    ["stats", "--path", "UDUD"],
    ["report", "--k-max", "6", "--format", "csv"],
    ["report", "--identities", "4", "--k-max", "6"],
    pytest.param(["map", "--input", _TUPLE_B], id="map --input _TUPLE_B"),
    ["invert", "--path", "UUUDDUDD"],
    ["walk", "--path", "LUDL"],
    ["mc", "--ensemble", "wigner", "--k", "2", "--n", "4", "--trials", "2"],
], ids=" ".join)
def test_each_command_loads_only_what_it_runs(argv):
    proc = _pathforge(["-c", _MODULES_SCRIPT, *argv], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.decode().split() == ["0", *sorted(_LOADS[argv[0]])]


# the modules a command adds to those of a bare interpreter, where the
# listing, stats, map and invert build no record that needs them
_ADDED_SCRIPT = """
import sys
bare = set(sys.modules)
import contextlib, io
from pathforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted({"dataclasses", "inspect", "fractions", "decimal"} & (set(sys.modules) - bare)))
"""


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "altmotzkin", "--k", "4"],
    ["enumerate", "--kind", "dyck", "--k", "4", "--format", "csv"],
    ["stats", "--path", "LUDL", "--path", "LLLL"],
    ["stats", "--path", "UUDD", "--format", "csv"],
    pytest.param(["map", "--input", _TUPLE_B], id="map --input _TUPLE_B"),
    ["invert", "--path", "UUUDDUDD"],
], ids=" ".join)
def test_listing_and_stats_load_no_dataclasses_or_fractions(argv):
    proc = _pathforge(["-c", _ADDED_SCRIPT, *argv], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.decode().split() == ["0"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "dyck", "--k", "4"],
    ["stats", "--path", "UDUD"],
    ["report", "--k-max", "6", "--format", "csv"],
    ["report", "--identities", "4", "--k-max", "6"],
    pytest.param(["map", "--input", _TUPLE_B], id="map --input _TUPLE_B"),
    ["invert", "--path", "UUUDDUDD"],
    ["walk", "--path", "LUDL"],
    ["mc", "--ensemble", "wigner", "--k", "2", "--n", "4", "--trials", "2"],
], ids=" ".join)
def test_no_command_loads_dataclasses(argv):
    # every record is a named tuple or a __slots__ class; mc still loads
    # inspect, through numpy
    proc = _pathforge(["-c", _ADDED_SCRIPT, *argv], subprocess.PIPE, module=False)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    code, *added = out.decode().split()
    assert code == "0" and "dataclasses" not in added, added


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
    proc = _pathforge(["report", "--identities", "1", "--k-max", "3"], write_end)
    os.close(write_end)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == ""


# the fuzz below drives mc and report at tiny sizes, as generated or
# with one word of the command line replaced by an out-of-range number or by
# junk; junk has no decimal digit, so it never parses as a number that asks
# for unbounded work
_JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
_OUT_OF_RANGE = ["-1", "0", "1", "6", "-0", "nan", "inf", "1e400"]


def _flag(flag, values):
    return values.map(lambda v: (flag, str(v)))


def _option(flag, values):
    return st.one_of(st.just(()), _flag(flag, values))


# the flags that take no value; every other flag takes the word after it
_BARE_FLAGS = ("--count-only",)


def _argv(command, *parts):
    def spoil(args):
        argv, i, word = args
        # replace a flag's value, never a flag: a command line that lost a
        # flag mostly meets argparse's missing-argument refusal
        values = [j for j in range(2, len(argv))
                  if argv[j - 1].startswith("--") and argv[j - 1] not in _BARE_FLAGS]
        i = values[i % len(values)]
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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(_MC_ARGV, _REPORT_ARGV))
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
    # exit 0, or exit 1 from a report that printed a failed verdict
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
    _FORMAT,
)
_NODES = st.lists(st.integers(-1, 3), max_size=9).map(lambda nodes: ",".join(map(str, nodes)))
_WALK_ARGV = _argv(
    "walk",
    st.one_of(_PATH_TEXT, _NODES, _JUNK).map(lambda text: ("--path", text)),
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
