"""Command-line surface: enumeration, statistics, constructions and their
inverses, identity verification, walk translation, and Monte Carlo moments.

Output goes to stdout as JSON by default or CSV with ``--format csv``.
Exit codes: 0 on success, 1 when a verified identity fails (or on a
computation error), 2 on usage errors, including a verify or report whose
--k-max leaves no identity to check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import bijections, moments, walks
from .identities import DEFAULT_RHS_INDEX, IdentityReport, sweep
from .numeric import GammaPoly, catalan
from .paths import (
    PathKind,
    enumerate_alt_motzkin,
    enumerate_dyck,
    parse,
    stats,
)

_DEFAULT_TUPLES = {
    "A": {"p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2},
    "B": {"p1": "UD", "p2": "UD", "i": 0, "mark1": 0, "mark2": 0},
    "C": None,  # no valid input exists at k=1
    "D": {"p1": "LL", "p2": "LL", "i": 0, "mark1": 2, "mark2": 1},
}


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, GammaPoly):
        return value.to_json()
    return value


def _emit_json(obj):
    print(json.dumps(obj, indent=2))


def _emit_csv(rows, header):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if isinstance(value, GammaPoly):
        return " ".join(value.to_json())
    if isinstance(value, Fraction):
        return str(value)
    if value is None:
        return ""
    return value


def _enumerator(kind: PathKind):
    return enumerate_dyck if kind is PathKind.DYCK else enumerate_alt_motzkin


def _cmd_enumerate(args) -> int:
    kind = PathKind(args.kind)
    count = catalan(args.k)  # both kinds are counted by the Catalan numbers
    if args.count_only:
        print(count)
        return 0
    rendered = (p.render() for p in _enumerator(kind)(args.k))
    if args.format == "csv":
        for line in rendered:
            print(line)
        return 0
    # paths are written as they are generated; the bytes are those of
    # _emit_json on the whole object, whose "paths" list is never empty
    head = json.dumps({"kind": kind.value, "k": args.k, "count": count}, indent=2)
    out = sys.stdout
    out.write(head[:-2] + ',\n  "paths": [\n')
    sep = ""
    for line in rendered:
        out.write(f"{sep}    {json.dumps(line)}")
        sep = ",\n"
    out.write("\n  ]\n}\n")
    return 0


def _stats_record(text: str, kind: PathKind) -> dict:
    path = parse(text, kind)
    st = stats(path)
    return {
        "kind": kind.value,
        "k": path.k,
        "path": path.render(),
        "R": list(st.rises_by_altitude),
        "V": list(st.vertices_by_altitude),
        "L": list(st.even_levels_by_altitude) if st.even_levels_by_altitude is not None else None,
        "r": st.rise_count,
    }


def _cmd_stats(args) -> int:
    kind = PathKind(args.kind)
    records = [_stats_record(text, kind) for text in args.path]
    if args.format == "csv":
        header = ["kind", "k", "path", "R", "V", "L", "r"]
        _emit_csv([[_csv_cell(rec[h]) for h in header] for rec in records], header)
    else:
        _emit_json(records[0] if len(records) == 1 else records)
    return 0


def _load_tuple(args) -> bijections.FiveTuple:
    if args.input is None:
        defaults = _DEFAULT_TUPLES[args.construction]
        if defaults is None:
            raise ValueError(f"construction {args.construction} has no valid input at k=1; pass --input")
        data = dict(defaults)
    elif args.input == "-":
        data = json.loads(sys.stdin.read())
    else:
        data = json.loads(args.input)
    if isinstance(data, dict):
        data["construction"] = args.construction
    return bijections.FiveTuple.from_json_dict(data)


def _cmd_map(args) -> int:
    t = _load_tuple(args)
    mp = bijections.construct(t)
    record = {
        "construction": t.construction,
        "path": mp.path.render(),
        "middle_altitude": mp.middle_altitude,
        "rises": mp.path.rise_count(),
    }
    if args.format == "csv":
        header = list(record)
        _emit_csv([[record[h] for h in header]], header)
    else:
        _emit_json(record)
    return 0


def _cmd_invert(args) -> int:
    kind = bijections._KIND_FOR[args.construction]
    path = parse(args.path, kind)
    t = bijections.invert(args.construction, path)
    record = t.to_json_dict()
    if args.format == "csv":
        header = list(record)
        _emit_csv([[record[h] for h in header]], header)
    else:
        _emit_json(record)
    return 0


def _report_record(r: IdentityReport) -> dict:
    record = {
        "id": r.identity,
        "k": r.k,
        "lhs": _json_value(r.lhs),
        "rhs": _json_value(r.rhs),
        "equal": r.equal,
    }
    if r.rhs_index is not None:
        record["rhs_index"] = r.rhs_index
        record["default_convention"] = r.is_default_convention
    return record


def _emit_reports(reports, fmt: str, truncated: bool = False):
    records = [_report_record(r) for r in reports]
    if fmt == "csv":
        header = ["id", "k", "rhs_index", "lhs", "rhs", "equal"]
        rows = [
            [rec["id"], rec["k"], rec.get("rhs_index", ""), _csv_cell(rec["lhs"]),
             _csv_cell(rec["rhs"]), rec["equal"]]
            for rec in records
        ]
        _emit_csv(rows, header)
    else:
        obj = {"reports": records}
        if truncated:
            obj["truncated"] = True
        _emit_json(obj)


def _verify_exit_code(reports, selected_rhs_index) -> int:
    for r in reports:
        if r.rhs_index is None:
            if not r.equal:
                return 1
        else:
            selected = selected_rhs_index or DEFAULT_RHS_INDEX[r.identity]
            if r.rhs_index == selected and not r.equal:
                return 1
    return 0


def _emit_sweep(result, fmt: str, selected_rhs_index) -> int:
    # an empty report would read as a pass; a truncated sweep says so in its output
    if not result.reports and not result.truncated:
        print("error: --k-max leaves nothing to check (identities 1-3 start at k=1, "
              "4 and 5 at k=2)", file=sys.stderr)
        return 2
    _emit_reports(result.reports, fmt, truncated=result.truncated)
    return _verify_exit_code(result.reports, selected_rhs_index)


def _cmd_verify(args) -> int:
    name = f"thm{args.identity}"
    return _emit_sweep(sweep([name], args.k_max), args.format, args.rhs_index)


def _cmd_walk(args) -> int:
    if args.to:
        kind = PathKind(args.kind) if args.kind else (
            PathKind.ALT_MOTZKIN if "L" in args.path.upper() else PathKind.DYCK
        )
        path = parse(args.path, kind)
        walk = (
            walks.dyck_to_walk(path)
            if kind is PathKind.DYCK
            else walks.alt_motzkin_to_walk(path)
        )
        if args.format == "csv":
            print(walk.render())
        else:
            _emit_json({
                "path": path.render(),
                "kind": kind.value,
                "nodes": list(walk.nodes),
                "walk": walk.render(),
            })
    else:
        walk = walks.Walk.parse(args.path)
        if args.kind:
            kind = PathKind(args.kind)
        else:
            kind = PathKind.ALT_MOTZKIN if 0 in walk.moves() else PathKind.DYCK
        path = (
            walks.walk_to_dyck(walk)
            if kind is PathKind.DYCK
            else walks.walk_to_alt_motzkin(walk)
        )
        if args.format == "csv":
            print(path.render())
        else:
            _emit_json({"walk": walk.render(), "kind": kind.value, "path": path.render()})
    return 0


def _cmd_mc(args) -> int:
    if args.ensemble == "wigner":
        if args.m is not None:
            raise ValueError("--m applies to the wishart ensemble only")
        est = moments.wigner_moment(args.k, args.n, args.trials, args.seed)
    else:
        if args.m is None:
            raise ValueError("--m is required for the wishart ensemble")
        est = moments.wishart_moment(args.k, args.n, args.m, args.trials, args.seed)
    record = {
        "ensemble": est.ensemble,
        "k": est.k,
        "n": est.n,
        "m": est.m,
        "trials": est.trials,
        "seed": est.seed,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "target": float(est.target),
    }
    if args.format == "csv":
        header = list(record)
        _emit_csv([[_csv_cell(record[h]) for h in header]], header)
    else:
        _emit_json(record)
    return 0


def _cmd_report(args) -> int:
    names = [f"thm{i}" for i in args.identities]
    result = sweep(names, args.k_max, time_budget=args.time_budget)
    return _emit_sweep(result, args.format, None)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _identity_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated identity numbers, got {text!r}")
    for v in values:
        if not 1 <= v <= 5:
            raise argparse.ArgumentTypeError(f"identity must be in 1..5, got {v}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathforge",
        description="Dyck/alternating-Motzkin path statistics, constructions, and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("enumerate", help="list or count all paths of a given size")
    p.add_argument("--kind", choices=["dyck", "altmotzkin"], required=True)
    p.add_argument("--k", type=_nonnegative_int, required=True)
    p.add_argument("--count-only", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="altitude statistics of given paths")
    p.add_argument("--path", action="append", required=True, help="path string; repeatable")
    p.add_argument("--kind", choices=["dyck", "altmotzkin"], required=True)
    add_format(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("map", help="apply a construction to a five-tuple")
    p.add_argument("--construction", choices=["A", "B", "C", "D"], required=True)
    p.add_argument("--input", help="five-tuple JSON, or - for stdin; defaults to the minimal k=1 tuple")
    add_format(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("invert", help="invert a construction on a doubled path")
    p.add_argument("--construction", choices=["A", "B", "C", "D"], required=True)
    p.add_argument("--path", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify", help="verify one identity for k up to a bound")
    p.add_argument("--identity", type=int, choices=[1, 2, 3, 4, 5], required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--rhs-index", choices=["k", "k-1"], default=None,
                   help="which right-hand variant gates the exit code (identities 4 and 5; both are always printed)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("walk", help="translate between paths and halfline walks")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to", action="store_true", help="path string to walk")
    direction.add_argument("--from", dest="from_walk", action="store_true", help="walk (comma-separated nodes) to path")
    p.add_argument("--path", required=True, help="path string with --to, node list with --from")
    p.add_argument("--kind", choices=["dyck", "altmotzkin"], default=None)
    add_format(p)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate vs exact target")
    p.add_argument("--ensemble", choices=["wigner", "wishart"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("report", help="sweep several identities and tabulate verdicts")
    p.add_argument("--identities", type=_identity_list, default=[1, 2, 3, 4, 5],
                   help="comma-separated identity numbers (default all)")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--time-budget", type=float, default=None, help="seconds; truncates the sweep")
    add_format(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
