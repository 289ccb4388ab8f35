"""Command-line surface: enumeration, statistics, constructions and their
inverses, identity verification, walk translation, and Monte Carlo moments.

Output goes to stdout as JSON by default or CSV with ``--format csv``.
Exit codes: 0 on success, 1 when a verified identity fails (or on a
computation error, an allocation that fails, an mc value that is not a
finite float, or when stdout is closed before all output is written), 2 on
usage errors, including a number argument below its minimum, a negative
or non-finite --time-budget, a verify or report whose --k-max leaves no
identity to check, a --k-max above K_MAX_LIMIT with no --time-budget,
an mc --k above MC_K_LIMIT, a verify --rhs-index for identities 1-3, a
report --identities list with a repeat, and an enumerate --k whose path
count has more digits than Python prints (JSON and --count-only; CSV
prints no count).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# every command needs these; each command imports the rest of what it runs
from .numeric import GammaPoly, catalan
from .paths import PathKind, _listing, parse, stats

# the largest --k-max a sweep runs without a --time-budget: on 2 vCPUs an
# all-identity sweep takes about 5 s to K=100 and 30 s to K=150
K_MAX_LIMIT = 100

# the largest mc --k: the Wigner target of an even k is C_{k/2}, and C_520
# (k = 1040) is the first Catalan number above sys.float_info.max, about
# 1.8e308 (C_519 is about 1.4e308).  Refused before any big-int work, the
# bound also keeps the target's cost small for both ensembles: narayana_poly
# (1039) takes about 0.05 s.  A value still not a finite float is an error.
MC_K_LIMIT = 1039

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
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def _emit_records(records: list[dict], fmt: str):
    """Write records as CSV rows under the first record's keys, or as JSON:
    the record itself when there is one, else the list."""
    if fmt == "csv":
        header = list(records[0])
        _emit_csv([[_csv_cell(rec[h]) for h in header] for rec in records], header)
    else:
        _emit_json(records[0] if len(records) == 1 else records)


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if value is None:
        return ""
    return value


def _count_refused(k: int) -> bool:
    """Say so on stderr, and return True, when catalan(k) has more digits
    than Python converts to a string; found from lgamma, with no big-int
    work."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (or before 3.10.7)
    log10 = (math.lgamma(2 * k + 1) - math.lgamma(k + 1) - math.lgamma(k + 2)) / math.log(10)
    if not limit or log10 < limit:
        return False
    print(f"error: --k {k}: the path count has more than {limit} digits, more than Python "
          "prints; --format csv lists the paths without it", file=sys.stderr)
    return True


def _cmd_enumerate(args) -> int:
    kind = PathKind(args.kind)
    out = sys.stdout
    if args.format == "csv" and not args.count_only:
        # one path per line, no count
        out.writelines(f"{line}\n" for line in _listing(kind, args.k))
        return 0
    if _count_refused(args.k):
        return 2
    count = catalan(args.k)  # both kinds are counted by the Catalan numbers
    if args.count_only:
        print(count)
        return 0
    rendered = _listing(kind, args.k)
    # paths are written as they are generated; the bytes are those of
    # _emit_json on the whole object, whose "paths" list is never empty.
    # A path is a string over U, D, L, so json.dumps only quotes it.
    head = json.dumps({"kind": kind.value, "k": args.k, "count": count}, indent=2)
    out.write(f'{head[:-2]},\n  "paths": [\n    "{next(rendered)}"')
    out.writelines(f',\n    "{line}"' for line in rendered)
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
    _emit_records([_stats_record(text, kind) for text in args.path], args.format)
    return 0


def _tuple_json(args):
    """The five-tuple's JSON value: --input, stdin, or the k=1 default."""
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
        named = data.setdefault("construction", args.construction)
        if named != args.construction:
            raise ValueError(f"--input names construction {named!r}, but --construction is "
                             f"{args.construction}")
    return data


def _cmd_map(args) -> int:
    from . import bijections

    t = bijections.FiveTuple.from_json_dict(_tuple_json(args))
    mp = bijections.construct(t)
    record = {
        "construction": t.construction,
        "path": mp.path.render(),
        "middle_altitude": mp.middle_altitude,
        "rises": mp.path.rise_count(),
    }
    _emit_records([record], args.format)
    return 0


def _cmd_invert(args) -> int:
    from . import bijections

    kind = bijections._CONSTRUCTIONS[args.construction].kind
    path = parse(args.path, kind)
    t = bijections.invert(args.construction, path)
    _emit_records([t.to_json_dict()], args.format)
    return 0


def _report_record(r) -> dict:
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
        if truncated:
            # the table has no place for the flag the JSON object carries
            print(f"note: sweep truncated by --time-budget after {len(records)} reports",
                  file=sys.stderr)
    else:
        obj = {"reports": records}
        if truncated:
            obj["truncated"] = True
        _emit_json(obj)


def _emit_sweep(result, fmt: str, selected_rhs_index) -> int:
    # an empty report would read as a pass; a truncated sweep says so in its output
    if not result.reports and not result.truncated:
        print("error: --k-max leaves nothing to check (identities 1-3 start at k=1, "
              "4 and 5 at k=2)", file=sys.stderr)
        return 2
    _emit_reports(result.reports, fmt, truncated=result.truncated)
    return 0 if result.passes(selected_rhs_index) else 1


def _k_max_refused(k_max: int) -> bool:
    """Say so on stderr, and return True, when k_max is above K_MAX_LIMIT."""
    if k_max <= K_MAX_LIMIT:
        return False
    print(f"error: --k-max {k_max} is above the limit of {K_MAX_LIMIT} for an exact sweep; "
          "use report --time-budget to sweep further", file=sys.stderr)
    return True


def _cmd_verify(args) -> int:
    from .identities import sweep

    if args.rhs_index is not None and args.identity < 4:
        print("error: --rhs-index applies to identities 4 and 5 only", file=sys.stderr)
        return 2
    if _k_max_refused(args.k_max):
        return 2
    name = f"thm{args.identity}"
    return _emit_sweep(sweep([name], args.k_max), args.format, args.rhs_index)


def _cmd_walk(args) -> int:
    from . import walks

    if args.to:
        kind = PathKind(args.kind) if args.kind else (
            PathKind.ALT_MOTZKIN if "L" in args.path else PathKind.DYCK
        )
        path = parse(args.path, kind)
        walk = walks.path_to_walk(path)
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
        path = walks.walk_to_path(walk, kind)
        if args.format == "csv":
            print(path.render())
        else:
            _emit_json({"walk": walk.render(), "kind": kind.value, "path": path.render()})
    return 0


def _cmd_mc(args) -> int:
    # usage errors, found before numpy loads, so they read the same without it
    if args.ensemble == "wigner" and args.m is not None:
        print("error: --m applies to the wishart ensemble only", file=sys.stderr)
        return 2
    if args.ensemble == "wishart" and args.m is None:
        print("error: --m is required for the wishart ensemble", file=sys.stderr)
        return 2
    if args.k > MC_K_LIMIT:
        print(f"error: --k {args.k} is above the limit of {MC_K_LIMIT} for mc: the moment "
              "target would pass the largest float", file=sys.stderr)
        return 2
    try:
        import numpy as np  # numpy loads here, for mc alone

        from . import moments
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: mc needs numpy ({exc})", file=sys.stderr)
        return 1

    # an overflow shows as a value that is not finite, refused below
    with np.errstate(all="ignore"):
        if args.ensemble == "wigner":
            est = moments.wigner_moment(args.k, args.n, args.trials, args.seed)
        else:
            est = moments.wishart_moment(args.k, args.n, args.m, args.trials, args.seed)
    try:
        target = float(est.target)
    except OverflowError:
        target = math.inf
    values = {"estimate": est.estimate, "stderr": est.stderr, "target": target}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"error: not a finite float at --k {args.k}: {', '.join(bad)}; lower --k",
              file=sys.stderr)
        return 1
    record = {
        "ensemble": est.ensemble,
        "k": est.k,
        "n": est.n,
        "m": est.m,
        "trials": est.trials,
        "seed": est.seed,
        **values,
    }
    _emit_records([record], args.format)
    return 0


def _cmd_report(args) -> int:
    from .identities import sweep

    if args.time_budget is None and _k_max_refused(args.k_max):
        return 2
    names = [f"thm{i}" for i in args.identities]
    result = sweep(names, args.k_max, time_budget=args.time_budget)
    return _emit_sweep(result, args.format, None)


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low."""

    def parse_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse_int


def _seconds(text: str) -> float:
    """An argparse type for a finite, non-negative number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number of seconds, got {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
    return value


def _identity_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated identity numbers, got {text!r}")
    for j, v in enumerate(values):
        if not 1 <= v <= 5:
            raise argparse.ArgumentTypeError(f"identity must be in 1..5, got {v}")
        if v in values[:j]:
            raise argparse.ArgumentTypeError(f"identity {v} is repeated")
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
    p.add_argument("--k", type=_int_at_least(0), required=True)
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
    p.add_argument("--k-max", type=int, required=True, help=f"at most {K_MAX_LIMIT}")
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
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--m", type=_int_at_least(2), default=None)
    p.add_argument("--trials", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    add_format(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("report", help="sweep several identities and tabulate verdicts")
    p.add_argument("--identities", type=_identity_list, default=[1, 2, 3, 4, 5],
                   help="comma-separated identity numbers (default all)")
    p.add_argument("--k-max", type=int, required=True,
                   help=f"at most {K_MAX_LIMIT} unless --time-budget is given")
    p.add_argument("--time-budget", type=_seconds, default=None, help="seconds; truncates the sweep")
    add_format(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone; what is still buffered goes to
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
