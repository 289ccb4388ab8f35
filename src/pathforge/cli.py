"""Command-line surface: enumeration, statistics, constructions and their
inverses, identity verification, walk translation, and Monte Carlo moments.

Output goes to stdout as JSON by default or CSV with ``--format csv``.
Each command reads what its input states: a level step, or a loop in a
walk, means alternating Motzkin (``_kind_of``), an ASCII digit in ``walk
--path`` a walk, a doubled path's kind and middle altitude the one
construction ``invert`` undoes (``bijections._construction_of``), and a
five-tuple's "construction" field the one ``map`` applies, so ``invert
--path P | map --input -`` prints P.  Every integer argument is ASCII
-?[0-9]+ (``numeric._parse_int``), and a path or walk is read as
written, with no whitespace stripped.  Exit codes: 0 on success, 1 when
a verified identity fails (or on a computation error, an allocation that
fails, an mc value that is not a finite float, or when stdout is closed
before all output is written), 2 on usage errors, including an integer
argument in another spelling or below its minimum, a negative or
non-finite --time-budget, a report whose --k-max leaves no identity to
check, a --k-max above K_MAX_LIMIT with no --time-budget, an mc --k above
MC_K_LIMIT, an mc run estimated above _MC_SECONDS or one whose trial is
estimated to hold more than _MC_BYTES, a report --identities list with a
repeat, and an enumerate --k whose path count has more digits than
Python prints (JSON and --count-only; CSV prints no count) or whose CSV
paths are longer than Python can index.  ``main``
alone maps errors to exit codes and prints the one ``error:`` line: a
command refuses its arguments by raising ``_UsageError`` (exit 2) and
fails a computation by raising ValueError (exit 1); argparse refuses what
it parses itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import islice

# every command needs these; each command imports the rest of what it runs
from .numeric import GammaPoly, _parse_int, catalan
from .paths import PathKind, _listing, parse, stats

# the largest --k-max a sweep runs without a --time-budget: an all-identity
# report takes about 2.9 s to K=100 and 14 s to K=150 end to end (medians
# of 3 runs, 2-vCPU Intel Xeon VM, Python 3.11.7)
K_MAX_LIMIT = 100

# the largest mc --k: the Wigner target of an even k is C_{k/2}, and C_520
# (k = 1040) is the first Catalan number above sys.float_info.max, about
# 1.8e308 (C_519 is about 1.4e308).  Refused before any big-int work, the
# bound also keeps the target's cost small for both ensembles: narayana_poly
# (1039) takes about 0.05 s.  A value still not a finite float is an error.
MC_K_LIMIT = 1039

# an mc trial's cost in picoseconds on the machine above, numpy on OpenBLAS:
# fixed (150 us, measured on a Wishart trial at m = n = 2; a Wigner one at
# n = 2 takes about 40 us), per Gaussian draw (24 ns, the Wigner mirror of
# its entry included), per n**3 of a matrix product (0.011 ns for a panel
# product, 0.0085 for a syrk), per chi draw (60 ns), per unit of k in the
# Wishart walk (8 us for its numpy calls, two a band step) and per cell of
# p*k**2 it sweeps (3 ns).  The largest run is _MC_SECONDS estimated; the
# acceptance cases come to 4.5 s (Wigner, measured 3.2 s) and 6.0 ms
# (Wishart, measured 5 ms).
_MC_TRIAL_PS, _MC_DRAW_PS, _MC_PRODUCT_PS = 150_000_000, 24_000, 11
_MC_CHI_PS, _MC_STEP_PS, _MC_CELL_PS = 60_000, 8_000_000, 3_000
_MC_SECONDS = 60
# the most bytes one mc trial's arrays may hold at once; the acceptance
# cases come to 40 MB (Wigner, traced 34 MB) and 1.1 MB (Wishart, 0.12 MB)
_MC_BYTES = 2 << 30


def _json_value(value):
    # every side of a report is an int, a Fraction or a GammaPoly
    return value.to_json() if isinstance(value, GammaPoly) else str(value)


def _emit_records(records: list[dict], fmt: str, header=None):
    """Write records as CSV rows under header (default: the first record's
    keys; a key a record lacks is an empty cell), or as JSON: the record
    itself when there is one, else the list."""
    if fmt == "csv":
        import csv
        import io

        header = header or list(records[0])
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows([_csv_cell(rec.get(h)) for h in header] for rec in records)
        sys.stdout.write(out.getvalue())
    else:
        print(json.dumps(records[0] if len(records) == 1 else records, indent=2))


def _csv_cell(value):
    # csv writes None as an empty cell
    return " ".join(map(str, value)) if isinstance(value, (list, tuple)) else value


class _UsageError(Exception):
    """A refused command line; ``main`` prints it as one error line and
    exits 2."""


def _check_count_prints(k: int):
    """Refuse a k whose catalan(k) has more digits than Python converts to
    a string; found from lgamma, with no big-int work.  log10 catalan(k)
    passes k/2 from k = 25 on, and a limit is at least 640, so a k above
    twice the limit is refused before lgamma, which may not hold it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (or before 3.10.7)
    if limit and (k > 2 * limit or (math.lgamma(2 * k + 1) - math.lgamma(k + 1)
                                    - math.lgamma(k + 2)) / math.log(10) >= limit):
        # the CSV listing is refused too once its paths are longer than Python indexes
        hint = "; --format csv lists the paths without it" if 2 * k <= sys.maxsize else ""
        raise _UsageError(f"--k {k}: the path count has more than {limit} digits, more than "
                          f"Python prints{hint}")


# the bytes a listing hands stdout in one write: under python -u or
# PYTHONUNBUFFERED each write is a system call, so a write per path would
# cost more than the path
_BLOCK_BYTES = 1 << 16


def _write_paths(out, rendered, k: int, before: str, after: str):
    """Write before + path + after for each rendered path of size k, in
    blocks of about _BLOCK_BYTES, each one write: memory stays bounded at
    any k, and at least one path goes in each block."""
    per_block = max(1, _BLOCK_BYTES // (2 * k + 8))
    sep = after + before
    while block := list(islice(rendered, per_block)):
        out.write(before + sep.join(block) + after)


def _cmd_enumerate(args) -> int:
    kind = PathKind(args.kind)
    out = sys.stdout
    if args.format == "csv" and not args.count_only:
        if 2 * args.k > sys.maxsize:
            raise _UsageError(f"--k {args.k}: a path of 2k steps is longer than Python can index")
        # one path per line, no count
        _write_paths(out, _listing(kind, args.k), args.k, "", "\n")
        return 0
    _check_count_prints(args.k)
    count = catalan(args.k)  # both kinds are counted by the Catalan numbers
    if args.count_only:
        print(count)
        return 0
    rendered = _listing(kind, args.k)
    # paths are written as they are generated; the bytes are those of
    # _emit_records on the whole object, whose "paths" list is never empty.
    # A path is a string over U, D, L, so json.dumps only quotes it.
    head = json.dumps({"kind": kind.value, "k": args.k, "count": count}, indent=2)
    out.write(f'{head[:-2]},\n  "paths": [\n    "{next(rendered)}"')
    _write_paths(out, rendered, args.k, ',\n    "', '"')
    out.write("\n  ]\n}\n")
    return 0


def _kind_of(level: bool) -> PathKind:
    """The kind a path or walk states: a level step (a loop in a walk)
    means alternating Motzkin, none Dyck."""
    return PathKind.ALT_MOTZKIN if level else PathKind.DYCK


def _stats_record(text: str) -> dict:
    path = parse(text, _kind_of("L" in text))
    st = stats(path)
    return {
        "kind": path.kind.value,
        "k": path.k,
        "path": path.render(),
        "R": list(st.rises_by_altitude),
        "V": list(st.vertices_by_altitude),
        "L": list(st.even_levels_by_altitude) if st.even_levels_by_altitude is not None else None,
        "r": st.rise_count,
    }


def _cmd_stats(args) -> int:
    _emit_records([_stats_record(text) for text in args.path], args.format)
    return 0


def _fields_once(pairs):
    """A JSON object as a dict, refusing a field it names twice, whose
    last value json.loads would keep."""
    data = {}
    for name, value in pairs:
        if name in data:
            raise ValueError(f"--input names field {name!r} twice")
        data[name] = value
    return data


def _tuple_json(text: str):
    """The JSON value of --input, or of stdin for -."""
    text = sys.stdin.read() if text == "-" else text
    try:
        return json.loads(text, object_pairs_hook=_fields_once)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--input is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("--input is nested too deeply to parse") from None


def _cmd_map(args) -> int:
    from . import bijections

    t = bijections.FiveTuple.from_json_dict(_tuple_json(args.input))
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

    path = parse(args.path, _kind_of("L" in args.path))
    t = bijections.invert(bijections._construction_of(path), path)
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


def _emit_sweep(result, fmt: str) -> int:
    # an empty report would read as a pass; a truncated sweep says so in its output
    if not result.reports and not result.truncated:
        raise _UsageError("--k-max leaves nothing to check (identities 1-3 start at k=1, "
                          "4 and 5 at k=2)")
    records = [_report_record(r) for r in result.reports]
    if fmt == "csv":
        _emit_records(records, fmt, header=["id", "k", "rhs_index", "lhs", "rhs", "equal"])
        if result.truncated:
            # the table has no place for the flag the JSON object carries
            print(f"note: sweep truncated by --time-budget after {len(records)} reports",
                  file=sys.stderr)
    else:
        obj = {"reports": records}
        if result.truncated:
            obj["truncated"] = True
        _emit_records([obj], fmt)
    return 0 if result.passes() else 1


def _cmd_walk(args) -> int:
    from . import walks

    if any(digit in args.path for digit in "0123456789"):
        walk = walks.Walk.parse(args.path)  # refuses a malformed walk before any kind
        path = walks.walk_to_path(walk, _kind_of(0 in walk.moves()))
        line = path.render()
        record = {"walk": walk.render(), "kind": path.kind.value, "path": line}
    else:
        path = parse(args.path, _kind_of("L" in args.path))
        walk = walks.path_to_walk(path)
        line = walk.render()
        record = {"path": path.render(), "kind": path.kind.value, "nodes": list(walk.nodes), "walk": line}
    if args.format == "csv":
        print(line)
    else:
        _emit_records([record], args.format)
    return 0


def _mc_trial(ensemble: str, k: int, n: int, m: int | None) -> tuple[int, int]:
    """One mc trial's estimated (picoseconds, bytes its float64 arrays hold
    at once), read from moments.  A Wigner trial makes n*(n+1)/2 draws and
    holds the n*n matrix; for k >= 3, _wigner_trace adds about ceil(log2 k)
    products of n**3 and holds up to three powers of that size beside it,
    formed by squaring (none at k = 3 or 4), and four blocks of 128 rows
    are the most that the mirror's temporaries or the trace's panels
    hold.  A Wishart trial, p = min(m, n), makes 2*p chi draws, walks
    about p*k**2 / 2 band cells (priced as p*k**2) and holds a few p-long
    arrays beside four blocks of at most 2**15 band cells (k + 2 when a
    row is wider).  Ints, so no n overflows them."""
    if ensemble == "wigner":
        picoseconds = _MC_DRAW_PS * (n * (n + 1) // 2)
        held = n * n + 4 * 128 * n
        if k >= 3:
            picoseconds += _MC_PRODUCT_PS * (k - 1).bit_length() * n ** 3
            held += 0 if k <= 4 else 3 * n * n
    else:
        p = min(m, n)
        picoseconds = _MC_CHI_PS * 2 * p + _MC_STEP_PS * k + _MC_CELL_PS * p * k * k
        held = 6 * p + 4 * max(1 << 15, k + 2)
    return _MC_TRIAL_PS + picoseconds, 8 * held


def _cmd_mc(args) -> int:
    # usage errors, found before numpy loads, so they read the same without it
    if args.ensemble == "wigner" and args.m is not None:
        raise _UsageError("--m applies to the wishart ensemble only")
    if args.ensemble == "wishart" and args.m is None:
        raise _UsageError("--m is required for the wishart ensemble")
    if args.k > MC_K_LIMIT:
        raise _UsageError(f"--k {args.k} is above the limit of {MC_K_LIMIT} for mc: the moment "
                          "target would pass the largest float")
    picoseconds, held = _mc_trial(args.ensemble, args.k, args.n, args.m)
    if args.trials * picoseconds > _MC_SECONDS * 10**12:
        raise _UsageError(f"mc run estimated above the limit of {_MC_SECONDS} s (--trials x the "
                          "cost of one trial at --n, --m and --k); lower --trials or the matrix size")
    if held > _MC_BYTES:
        raise _UsageError(f"mc run estimated to hold {held / 2**30:.1f} GiB at once, above the limit "
                          f"of {_MC_BYTES >> 30} GiB (one trial's arrays at --n, --m and --k); lower "
                          "the matrix size")
    try:
        import numpy as np  # numpy loads here, for mc alone

        from . import moments
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ValueError(f"mc needs numpy ({exc})") from None

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
    record = est._replace(target=target)._asdict()
    bad = [name for name, v in record.items() if type(v) is float and not math.isfinite(v)]
    if bad:
        raise ValueError(f"not a finite float at --k {args.k}: {', '.join(bad)}; lower --k")
    _emit_records([record], args.format)
    return 0


def _cmd_report(args) -> int:
    from .identities import sweep

    if args.time_budget is None and args.k_max > K_MAX_LIMIT:
        raise _UsageError(f"--k-max {args.k_max} is above the limit of {K_MAX_LIMIT} for an exact "
                          "sweep; use report --time-budget to sweep further")
    names = [f"thm{i}" for i in args.identities]
    # sweep refuses a negative size; it checks nothing, as 0 does
    result = sweep(names, max(args.k_max, 0), time_budget=args.time_budget)
    return _emit_sweep(result, args.format)


def _integer(text: str) -> int:
    """An argparse type for an integer written as ASCII -?[0-9]+."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low."""

    def parse_int(text: str) -> int:
        value = _integer(text)
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
        values = [_parse_int(part) for part in text.split(",")]
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
    p.add_argument("--kind", choices=[kind.value for kind in PathKind], required=True)
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--count-only", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="altitude statistics of given paths")
    p.add_argument("--path", action="append", required=True, help="path string; repeatable")
    add_format(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("map", help="apply a construction to a five-tuple")
    p.add_argument("--input", required=True,
                   help='five-tuple JSON, or - for stdin; its "construction" field names A-D')
    add_format(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("invert", help="invert the construction that made a doubled path")
    p.add_argument("--path", required=True, help="doubled path; its kind and middle altitude name A-D")
    add_format(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("walk", help="translate a path to its halfline walk, or a walk to its path")
    # argparse takes "-1" for a value but "-1,0,-1" for an option; here any
    # "-" and digit is a value, so a walk from below 0 meets its own refusal
    p._negative_number_matcher = re.compile(r"-\d")
    p.add_argument("--path", required=True, help="path string, or walk as comma-separated nodes")
    add_format(p)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate vs exact target",
                       description=f"Monte Carlo moment estimate vs exact target.  A wigner trial "
                       "draws a symmetric n x n matrix; a wishart trial draws a tridiagonal matrix "
                       "of min(m, n) rows whose trace powers have the law of G G^T's, so its cost grows "
                       "with min(m, n) and k^2, not with m x n.  "
                       f"A run estimated above {_MC_SECONDS} s on 2 vCPUs (--trials x one trial's "
                       f"cost), or whose trial is estimated to hold more than {_MC_BYTES >> 30} GiB of "
                       "arrays, is refused")
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
    p.add_argument("--k-max", type=_integer, required=True,
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
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    except MemoryError as exc:
        # an allocation may fail with no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone; what is still buffered goes to
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
