#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and check that it is steady.

  python3 perfbench/steady.py --size tiny --seeds 1 2          # smoke, a few seconds per run
  python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --out .perfbench/a.json
  python3 perfbench/steady.py --seeds 11 12 13 14 15 --against .perfbench/a.json

Runs run.py serially, for every workload in BENCHMARK.json, once per seed
with --trace 0 and, for the first two seeds, once more with --trace 1;
each run measures run_seconds at the full size and 1 s at the tiny one.
It fails (exit 1)
when a run fails or reports an operation failed, when a run does not
print exactly the metrics BENCHMARK.json names with their units, when a
deterministic count differs between runs of one workload, when runs used
different fold backends, or, at the full size, when the spread of an
end-to-end metric (quartile distance over median) is above its bound.  With --against it compares each median with the saved
set's and fails when one is worse by more than the bound; it refuses a
saved set measured with another fold backend, because the compiled fold
alone is about 80x faster at k=12.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# counts that repeat exactly between runs of the same code, whatever the seed
DETERMINISTIC = ["fold.calls", "fold.distinct", "identities.reports", "numeric.calls",
                 "paths.constructions", "moments.trials"]

TRACED_SEEDS = 2  # the first seeds also get a traced run


def run_once(workload, seed, seconds, trace, size):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "meta": json.loads(lines[-3])["meta"], "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def check(runs, bench, size) -> list[str]:
    errors = []
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    backends = {r["meta"]["fold_backend"] for r in runs}
    if len(backends) > 1:
        errors.append(f"runs used different fold backends: {sorted(backends)}")
    for r in runs:
        res, tag = r["result"], f"{r['workload']} seed {r['seed']} trace {r['trace']}"
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            errors.append(f"{tag}: result keys {sorted(res)}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            errors.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                          f"notes={r['detail']['notes']}")
        printed = {name: m["unit"] for name, m in res["metrics"].items()}
        if printed != declared[r["trace"]]:
            errors.append(f"{tag}: printed metrics/units differ from BENCHMARK.json: "
                          f"{sorted(set(printed.items()) ^ set(declared[r['trace']].items()))}")
        for name, m in res["metrics"].items():
            if not isinstance(m["value"], (int, float)) or (r["trace"] == 0 and m["value"] <= 0):
                errors.append(f"{tag}: {name} = {m['value']!r}")
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        counts = {"attempted": {r["result"]["attempted"] for r in mine}}
        for name in DETERMINISTIC:
            counts[name] = {r["result"]["metrics"][name]["value"] for r in mine
                            if name in r["result"]["metrics"]}
        for name, values in counts.items():
            if len(values) > 1:
                errors.append(f"{workload}: {name} differs between runs: {sorted(values)}")
        plain = [r for r in mine if r["trace"] == 0]
        if size == "full" and len(plain) >= 2:
            for m in bench["end_to_end"]:
                s = spread([r["result"]["metrics"][m["name"]]["value"] for r in plain])
                if s > m["bound"]:
                    errors.append(f"{workload}: {m['name']} spread {s:.3f} > bound {m['bound']}")
    return errors


def medians(runs, bench):
    out = {}
    for r in runs:
        if r["trace"] == 0:
            for m in bench["end_to_end"]:
                out.setdefault(r["workload"], {}).setdefault(m["name"], []).append(
                    r["result"]["metrics"][m["name"]]["value"])
    return {w: {name: statistics.median(v) for name, v in ms.items()} for w, ms in out.items()}


def table(runs, bench):
    print(f"{'workload':<11} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in plain]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:<11} {m['name']:<12} {len(values):>3} {q2:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {spread(values):>7.3f} {m['bound']:>6}")
    for workload in sorted({r["workload"] for r in runs}):
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        if traced:
            values = {name: m["value"] for name, m in traced[0]["result"]["metrics"].items()}
            print(f"{workload} traced (seed {traced[0]['seed']}): "
                  + ", ".join(f"{k}={v:.4g}" for k, v in values.items() if v))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, help="save the runs as JSON")
    ap.add_argument("--against", type=Path, help="a saved set to compare medians with")
    args = ap.parse_args()
    seconds = bench["run_seconds"] if args.size == "full" else 1

    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for i, seed in enumerate(args.seeds):
            for trace in (0, 1) if i < TRACED_SEEDS else (0,):
                runs.append(run_once(workload, seed, seconds, trace, args.size))
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{json.dumps(runs[-1]['result']['metrics'])[:200]}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"size": args.size, "runs": runs}))
    table(runs, bench)
    errors = check(runs, bench, args.size)
    if args.against:
        saved = json.loads(args.against.read_text())
        old_backends = {r["meta"]["fold_backend"] for r in saved["runs"]}
        new_backends = {r["meta"]["fold_backend"] for r in runs}
        if old_backends != new_backends:
            print(f"refusing to compare: fold backend {sorted(old_backends)} vs "
                  f"{sorted(new_backends)}")
            return 1
        old, new = medians(saved["runs"], bench), medians(runs, bench)
        for workload, ms in new.items():
            for m in bench["end_to_end"]:
                if workload in old:
                    a, b = old[workload][m["name"]], ms[m["name"]]
                    change = b / a - 1
                    flag = "WORSE" if change > m["bound"] else "ok"
                    print(f"against {workload:<11} {m['name']:<12} {a:12.5g} -> {b:12.5g} "
                          f"{change:+.3f} {flag}")
                    if flag != "ok":
                        errors.append(f"{workload}: {m['name']} median worse by {change:.3f}")
    for e in errors:
        print("FAIL", e)
    print("steady: ok" if not errors else f"steady: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
