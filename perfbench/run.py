#!/usr/bin/env python3
"""The pathforge benchmark: one workload per run, closed loop, one client.

  python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` of that checkout (pure Python, nothing to build).  Each run
generates its inputs from ``--seed`` before timing starts, runs a fixed
number of rounds of the workload serially, checks every output, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Two JSON lines before it give
the run's metadata (``meta``) and sample counts and notes (``detail``).

Workloads (a round is the unit that is repeated and timed):

  sweep       ``pathforge report --k-max 10``: the exhaustive fold does
              almost all the work; bijections, Path and numpy do not run.
              Its input has no random part, so the seed does not change it.
  roundtrip   five-tuples for constructions A-D, 256 per (construction, k)
              for k in 3..6 in each round of 4096, sampled from the
              enumerated paths, fed as JSON dicts through
              FiveTuple.from_json_dict, construct and invert in a worker
              process per round: Path validation and bijections, never
              the fold.
  montecarlo  the acceptance ``pathforge mc`` cases (Wigner k=4 n=2000,
              Wishart k=2 n=2000 m=1000, 20 trials each), seeds from
              --seed: numpy generation and BLAS only, no exact layer.
  listing     ``pathforge enumerate --k 10`` for both kinds, full JSON:
              the enumerator and Path, not the fold; the one workload
              whose peak memory a streamed listing would change.

Rounds are short so that a run takes the median of many: the host's
speed changes by 20% and more from one round to the next.  The number of
rounds comes from --seconds and a nominal round time
measured on the reference machine (2 cores, Python 3.11.7, numpy 2.4.6 on
OpenBLAS, pure fold backend), so the work, and every count, is the same
in every run of the same code whatever the machine's speed.

End-to-end metrics (--trace 0):

  setup_s      median wall time of a fresh ``python3 -c "import pathforge"``,
               sampled 21 times, spread evenly before, between and after
               the rounds so the samples span the run
  wall_s       median wall time of one round: CLI process start to exit,
               imports included, summed over the round's commands; for
               roundtrip the timed loop over one round of tuples
  peak_rss_mb  median over rounds of the largest peak RSS of a process
               doing the round's work, read per child with os.wait4
  op_p50_ms    median latency of one operation: for roundtrip one
  op_p99_ms    from_json_dict + construct + invert; for the CLI workloads
               one round, so there op_p50_ms is wall_s in ms and
               op_p99_ms the slowest round: they repeat wall_s's samples
               and add nothing independent.  p99 has at least 10 samples
               above it only on roundtrip; the detail line gives the
               sample counts.

``attempted`` counts units of work (a report, a tuple, a trial or a
listed path) and ``failed`` the ones whose correctness check failed.

A traced run (--trace 1) runs half the rounds with every layer wrapped
(see layers.py) and half without, and prints the per-layer metrics: per
round, except percentiles and the k_max fold times.  A metric of a layer
that the workload does not exercise reads 0 and is named in the detail
line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import selectors
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from child import TRACE_PREFIX  # noqa: E402

WORKLOADS = ("sweep", "roundtrip", "montecarlo", "listing")

SIZES = {
    "full": {
        "sweep_k": 10,
        "listing_k": 10,
        # (ensemble, k, n, m, trials): the acceptance cases
        "mc_cases": [("wigner", 4, 2000, None, 20), ("wishart", 2, 2000, 1000, 20)],
        "roundtrip_ks": (3, 4, 5, 6),
        "roundtrip_per_cell": 256,
        "setup_samples": 21,
        # nominal seconds per round on the reference machine, process
        # start-up included
        "round_s": {"sweep": 1.6, "roundtrip": 1.25, "montecarlo": 13.5, "listing": 2.4},
    },
    # the smoke size: every workload and metric in a few seconds
    "tiny": {
        "sweep_k": 5,
        "listing_k": 6,
        "mc_cases": [("wigner", 4, 100, None, 20), ("wishart", 2, 100, 50, 20)],
        "roundtrip_ks": (2, 3),
        "roundtrip_per_cell": 8,
        "setup_samples": 3,
        "round_s": {"sweep": 0.5, "roundtrip": 0.5, "montecarlo": 0.5, "listing": 0.5},
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
              "op_p99_ms": "ms"}
PER_LAYER = {
    "fold.calls": "count", "fold.distinct": "count", "fold.useful_ratio": "ratio",
    "fold.self_s": "s", "fold.dyck_kmax_s": "s", "fold.altmotzkin_kmax_s": "s",
    "identities.reports": "count", "identities.self_s": "s",
    "numeric.calls": "count", "numeric.self_s": "s",
    "paths.constructions": "count", "paths.validate_s": "s", "paths.enumerate_s": "s",
    **{f"bijections.{op}_{c}_us_p50": "us" for op in ("construct", "invert") for c in "ABCD"},
    "bijections.self_s": "s",
    "moments.trials": "count", "moments.power_s": "s", "moments.generate_s": "s",
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "setup.numpy_import_s": "s",
    "trace.overhead_frac": "ratio",
}

RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot produce a result; the run exits non-zero."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """The caller's environment with the checkout's src first on the path
    and no library allowed more threads than this process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PATHFORGE_THREADS"):
        try:
            value = int(env.get(var, "0"))
        except ValueError:
            value = 0
        if not 0 < value <= nproc:
            env[var] = str(nproc)
    return env


class Child(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


def _communicate(proc, data: bytes, deadline: float):
    """Feed stdin and drain stdout and stderr in this thread until all
    three are closed."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        view, pos = memoryview(data), 0
        if proc.stdin is not None:
            sel.register(proc.stdin, selectors.EVENT_WRITE)
        while sel.get_map():
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise BenchError("run time limit reached while a child was running")
            for key, _ in sel.select(timeout):
                f = key.fileobj
                if f is proc.stdin:
                    try:
                        pos += os.write(f.fileno(), view[pos:pos + select.PIPE_BUF])
                    except BrokenPipeError:
                        pos = len(data)
                    if pos >= len(data):
                        sel.unregister(f)
                        f.close()
                else:
                    chunk = os.read(f.fileno(), 1 << 16)
                    if chunk:
                        chunks[f].append(chunk)
                    else:
                        sel.unregister(f)
                        f.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_child(argv, deadline: float, stdin: bytes | None = None) -> Child:
    """Run one process to completion; its wall time runs from before the
    spawn to after it is reaped, and its peak RSS is its own (wait4)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = _communicate(proc, stdin or b"", deadline)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Child(proc.returncode, out, err, wall, usage.ru_maxrss / 1024)


def python(*args) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# exact values the checks compare against, computed here independently


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def narayana_coeffs(k: int) -> list[int]:
    return [math.comb(k, r) * math.comb(k - 1, r) // (r + 1) for r in range(k)]


def poly_strings(coeffs) -> list[str]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return [str(c) for c in coeffs]


def thm3_rhs(k: int) -> list[str]:
    n_k = narayana_coeffs(k)
    square = [0] * (2 * k - 1)
    for i, a in enumerate(n_k):
        for j, b in enumerate(n_k):
            square[i + j] += a * b
    n_2k = narayana_coeffs(2 * k)
    return poly_strings(a - (square[i] if i < len(square) else 0) for i, a in enumerate(n_2k))


def valid_path(text: str, kind: str, length: int) -> bool:
    if len(text) != length:
        return False
    alt = 0
    motzkin = kind == "altmotzkin"
    for pos, ch in enumerate(text, 1):
        if ch == "U":
            if motzkin and pos % 2:
                return False
            alt += 1
        elif ch == "D":
            if motzkin and not pos % 2:
                return False
            alt -= 1
            if alt < 0:
                return False
        elif ch != "L" or not motzkin:
            return False
    return alt == 0


# ---------------------------------------------------------------------------
# CLI workloads: a round is a list of commands, each with its check


class Command(NamedTuple):
    args: list[str]
    units: int  # units of work the command should produce
    check: Callable[[int, bytes], int]  # (exit code, stdout) -> units that failed


def _load_json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def sweep_round(cfg, seed, r):
    k_max = cfg["sweep_k"]
    expected = {("thm1", k, None) for k in range(1, k_max + 1)}
    expected |= {("thm2", k, None) for k in range(1, k_max + 1)}
    expected |= {("thm3", k, None) for k in range(1, k_max + 1)}
    expected |= {(t, k, idx) for t in ("thm4", "thm5") for k in range(2, k_max + 1)
                 for idx in ("k", "k-1")}
    default = {"thm4": "k-1", "thm5": "k"}
    paper_k3 = {  # the paper's worked values at k=3, as printed
        ("thm1", None): ("107/25", None), ("thm2", None): ("429/25", None),
        ("thm4", "k-1"): ("16", "16"), ("thm5", "k"): (["0", "3", "3"], ["0", "3", "3"]),
    }

    def report_ok(rec) -> bool:
        ident, k, idx = rec.get("id"), rec.get("k"), rec.get("rhs_index")
        lhs, rhs = rec.get("lhs"), rec.get("rhs")
        if rec.get("equal") is not (lhs == rhs):
            return False
        if idx in (None, default.get(ident)) and not rec["equal"]:
            return False
        if isinstance(k, int) and k >= 1:
            c = catalan(k)
            if ident == "thm1" and rhs != str(Fraction(catalan(2 * k), c * c) - 1):
                return False
            if ident == "thm2" and rhs != str(Fraction(catalan(2 * k + 1), c * c)):
                return False
            if ident == "thm3" and rhs != thm3_rhs(k):
                return False
        if k == 3 and (ident, idx) in paper_k3:
            want_lhs, want_rhs = paper_k3[(ident, idx)]
            if lhs != want_lhs or (want_rhs is not None and rhs != want_rhs):
                return False
        return True

    def check(code, stdout):
        # exit 1 with reports printed is a verdict; judge each report
        data = _load_json(stdout)
        reports = data.get("reports") if isinstance(data, dict) else None
        if not isinstance(reports, list) or data.get("truncated"):
            return len(expected)
        seen = set()
        failed = 0
        for rec in reports:
            if not isinstance(rec, dict):
                failed += 1
                continue
            key = (rec.get("id"), rec.get("k"), rec.get("rhs_index"))
            if key not in expected or key in seen or not report_ok(rec):
                failed += 1
            seen.add(key)
        failed = min(len(expected), failed + len(expected - seen))
        return failed if code == 0 or failed else len(expected)

    return [Command(["report", "--k-max", str(k_max)], len(expected), check)]


def listing_round(cfg, seed, r):
    k = cfg["listing_k"]
    count = catalan(k)

    def command(kind):
        def check(code, stdout):
            data = _load_json(stdout) if code == 0 else None
            if not isinstance(data, dict) or data.get("kind") != kind or data.get("k") != k:
                return count
            paths = data.get("paths")
            if not isinstance(paths, list) or data.get("count") != len(paths):
                return count
            bad = sum(not (isinstance(p, str) and valid_path(p, kind, 2 * k)) for p in paths)
            duplicates = len(paths) - len(set(map(str, paths)))
            return min(count, bad + duplicates + abs(count - len(paths)))

        return Command(["enumerate", "--kind", kind, "--k", str(k)], count, check)

    return [command("dyck"), command("altmotzkin")]


def montecarlo_round(cfg, seed, r):
    mc_seed = seed * 100 + r

    def command(ensemble, k, n, m, trials):
        target = catalan(k // 2) if ensemble == "wigner" else sum(
            c * Fraction(m, n) ** i for i, c in enumerate(narayana_coeffs(k)))
        args = ["mc", "--ensemble", ensemble, "--k", str(k), "--n", str(n),
                "--trials", str(trials), "--seed", str(mc_seed)]
        if m is not None:
            args += ["--m", str(m)]

        def check(code, stdout):
            rec = _load_json(stdout) if code == 0 else None
            if not isinstance(rec, dict):
                return trials
            try:
                ok = (rec["ensemble"] == ensemble and rec["k"] == k and rec["n"] == n
                      and rec["m"] == m and rec["trials"] == trials and rec["seed"] == mc_seed
                      and rec["target"] == float(target) and rec["stderr"] > 0
                      and abs(rec["estimate"] - float(target)) <= 4 * rec["stderr"])
            except (KeyError, TypeError):
                ok = False
            return 0 if ok else trials

        return Command(args, trials, check)

    return [command(*case) for case in cfg["mc_cases"]]


ROUNDS = {"sweep": sweep_round, "listing": listing_round, "montecarlo": montecarlo_round}


class Result:
    def __init__(self):
        self.attempted = self.failed = 0
        self.walls, self.traced_walls, self.rss = [], [], []
        self.op_ms: list[float] = []
        self.traces: list[dict] = []
        self.traced_rounds = 0
        self.stdout_bytes = 0
        self.notes: list[str] = []


def split_trace(stderr: bytes):
    text = stderr.decode(errors="replace")
    head, sep, tail = text.rpartition(TRACE_PREFIX)
    if not sep:
        raise BenchError("traced child printed no trace:\n" + text[-2000:])
    return json.loads(tail), head


def run_cli_workload(name, cfg, seed, rounds, traced, after_round, deadline) -> Result:
    res = Result()
    for r in range(rounds):
        trace_round = r in traced
        wall, rss = 0.0, 0.0
        for cmd in ROUNDS[name](cfg, seed, r):
            argv = python(str(HERE / "child.py"), "cli", *cmd.args) if trace_round \
                else python("-m", "pathforge", *cmd.args)
            ch = run_child(argv, deadline)
            stderr = ch.stderr.decode(errors="replace")
            if trace_round:
                trace, stderr = split_trace(ch.stderr)
                res.traces.append(trace)
                res.stdout_bytes += len(ch.stdout)
            bad = cmd.check(ch.returncode, ch.stdout)
            if bad:
                res.notes.append(f"{' '.join(cmd.args)}: exit {ch.returncode}, {bad} of "
                                 f"{cmd.units} failed; stderr: {stderr.strip()[-300:]}")
            res.attempted += cmd.units
            res.failed += bad
            wall += ch.wall_s
            rss = max(rss, ch.rss_mb)
        if trace_round:
            res.traced_walls.append(wall)
            res.traced_rounds += 1
        else:
            res.walls.append(wall)
            res.rss.append(rss)
            res.op_ms.append(wall * 1e3)
        after_round(r)
    return res


# ---------------------------------------------------------------------------
# roundtrip: inputs are sampled here, the worker only receives them


def _altitudes(s: str) -> list[int]:
    alts = [0]
    for ch in s:
        alts.append(alts[-1] + (ch == "U") - (ch == "D"))
    return alts


def _marks(s: str, construction: str) -> tuple[dict, dict]:
    """Valid first and second marks of a path, keyed by altitude i."""
    alts = _altitudes(s)
    first: dict[int, list[int]] = {}
    second: dict[int, list[int]] = {}
    if construction == "B":  # vertex marks
        for v, a in enumerate(alts):
            first.setdefault(a, []).append(v)
            second.setdefault(a, []).append(v)
        return first, second
    for pos, ch in enumerate(s, 1):
        if construction in "AC":  # a rise from i in p1, a fall to i in p2
            if ch == "U":
                first.setdefault(alts[pos - 1], []).append(pos)
            elif ch == "D":
                second.setdefault(alts[pos], []).append(pos)
        elif ch == "L":  # D: a level at i, on an even step in p1 and an odd step in p2
            (first if pos % 2 == 0 else second).setdefault(alts[pos - 1], []).append(pos)
    return first, second


def roundtrip_inputs(cfg, seed, rounds) -> list[bytes]:
    """One JSON line per round: the same number of tuples per
    (construction, k), each from two uniformly drawn paths and a uniformly
    drawn valid (i, mark1, mark2), in shuffled order."""
    sys.path.insert(0, str(SRC))
    from pathforge.paths import enumerate_alt_motzkin, enumerate_dyck

    kind_of = {"A": enumerate_dyck, "B": enumerate_dyck,
               "C": enumerate_alt_motzkin, "D": enumerate_alt_motzkin}
    pools = {}
    for construction, enumerate_fn in kind_of.items():
        for k in cfg["roundtrip_ks"]:
            paths = [p.render() for p in enumerate_fn(k)]
            pools[construction, k] = [(p, *_marks(p, construction)) for p in paths]
    rng = random.Random(seed)
    lines = []
    for _ in range(rounds):
        batch = []
        for (construction, k), pool in pools.items():
            for _ in range(cfg["roundtrip_per_cell"]):
                while True:
                    (p1, first, _), (p2, _, second) = rng.choice(pool), rng.choice(pool)
                    triples = [(i, m1, m2) for i in sorted(first.keys() & second.keys())
                               for m1 in first[i] for m2 in second[i]]
                    if triples:
                        break
                i, m1, m2 = rng.choice(triples)
                batch.append({"construction": construction, "p1": p1, "p2": p2,
                              "i": i, "mark1": m1, "mark2": m2})
        rng.shuffle(batch)
        lines.append(json.dumps(batch).encode() + b"\n")
    return lines


def run_roundtrip(cfg, seed, rounds, traced, after_round, deadline) -> Result:
    """One worker process per round, as the CLI workloads have, so that no
    one process's placement on the host decides a run's figures."""
    res = Result()
    for r, line in enumerate(roundtrip_inputs(cfg, seed, rounds)):
        trace_round = r in traced
        argv = python(str(HERE / "child.py"), "roundtrip", *(["--trace"] if trace_round else []))
        ch = run_child(argv, deadline, stdin=line)
        header, _, blob = ch.stdout.partition(b"\n")
        if ch.returncode != 0 or not header:
            raise BenchError("roundtrip worker failed:\n" + ch.stderr.decode(errors="replace")[-2000:])
        info = json.loads(header)
        res.attempted += info["attempted"]
        res.failed += info["failed"]
        if info["failed"]:
            res.notes.append(f"{info['failed']} tuples failed; first error: {info['first_error']}")
        (wall,) = info["batch_walls_s"]
        if trace_round:
            res.traced_walls.append(wall)
            res.traced_rounds += 1
            res.traces.append(info["trace"])
        else:
            res.walls.append(wall)
            res.rss.append(ch.rss_mb)
            latencies = array("q")
            latencies.frombytes(blob)
            res.op_ms += [ns / 1e6 for ns in latencies]
        after_round(r)
    return res


# ---------------------------------------------------------------------------
# set-up, metadata and metrics


def setup_samples(n, deadline) -> list[float]:
    walls = []
    for _ in range(n):
        ch = run_child(python("-c", "import pathforge"), deadline)
        if ch.returncode != 0:
            raise BenchError("import pathforge failed:\n" + ch.stderr.decode(errors="replace"))
        walls.append(ch.wall_s)
    return walls


def numpy_import_samples(n, deadline) -> list[float]:
    """numpy's cumulative import time under ``import pathforge``, from
    -X importtime; 0 when importing pathforge does not import numpy."""
    out = []
    for _ in range(n):
        ch = run_child(python("-X", "importtime", "-c", "import pathforge"), deadline)
        us = 0
        for line in ch.stderr.decode(errors="replace").splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                us = int(fields[1])
        out.append(us / 1e6)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(deadline) -> dict:
    ch = run_child(python(str(HERE / "child.py"), "meta"), deadline)
    if ch.returncode != 0:
        raise BenchError("cannot import pathforge from src/:\n"
                         + ch.stderr.decode(errors="replace")[-2000:])
    probe = json.loads(ch.stdout)
    if not Path(probe["pathforge_file"]).is_relative_to(SRC):
        raise BenchError(f"pathforge was imported from {probe['pathforge_file']}, not from src/")
    env = child_env()
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        **probe,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_env": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")},
        "pathforge_env": {k: v for k, v in sorted(env.items()) if k.startswith("PATHFORGE_")},
    }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(res: Result, numpy_import_s: float) -> tuple[dict, list[str]]:
    trace = layers.merge(res.traces)
    kinds, durations = trace["kinds"], trace["durations"]
    rounds = res.traced_rounds

    def calls(kind):
        return kinds.get(kind, {}).get("calls", 0)

    def total(kind):
        return kinds.get(kind, {}).get("ns", 0) / 1e9

    def child(kind, prefix=""):
        child_ns = kinds.get(kind, {}).get("child_ns", {})
        return sum(v for k, v in child_ns.items() if k.startswith(prefix)) / 1e9

    def self_s(*kind_list):
        return sum(total(k) - child(k) for k in kind_list) / rounds

    def median_of(key, scale):
        values = durations.get(key)
        return statistics.median(values) / scale if values else 0.0

    def kmax_s(kind):
        ks = [int(key.split("/")[1]) for key in durations if key.startswith(kind + "/")]
        return median_of(f"{kind}/{max(ks)}", 1e9) if ks else 0.0

    fold_calls = (calls("fold.dyck") + calls("fold.altmotzkin")) / rounds
    distinct = sum(key.startswith("fold.") for key in durations)
    m = {
        "fold.calls": fold_calls,
        "fold.distinct": distinct,
        "fold.useful_ratio": distinct / fold_calls if fold_calls else 0.0,
        "fold.self_s": self_s("fold.dyck", "fold.altmotzkin"),
        "fold.dyck_kmax_s": kmax_s("fold.dyck"),
        "fold.altmotzkin_kmax_s": kmax_s("fold.altmotzkin"),
        "identities.reports": calls("identities") / rounds,
        # verify time minus its fold children: Fraction and GammaPoly work
        "identities.self_s": (total("identities") - child("identities", "fold.")) / rounds,
        "numeric.calls": calls("numeric") / rounds,
        "numeric.self_s": self_s("numeric"),
        "paths.constructions": calls("paths.validate") / rounds,
        "paths.validate_s": total("paths.validate") / rounds,
        "paths.enumerate_s": self_s("paths.enumerate"),
        **{f"bijections.{op}_{c}_us_p50": median_of(f"bijections.{op}/{c}", 1e3)
           for op in ("construct", "invert") for c in "ABCD"},
        "bijections.self_s": self_s("bijections.construct", "bijections.invert"),
        # one trace_power call per trial
        "moments.trials": calls("moments.power") / rounds,
        "moments.power_s": total("moments.power") / rounds,
        "moments.generate_s": (total("moments.moment") - child("moments.moment", "moments.power"))
        / rounds,
        "cli.self_s": self_s("cli"),
        "cli.stdout_bytes": res.stdout_bytes / rounds,
        "setup.numpy_import_s": numpy_import_s,
        "trace.overhead_frac": statistics.median(res.traced_walls) / statistics.median(res.walls) - 1,
    }
    notes = [f"{name}: the workload does not exercise this layer" for name, v in m.items()
             if v == 0 and name != "setup.numpy_import_s"]
    notes += [f"trace target not found: {t}" for t in trace["missing"]]
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pathforge benchmark (see the module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pathforge" / "__init__.py").is_file():
        print(f"error: no pathforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM unwind through run_child, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    cfg = SIZES[args.size]
    rounds = max(2, round(args.seconds / cfg["round_s"][args.workload]))
    # traced runs interleave traced and untraced rounds
    traced = set(range(1, rounds, 2)) if args.trace else set()
    try:
        meta = metadata(deadline)
        # set-up is sampled before, between and after the rounds, to span the run
        n_setup = 0 if args.trace else cfg["setup_samples"]
        gaps = [n_setup * (g + 1) // (rounds + 1) - n_setup * g // (rounds + 1)
                for g in range(rounds + 1)]
        setup = setup_samples(gaps[0], deadline)

        def after_round(r):
            setup.extend(setup_samples(gaps[r + 1], deadline))

        if args.workload == "roundtrip":
            res = run_roundtrip(cfg, args.seed, rounds, traced, after_round, deadline)
        else:
            res = run_cli_workload(args.workload, cfg, args.seed, rounds, traced, after_round,
                                   deadline)
        if args.trace:
            numpy_s = statistics.median(numpy_import_samples(3, deadline))
            values, notes = layer_metrics(res, numpy_s)
            units = PER_LAYER
        else:
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(res.walls),
                "peak_rss_mb": statistics.median(res.rss),
                "op_p50_ms": percentile(res.op_ms, 50),
                "op_p99_ms": percentile(res.op_ms, 99),
            }
            notes, units = [], END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                size=args.size, rounds=rounds, traced_rounds=len(traced))
    p99 = percentile(res.op_ms, 99)
    detail = {
        "setup_samples": len(setup),
        "round_walls_s": res.walls,
        "traced_round_walls_s": res.traced_walls,
        "op_samples": len(res.op_ms),
        "op_samples_above_p99": sum(v > p99 for v in res.op_ms),
        "notes": res.notes + notes,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
