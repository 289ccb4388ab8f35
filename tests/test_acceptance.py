"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Exact criteria use zero tolerance; the Monte Carlo criterion is
statistical with a fixed seed.  Every criterion carries the time budget it
must finish within.
"""

import time
from fractions import Fraction

from pathforge import bijections as bj
from pathforge.identities import sweep, verify
from pathforge.moments import wigner_moment, wishart_moment
from pathforge.numeric import GammaPoly, catalan, narayana_poly
from pathforge.paths import enumerate_alt_motzkin, enumerate_dyck

from oracles import five_tuples, image_paths, levels


def _report(name, budget, started, ok):
    elapsed = time.perf_counter() - started
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{name}: criterion not met"
    assert in_budget, f"{name}: exceeded {budget}s budget ({elapsed:.2f}s)"


def test_theorem1_k3_exact():
    started = time.perf_counter()
    r = verify("thm1", 3)
    ok = (
        r.lhs == Fraction(107, 25)
        and r.rhs == Fraction(catalan(6), catalan(3) ** 2) - 1
        and r.equal
    )
    _report("thm1-k3-107/25", 1.0, started, ok)


def test_theorem2_k3_exact():
    started = time.perf_counter()
    r = verify("thm2", 3)
    ok = r.lhs == Fraction(429, 25) == Fraction(catalan(7), catalan(3) ** 2) and r.equal
    _report("thm2-k3-429/25", 1.0, started, ok)


def test_theorem3_k3_exact_polynomial():
    started = time.perf_counter()
    r = verify("thm3", 3)
    expected = GammaPoly([0, 9, 39, 44, 14, 1])
    ok = (
        r.lhs == expected
        and r.rhs == narayana_poly(6) - narayana_poly(3) * narayana_poly(3)
        and r.equal
    )
    _report("thm3-k3-numerator", 1.0, started, ok)


def test_theorems_1_to_3_sweep_k1_to_6():
    started = time.perf_counter()
    result = sweep(["thm1", "thm2", "thm3"], 6)
    ok = len(result.reports) == 18 and all(r.equal for r in result.reports)
    _report("thm1-3-sweep-k1..6", 30.0, started, ok)


def test_theorem4_k3_conventions():
    started = time.perf_counter()
    good = verify("thm4", 3, "k-1")
    bad = verify("thm4", 3, "k")
    ok = good.lhs == 16 == good.rhs and good.equal and not bad.equal
    _report("thm4-k3-16=16-over-Dk-1", 1.0, started, ok)


def test_theorem5_k3_conventions():
    started = time.perf_counter()
    good = verify("thm5", 3, "k")
    bad = verify("thm5", 3, "k-1")
    ok = good.lhs == GammaPoly([0, 3, 3]) == good.rhs and good.equal and not bad.equal
    _report("thm5-k3-3g+3g2-over-AMk", 1.0, started, ok)


def test_theorems_4_and_5_sweep_k2_to_6():
    started = time.perf_counter()
    ok = all(verify("thm4", k, "k-1").equal and verify("thm5", k, "k").equal for k in range(2, 7))
    _report("thm4-5-sweep-k2..6", 30.0, started, ok)


def test_bijection_round_trips_and_counts():
    started = time.perf_counter()
    ok = True
    for construction in "ABCD":
        for k in (1, 2, 3, 4):
            outputs = set()
            n_tuples = 0
            for t in five_tuples(construction, k):
                n_tuples += 1
                out = bj.construct(t)
                if bj.invert(construction, out.path) != t:
                    ok = False
                outputs.add(out.path)
            if len(outputs) != n_tuples:  # injectivity
                ok = False
            image = set(image_paths(construction, k))
            if outputs != image:  # surjectivity onto the characterized image
                ok = False
            for path in image:
                if bj.construct(bj.invert(construction, path)).path != path:
                    ok = False
    # cardinalities and weight splits
    for k in (1, 2, 3, 4):
        if sum(1 for _ in five_tuples("A", k)) != catalan(2 * k) - catalan(k) ** 2:
            ok = False
        if sum(1 for _ in five_tuples("B", k)) != catalan(2 * k + 1):
            ok = False
        c_weight = GammaPoly()
        for t in five_tuples("C", k):
            c_weight = c_weight + GammaPoly([0] * (t.p1.rise_count() + t.p2.rise_count()) + [1])
        d_weight = GammaPoly()
        for t in five_tuples("D", k):
            d_weight = d_weight + GammaPoly([0] * (t.p1.rise_count() + t.p2.rise_count() + 1) + [1])
        if c_weight + d_weight != narayana_poly(2 * k) - narayana_poly(k) * narayana_poly(k):
            ok = False
    _report("bijections-roundtrip-k<=4", 120.0, started, ok)


def test_enumeration_counts_and_parity():
    started = time.perf_counter()
    ok = all(sum(1 for _ in enumerate_dyck(k)) == catalan(k) for k in range(11))
    for k in range(1, 9):
        weight = [0] * k
        for p in enumerate_alt_motzkin(k):
            weight[p.rise_count()] += 1
        if GammaPoly(weight) != narayana_poly(k):
            ok = False
    for k in range(1, 7):
        for p in enumerate_alt_motzkin(k):
            even, odd = levels(p)
            if even != odd:
                ok = False
    _report("enumeration-counts", 60.0, started, ok)


def test_monte_carlo_moments():
    started = time.perf_counter()
    wig = wigner_moment(k=4, n=2000, trials=20, seed=2026)
    wis = wishart_moment(k=2, n=2000, m=1000, trials=20, seed=2026)
    wig_ok = abs(wig.estimate - 2.0) <= 4 * wig.stderr
    wis_ok = abs(wis.estimate - 1.5) <= 4 * wis.stderr
    print(
        f"  wigner k=4: estimate={wig.estimate:.6f} stderr={wig.stderr:.2e} target=2"
        f" | wishart k=2: estimate={wis.estimate:.6f} stderr={wis.stderr:.2e} target=1.5"
    )
    _report("monte-carlo-4se", 120.0, started, wig_ok and wis_ok)
