"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from proxinorm.approxlin import build_report, coherence_margin, verify_linearity_bound
from proxinorm.bits import bits_for_target
from proxinorm.construction import ConstructionTable
from proxinorm.demo import SignMatrix, build_fan, demo_points, demo_probes, independence_check, sign_table, theta_blocks
from proxinorm.descent import DescentChain, Subspace, minimizing_sequence, verify_chain
from proxinorm.gateaux import dminus_norm, dplus_norm
from proxinorm.norms import norm_enclosure
from proxinorm.vectors import SparseVec, l1_norm, pair, sgn, sup_norm


def report_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_vector(rng, indices, min_size=1, max_size=5, num_cap=16, den_cap=8):
    size = rng.randint(min_size, min(max_size, len(indices)))
    picks = rng.sample(list(indices), size)
    entries = {}
    for i in picks:
        p = rng.randint(1, num_cap) * rng.choice((1, -1))
        q = rng.randint(1, den_cap)
        entries[i] = Fraction(p, q)
    return SparseVec(entries)


def test_criterion_1_construction_soundness():
    t0 = time.time()
    fresh = ConstructionTable(depth_budget=2001)
    prev = 0
    violations = 0
    for _, u, a in fresh.prefix(2000):
        if a <= prev:
            violations += 1
        if not u.is_zero() and not (a > u.max_support() and a >= l1_norm(u)):
            violations += 1
        prev = a
    elapsed = time.time() - t0
    report_line(
        1,
        violations == 0 and elapsed < 10.0,
        f"growth rules exact at every k <= 2000, strictly increasing tags, {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_norm_equivalence(table):
    rng = random.Random(2024_08_10)
    failures = 0
    for _ in range(500):
        x = random_vector(rng, range(1, 13))
        if x.is_zero():
            continue
        enc = norm_enclosure(table, x, 64)
        s = sup_norm(x)
        if not (enc.lo >= s and enc.hi <= 3 * s):
            failures += 1
    num, exp = table.growth_prefix_dyadic(2000)
    series_ok = num < 2 << exp
    report_line(
        2,
        failures == 0 and series_ok,
        f"500/500 certified enclosures inside [sup, 3*sup]; series prefix at k=2000 < 2 exactly",
    )


def _interval_distance(alo, ahi, blo, bhi):
    return max(Fraction(0), alo - bhi, blo - ahi)


def test_criterion_3_derivative_vs_finite_differences(table):
    rng = random.Random(3)
    t0 = time.time()
    failures = 0
    for _ in range(200):
        x = random_vector(rng, range(1, 11), max_size=4)
        u = random_vector(rng, range(1, 11), max_size=4)
        dp = dplus_norm(table, x, u, 80)
        dm = dminus_norm(table, x, u, 80)
        first_fwd = last_fwd = None
        first_bwd = last_bwd = None
        for j in range(10, 25):
            h = Fraction(1, 1 << j)
            bits = j + 50
            nx = norm_enclosure(table, x, bits)
            nf = norm_enclosure(table, x + u.scale(h), bits)
            fwd = _interval_distance((nf.lo - nx.hi) / h, (nf.hi - nx.lo) / h, dp.lo, dp.hi)
            nb = norm_enclosure(table, x + u.scale(-h), bits)
            bwd = _interval_distance((nx.lo - nb.hi) / h, (nx.hi - nb.lo) / h, dm.lo, dm.hi)
            if first_fwd is None:
                first_fwd, first_bwd = fwd, bwd
            last_fwd, last_bwd = fwd, bwd
        slack = dp.width() + Fraction(1, 1 << 8) * Fraction(1, 1 << 24)
        if not (last_fwd <= slack and last_fwd <= first_fwd):
            failures += 1
        slack_m = dm.width() + Fraction(1, 1 << 8) * Fraction(1, 1 << 24)
        if not (last_bwd <= slack_m and last_bwd <= first_bwd):
            failures += 1
    elapsed = time.time() - t0
    report_line(
        3,
        failures == 0 and elapsed < 60.0,
        f"200 pairs, dyadic steps 2^-10..2^-24: forward/backward quotients converge "
        f"into the derivative enclosures, {elapsed:.1f}s (< 60 s)",
    )


def _probe_pool_visible():
    grid = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)]
    pool = [SparseVec({1: g}) for g in grid]
    pool += [SparseVec({2: g}) for g in (Fraction(1), Fraction(-1))]
    pool += [SparseVec({1: g1, 2: g2}) for g1 in grid for g2 in grid]
    return pool


def _sample_instance(table, rng, depth=60):
    pool = _probe_pool_visible()
    while True:
        x_entries = {}
        x_entries[rng.choice((1, 2))] = Fraction(rng.randint(1, 12) * rng.choice((1, -1)), rng.randint(1, 8))
        for i in rng.sample(range(3, 11), rng.randint(1, 3)):
            x_entries[i] = Fraction(rng.randint(1, 12) * rng.choice((1, -1)), rng.randint(1, 8))
        x = SparseVec(x_entries)
        probes = [z for z in pool if pair(x, z) != 0]
        if len(probes) < 3:
            continue
        probes = rng.sample(probes, rng.randint(2, 3))
        report = build_report(table, x, probes, depth)
        if report.usable:
            return x, report


def _sample_direction(rng, usable):
    choices = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)]
    picks = rng.sample(list(usable), rng.randint(1, min(3, len(usable))))
    return SparseVec({i: rng.choice(choices) for i in picks})


def test_criterion_4_and_5_linearity_and_sign_coherence(table):
    rng = random.Random(45)
    bound_failures = 0
    sign_failures = 0
    coherent_cases = 0
    trials = 0
    for _ in range(50):
        x, report = _sample_instance(table, rng)
        for _ in range(20):
            v = _sample_direction(rng, report.usable)
            trials += 1
            _, _, ok = verify_linearity_bound(table, x, report, v)
            if not ok:
                bound_failures += 1
            margin = coherence_margin(report, v)
            if margin > 0:
                coherent_cases += 1
                bits = bits_for_target(margin / 4)
                dp = dplus_norm(table, x, v, bits)
                dm = dminus_norm(table, x, v, bits)
                if dp.sign() == 0 or dp.sign() != dm.sign():
                    sign_failures += 1
    report_line(
        4,
        bound_failures == 0 and trials == 1000,
        f"{trials} directions across 50 instances, lower-bound error budget: zero failures",
    )
    report_line(
        5,
        sign_failures == 0 and coherent_cases >= 100,
        f"{coherent_cases} coherent cases, every one with matching definite "
        f"one-sided derivative signs",
    )


def test_criterion_6_descent_codimension_2(table):
    rng = random.Random(6)
    t0 = time.time()
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    complete = 0
    for run in range(10):
        while True:
            x0 = random_vector(rng, range(1, 10), min_size=3, max_size=5, num_cap=8, den_cap=6)
            if pair(x0, SparseVec.unit(1)) != 0 and pair(x0, SparseVec.unit(2)) != 0:
                break
        chain = minimizing_sequence(table, H, x0, 10)
        assert len(chain.certificates) >= 10, f"run {run}: only {len(chain.certificates)} steps"
        base = H.pairings(x0)
        assert all(H.pairings(p) == base for p in chain.iterates()), "coset drift"
        encs = chain.iterate_enclosures()
        assert all(b.hi < a.lo for a, b in zip(encs, encs[1:])), "chain not strictly decreasing"
        assert verify_chain(table, chain) == []
        complete += 1
    elapsed = time.time() - t0
    report_line(
        6,
        complete == 10 and elapsed < 600.0,
        f"10 starting points x 10 certified strict decreases, exact coset "
        f"preservation, {elapsed:.1f}s (< 10 min)",
    )


def test_criterion_6_descent_codimensions_5_and_6(table):
    """The claim is for every codimension n >= 2: a dense codimension-5
    subspace and the coordinate codimension-6 one, two starts each."""
    t0 = time.time()
    subspaces = {
        5: [SparseVec({1: 1, 3: Fraction(1, 2)}), SparseVec({2: 1, 4: -1}),
            SparseVec({1: 1, 2: 1, 5: 1}), SparseVec({3: 1, 6: -2}),
            SparseVec({4: Fraction(1, 3), 5: 1, 7: 1})],
        6: [SparseVec.unit(i) for i in range(1, 7)],
    }
    starts = [
        {1: Fraction(1, 2), 2: -1, 3: Fraction(2, 3), 4: 1, 5: Fraction(-1, 4), 6: 1, 7: Fraction(1, 3), 9: 2},
        {1: -2, 2: Fraction(1, 3), 3: 1, 4: Fraction(-1, 2), 5: 1, 6: Fraction(3, 4), 7: -1, 8: Fraction(1, 5)},
    ]
    for n, functionals in subspaces.items():
        H = Subspace(functionals)
        assert H.codimension == n
        for entries in starts:
            x0 = SparseVec(entries)
            assert all(pair(x0, phi) != 0 for phi in functionals)
            chain = minimizing_sequence(table, H, x0, 4)
            assert len(chain.certificates) == 4, f"n={n}: only {len(chain.certificates)} steps"
            base = H.pairings(x0)
            assert all(H.pairings(p) == base for p in chain.iterates()), f"n={n}: coset drift"
            encs = chain.iterate_enclosures()
            assert all(b.hi < a.lo for a, b in zip(encs, encs[1:])), f"n={n}: not strictly decreasing"
            assert verify_chain(ConstructionTable(), chain) == [], f"n={n}: does not re-verify"
    elapsed = time.time() - t0
    report_line(
        6,
        elapsed < 60.0,
        f"codimension 5 (dense) and 6 (coordinate): 2 starts x 4 certified strict "
        f"decreases each, re-verified on fresh tables, {elapsed:.1f}s",
    )


def _rref_determinant(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(col + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_criterion_7_sign_apparatus(table):
    for n in range(2, 7):
        predicted = SignMatrix.predicted(n)
        fan = build_fan(n, SparseVec.unit(1), SparseVec.unit(2))
        points = demo_points(n)
        assert sign_table(points, fan) == [list(r) for r in predicted.rows], f"n={n} table"
        independent, det = independence_check(predicted)
        assert independent and abs(det) == 2 ** n
        assert Fraction(det) == _rref_determinant(predicted.rows), f"n={n} oracle"
        probes = demo_probes(table, points, fan, 500)
        for x in points:
            rep = build_report(table, x, probes, 500)
            blocks = theta_blocks(rep, rep.gamma_vec())
            assert blocks
            for j, values in blocks.items():
                expected = Fraction(-sgn(pair(x, probes[j])))
                assert all(v == expected for v in values), f"n={n}: block {j} not constant"
    report_line(
        7,
        True,
        "n = 2..6: certified sign tables equal the predicted rows, |det| = 2^n "
        "against the row-reduction oracle, scaled traces exactly constant per block",
    )


def test_criterion_8_certificate_integrity(table, tmp_path):
    # Fresh-process round trip through the CLI.
    cli = [sys.executable, "-m", "proxinorm.cli"]
    files = {}
    for name, obj in [
        ("e1", {"1": "1"}),
        ("e2", {"2": "1"}),
        ("x0", {"1": "2/3", "2": "-1/4", "5": "1/2", "8": "-3/7"}),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        files[name] = str(p)
    emit = subprocess.run(
        cli + ["descend", "--phi", files["e1"], "--phi", files["e2"],
               "--x0", files["x0"], "--steps", "3"],
        capture_output=True, text=True,
    )
    assert emit.returncode == 0, emit.stderr
    chain_obj = json.loads(emit.stdout)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(emit.stdout)
    check = subprocess.run(cli + ["verify", "--cert", str(chain_path)], capture_output=True, text=True)
    fresh_ok = check.returncode == 0 and json.loads(check.stdout)["valid"]

    # Every certificate from an in-process run re-verifies against a fresh table.
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    chain = minimizing_sequence(table, H, SparseVec({1: Fraction(1, 3), 2: 1, 6: Fraction(-2, 5)}), 3)
    fresh_table = ConstructionTable(depth_budget=5000)
    reverify_ok = verify_chain(fresh_table, DescentChain.from_json(chain.to_json())) == []

    # Single-field tampering on the CLI artifact is always detected.
    tampers = []
    cert0 = chain_obj["certificates"][0]
    vkey = next(iter(cert0["v"]))
    xkey = next(iter(chain_obj["certificates"][1]["x"]))
    cases = [
        ("norm_after.lo", lambda c: c["certificates"][0]["norm_after"].__setitem__("lo", "0")),
        ("norm_after.hi", lambda c: c["certificates"][0]["norm_after"].__setitem__("hi", "0")),
        ("norm_before.lo", lambda c: c["certificates"][0]["norm_before"].__setitem__("lo", "1000000")),
        ("norm_before.depth", lambda c: c["certificates"][0]["norm_before"].__setitem__(
            "depth", c["certificates"][0]["norm_before"]["depth"] + 1)),
        ("h", lambda c: c["certificates"][0].__setitem__("h", "1/1024")),
        ("v entry", lambda c: c["certificates"][0]["v"].__setitem__(vkey, "5")),
        ("x entry", lambda c: c["certificates"][1]["x"].__setitem__(xkey, "9/7")),
        ("d_plus.lo", lambda c: c["certificates"][0]["d_plus"].__setitem__("lo", "-1/2")),
        ("d_minus.depth", lambda c: c["certificates"][0]["d_minus"].__setitem__(
            "depth", c["certificates"][0]["d_minus"]["depth"] + 2)),
        ("x0 entry", lambda c: c["x0"].__setitem__("1", "1")),
    ]
    for label, mutate in cases:
        mutated = json.loads(emit.stdout)
        mutate(mutated)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(mutated))
        res = subprocess.run(cli + ["verify", "--cert", str(bad_path)], capture_output=True, text=True)
        detected = res.returncode != 0 or not json.loads(res.stdout or '{"valid": true}')["valid"]
        tampers.append((label, detected))
    all_detected = all(d for _, d in tampers)
    report_line(
        8,
        fresh_ok and reverify_ok and all_detected,
        f"fresh-process verification passes; {len(tampers)}/{len(tampers)} "
        f"single-field tampers detected",
    )
