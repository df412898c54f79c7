#!/usr/bin/env python3
"""Fast self-test of the benchmark (about 15 s).

Usage, from the repository root:

    python3 bench/selftest.py

Shows that a corrupted digest fails a run, that tampered chains are
never counted as accepted, that the oracles catch wrong outputs, that
tracing leaves the package as it found it, and that ``BENCHMARK.json``
names exactly the metrics the harness reports.  Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import run


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {what}")
    print(f"PASS: {what}")


def test_benchmark_json() -> None:
    from tracer import PER_LAYER

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER),
        "BENCHMARK.json per_layer matches the tracer's metrics",
    )
    expect(
        [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
        and all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"]),
        "BENCHMARK.json end_to_end matches the run's metrics",
    )
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES), "workload names match")


def test_corrupted_digest_fails() -> None:
    result, line = run.run_workload("deep_norm", 0, 0.0, 0, digests={"deep_norm": {"0": "0" * 64}})
    expect(result["checks"]["digest_status"] == "mismatch" and line["correct"] is False,
           "a corrupted digest makes the run incorrect (exit code 1)")
    expect(line["failed"] == 0, "the outputs themselves pass their oracles")


def test_tampered_chains() -> None:
    from proxinorm import construction, descent
    from proxinorm.vectors import SparseVec
    from workloads import FAULT, OK, TAMPER_KINDS, WORKLOADS, WRONG, Doc, tamper

    start = SparseVec({1: Fraction(2, 3), 2: Fraction(-1, 4), 5: Fraction(1, 2)})
    subspace = descent.Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    chain = descent.minimizing_sequence(construction.canonical_table(), subspace, start, 2).to_json()
    verify = WORKLOADS["verify"]
    verify._genuine = [chain]
    genuine = Doc("genuine.0", json.dumps(chain), True, 0)
    out = verify.run(genuine)
    expect(out[0] == "accepted" and verify.check(genuine, out)[0] == OK, "a genuine chain is accepted")
    rng = random.Random(0)
    for kind in TAMPER_KINDS:
        for sign in (1, -1):
            obj, path = tamper(chain, kind, sign, rng)
            doc = Doc(f"{kind}:{path}", json.dumps(obj), False, 0)
            verify.validate(doc)
            out = verify.run(doc)
            status = verify.check(doc, out)[0]
            expect(out[0] != "accepted" and status == {"rejected": OK, "crashed": FAULT}[out[0]],
                   f"tampered {path} ({'+' if sign > 0 else '-'}) is {out[0]}, not accepted")
    verify._genuine = []
    descent_check = WORKLOADS["descent"].check(start, descent.DescentChain.from_json(chain))
    expect(descent_check[0] == WRONG, "a chain shorter than the requested steps fails the descent check")


def test_oracles_catch_wrong_outputs() -> None:
    from proxinorm.norms import Enclosure
    from workloads import OK, WORKLOADS, WRONG

    import oracles

    deep = WORKLOADS["deep_norm"]
    inp = next(deep.rounds(0))[0]
    out = deep.run(inp)
    expect(deep.check(inp, out)[0] == OK, "deep_norm oracle accepts the program's enclosures")
    nudge = Fraction(1, 1 << (deep.bits + 64))
    bad = (Enclosure(out[0].lo + nudge, out[0].hi + nudge, out[0].depth),) + out[1:]
    expect(deep.check(inp, bad)[0] == WRONG, "deep_norm oracle rejects a norm off by 2^-(bits+64)")
    for n in range(2, 7):
        rows = oracles.predicted_sign_rows(n)
        expect(abs(oracles.rref_determinant(rows)) == 2**n, f"row-reduction determinant is 2^{n} for n={n}")


def test_tracer_restores_package() -> None:
    import proxinorm.descent
    import proxinorm.norms
    from proxinorm import construction
    from proxinorm.vectors import SparseVec
    from tracer import Tracer

    originals = (proxinorm.norms.norm_enclosure, proxinorm.descent.build_report,
                 construction.ConstructionTable.__dict__["_extend_to"])
    tracer = Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        proxinorm.norms.norm_enclosure(construction.canonical_table(), SparseVec({1: 1, 3: Fraction(1, 2)}), 64)
    finally:
        tracer.uninstall()
        tracer.end_op()
    names = {span[0] for span in tracer.spans}
    expect({"op", "norms.norm_enclosure", "norms.series_partial_sum", "construction.extend_to"} <= names,
           "a traced call records spans for its layers")
    _metrics, _layers, residual = tracer.summary()
    expect(residual < 1e-9, "self times add up to the operation time")
    expect(originals == (proxinorm.norms.norm_enclosure, proxinorm.descent.build_report,
                         construction.ConstructionTable.__dict__["_extend_to"]),
           "uninstall restores every wrapped function")


def main() -> int:
    run.import_program()
    test_benchmark_json()
    test_tracer_restores_package()
    test_oracles_catch_wrong_outputs()
    test_tampered_chains()
    test_corrupted_digest_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
