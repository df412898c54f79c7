#!/usr/bin/env python3
"""proxinorm benchmark: end-to-end and per-layer numbers for four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload descent --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (see ``workloads.py``): ``descent``, ``verify``, ``deep_norm``,
``sign_demo``.  Each is a closed loop driven by one process and one
thread; inputs come from ``--seed``.  The program under test is the
package in ``src/`` next to this directory.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics: ``setup_s`` (median wall time of a fresh interpreter that imports
proxinorm and builds its first table), ``ops_per_s``, ``op_p50_s``,
``op_tail_s`` (latency at the highest percentile with at least ten
samples beyond it; the maximum when there are ten samples or fewer),
``ok_ratio`` (operations that passed every check, over those attempted)
and ``peak_rss_mb``.  The three operation metrics are medians over
chunks of the run (see ``chunks``); a short run is one chunk.

``--trace 1`` runs every input twice, untraced and then traced, and
reports the per-layer metrics of ``tracer.PER_LAYER`` from the traced
executions; ``trace.overhead_ratio`` compares the two.

After the timed loop every output is checked against an independent
oracle, and a digest of the first outputs is compared with
``digests.json`` when it holds the seed.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when ``correct`` is true.  Full
results, run metadata and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
WORKLOAD_NAMES = ("descent", "verify", "deep_norm", "sign_demo")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# Fresh interpreters are timed before and again after the loop, so a slow
# phase of the machine during one burst moves the median less.
SETUP_REPEATS = 4
# Operations per chunk: with ten samples beyond it, a chunk's tail then sits
# at or above its 75th percentile.
MIN_CHUNK = 40
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import proxinorm; "
    "proxinorm.canonical_table().entry(1)"
)


def import_program():
    """Import proxinorm from this checkout's ``src/``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import proxinorm
    except ImportError as exc:
        sys.exit(f"bench: cannot import proxinorm from {SRC}: {exc}")
    if Path(proxinorm.__file__).resolve().parent != SRC / "proxinorm":
        sys.exit(f"bench: proxinorm resolved to {proxinorm.__file__}, not {SRC}")


# -- measurement -------------------------------------------------------------


def measure_setup(repeats: int = SETUP_REPEATS):
    """Wall times of fresh interpreters that import proxinorm and build
    their first table."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def _timed(workload, inp, op_error):
    t0 = perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # recorded and checked as a failed operation
        out = op_error(exc)
    return out, perf_counter() - t0


def run_loop(workload, seed: int, seconds: float, tracer=None):
    """Closed loop over whole rounds until ``seconds`` have passed and the
    digest's operations are done.  Returns the (input, output) pairs,
    latencies, (operations done, seconds elapsed) at the end of each
    round, and with a tracer the traced outputs and latencies of the same
    inputs."""
    from workloads import OpError

    rounds = workload.rounds(seed)
    batch = next(rounds)  # input set-up (the verify corpus) stays untimed
    pairs, latencies, traced, round_ends = [], [], [], []
    start = perf_counter()
    while True:
        for inp in batch:
            out, dt = _timed(workload, inp, OpError)
            pairs.append((inp, out))
            latencies.append(dt)
            if tracer is not None:
                tracer.begin_op(len(traced))
                tracer.install()
                try:
                    t_out, t_dt = _timed(workload, inp, OpError)
                finally:
                    tracer.uninstall()
                    tracer.end_op()
                traced.append((t_out, t_dt))
        round_ends.append((len(pairs), perf_counter() - start))
        if round_ends[-1][1] >= seconds and len(pairs) >= workload.digest_ops:
            break
        batch = next(rounds)
    return pairs, latencies, round_ends, traced


def chunks(latencies, round_ends):
    """Split a run into chunks of whole consecutive rounds holding at least
    MIN_CHUNK operations each; returns (latencies, seconds) per chunk.

    End-to-end metrics are medians over chunks.  A shared 2-core virtual
    machine can run up to 60% slower for seconds at a time; a median over
    chunks ignores such a phase when it covers fewer than half of them,
    where a statistic over the whole run would not.
    """
    out, first, t_first = [], 0, 0.0
    for ops, t in round_ends:
        if ops - first >= MIN_CHUNK:
            out.append((latencies[first:ops], t - t_first))
            first, t_first = ops, t
    if first < len(latencies):  # a short remainder joins the last chunk
        if out:
            lat, secs = out.pop()
            first -= len(lat)
            t_first -= secs
        out.append((latencies[first:], round_ends[-1][1] - t_first))
    return out


def tail(latencies):
    """(value, percentile, samples, beyond): the latency at the highest
    percentile with at least ten samples beyond it, or the maximum when no
    percentile has."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, n, 10
    return xs[-1], 100.0, n, 0


# -- metadata ------------------------------------------------------------------


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def source_facts():
    files = sorted(SRC.rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    public = 0
    for path in files:
        data = path.read_bytes()
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
        for node in ast.parse(data).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                public += not node.name.startswith("_")
    return {"src_sha256": sha.hexdigest(), "src_lines": lines, "public_defs": public}


def metadata(workload: str, seed: int, seconds: float, trace: int):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        **source_facts(),
    }


# -- one workload run ----------------------------------------------------------


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload, pairs):
    """Validate every distinct input and check every output; returns the
    counts, the first failures and a digest of the first outputs."""
    from workloads import FAULT, OK, WRONG, first_outputs_digest

    counts = {OK: 0, WRONG: 0, FAULT: 0}
    notes = []
    validated = set()
    for inp, out in pairs:
        if id(inp) not in validated:
            workload.validate(inp)
            validated.add(id(inp))
        status, detail = workload.check(inp, out)
        counts[status] += 1
        if status != OK and len(notes) < 10:
            notes.append(f"{status}: {detail}")
    return counts, notes, first_outputs_digest(workload, pairs)


def run_workload(name: str, seed: int, seconds: float, trace: int, digests=None):
    """Run one workload; returns the full result and the contract line."""
    # workloads imports proxinorm, which import_program makes importable;
    # an untraced run does not load the tracer at all
    from workloads import FAULT, OK, WORKLOADS, WRONG

    workload = WORKLOADS[name]
    meta = metadata(name, seed, seconds, trace)
    setup_times = [] if trace else measure_setup()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    pairs, latencies, round_ends, traced = run_loop(workload, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        setup_times += measure_setup()

    counts, notes, out_digest = check_outputs(workload, pairs)
    if trace:
        mismatched = sum(
            workload.canonical(inp, out) != workload.canonical(inp, t_out)
            for (inp, out), (t_out, _) in zip(pairs, traced)
        )
        if mismatched:
            counts[WRONG] += mismatched
            notes.append(f"wrong: tracing changed {mismatched} outputs")

    recorded = (load_digests() if digests is None else digests).get(name, {}).get(str(seed))
    digest_status = "unrecorded" if recorded is None else ("match" if recorded == out_digest else "mismatch")
    attempted = len(pairs)
    failed = counts[WRONG]
    correct = failed == 0 and digest_status != "mismatch"

    if trace:
        metrics, layer_self, residual = tracer.summary()
        untraced = sum(latencies)
        metrics["trace.overhead_ratio"] = sum(dt for _, dt in traced) / untraced - 1.0
        meta["tracing_overhead"] = metrics["trace.overhead_ratio"]
        meta["layer_self_s"] = layer_self
        meta["self_time_residual_s"] = residual
        meta["missing_traced_methods"] = tracer.missing
        from tracer import PER_LAYER

        units = {m: u for m, u, _ in PER_LAYER}
    else:
        parts = chunks(latencies, round_ends)
        tails = [tail(lat) for lat, _secs in parts]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(len(lat) / secs for lat, secs in parts),
            "op_p50_s": statistics.median(statistics.median(lat) for lat, _secs in parts),
            "op_tail_s": statistics.median(t[0] for t in tails),
            "ok_ratio": counts[OK] / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        meta["chunks"] = [
            {"ops": n, "tail_percentile": pct, "beyond": beyond} for _v, pct, n, beyond in tails
        ]
        meta["setup_samples_s"] = setup_times
        meta["fail_ratio"] = (counts[WRONG] + counts[FAULT]) / attempted
        meta["tracing_overhead"] = None  # measured by --trace 1 runs only

    result = {
        "meta": meta,
        "checks": {
            "outcomes": counts,
            "notes": notes,
            "digest": out_digest,
            "digest_status": digest_status,
            "inputs_valid": True,
        },
        "loop_wall_s": round_ends[-1][1],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if hasattr(workload, "outcome_counts"):
        result["checks"]["outcome_counts"] = workload.outcome_counts(pairs[: workload.digest_ops])
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result["metrics"]}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    return result, line


def print_summary(result, line) -> None:
    meta, checks = result["meta"], result["checks"]
    print(f"workload {meta['workload']} seed {meta['seed']} trace {meta['trace']}: "
          f"{line['attempted']} ops, {line['failed']} failed, checks {checks['outcomes']}, "
          f"digest {checks['digest_status']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")
    if "chunks" in meta:
        c = meta["chunks"]
        print(f"  medians over {len(c)} chunks of {min(x['ops'] for x in c)}-{max(x['ops'] for x in c)} ops; "
              f"op_tail_s per chunk is p{c[0]['tail_percentile']:.1f} with {c[0]['beyond']} beyond; "
              f"fail_ratio {meta['fail_ratio']:.6g}")
    if "outcome_counts" in checks:
        print(f"  outcomes in one corpus round: {checks['outcome_counts']}")
    for note in checks["notes"]:
        print(f"  {note}")


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proxinorm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    result, line = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_summary(result, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
