#!/usr/bin/env python3
"""Record the output digests that ``run.py`` checks, for a range of seeds.

Usage, from the repository root:

    python3 bench/record_digests.py --seeds 0-31 [--workload descent]

For each workload and seed this runs, untimed, the operations whose
outputs form the digest, checks every output as a run does, and stores
the digest in ``digests.json`` (existing entries for other seeds are
kept).  It refuses to record a digest of outputs that fail a check.
Record digests only from a commit whose outputs are known good; a
performance change must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def first_pairs(workload, seed: int):
    pairs = []
    rounds = workload.rounds(seed)
    while len(pairs) < workload.digest_ops:
        for inp in next(rounds):
            pairs.append((inp, workload.run(inp)))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-31")
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.import_program()
    from workloads import WORKLOADS, WRONG, first_outputs_digest

    digests = run.load_digests()
    for name in [args.workload] if args.workload else run.WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        for seed in seeds:
            pairs = first_pairs(workload, seed)
            for inp, out in pairs:
                workload.validate(inp)
                status, detail = workload.check(inp, out)
                if status == WRONG:
                    sys.exit(f"{name} seed {seed}: {detail}; digest not recorded")
            digests.setdefault(name, {})[str(seed)] = first_outputs_digest(workload, pairs)
            print(f"{name} seed {seed}: {digests[name][str(seed)]}", flush=True)
            with open(run.DIGESTS, "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
