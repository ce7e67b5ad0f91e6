#!/usr/bin/env python3
"""Compares two sets of benchmark records, metric by metric.

Usage (from the repository root):

    python3 benchmark/compare.py BASE.jsonl HEAD.jsonl

Each file holds records as `run.py` appends them to
`.bench_build/perfbench/records.jsonl` (one JSON object per run). Only
untraced runs are compared. Records measured on different hosts are not
comparable: if any record's host fingerprint (nproc, AVX-512F) differs from
the others, the script refuses and exits 2.

For every workload and end-to-end metric in BENCHMARK.json it prints the
median and quartiles of both sides and the change of the median as a share
of the base median, and marks the pair:

  ok          within the metric's bound
  REGRESSED   worse than the bound allows
  unresolved  base spread (IQR / median) wider than the bound

Exits 1 when any pair regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r.get("trace")]


def host(record):
    fp = record["fingerprint"]
    return (fp["nproc"], fp["avx512f"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    hosts = {host(r) for r in base + head}
    if len(hosts) > 1:
        print(f"refusing to compare: records come from different hosts {sorted(hosts)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    nproc, avx512f = hosts.pop() if hosts else ("?", "?")
    digests = lambda rs: sorted({r["fingerprint"]["source_digest"] for r in rs})
    print(f"host nproc={nproc} avx512f={avx512f}  base={digests(base)}  head={digests(head)}")
    regressed = False
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            key = m["name"]
            b = [r["result"]["metrics"][key]["value"] for r in base if r["workload"] == name]
            h = [r["result"]["metrics"][key]["value"] for r in head if r["workload"] == name]
            if not b or not h:
                print(f"{name:<14} {key:<18} missing runs (base {len(b)}, head {len(h)})")
                continue
            bm, hm = statistics.median(b), statistics.median(h)
            change = (hm - bm) / bm
            worse = change if m["better"] == "lower" else -change
            bq, hq = quartiles(b), quartiles(h)
            spread = (bq[1] - bq[0]) / bm
            if worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{name:<14} {key:<18} base {bm:.4g} [{bq[0]:.4g}, {bq[1]:.4g}] n={len(b)}"
                f"  head {hm:.4g} [{hq[0]:.4g}, {hq[1]:.4g}] n={len(h)}"
                f"  change {change:+.2%} (bound {m['bound']:.0%}, {m['better']} is better)  {verdict}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
