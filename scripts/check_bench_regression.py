#!/usr/bin/env python3
"""Flags throughput and tail-latency regressions between two bench-result
directories.

Usage: check_bench_regression.py BASELINE_DIR CURRENT_DIR [--threshold 0.20]

Each directory holds one JSON file per bench, written by the benches'
--json=PATH flag: {"bench": "...", "results": [{"name": ..., "qps": ...,
optionally "p50_ms"/"p95_ms"/"p99_ms", the streaming metrics
"first_partial_p50_ms"/"first_partial_p99_ms"/"deadline_miss_rate", and
the cancel-heavy reclamation metrics "cancel_rate"/"jobs_skipped"/
"shards_skipped", the CPU-kernel metadata "kernel"/"layout"/
"speedup_vs_scalar", and the ISA metadata "isa"/"speedup_vs_scalar" of
the accum_* (accumulator) and prg_* (ChaCha20 ExpandBatch) rows}]}.
Results are matched by (bench, name); a current QPS more than `threshold`
below its baseline counterpart — or a current p99 latency or
time-to-first-partial (p50) more than `threshold` above it — is a
regression. The reclamation metrics are informational (printed, never
flagged: skip counts scale with the cancel mix, not with performance);
the cancel-mode rows' QPS is still regression-checked like any other row.
The per-kernel and per-ISA speedup_vs_scalar is likewise informational —
it tracks the host's AES-NI/AVX support, not code performance — while the
rows' absolute QPS is regression-checked normally. A row with no baseline
counterpart (a cached baseline older than the row) still prints its isa
and speedup.
Unknown fields — older or newer artifacts — are ignored, so baselines
written before a field existed keep comparing cleanly. Missing baselines
(first run, renamed rows) are skipped with a note. Exits 1 if any
regression was flagged, so CI can surface the step while keeping it
non-blocking via continue-on-error.
"""

import argparse
import json
import pathlib
import sys


def load_results(directory):
    """Returns {(bench, result_name): {"qps": float, "p99_ms": float|None,
    "first_partial_p50_ms": float|None, "jobs_skipped": float|None,
    "shards_skipped": float|None}} over every *.json in directory."""
    results = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"note: skipping unreadable {path}: {err}")
            continue
        bench = doc.get("bench", path.stem)
        for entry in doc.get("results", []):
            if "name" in entry and "qps" in entry:
                optional = ["p99_ms", "first_partial_p50_ms",
                            "jobs_skipped", "shards_skipped",
                            "speedup_vs_scalar"]
                row = {"qps": float(entry["qps"])}
                for field in optional:
                    row[field] = (float(entry[field])
                                  if field in entry else None)
                # String-valued metadata (not a float; printed verbatim).
                row["isa"] = entry.get("isa")
                results[(bench, entry["name"])] = row
    return results


def informational(row):
    """The row's informational-only fields, formatted for its line."""
    text = ""
    # Reclamation counters track the cancel mix of the bench, not machine
    # performance.
    if row.get("jobs_skipped") is not None:
        text += (f", reclaimed {row['jobs_skipped']:.0f} jobs"
                 f"/{row.get('shards_skipped') or 0:.0f} shards")
    # Kernel/ISA speedup flips with the host's SIMD support, so only the
    # row's absolute QPS is flagged. The isa tag identifies accum_*/prg_*
    # rows on hosts where the row name alone is ambiguous across artifacts.
    if row.get("isa") is not None:
        text += f", isa={row['isa']}"
    if row.get("speedup_vs_scalar") is not None:
        text += f", {row['speedup_vs_scalar']:.2f}x vs scalar"
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("current_dir")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional QPS drop (or p99 latency rise) "
                             "that counts as a regression (default 0.20)")
    args = parser.parse_args()

    if not pathlib.Path(args.baseline_dir).is_dir():
        print(f"no baseline at {args.baseline_dir} (first run?) — "
              "nothing to compare")
        return 0
    baseline = load_results(args.baseline_dir)
    current = load_results(args.current_dir)
    if not current:
        print(f"error: no bench results found in {args.current_dir}")
        return 2

    regressions = []
    for key, cur in sorted(current.items()):
        base = baseline.get(key)
        if base is None:
            print(f"note: no baseline for {key[0]}/{key[1]} — skipped"
                  f"{informational(cur)}")
            continue
        line = f"{key[0]}/{key[1]}:"
        flagged = []
        if base["qps"] > 0:
            delta = (cur["qps"] - base["qps"]) / base["qps"]
            line += (f" {base['qps']:.1f} -> {cur['qps']:.1f} qps "
                     f"({delta:+.1%})")
            if delta < -args.threshold:
                flagged.append(("qps", base["qps"], cur["qps"], delta))
        if (base.get("p99_ms") and cur.get("p99_ms")
                and base["p99_ms"] > 0):
            delta = (cur["p99_ms"] - base["p99_ms"]) / base["p99_ms"]
            line += (f", p99 {base['p99_ms']:.1f} -> {cur['p99_ms']:.1f} ms "
                     f"({delta:+.1%})")
            if delta > args.threshold:
                flagged.append(("p99", base["p99_ms"], cur["p99_ms"], delta))
        if (base.get("first_partial_p50_ms")
                and cur.get("first_partial_p50_ms")
                and base["first_partial_p50_ms"] > 0):
            b_fp = base["first_partial_p50_ms"]
            c_fp = cur["first_partial_p50_ms"]
            delta = (c_fp - b_fp) / b_fp
            line += (f", first-partial {b_fp:.1f} -> {c_fp:.1f} ms "
                     f"({delta:+.1%})")
            if delta > args.threshold:
                flagged.append(("first_partial_p50", b_fp, c_fp, delta))
        line += informational(cur)
        if flagged:
            line += "  <-- REGRESSION"
            for metric, b, c, delta in flagged:
                regressions.append((key, metric, b, c, delta))
        print(line)

    if regressions:
        print(f"\n{len(regressions)} result(s) regressed more than "
              f"{args.threshold:.0%} vs the previous run:")
        for (bench, name), metric, b, c, delta in regressions:
            print(f"  {bench}/{name} [{metric}]: {b:.1f} -> {c:.1f} "
                  f"({delta:+.1%})")
        return 1
    print("\nno throughput or tail-latency regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
