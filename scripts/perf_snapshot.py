#!/usr/bin/env python3
"""Maintain BENCH_engine.json, the engine's recorded perf trajectory.

Subcommands:
  append LABEL MICRO_JSON SCALING_JSON [CROSSPAPER_JSON]
      Append one snapshot built from a google-benchmark JSON dump of
      bench_micro and the VALOCAL_BENCH_JSON dump of
      bench_engine_scaling. The optional fourth argument is the
      VALOCAL_BENCH_JSON dump of bench_crosspaper (rows keyed
      section/family/problem/algorithm/n/va/ea/wc/valid); when given,
      the snapshot records it as its "crosspaper" section so the
      2018-vs-2022-vs-worst-case measures travel with the perf
      history. Each snapshot carries its own "host" block (CPU count,
      clock, compiler), so appending never rewrites the provenance of
      older snapshots. Snapshots are append-only history; a file-level
      "host" block, where present, predates per-snapshot hosts and is
      left as it was.
  check MICRO_JSON [THRESHOLD]
      Compare a fresh bench_micro dump's gated rows — the BM_Engine*
      round-throughput fixtures (items_per_second = stepped
      vertex-rounds per second) and the BM_PickEscaping color-reduction
      kernel (picks per second) — against the LATEST snapshot; exit 1
      if any row drops below THRESHOLD * baseline (default 0.7, i.e. a
      30% regression budget).

Used by scripts/bench_baseline.sh (append) and the perf-smoke job in
scripts/run_all.sh (check). See docs/BENCHMARKS.md.
"""
import datetime
import json
import sys

BENCH_FILE = "BENCH_engine.json"

# bench_micro rows the snapshots record and the check gates.
GATED_PREFIXES = ("BM_Engine", "BM_PickEscaping")


def trim_micro(raw):
    """Keep only the gated rows and the fields worth diffing."""
    out = []
    for b in raw.get("benchmarks", []):
        if not b.get("name", "").startswith(GATED_PREFIXES):
            continue
        entry = {
            "name": b["name"],
            "real_time_ns": b.get("real_time"),
            "cpu_time_ns": b.get("cpu_time"),
            "items_per_second": b.get("items_per_second"),
            "stepped": b.get("stepped"),
        }
        # Wake-scheduled fixtures report the vertex-rounds the engine
        # elided; keep it so snapshots document hinted vs unhinted.
        if b.get("skipped") is not None:
            entry["skipped"] = b.get("skipped")
        out.append(entry)
    return out


def load_doc():
    try:
        with open(BENCH_FILE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"snapshots": []}


def cmd_append(label, micro_path, scaling_path, crosspaper_path=None):
    with open(micro_path) as f:
        raw = json.load(f)
    with open(scaling_path) as f:
        scaling = json.load(f)
    crosspaper = None
    if crosspaper_path:
        with open(crosspaper_path) as f:
            crosspaper = json.load(f)
    doc = load_doc()
    ctx = raw.get("context", {})
    snapshot = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "host": {
            "hardware_threads": scaling.get("hardware_threads"),
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            # Stamped by bench_engine_scaling: snapshots are only
            # comparable within one compiler + optimization-flag set.
            "compiler": scaling.get("compiler"),
        },
        "bench_micro": trim_micro(raw),
        "engine_scaling": scaling.get("rows", []),
    }
    if crosspaper is not None:
        snapshot["crosspaper"] = crosspaper.get("rows", [])
    doc.setdefault("snapshots", []).append(snapshot)
    with open(BENCH_FILE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"[{BENCH_FILE}: appended snapshot '{label}' "
          f"({len(doc['snapshots'])} total)]")


def cmd_check(micro_path, threshold):
    doc = load_doc()
    if not doc.get("snapshots"):
        print(f"{BENCH_FILE} has no snapshots; nothing to compare")
        return
    snap = doc["snapshots"][-1]
    base = {b["name"]: b.get("items_per_second")
            for b in snap.get("bench_micro", [])}
    with open(micro_path) as f:
        fresh = trim_micro(json.load(f))
    if not fresh:
        print("PERF-SMOKE FAILED: no gated fixtures in fresh run")
        sys.exit(1)
    failures = []
    print(f"perf-smoke vs snapshot '{snap['label']}' ({snap['date']}), "
          f"threshold {threshold:.2f}x:")
    for b in fresh:
        ref, cur = base.get(b["name"]), b.get("items_per_second")
        if not ref or not cur:
            print(f"  {b['name']}: no baseline entry, skipped")
            continue
        ratio = cur / ref
        verdict = "ok" if ratio >= threshold else "REGRESSION"
        print(f"  {b['name']}: {cur / 1e6:.2f}M items/s vs "
              f"baseline {ref / 1e6:.2f}M ({ratio:.2f}x) {verdict}")
        if ratio < threshold:
            failures.append(b["name"])
    if failures:
        print("PERF-SMOKE FAILED: throughput regressed >"
              f"{(1 - threshold) * 100:.0f}% on: {', '.join(failures)}")
        print("If the regression is intended, refresh the baseline with "
              "scripts/bench_baseline.sh and commit BENCH_engine.json.")
        sys.exit(1)
    print("perf-smoke: engine round-throughput within budget")


def main():
    if len(sys.argv) >= 5 and sys.argv[1] == "append":
        crosspaper = sys.argv[5] if len(sys.argv) > 5 else None
        cmd_append(sys.argv[2], sys.argv[3], sys.argv[4], crosspaper)
    elif len(sys.argv) >= 3 and sys.argv[1] == "check":
        threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.7
        cmd_check(sys.argv[2], threshold)
    else:
        print(__doc__)
        sys.exit(2)


if __name__ == "__main__":
    main()
