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
      Also cross-checks the per-mode fixtures (BM_Engine*Mode/N/M,
      where M is the FrontierMode value 1 auto / 2 dense / 3 sparse /
      4 calendar): the auto row must reach at least 90% of the best
      forced mode's throughput on every fixture — the hybrid switch
      must never cost more than its decision overhead.
      Also cross-checks the per-layout fixtures (BM_Engine*Layout/N/L,
      where L is the StateLayout value 2 packed / 3 aos): the packed
      row must reach at least 1.0x the AoS row on every fixture — the
      SoA columns exist to be faster, never a tax.

Used by scripts/bench_baseline.sh (append) and the perf-smoke job in
scripts/run_all.sh (check). See docs/BENCHMARKS.md.
"""
import datetime
import json
import re
import sys

BENCH_FILE = "BENCH_engine.json"

# BM_EngineRing3Mode/65536/2 -> (family "BM_EngineRing3Mode/65536",
# mode 2). Mode values mirror sim/network.hpp's FrontierMode.
MODE_FIXTURE = re.compile(r"^(BM_Engine\w+Mode(?:/\d+)*)/([1-4])$")
MODE_NAMES = {1: "auto", 2: "dense", 3: "sparse", 4: "calendar"}
AUTO_VS_BEST_THRESHOLD = 0.9

# BM_EngineRing3Layout/65536/2 -> (family "BM_EngineRing3Layout/65536",
# layout 2). Layout values mirror sim/network.hpp's StateLayout
# (2 packed, 3 aos).
LAYOUT_FIXTURE = re.compile(r"^(BM_Engine\w+Layout(?:/\d+)*)/([23])$")
LAYOUT_NAMES = {2: "packed", 3: "aos"}
PACKED_VS_AOS_THRESHOLD = 1.0


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
    check_auto_vs_forced(fresh)
    check_packed_vs_aos(fresh)
    print("perf-smoke: engine round-throughput within budget")


def check_auto_vs_forced(fresh):
    """Auto must stay within 10% of the best forced frontier mode."""
    families = {}
    for b in fresh:
        m = MODE_FIXTURE.match(b["name"])
        if m and b.get("items_per_second"):
            families.setdefault(m.group(1), {})[int(m.group(2))] = \
                b["items_per_second"]
    failures = []
    for family, modes in sorted(families.items()):
        auto = modes.get(1)
        forced = {k: v for k, v in modes.items() if k != 1}
        if not auto or not forced:
            continue
        best_mode, best = max(forced.items(), key=lambda kv: kv[1])
        ratio = auto / best
        verdict = ("ok" if ratio >= AUTO_VS_BEST_THRESHOLD
                   else "AUTO REGRESSION")
        print(f"  {family}: auto {auto / 1e6:.2f}M vs best forced "
              f"({MODE_NAMES[best_mode]}) {best / 1e6:.2f}M "
              f"({ratio:.2f}x) {verdict}")
        if ratio < AUTO_VS_BEST_THRESHOLD:
            failures.append(family)
    if failures:
        print("PERF-SMOKE FAILED: hybrid auto frontier mode fell >"
              f"{(1 - AUTO_VS_BEST_THRESHOLD) * 100:.0f}% behind the "
              f"best forced mode on: {', '.join(failures)}")
        sys.exit(1)


def check_packed_vs_aos(fresh):
    """Packed state columns must never run slower than AoS."""
    families = {}
    for b in fresh:
        m = LAYOUT_FIXTURE.match(b["name"])
        if m and b.get("items_per_second"):
            families.setdefault(m.group(1), {})[int(m.group(2))] = \
                b["items_per_second"]
    failures = []
    for family, layouts in sorted(families.items()):
        packed, aos = layouts.get(2), layouts.get(3)
        if not packed or not aos:
            continue
        ratio = packed / aos
        verdict = ("ok" if ratio >= PACKED_VS_AOS_THRESHOLD
                   else "PACKED REGRESSION")
        print(f"  {family}: packed {packed / 1e6:.2f}M vs aos "
              f"{aos / 1e6:.2f}M ({ratio:.2f}x) {verdict}")
        if ratio < PACKED_VS_AOS_THRESHOLD:
            failures.append(family)
    if failures:
        print("PERF-SMOKE FAILED: packed state layout ran slower than "
              f"AoS on: {', '.join(failures)}")
        sys.exit(1)


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
