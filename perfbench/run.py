#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/valocal_bench from the
checkout's sources, runs one workload in its own process, checks its
outputs and prints one JSON result line last.

Run from the root of a checkout:

  python3 perfbench/run.py --workload det-catalog --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --steadiness 10 --seconds 36   # spread per metric
  python3 perfbench/run.py --self-test                    # smoke sizes
  python3 perfbench/run.py --write-golden --seeds 0-20    # refresh goldens

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "valocal_bench")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("det-catalog", "rmat-ingest", "rand-dense")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; exits non-zero when
    the checkout holds no library sources to build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources at", os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)


def run_binary(workload, seed, seconds, trace, size="full"):
    """One workload run in a fresh process; returns its JSON record."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--work-dir", WORK]
    if trace:
        cmd += ["--spans-out",
                os.path.join(WORK, f"spans-{workload}-{size}-{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if done.returncode != 0:
        log(f"run.py: {workload} exited with {done.returncode}")
        sys.exit(1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_json(path, default):
    if not os.path.isfile(path):
        return default
    with open(path) as f:
        return json.load(f)


def golden_key(record):
    return f"{record['workload']}/{record['size']}"


def check(record, golden):
    """Per-job verdicts: the program's own (admission, attached
    verdict, validate/ re-check, same fingerprint every pass) plus the
    stored golden fingerprint when this seed has one. Returns
    (attempted, failed) and annotates the record."""
    expected = golden.get(golden_key(record), {}).get(str(record["seed"]))
    record["golden"] = "checked" if expected else "none stored for this seed"
    attempted = failed = 0
    for job in record["jobs"]:
        bad = job["attempted"] - job["ok"]
        if expected is not None and expected.get(job["key"]) != job["fingerprint"]:
            job["golden_mismatch"] = True
            bad = job["attempted"]
        attempted += job["attempted"]
        failed += bad
    return attempted, failed


def not_exercised_reason(name, record):
    """Why a per-layer metric the spec names is absent from a record, or
    None when its absence is a fault."""
    entries = {job["key"].split("@")[0] for job in record["jobs"]}
    layer, _, rest = name.partition(".")
    if layer in ("algo", "sim") and "." in rest:
        entry = rest.split(".")[0]
        if entry not in entries:
            return f"entry {entry} is not in this workload"
    if name == "graph.gen_save_s":
        return "this workload has no file cache to fill"
    if name == "coverfree.build_s":
        return "this workload builds no cover-free family of its own"
    return None


def result_line(record, spec, trace, attempted, failed):
    """The benchmark's result: end-to-end metrics untraced, per-layer
    metrics traced; per-layer metrics a workload does not exercise read
    0 and are listed with their reason in the record."""
    metrics = {}
    if not trace:
        e2e = dict(record["end_to_end"])
        e2e["ok_ratio"] = {"value": (attempted - failed) / attempted,
                           "unit": "ratio"}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]]["value"],
                                  "unit": m["unit"]}
    else:
        record["not_exercised"] = {}
        for m in spec["per_layer"]:
            got = record["per_layer"].get(m["name"])
            if got is None:
                record["not_exercised"][m["name"]] = (
                    record["missing"].get(m["name"])
                    or not_exercised_reason(m["name"], record)
                    or "not measured")
            metrics[m["name"]] = {"value": got["value"] if got else 0,
                                  "unit": m["unit"]}
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def cmd_run(args):
    build()
    spec = load_json(SPEC, None)
    record = run_binary(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed = check(record, load_json(GOLDEN, {}))
    out = result_line(record, spec, args.trace, attempted, failed)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(out))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steadiness(args):
    """Each workload N times, each a fresh process with its own seed;
    prints each end-to-end metric's median, quartiles, min/max and the
    quartile spread as a share of the median, which must stay within
    the metric's bound in BENCHMARK.json."""
    build()
    spec = load_json(SPEC, None)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    golden = load_json(GOLDEN, {})
    report = {}
    for workload in args.workloads or WORKLOADS:
        values = {}
        for i in range(args.steadiness):
            seed = args.seed + i
            record = run_binary(workload, seed, args.seconds, 0)
            attempted, failed = check(record, golden)
            out = result_line(record, spec, 0, attempted, failed)
            log(f"{workload} seed={seed} correct={out['correct']} " +
                " ".join(f"{k}={v['value']:.6g}"
                         for k, v in out["metrics"].items()))
            for k, v in out["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        report[workload] = {}
        for k, vs in values.items():
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else 0.0
            report[workload][k] = {
                "median": med, "q1": q1, "q3": q3, "min": min(vs),
                "max": max(vs), "spread": spread, "bound": bounds[k],
                "values": vs}
            print(f"{workload:12s} {k:20s} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} min={min(vs):<12.6g} "
                  f"max={max(vs):<12.6g} spread={spread:.4f} "
                  f"(bound {bounds[k]})", flush=True)
    print(json.dumps(report))
    return 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def cmd_write_golden(args):
    """Records the job fingerprints of one pass per seed."""
    build()
    golden = load_json(GOLDEN, {})
    for workload in args.workloads or WORKLOADS:
        for seed in parse_seeds(args.seeds):
            record = run_binary(workload, seed, 0, 0, args.size)
            bad = [j["key"] for j in record["jobs"] if j["ok"] != j["attempted"]]
            if bad:
                log(f"run.py: {workload} seed {seed}: failing jobs {bad}")
                return 1
            golden.setdefault(golden_key(record), {})[str(seed)] = {
                j["key"]: j["fingerprint"] for j in record["jobs"]}
            log(f"golden {golden_key(record)} seed {seed}")
            with open(GOLDEN, "w") as f:
                json.dump(golden, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


def cmd_self_test(args):
    """Smoke sizes of every workload, traced and untraced: names follow
    the metric-name rule, fingerprints match the smoke goldens, every
    per-layer metric is measured or listed with a reason, and the
    benchmark refuses to run where the library sources are missing."""
    build()
    spec = load_json(SPEC, None)
    golden = load_json(GOLDEN, {})
    problems = []
    exercised = set()
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.match(m["name"]):
            problems.append(f"bad metric name {m['name']}")
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                record = run_binary(workload, seed, 1, trace, "smoke")
                attempted, failed = check(record, golden)
                out = result_line(record, spec, trace, attempted, failed)
                tag = f"{workload} seed={seed} trace={trace}"
                if record["golden"] != "checked":
                    problems.append(f"{tag}: no smoke golden stored")
                if not out["correct"]:
                    problems.append(f"{tag}: {failed}/{attempted} jobs failed")
                for k in list(record["end_to_end"]) + list(record["per_layer"]):
                    if not NAME_RE.match(k):
                        problems.append(f"{tag}: bad metric name {k}")
                for k, why in record.get("not_exercised", {}).items():
                    if why == "not measured":
                        problems.append(f"{tag}: {k} missing, no reason")
                if trace:
                    exercised |= set(record["per_layer"])
                    exercised |= set(record["missing"])
                    if "trace.overhead_s" not in record["per_layer"]:
                        problems.append(f"{tag}: no tracing overhead")
                log(f"self-test {tag}: correct={out['correct']}")
    for m in spec["per_layer"]:
        if m["name"] not in exercised:
            problems.append(f"{m['name']} is measured by no workload")
    problems += refuses_without_sources()
    for p in problems:
        log("FAIL", p)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


def refuses_without_sources():
    """A copy holding only BENCHMARK.json and perfbench/ must exit
    non-zero without printing a result."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC, bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["ran without library sources"]
    return []


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--workloads", nargs="*", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--seeds", default="0-20")
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args()
    if args.self_test:
        return cmd_self_test(args)
    if args.steadiness:
        return cmd_steadiness(args)
    if args.write_golden:
        return cmd_write_golden(args)
    if not args.workload:
        p.error("--workload is required")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
