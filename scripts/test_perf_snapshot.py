#!/usr/bin/env python3
"""Fixture check of perf_snapshot.py's append refusal.

Runs `perf_snapshot.py append` in a scratch directory against a
one-snapshot BENCH_engine.json with three rows:
  - a run at 0.50x / 0.60x / 0.95x of them (median 0.60x, the shape of
    a whole-host slowdown) must exit 1, name its two slowest rows and
    leave the file as it was;
  - a run at 0.80x / 0.90x / 1.00x (median 0.90x) must be appended;
  - a run sharing no row with the latest snapshot must be appended.

    python3 scripts/test_perf_snapshot.py
"""
import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "perf_snapshot.py")
BASE = {"BM_EngineA": 100.0, "BM_GraphB": 200.0, "BM_PickEscaping": 50.0}


def micro(scale):
    return {"context": {"num_cpus": 4},
            "benchmarks": [{"name": name, "real_time": 1.0,
                            "cpu_time": 1.0,
                            "items_per_second": BASE.get(name, 1.0) * f}
                           for name, f in scale.items()]}


def append(workdir, label, scale):
    path = os.path.join(workdir, label + ".json")
    with open(path, "w") as f:
        json.dump(micro(scale), f)
    scaling = os.path.join(workdir, "scaling.json")
    with open(scaling, "w") as f:
        json.dump({"rows": []}, f)
    return subprocess.run([sys.executable, SCRIPT, "append", label, path,
                           scaling], cwd=workdir, capture_output=True,
                          text=True)


def main():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as workdir:
        bench = os.path.join(workdir, "BENCH_engine.json")
        with open(bench, "w") as f:
            json.dump({"snapshots": [{
                "label": "base", "date": "2026-01-01",
                "bench_micro": [{"name": n, "items_per_second": v}
                                for n, v in BASE.items()]}]}, f)
        with open(bench) as f:
            before = f.read()

        slow = append(workdir, "slow", {"BM_EngineA": 0.5, "BM_GraphB": 0.6,
                                        "BM_PickEscaping": 0.95})
        expect(slow.returncode == 1, f"slow run exit {slow.returncode}")
        expect("0.60x" in slow.stdout, "slow run does not give its median")
        expect("BM_EngineA: 0.50x" in slow.stdout and
               "BM_GraphB: 0.60x" in slow.stdout,
               "slow run does not name its slowest rows")
        with open(bench) as f:
            expect(f.read() == before, "refused run changed the file")

        ok = append(workdir, "ok", {"BM_EngineA": 0.8, "BM_GraphB": 0.9,
                                    "BM_PickEscaping": 1.0})
        expect(ok.returncode == 0, f"ok run exit {ok.returncode}")
        disjoint = append(workdir, "new_rows", {"BM_GraphNew": 0.1})
        expect(disjoint.returncode == 0,
               f"disjoint run exit {disjoint.returncode}")
        with open(bench) as f:
            labels = [s["label"] for s in json.load(f)["snapshots"]]
        expect(labels == ["base", "ok", "new_rows"],
               f"snapshots after the runs: {labels}")
        if failures:
            print(slow.stdout, ok.stdout, disjoint.stdout, sep="\n")

    for what in failures:
        print("FAILED:", what)
    if failures:
        sys.exit(1)
    print("perf_snapshot append refusal: ok")


if __name__ == "__main__":
    main()
