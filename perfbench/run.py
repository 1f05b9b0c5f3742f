#!/usr/bin/env python3
"""The QPPT repo benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the QPPT library plus the
benchmark binary, Release) under $CARGO_TARGET_DIR or .bench_build, runs the
workload, checks its outputs, and prints the result object as the last
line of stdout. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer ones (the traced run also
writes its spans to <build dir>/perfbench-out/trace-*.json). Exits non-zero
when any output was wrong, the run was invalid, or nothing could be built.

--workload all runs every workload in turn and prints each metric by name
with its unit; its last line maps each workload to its result object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no QPPT sources next to perfbench/ (expected src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def revision():
    """The git revision of the checkout, or 'unknown' outside a git tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def select_metrics(result, workload, trace, bench, predictions):
    """Keeps exactly the BENCHMARK.json metrics of this mode.

    A per-layer metric missing from the binary's output is 0 when
    predictions.json says the layer does no such work on this workload;
    a missing metric that applies, or any unknown metric, is an error.
    """
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in bench["end_to_end"]} - {
        m["name"] for m in bench["per_layer"]}
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(unknown)))
    out = {}
    for m in declared:
        name = m["name"]
        if name in got:
            if got[name]["unit"] != m["unit"]:
                fail("%s: unit %s, BENCHMARK.json says %s"
                     % (name, got[name]["unit"], m["unit"]))
            out[name] = got[name]
            continue
        applies = predictions["per_layer"].get(name, {}).get("applies", [])
        if not trace or workload in applies:
            fail("%s did not report %s" % (workload, name))
        out[name] = {"value": 0, "unit": m["unit"]}
    return out


def save(args, workload, result):
    if not args.save:
        return
    os.makedirs(args.save, exist_ok=True)
    path = os.path.join(args.save, "%s-seed%d-trace%d.json"
                        % (workload, args.seed, args.trace))
    with open(path, "w") as f:
        f.write(json.dumps(result) + "\n")


def run_one(binary, args, workload, seed, bench, predictions, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sf", str(args.sf), "--out-dir", out_dir]
    if args.slow_plan:
        cmd.append("--slow-plan")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("%s exited %d without a result" % (workload, proc.returncode))
    result["metrics"] = select_metrics(result, workload, args.trace == 1,
                                       bench, predictions)
    ok = proc.returncode == 0 and result["correct"]
    save(args, workload, result)
    return result, ok


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    predictions = load_json(os.path.join(HERE, "predictions.json"))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sf", type=float,
                   default=predictions["workloads"][names[0]]["scale_factor"],
                   help="SSB scale factor (smaller for quick checks)")
    p.add_argument("--slow-plan", action="store_true",
                   help="spin for 20%% of each planner call's time after it "
                        "(comparator self-check)")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one checked output; the run must fail")
    p.add_argument("--save", default="",
                   help="also write each result object to "
                        "SAVE/<workload>-seed<n>-trace<t>.json "
                        "(the input of compare.py)")
    args = p.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    out_dir = os.path.abspath(os.path.join(build_root, "perfbench-out"))
    binary = build(build_dir)
    os.makedirs(out_dir, exist_ok=True)
    print("run: nproc=%d build=Release revision=%s sf=%g seed=%d seconds=%g "
          "trace=%d" % (os.cpu_count() or 1, revision(), args.sf, args.seed,
                        args.seconds, args.trace))
    sys.stdout.flush()

    if args.workload != "all":
        result, ok = run_one(binary, args, args.workload, args.seed, bench,
                             predictions, out_dir)
        print(json.dumps(result))
        sys.exit(0 if ok else 1)

    results = {}
    all_ok = True
    for w in names:
        print("== " + w)
        sys.stdout.flush()
        result, ok = run_one(binary, args, w, args.seed, bench, predictions,
                             out_dir)
        all_ok = all_ok and ok
        for name, m in result["metrics"].items():
            print("%-14s %-28s %14.6g %s" % (w, name, m["value"], m["unit"]))
        print("%-14s correct=%s attempted=%d failed=%d"
              % (w, result["correct"], result["attempted"], result["failed"]))
        sys.stdout.flush()
        results[w] = result
    print(json.dumps(results))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
