#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--record FILE]
    python3 perfbench/run.py --self-test

Run from the repository root. The first form builds `perfbench` (a cargo
package of its own, linked against the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload (or,
with `--workload all`, each in turn), prints a
provenance line and every metric with its unit and direction, and ends
with the benchmark's one-line JSON result. With `--record FILE` it also
appends the result and its provenance to FILE as one JSON line, which
`perfbench/compare.py` reads. The exit code is 0 only when a result was
produced and it carries exactly the metrics BENCHMARK.json declares.

`--self-test` runs every workload at toy size, checks that every declared
metric is emitted with its declared unit and a direction, and that a
deliberately corrupted label vector is counted as a failed instance.
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def run_binary(binary, args):
    """Runs the benchmark binary; returns its parsed result line."""
    try:
        done = subprocess.run(
            [str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode} and no result")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"last output line is not JSON: {lines[-1][:200]}")


def declared(spec, trace):
    """name -> (unit, better) of the metrics a run in this mode must emit."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: (m["unit"], m["better"]) for m in group}


def validate(result, spec, trace):
    """Problems with a result's shape against BENCHMARK.json (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = declared(spec, trace)
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not declared in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name][0]:
            problems.append(f"metric {name} unit {got[name].get('unit')!r}, declared {want[name][0]!r}")
        if not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
        if want[name][1] not in ("lower", "higher"):
            problems.append(f"metric {name} has no direction")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def provenance(args, workload):
    """Where and from what a result came: commit, host, toolchain, seed."""
    toplevel = command_output(["git", "rev-parse", "--show-toplevel"])
    in_repo = toplevel and Path(toplevel).resolve() == ROOT
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) if in_repo else "unknown",
        "git_dirty": bool(command_output(["git", "status", "--porcelain"])) if in_repo else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "rustc": command_output(["rustc", "--version"]),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_table(result, spec, trace):
    want = declared(spec, trace)
    print(f"# correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, (unit, better) in want.items():
        value = result["metrics"][name]["value"]
        print(f"# {name:<44} {value:>18.6g} {unit:<6} ({better} is better)")


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    binary = build()
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_binary(
            binary,
            ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
        )
        problems = validate(result, spec, args.trace == 1)
        if problems:
            fail(f"{workload}: " + "; ".join(problems))
        prov = provenance(args, workload)
        print("# provenance " + json.dumps(prov, sort_keys=True))
        print_table(result, spec, args.trace == 1)
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({"provenance": prov, "result": result}, sort_keys=True) + "\n")
        print(json.dumps(result))


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_problems(spec):
    """Checks BENCHMARK.json against the limits its format sets."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs exactly a one-line why of <= 200 chars")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m['name']}: keys or bound")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m['name']}: keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: unit or direction")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("workload or end_to_end count out of range")
    if not 1 <= len(spec["per_layer"]) <= 128 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("per_layer count or run_seconds out of range")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be declared in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def self_test():
    spec = load_spec()
    problems = spec_problems(spec)
    binary = build()
    for w in (w["name"] for w in spec["workloads"]):
        base = ["--workload", w, "--seed", "3", "--seconds", "0.3", "--toy"]
        for trace in (0, 1):
            result = run_binary(binary, base + ["--trace", str(trace)])
            problems += [f"{w} trace {trace}: {p}" for p in validate(result, spec, trace == 1)]
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{w} trace {trace}: a clean toy run reported failures")
        bad = run_binary(binary, base + ["--trace", "0", "--corrupt-labels"])
        passed = bad.get("metrics", {}).get("passed_frac", {}).get("value")
        if bad.get("correct") or bad.get("failed") != bad.get("attempted") or passed != 0:
            problems.append(f"{w}: a corrupted label vector was not counted as a failure")
        print(f"self-test: {w} checked", file=sys.stderr)
    for p in problems:
        print(f"self-test: FAIL {p}")
    print("self-test: " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append result + provenance to this JSONL file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    run(args)


if __name__ == "__main__":
    main()
