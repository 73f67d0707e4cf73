#!/usr/bin/env python3
"""Repo benchmark: build the jbench program from source, run one workload,
check its outputs, print one JSON result line.

    python3 perfbench/run.py --workload fig12-jungle --seed 1 --seconds 20 \
        --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (from a traced run plus layer probes). The last stdout
line is {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig12-jungle", "sharded-ring", "explore-triple")
MAX_SEED = 10**18 - 1
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be in [0, {MAX_SEED}]")
    if not (math.isfinite(args.seconds) and 0 < args.seconds <= 600):
        parser.error("--seconds must be in (0, 600]")
    return args


def threads():
    """JUNGLE_THREADS for the run: the host's cores, at most 4."""
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configure and build jbench; returns the binary's path."""
    if not (ROOT / "src" / "amuse" / "experiment.hpp").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", str(threads())],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    binary = build_dir / "jbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_jbench(binary, workload, seed, seconds, trace, env_threads=None):
    """Run jbench; returns (parsed last JSON line, stdout text)."""
    env = dict(os.environ)
    env["JUNGLE_THREADS"] = str(env_threads or threads())
    env.setdefault("JUNGLE_LOG", "error")
    cmd = [str(binary), "--workload", workload,
           "--ini", str(HERE / "workloads" / f"{workload}.ini"),
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"jbench did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"jbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("jbench printed nothing")
    return json.loads(lines[-1]), done.stdout


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


# Simulated processes that may outlive a run: the AMUSE daemon, its receive
# pump and the IPL registry services. Every other process (workers, job
# proxies, supervisors, RPC pumps, MPI ranks, the coupling script) belongs to
# a model and must have exited when run_experiment returns.
IDLE_SERVICES = frozenset({"amuse-daemon", "ibis-pump:amuse-daemon",
                           "ipl-registry", "ipl-registry-member"})


def leaked_processes(names):
    """The "host/process" names in `names` that are not idle services."""
    return sorted(name for name in names
                  if name.split("/", 1)[-1] not in IDLE_SERVICES)


def check_energies(workload, energies):
    """Final energies against the committed reference, within its stated
    relative tolerance (physical, not bit-exact). Returns error strings."""
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    tolerance = reference["energy_rel_tol"]
    errors = []
    for model, expected in reference["energies"].items():
        got = energies.get(model)
        if got is None:
            errors.append(f"no final energy for model {model}")
        elif not abs(got - expected) <= tolerance * abs(expected):
            errors.append(f"energy of {model}: {got!r} vs reference "
                          f"{expected!r} (rel tol {tolerance})")
    return errors


def main(argv):
    args = parse_args(argv)
    binary = build()
    out, text = run_jbench(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write("".join(line + "\n" for line in text.splitlines()[:-1]))

    errors = list(out["errors"])
    errors += check_energies(args.workload, out["energies"])
    leaked = leaked_processes(out["live_processes"])
    if leaked:
        errors.append("simulated processes outlived a run: " +
                      ", ".join(leaked))
    declared = declared_metrics(args.trace)
    metrics = {}
    for name, unit in declared.items():
        metric = out["metrics"].get(name)
        if metric is None or metric["value"] is None:
            errors.append(f"metric {name} missing or not finite")
            continue
        if metric["unit"] != unit:
            errors.append(f"metric {name} in {metric['unit']}, declared "
                          f"{unit}")
        metrics[name] = {"value": metric["value"], "unit": unit}
    extra = sorted(set(out["metrics"]) - set(declared))
    if extra:
        errors.append("undeclared metrics: " + ", ".join(extra))

    print(f"# workload={args.workload} seed={args.seed} "
          f"threads={out['threads']} isa={out['isa']}")
    print("# energies " + json.dumps(out["energies"], sort_keys=True))
    for error in errors:
        print(f"# ERROR {error}")
    print(json.dumps({"correct": not errors, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
