"""lfbp benchmark: one workload per invocation, one process, no worker pool.

    python3 bench/run.py --workload grid_multi --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  ``--trace 0`` measures the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` measures the per-layer metrics from a traced
run.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of the run, spans included for traced runs, goes to
``bench/out/``.  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the checkout or the arguments are unusable.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from timing import ELASTICITY, NOMINAL_CAL_S, calibration_seconds, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9

# Set-up as a user pays it, in a fresh interpreter: import the package, then
# load and validate the workload's scenario.  Prints its own CPU seconds.
SETUP_CHILD = """
import resource, sys
def cpu():
    u = resource.getrusage(resource.RUSAGE_SELF)
    return u.ru_utime + u.ru_stime
t0 = cpu()
sys.path.insert(0, sys.argv[1])
import lfbp
from lfbp import cli
cli.load_scenario(sys.argv[2])
print(repr(cpu() - t0))
"""


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def measure_setup(scenario: Path) -> tuple[float, list[float]]:
    """Median over fresh interpreters of the scaled set-up CPU time."""
    runs = []
    for _ in range(SETUP_REPEATS):
        before = calibration_seconds()
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(scenario)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        after = calibration_seconds()
        runs.append(scaled(float(done.stdout.strip().splitlines()[-1]), before, after))
    return statistics.median(runs), runs


def manifest(args, workload) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "lfbp").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scn"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())

    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": asdict(workload),
        "nominal_calibration_s": NOMINAL_CAL_S,
        "calibration_elasticity": ELASTICITY,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lfbp benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lfbp" / "__init__.py").is_file():
        return fail(f"no lfbp package at {SRC / 'lfbp'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import lfbp

    if Path(lfbp.__file__).resolve().parent != (SRC / "lfbp").resolve():
        return fail(f"imported lfbp from {lfbp.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None or args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    scenario = workloads.scenario_path(SRC, workload.slot)
    record = {"manifest": manifest(args, workload)}
    print("manifest " + json.dumps(record["manifest"], default=str))

    if args.trace:
        result = workloads.trace(workload, scenario, args.seed, OUT)
        wanted = spec["per_layer"]
        record.update(
            layers_s=result["layers"], accounting=result["accounting"], spans=result["spans"],
            horizon=result["horizon"], sim_seed=result["sim_seed"],
        )
        for layer, secs in result["layers"].items():
            print(f"self time  {layer:<10} {secs:10.4f} s")
        acct = result["accounting"]
        print(
            "accounting untraced {untraced_wall_s:.4f} s = span self {span_self_s:.4f} s"
            " + residual {residual_s:.4f} s - tracing overhead {overhead_s:.4f} s".format(**acct)
        )
    else:
        setup_s, setup_runs = measure_setup(scenario)
        config = lfbp.cli.load_scenario(scenario)
        result = workloads.measure(workload, config, args.seed, args.seconds, OUT)
        result["values"]["setup_s"] = setup_s
        result["notes"]["setup_s"] = f"median of {SETUP_REPEATS} fresh interpreters: import lfbp + load {scenario.name}"
        result["values"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["notes"]["peak_rss_mb"] = "ru_maxrss of this process"
        wanted = spec["end_to_end"]
        record.update(notes=result["notes"], digests=result["digests"], setup_runs_s=setup_runs)
        for name, digest in result["digests"].items():
            print(f"sha256 {name:<13} {digest}")

    ledger = result["ledger"]
    metrics = {}
    for m in wanted:
        if m["name"] in result["values"]:
            value = result["values"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            note = result.get("notes", {}).get(m["name"], "")
            print(f"{m['name']:<44} {value!r:>24} {m['unit']:<10} {note}")
        else:
            ledger.record(f"metric {m['name']}", ["not measured"])
    print(f"ops_attempted {ledger.attempted}")
    print(f"ops_failed {ledger.failed}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = ledger.failed == 0
    summary = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    record.update(summary, failures=ledger.failures)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
