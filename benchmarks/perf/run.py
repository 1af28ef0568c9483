"""The repo's perf benchmark: five fixed workloads, end to end and per layer.

Two ways in, one measurement:

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One *run* of one workload in this process (the form ``BENCHMARK.json``
    names).  Prints every metric with its unit and, as the last line of
    standard output, one JSON object ``{"correct", "attempted", "failed",
    "metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1`` (which also writes
    ``benchmarks/perf/out/trace_<workload>.jsonl``).  Runs of this form are
    compared across seeds, so ``--seed`` redraws only the tail of the
    recorded day ``--day`` (default 1).  Exits non-zero, without a result
    line, when the program under test cannot be imported.

``python3 benchmarks/perf/run.py [--seed 1] [--repeats 9] [--workload NAME] [--smoke]``
    The whole protocol: every (workload, repeat) in its own subprocess of
    the form above, repeats round-robin interleaved, then one traced round;
    reduces the repeats, prints every metric by name, runs the checks,
    writes ``benchmarks/perf/out/latest.json`` and exits non-zero if a
    check failed.  Here ``--seed`` is the workload seed handed to
    ``generate_scenario`` (it is the children's ``--day``): two sets are
    only ever compared on the same seed, by ``compare.py``.

See README.md in this directory for the protocol and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: The protocol's runs are shorter than the driver's single run
#: (``run_seconds``): it takes the best of ``--repeats`` of them.
REPEAT_SECONDS = 10.0

#: Above this the traced pass no longer stands for the untraced one.  It is
#: also the noise_share above which the traced run cannot tell.
MAX_TRACE_OVERHEAD = 0.10


def environment() -> dict:
    """Where the numbers came from (no import from sibling bench scripts)."""
    import numpy
    import scipy

    from repro.network import kernels

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": kernels.numba_version(), "cpu_count": os.cpu_count(),
            "kernel_backend": kernels.kernel_backend(),
            "platform": platform.platform()}


# --------------------------------------------------------------------------- #
# one run, in this process
# --------------------------------------------------------------------------- #
def single_run(args) -> int:
    sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE)]
    from perf_workloads import measure

    run = measure(args.workload, args.day, args.seed, args.seconds, bool(args.trace),
                  args.smoke)
    expected = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(run.metrics) != sorted(expected):
        run.failures.append(f"metrics emitted {sorted(set(run.metrics) ^ set(expected))} "
                            "disagree with BENCHMARK.json")
    if args.trace:
        from perf_trace import write_jsonl

        OUT_DIR.mkdir(exist_ok=True)
        write_jsonl(run.spans, OUT_DIR / f"trace_{args.workload}.jsonl")
    for name in expected:
        metric = run.metrics.get(name)
        if metric is not None:
            print(f"{args.workload:15s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in run.failures:
        print(f"CHECK FAILED [{args.workload}]: {failure}")
    print("detail " + json.dumps(run.detail))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0


# --------------------------------------------------------------------------- #
# the whole protocol
# --------------------------------------------------------------------------- #
def _child(workload: str, args, trace: int) -> dict:
    """One (workload, repeat) in its own process: fresh caches, own RSS."""
    # The traced run splits its time between untraced and traced passes.
    seconds = args.seconds * (2 if trace else 1)
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--day", str(args.day), "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(command, cwd=REPO_ROOT, text=True, capture_output=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"}, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run of {workload} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return {"result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2].removeprefix("detail "))}


def reduce_repeats(spec: dict, runs: list[dict]) -> dict[str, dict]:
    """Best timing over repeats, median memory, first value of the rest."""
    from compare import CLOCKED

    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        if name in CLOCKED:
            value = max(values) if metric["better"] == "higher" else min(values)
        elif name == "peak_rss_mb":
            value = statistics.median(values)
        else:
            value = values[0]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def full_protocol(args) -> int:
    sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE)]
    from perf_workloads import INEXACT_COUNTS, WORKLOADS, noise_share

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        # Round-robin: a slow minute on the host hits every workload once.
        for name in names:
            runs[name].append(_child(name, args, trace=0))
            print(f"repeat {repeat + 1}/{args.repeats} {name}: walls "
                  + " ".join(f"{w:.2f}" for w in runs[name][-1]["detail"]["walls_s"]),
                  flush=True)
    report = {"claim": None, "seed": args.seed, "day": args.day, "repeats": args.repeats,
              "seconds": args.seconds, "smoke": args.smoke,
              "environment": environment(), "workloads": {}}
    failed = False
    for name in names:
        traced = _child(name, args, trace=1)
        details = [run["detail"] for run in runs[name]] + [traced["detail"]]
        checks = [failure for detail in details for failure in detail["failures"]]
        for key in ("fingerprint", "exact", "mean_xdt_s", "failed_share"):
            if any(detail[key] != details[0][key] for detail in details):
                checks.append(f"{key} differs between repeats or under tracing")
        end_to_end = reduce_repeats(SPEC, runs[name])
        # Outcomes repeat exactly, so two sets on one seed compare without
        # noise; compare.py gates these two beside the clocked metrics.
        end_to_end["mean_xdt_s"] = {"value": details[0]["mean_xdt_s"], "unit": "s"}
        end_to_end["failed_share"] = {"value": details[0]["failed_share"], "unit": "ratio"}
        per_layer = traced["result"]["metrics"]
        overhead = per_layer["trace.overhead_share"]["value"]
        over = overhead > MAX_TRACE_OVERHEAD
        unresolved = over and per_layer["trace.noise_share"]["value"] > MAX_TRACE_OVERHEAD
        if over and not unresolved:
            checks.append(f"tracing slowed the pass by {overhead:.1%} "
                          f"(limit {MAX_TRACE_OVERHEAD:.0%}): layer shares are distorted")
        for metric, body in per_layer.items():
            if body["unit"] in ("count", "ratio") and metric not in INEXACT_COUNTS:
                body["exact"] = True
        checks.extend(f"{metric} is NaN"
                      for metric, body in (end_to_end | per_layer).items()
                      if math.isnan(body["value"]))
        walls = [min(detail["walls_s"]) for detail in details[:-1]]
        entry = {
            "definition": WORKLOADS[name].definition(),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "fingerprint": details[0]["fingerprint"],
            "windows": details[0]["windows"],
            "passes": sum(detail["passes"] for detail in details[:-1]),
            "noise_share": noise_share(walls),
            "trace_overhead_share": overhead,
            "checks_failed": checks,
            "runs": [run["result"]["metrics"] for run in runs[name]],
        }
        report["workloads"][name] = entry
        failed = failed or bool(checks)
        print(f"\n== {name}: {WORKLOADS[name].why}")
        print(f"   fingerprint {entry['fingerprint'][:16]}  windows {entry['windows']}  "
              f"passes {entry['passes']}  noise_share {entry['noise_share']:.3f}  "
              f"trace_overhead_share {entry['trace_overhead_share']:.3f}"
              + (" (unresolved: the traced run's passes were not settled)"
                 if unresolved else ""))
        for section in ("end_to_end", "per_layer"):
            for metric, body in entry[section].items():
                print(f"   {metric:34s} {body['value']:>16.6g} {body['unit']}")
        for check in checks:
            print(f"   CHECK FAILED: {check}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "latest.json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"\nwrote {OUT_DIR / 'latest.json'}; checks "
          f"{'FAILED' if failed else 'passed'}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1,
                        help="one run: redraws the arrival times of the day's last "
                             "minutes; whole protocol: the seed of the day as well")
    parser.add_argument("--day", type=int,
                        help="seed handed to generate_scenario (one run: 1)")
    parser.add_argument("--seconds", type=float,
                        help="how long one run replays its workload (one run: "
                             "BENCHMARK.json's run_seconds; whole protocol: "
                             f"{REPEAT_SECONDS:.0f} a repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process: 0 timed, 1 traced")
    parser.add_argument("--repeats", type=int, default=9,
                        help="subprocess runs per workload (whole protocol; min 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="6-minute horizons, one repeat, one pass")
    args = parser.parse_args()
    if args.smoke:
        args.seconds, args.repeats = 0.0, 1
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.day is None:
            args.day = 1    # runs of this form are compared across seeds: one day
        if args.seconds is None:
            args.seconds = float(SPEC["run_seconds"])
        return single_run(args)
    if args.repeats < 3 and not args.smoke:
        parser.error("--repeats must be at least 3")
    if args.day is None:
        args.day = args.seed
    if args.seconds is None:
        args.seconds = REPEAT_SECONDS
    return full_protocol(args)


if __name__ == "__main__":
    sys.exit(main())
