"""hermwalk benchmark: one workload, timed in process, answers checked.

    python3 bench/run.py --workload analyze-corpus --seed 1 --seconds 30 --trace 0

Workloads: analyze-corpus, transfer-cli, universal-pgst (see bench/README.md).
The run imports hermwalk from src/ next to this directory, builds the
workload's inputs from --seed, times repeated passes over its operations,
checks every answer independently, and prints each metric by name and unit.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 1 the run also wraps each
layer's public functions and prints per-layer metrics instead of the
end-to-end ones.
"""

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_TRIALS = 5
PASSES = 5  # timed repetitions of every operation; latency is their median
TRACE_SCHEDULE = (False, True) * 3  # untraced and traced passes, interleaved

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def import_fresh():
    """Import hermwalk (and its CLI module) from scratch."""
    for name in [m for m in sys.modules if m == "hermwalk" or m.startswith("hermwalk.")]:
        del sys.modules[name]
    hw = importlib.import_module("hermwalk")
    importlib.import_module("hermwalk.cli")
    return hw


def setup(build, seed: int, workdir: Path, rounds: int):
    """Import hermwalk and generate the inputs, SETUP_TRIALS times; the last
    trial's module and inputs are used, and the median time is setup_s."""
    times = []
    for _ in range(SETUP_TRIALS):
        start = perf_counter()
        hw = import_fresh()
        plan = build(np.random.default_rng(seed), workdir, rounds)
        times.append(perf_counter() - start)
    return hw, plan, statistics.median(times)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from tracing import PER_LAYER, Tracer
    from workloads import ROUND_SECONDS, WORKLOADS

    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        hw, plan, setup_s = setup(WORKLOADS[workload], seed, workdir, rounds)
        gc.collect()
        gc.freeze()
        plan.warmup(hw)

        tracer = Tracer()
        schedule = TRACE_SCHEDULE if trace else (False,) * PASSES
        latencies = {False: [], True: []}
        shared = {False: [], True: []}
        passes_out = []
        for traced in schedule:
            if traced:
                tracer.install()
            try:
                lat, sh, out = plan.run_pass(hw, tracer.mark if traced else lambda op: None)
            finally:
                tracer.uninstall()
            latencies[traced].append(lat)
            shared[traced].append(sh)
            passes_out.append(out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        from checks import WRONG  # imports scipy, so only after the timed phase

        problems = plan.check(passes_out[0])
        for i, first in enumerate(passes_out[0]):
            if any(out[i] != first for out in passes_out[1:]):
                problems[i] = problems[i] + [(WRONG, "output differs between repetitions")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = plan.names
    wrong = [i for i, p in enumerate(problems) if any(kind == WRONG for kind, _ in p)]
    failed = [i for i, p in enumerate(problems) if p]
    for i in failed:
        for kind, msg in problems[i]:
            print(f"  {'FAILED' if i not in wrong else 'WRONG '} {names[i]}: {msg}")

    def throughput(traced: bool) -> tuple[float, list[float]]:
        medians = [statistics.median(x) for x in zip(*latencies[traced])]
        timed = sum(medians) + statistics.median(shared[traced])
        return (len(names) - len(failed)) / timed, medians

    if trace:
        traced_rate, _ = throughput(True)
        untraced_rate, _ = throughput(False)
        layer = tracer.layer_metrics(schedule.count(True))
        layer["trace.ops_per_s"] = traced_rate
        layer["trace.untraced_ops_per_s"] = untraced_rate
        layer["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload}-seed{seed}.json")
    else:
        rate, medians = throughput(False)
        values = {
            "setup_s": setup_s,
            "ops_per_s": rate,
            "op_p50_ms": 1e3 * float(np.percentile(medians, 50)),
            "op_p90_ms": 1e3 * float(np.percentile(medians, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    print(
        f"workload {workload}: seed {seed}, {rounds} round(s), {len(schedule)} passes"
        f"{' (traced and untraced)' if trace else ''}; attempted {len(names)}, failed {len(failed)}"
    )
    pass_s = [sum(lat) + sh for lat, sh in zip(latencies[False] + latencies[True], shared[False] + shared[True])]
    print("  timed seconds per pass: " + " ".join(f"{s:.3f}" for s in pass_s))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    return {"correct": not wrong, "attempted": len(names), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["analyze-corpus", "transfer-cli", "universal-pgst"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hermwalk" / "__init__.py").is_file():
        print(f"error: no hermwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
