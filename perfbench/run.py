"""Campaign benchmark: end-to-end and per-layer metrics of ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_rect --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of the traced run.
``--repeat N`` is the steadiness report: it runs the benchmark N times
(seeds ``seed .. seed+N-1``) and prints, per metric, the median and the
run-to-run spread (quartile distance over median) next to the host's
calibration time.

Method.  ``--seed`` shuffles the workload's stored nest pool into an
input file before any timing.  Then fresh sample processes
(``sample.py``) run one at a time, each with the inline executor, one
job, ``PYTHONHASHSEED=0`` and no ``REPRO_*`` variable, until
``--seconds`` have passed.  Every time is reported in calibrated
seconds (see ``calib.py``); a metric is the median over the samples,
and group latencies are pooled over all of them.  Each pass's stored
records are checked against the reference values in ``expected/``.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from calib import calibrate
from workloads import STEADY_PASSES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLE = os.path.join(HERE, "sample.py")
WORK_ROOT = ".perfbench_work"

MIN_SAMPLES = 3
#: no sample starts later than this into a run, and none may take
#: longer than SAMPLE_TIMEOUT_S, so a run ends within three minutes
LAST_START_S = 90.0
SAMPLE_TIMEOUT_S = 60.0

#: compile-side layers: busy on a cold workload, idle on a steady one
COMPILE_LAYERS = (
    "ir.parse", "ir.schedule", "ir.legality", "alignment.step1",
    "alignment.step2", "codegen", "baselines", "campaign.compile",
)
#: layers busy on every workload
PRICE_LAYERS = (
    "runtime.extract", "runtime.price", "campaign.store", "campaign.runner",
)
PRICE_ENTRIES = ("repro.runtime.execute", "repro.runtime.execute_group")
RESIDUAL_KINDS = ("translation", "macro", "decomposed", "general")


class BenchError(Exception):
    """A run that cannot give a valid result."""


def quantile_spread(values):
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# inputs and sample processes
# ---------------------------------------------------------------------------


def load_pool(workload):
    with open(os.path.join(HERE, "expected", f"{workload}.json")) as fh:
        return json.load(fh)


def write_inputs(workload, seed, pool, path):
    nests = list(pool["nests"])
    random.Random(seed).shuffle(nests)
    steady = WORKLOADS[workload]["steady"]
    inputs = {
        "steady": steady,
        "passes": STEADY_PASSES if steady else 1,
        "grid": pool["grid"],
        "nests": nests,
    }
    with open(path, "w") as fh:
        json.dump(inputs, fh)


def sample_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    # one job: keep the BLAS pools single-threaded too
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_sample(work, index, traced):
    out = os.path.join(work, f"sample-{index}.json")
    prefix = os.path.join(work, f"s{index}")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable, SAMPLE, os.path.join(work, "inputs.json"),
                out, prefix, repr(t_spawn), "1" if traced else "0",
            ],
            env=sample_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample {index} ran over {SAMPLE_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(
            f"sample {index} exited with {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    with open(out) as fh:
        sample = json.load(fh)
    sample["traced"] = traced
    sample["stores"] = sorted(
        os.path.join(work, f)
        for f in os.listdir(work)
        if f.startswith(f"s{index}-") and f.endswith(".jsonl")
    )
    return sample


def collect_samples(work, seconds, trace):
    """Fresh sample processes, one at a time, until ``seconds`` passed.
    A traced run alternates untraced and traced samples."""
    t0 = time.monotonic()
    samples = []
    while True:
        elapsed = time.monotonic() - t0
        enough = len(samples) >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES)
        if (enough and elapsed >= seconds) or elapsed >= LAST_START_S:
            break
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(work, len(samples), traced))
    return samples


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def task_key(record):
    mesh = "x".join(str(d) for d in record["mesh"])
    return f"{record['workload']}|{record['machine']}|{mesh}"


def check_outputs(samples, expected):
    """Check every stored record against the reference values.

    Returns ``(attempted, matched, digests, ratios, counts)``: tasks
    attempted, tasks ``ok`` with all four values equal to the
    reference, the distinct record digests seen (one when every pass
    wrote identical records), ``baseline_time / total_time`` per task
    of one pass, and the heuristic's residual counts per nest."""
    attempted = matched = 0
    digests = set()
    records = []
    for sample in samples:
        for path in sample["stores"]:
            with open(path) as fh:
                lines = [json.loads(line) for line in fh if line.strip()]
            records = [r for r in lines if r.get("record") == "result"]
            attempted += len(expected)
            matched += len({
                task_key(r)
                for r in records
                if r.get("status") == "ok"
                and expected.get(task_key(r)) == [
                    r.get("total_time"), r.get("baseline_time"),
                    r.get("total_messages"), r.get("total_volume"),
                ]
            })
            stable = []
            for r in records:
                r = {k: v for k, v in r.items() if k not in ("seconds", "attempts")}
                stable.append(json.dumps(r, sort_keys=True))
            digests.add("\n".join(stable))
    # every store is identical when ``digests`` has one entry, so the
    # last one stands for all
    ratios = [
        r["baseline_time"] / r["total_time"]
        for r in records
        if r.get("total_time", 0) > 0 and r.get("baseline_time", 0) > 0
    ]
    counts = {r["workload"]: r.get("counts", {}) for r in records}
    return attempted, matched, digests, ratios, counts


# ---------------------------------------------------------------------------
# calibrated metrics
# ---------------------------------------------------------------------------


def calibrated_pass(p):
    """``(wall, group latencies)`` of one pass in calibrated seconds.
    Each group is scaled by the mean of the calibration readings taken
    just before and just after it."""
    lat = [calibrate(raw, (cb + ca) / 2) for raw, cb, ca in p["groups"]]
    tail = calibrate(p["tail_s"], p["groups"][-1][2])
    return sum(lat) + tail, lat


def cal_readings(sample):
    vals = list(sample["setup"]["cal"])
    for p in sample["passes"]:
        vals.extend(ca for _, _, ca in p["groups"])
    return vals


def end_to_end(samples):
    rates, groups, setups, rss = [], [], [], []
    for s in samples:
        walls, tasks = 0.0, 0
        for p in s["passes"]:
            wall, lat = calibrated_pass(p)
            walls += wall
            tasks += p["tasks"]
            groups.extend(lat)
        rates.append(tasks / walls)
        setup = s["setup"]
        setups.append(calibrate(setup["raw_s"], statistics.mean(setup["cal"])))
        rss.append(s["peak_rss_kb"] / 1024.0)
    deciles = statistics.quantiles(groups, n=10)
    return {
        "tasks_per_s": statistics.median(rates),
        "group_p50_ms": statistics.median(groups) * 1e3,
        "group_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }, len(groups)


def per_layer(workload, samples, counts):
    """Per-layer metrics of the traced samples, after the self-checks."""
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    rows = []  # one dict of metrics per traced pass
    for s in traced:
        for k, p in enumerate(s["passes"]):
            lay = p["layers"]
            check_layers(workload, lay, k)
            cal = statistics.median(ca for _, _, ca in p["groups"])
            wall = lay["total_s"]["campaign.runner"] - lay["total_s"]["host"]
            row = {}
            for layer, calls in lay["calls"].items():
                if layer == "host":
                    continue
                row[f"{layer}.calls"] = calls
                row[f"{layer}.self_ms"] = calibrate(lay["self_s"][layer], cal) * 1e3
                if layer != "campaign.runner":
                    row[f"{layer}.share"] = lay["self_s"][layer] / wall
            c = lay["counters"]
            row["campaign.runner.unattributed_share"] = (
                lay["self_s"]["campaign.runner"] / wall
            )
            row["ir.schedule.dependence_hit_ratio"] = ratio(
                c["dependence_hits"],
                c["dependence_hits"] + c["dependence_misses"],
            )
            row["linalg.cache_hit_ratio"] = ratio(
                c["linalg_hits"], c["linalg_hits"] + c["linalg_misses"]
            )
            row["linalg.cache_misses"] = c["linalg_misses"]
            row["machine.routes.route_hit_ratio"] = ratio(
                c["routes_hits"], c["routes_hits"] + c["routes_misses"]
            )
            row["campaign.compile.compile_hit_ratio"] = ratio(
                p["compile_hits"], p["compile_hits"] + p["compile_misses"]
            )
            row["campaign.compile.baseline_hit_ratio"] = ratio(
                p["baseline_hits"], p["baseline_hits"] + p["baseline_misses"]
            )
            row["runtime.extract.events"] = lay["events"]
            row["runtime.price.cells_per_call"] = ratio(
                lay["price_cells"], lay["calls"]["runtime.price"]
            )
            rows.append(row)
    metrics = {
        name: statistics.median(row[name] for row in rows) for name in rows[0]
    }
    for kind in RESIDUAL_KINDS:
        metrics[f"alignment.step2.{kind}"] = sum(
            c.get(kind, 0) for c in counts.values()
        )

    def wall_of(group):
        return statistics.median(
            calibrated_pass(p)[0] for s in group for p in s["passes"]
        )

    metrics["trace.overhead_ratio"] = wall_of(traced) / wall_of(plain)
    cals = [c for s in samples for c in cal_readings(s)]
    metrics["host.cal_ms"] = statistics.median(cals) * 1e3
    metrics["host.cal_spread"] = quantile_spread(cals)
    return metrics


def check_layers(workload, lay, k):
    calls = lay["calls"]
    steady = WORKLOADS[workload]["steady"]
    required = PRICE_LAYERS + (() if steady else COMPILE_LAYERS)
    idle = [name for name in required if calls[name] < 1]
    if idle:
        raise BenchError(f"traced pass {k}: no calls in layers {idle}")
    if steady:
        busy = [name for name in COMPILE_LAYERS if calls[name]]
        if busy:
            raise BenchError(
                f"steady traced pass {k}: compile layers called: {busy}"
            )
    entry = lay["entry_calls"]
    used = WORKLOADS[workload]["pricing"]
    other = next(name for name in PRICE_ENTRIES if name != used)
    if entry[other] or not entry[used]:
        raise BenchError(
            f"{workload} traced pass {k}: priced through {used} "
            f"{entry[used]} times and {other} {entry[other]} times; "
            f"expected only {used}"
        )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "group_p50_ms": "ms",
    "group_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "feautrier_ratio_geomean": "ratio",
}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "_ratio", "_spread")):
        return "ratio"
    if name.endswith("cells_per_call"):
        return "cells/call"
    return "count"


def measure(workload, seed, seconds, trace, work):
    """One benchmark run: ``(result object to print, run facts)``."""
    pool = load_pool(workload)
    write_inputs(workload, seed, pool, os.path.join(work, "inputs.json"))
    samples = collect_samples(work, seconds, trace)
    expected = pool["expected"]
    attempted, matched, digests, ratios, counts = check_outputs(
        samples, expected
    )
    cals = [c for s in samples for c in cal_readings(s)]
    info = {"samples": len(samples), "cal_ms": statistics.median(cals) * 1e3}
    if trace:
        values = per_layer(workload, samples, counts)
        units = {name: layer_unit(name) for name in values}
    else:
        values, info["groups"] = end_to_end(samples)
        values["ok_share"] = matched / attempted
        values["feautrier_ratio_geomean"] = math.exp(
            statistics.fmean(math.log(r) for r in ratios)
        )
        units = END_TO_END_UNITS
    result = {
        "correct": matched == attempted and len(digests) == 1,
        "attempted": attempted,
        "failed": attempted - matched,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    return result, info


def checkout_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(
            "run from the root of a checkout: src/repro is missing here"
        )
    return root


def one_run(args):
    root = checkout_root()
    work = os.path.join(root, WORK_ROOT, f"{os.getpid()}-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(
            args.workload, args.seed, args.seconds, args.trace == 1, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass


def steadiness(args):
    """``--repeat``: the per-metric median and run-to-run spread."""
    runs = []
    for i in range(args.repeat):
        run_args = argparse.Namespace(**vars(args))
        run_args.seed = args.seed + i
        result, info = one_run(run_args)
        runs.append((result, info))
        values = " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        )
        print(
            f"seed {run_args.seed}: samples={info['samples']} "
            f"cal_ms={info['cal_ms']:.4f} correct={result['correct']} "
            f"{values}",
            flush=True,
        )
    cal = [info["cal_ms"] for _, info in runs]
    print(f"\n{args.workload}, {args.repeat} runs of {args.seconds} s, "
          f"trace={args.trace}")
    print(f"{'metric':44s} {'median':>12s} {'spread':>8s}")
    print(f"{'host.cal_ms (per run)':44s} {statistics.median(cal):12.6g} "
          f"{quantile_spread(cal):8.2%}")
    for name in runs[0][0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r, _ in runs]
        print(f"{name:44s} {statistics.median(vals):12.6g} "
              f"{quantile_spread(vals):8.2%}")
    return all(r["correct"] for r, _ in runs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        if args.repeat:
            return 0 if steadiness(args) else 1
        result, info = one_run(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(
        f"{args.workload} seed {args.seed}: {info['samples']} samples, "
        + (f"{info['groups']} group latencies, " if "groups" in info else "")
        + f"median calibration loop {info['cal_ms']:.3f} ms"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
