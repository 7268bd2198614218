"""Write ``expected/<workload>.json``: the nest pool of each workload
and the reference prices of every task.

Run from the repository root::

    python3 perfbench/make_expected.py [workload ...]

Prices come from ``repro.runtime.execute_python``, the per-element
reference executor, never from the vectorized path the benchmark
times.  The script then runs the campaign once and refuses to write a
file whose campaign records differ from the reference, so a stored file
is known to match both.  The benchmark itself never imports the
reference executor.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, "src")

from repro.alignment import optimize_residuals  # noqa: E402
from repro.baselines import feautrier_align  # noqa: E402
from repro.campaign import CampaignConfig, RunStore, run_campaign  # noqa: E402
from repro.campaign.sweep import default_spec  # noqa: E402
from repro.driver import compile_nest  # noqa: E402
from repro.machine import machine_spec  # noqa: E402
from repro.runtime import MappedProgram, execute_python  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def task_key(workload: str, machine: str, mesh) -> str:
    return f"{workload}|{machine}|{'x'.join(str(d) for d in mesh)}"


def reference_values(task):
    """``[total_time, baseline_time, total_messages, total_volume]`` of
    one task, priced by the per-element reference executor."""
    wl = task.workload
    nest = wl.resolve()
    params = dict(wl.params)
    compiled = compile_nest(
        nest,
        m=task.m,
        schedules=wl.resolve_schedules(nest),
        params=params,
        check_legality=wl.check_legality,
        name=wl.name,
        use_rank_weights=task.rank_weights,
    )
    baseline = optimize_residuals(
        feautrier_align(nest, task.m), compiled.schedules, allow_rotations=False
    )
    spec = machine_spec(task.machine)
    machine = spec.make(task.mesh)
    collectives = spec.make_collectives(task.mesh)
    program = compiled.program(machine, params)
    report = execute_python(program, machine, collectives=collectives)
    base = execute_python(
        MappedProgram(mapping=baseline, folding=program.folding, params=params),
        machine,
        collectives=collectives,
    )
    return [
        report.total_time,
        base.total_time,
        report.total_messages,
        report.total_volume,
    ]


def build(name: str) -> dict:
    spec = default_spec(0, **WORKLOADS[name]["spec"])
    tasks = spec.expand()
    expected = {
        task_key(t.workload.name, t.machine, t.mesh): reference_values(t)
        for t in tasks
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        run_campaign(tasks, path, CampaignConfig(jobs=1, executor="inline"))
        _, records = RunStore(path).load()
    for t in tasks:
        r = records[t.task_id]
        got = [r.total_time, r.baseline_time, r.total_messages, r.total_volume]
        want = expected[task_key(t.workload.name, t.machine, t.mesh)]
        if r.status != "ok" or got != want:
            raise SystemExit(
                f"{name}: campaign record {t.workload.name} {t.machine} "
                f"{t.mesh} = {r.status} {got}, reference {want}"
            )
    return {
        "workload": name,
        "grid": {
            "machines": list(spec.machines),
            "meshes": [list(m) for m in spec.meshes],
            "ms": list(spec.ms),
            "rank_weights": list(spec.rank_weights),
        },
        "nests": [w.to_dict() for w in spec.workloads],
        "expected": expected,
    }


def main(names):
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for name in names or sorted(WORKLOADS):
        data = build(name)
        path = os.path.join(HERE, "expected", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(data['nests'])} nests, "
              f"{len(data['expected'])} tasks")


if __name__ == "__main__":
    main(sys.argv[1:])
