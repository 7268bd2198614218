"""Chaos gate: a deterministically faulted campaign must finish, type
every fault, and converge back to the clean results on resume.

Not a paper artefact — the robustness gate for the fault-tolerant
execution layer (:mod:`repro.campaign.executors`).  The harness injects
all three fault modes into a multi-cell grid under the ``resilient``
backend:

* ``kill`` — the worker is SIGKILLed mid-task (the OOM-killer /
  segfault scenario);
* ``hang`` — the task blocks SIGALRM and sleeps forever (a hung native
  call no in-process timeout can interrupt);
* ``fail`` — transient in-process failures, both pinned to a task and
  probability-drawn with a runtime-chosen seed.

The gate asserts that

1. the faulted campaign **completes without hanging** (bounded wall
   clock, every task gets a record);
2. every injected fault surfaces as a **typed** record — the fault set
   is predicted in advance with :func:`repro.campaign.faults.would_fault`
   (selection is a pure function of ``(seed, mode, task_id, attempt)``)
   and checked record-by-record: ``kill`` -> ``status="crashed"``/
   ``error_kind="crash"``, ``hang`` -> ``timeout``/``timeout``,
   ``fail`` -> ``error``/``fault``;
3. a fault-free ``retry_failures`` resume re-runs exactly the failed
   tasks and the store converges **bit-identical on deterministic
   fields** to an unfaulted reference run;
4. with ``retries=2`` the same (transient, ``times=1``) faults
   self-heal in-run: zero failure records, attempt counts > 1;
5. the faulted and self-healing runs take the default group path:
   every group with two or more unfaulted tasks prices them in one
   ``execute_group`` call (faults drop out per task first).

Measurements land in ``BENCH_chaos.json`` (schema in PERFORMANCE.md).
"""

import time
from collections import Counter

from repro.campaign import (
    CampaignConfig,
    RunStore,
    default_spec,
    parse_fault_spec,
    run_campaign,
    would_fault,
)

SEED = 0
NESTS = 4
JOBS = 2
#: three cells per group, so that one fault per group still leaves a
#: multi-cell group to price
MESHES = ((4, 4), (2, 2), (2, 4))
#: per-task cap during the faulted run: the injected hang is detected
#: within this + the supervisor's grace
TIMEOUT = 3.0

#: expected record shape per injected mode
TYPED = {
    "kill": ("crashed", "crash"),
    "hang": ("timeout", "timeout"),
    "fail": ("error", "fault"),
}


def _grid():
    spec = default_spec(
        seed=SEED, nests=NESTS, include_corpus=False,
        machines=("paragon",), meshes=MESHES,
    )
    return spec, spec.expand()


def _pick_fail_seed(clauses_prefix, tasks, victims):
    """A hash seed for the p= clause such that at least one
    *non-victim* task draws a transient failure on attempt 1 (chosen at
    runtime so the gate does not depend on a magic constant surviving
    task-id changes)."""
    for seed in range(1000):
        clauses = parse_fault_spec(
            clauses_prefix + f";fail:p=0.25,seed={seed}"
        )
        hit = [
            t for t in tasks
            if t.task_id not in victims
            and would_fault(clauses, t.task_id) == "fail"
        ]
        if hit:
            return seed
    raise AssertionError("no seed under 1000 draws a fail fault")


def test_chaos_gate(tmp_path, monkeypatch):
    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)

    # --- unfaulted reference -------------------------------------------
    ref_path = str(tmp_path / "ref.jsonl")
    run_campaign(tasks, ref_path, CampaignConfig(jobs=1), meta=meta)
    _, ref = RunStore(ref_path).load()
    want = {k: r.deterministic_dict() for k, r in ref.items()}
    assert all(r.status == "ok" for r in ref.values())

    # --- compose the fault spec: one victim per mode, in three
    # different compile-key groups, plus a probability-drawn fail ------
    by_group = {}
    for t in tasks:
        by_group.setdefault(t.compile_key, t)
    reps = list(by_group.values())
    assert len(reps) >= 3
    kill_v, hang_v, fail_v = reps[0], reps[1], reps[2]
    prefix = (
        f"kill:task={kill_v.task_id},times=99"
        f";hang:task={hang_v.task_id},times=99"
        f";fail:task={fail_v.task_id},times=99"
    )
    victims = {kill_v.task_id, hang_v.task_id, fail_v.task_id}
    fail_seed = _pick_fail_seed(prefix, tasks, victims)
    spec_text = prefix + f";fail:p=0.25,seed={fail_seed}"
    clauses = parse_fault_spec(spec_text)

    # the predicted fault set, computed before anything runs
    predicted = {
        t.task_id: would_fault(clauses, t.task_id)
        for t in tasks
        if would_fault(clauses, t.task_id) is not None
    }
    assert predicted[kill_v.task_id] == "kill"
    assert predicted[hang_v.task_id] == "hang"
    assert sum(1 for m in predicted.values() if m == "hang") == 1
    assert sum(1 for m in predicted.values() if m == "kill") >= 1
    assert sum(1 for m in predicted.values() if m == "fail") >= 2

    # groups left with two or more unfaulted tasks: each must price
    # through one execute_group call (gate 5)
    unfaulted = {}
    for t in tasks:
        if t.task_id not in predicted:
            unfaulted[t.compile_key] = unfaulted.get(t.compile_key, 0) + 1
    multi = [n for n in unfaulted.values() if n > 1]
    assert multi
    from _harness import count_pricing_calls

    pricing_log = str(tmp_path / "pricing.log")
    pricing = count_pricing_calls(monkeypatch, pricing_log)

    # --- gate 1+2: the faulted campaign finishes, faults are typed ----
    out = str(tmp_path / "chaos.jsonl")
    monkeypatch.setenv("REPRO_FAULT_INJECT", spec_text)
    t0 = time.perf_counter()
    faulted = run_campaign(
        tasks, out,
        CampaignConfig(
            jobs=JOBS, executor="resilient", timeout=TIMEOUT,
            heartbeat_timeout=10.0, backoff=0.01,
        ),
        meta=meta,
    )
    faulted_wall = time.perf_counter() - t0
    monkeypatch.delenv("REPRO_FAULT_INJECT")

    assert faulted.ran == len(tasks)  # nothing lost, nothing hung
    _, records = RunStore(out).load()
    assert sorted(records) == sorted(t.task_id for t in tasks)
    for t in tasks:
        rec = records[t.task_id]
        mode = predicted.get(t.task_id)
        if mode is None:
            assert rec.status == "ok", (t.task_id, rec.error)
        else:
            status, kind = TYPED[mode]
            assert rec.status == status, (t.task_id, mode, rec.error)
            assert rec.error_kind == kind
    assert faulted.crashed == sum(
        1 for m in predicted.values() if m == "kill"
    )
    assert faulted.timeouts == 1
    _, group_calls = pricing()
    # one heuristic call per such group (baselines may be memo hits)
    assert not Counter(multi) - Counter(group_calls), (multi, group_calls)

    # --- gate 3: fault-free resume converges bit-identically ----------
    t0 = time.perf_counter()
    resumed = run_campaign(
        tasks, out, CampaignConfig(retry_failures=True),
        resume=True, meta=meta,
    )
    resume_wall = time.perf_counter() - t0
    assert resumed.ran == len(predicted)  # exactly the faulted tasks
    assert resumed.ok == len(predicted)
    _, healed = RunStore(out).load()
    assert {k: r.deterministic_dict() for k, r in healed.items()} == want

    # --- gate 4: retries self-heal transient (times=1) faults in-run --
    healed_path = str(tmp_path / "healed.jsonl")
    open(pricing_log, "w").close()
    transient = spec_text.replace("times=99", "times=1")
    monkeypatch.setenv("REPRO_FAULT_INJECT", transient)
    t0 = time.perf_counter()
    selfheal = run_campaign(
        tasks, healed_path,
        CampaignConfig(
            jobs=JOBS, executor="resilient", timeout=TIMEOUT,
            heartbeat_timeout=10.0, retries=2, backoff=0.01,
        ),
        meta=meta,
    )
    selfheal_wall = time.perf_counter() - t0
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    assert selfheal.ok == len(tasks)
    assert selfheal.crashed == 0 and selfheal.errors == 0
    assert selfheal.retried >= 1
    # a group whose killed or hung task is retried in a fresh worker
    # prices more cells than predicted; every group still prices whole
    _, group_calls = pricing()
    assert sum(n > 1 for n in group_calls) >= len(multi), group_calls
    _, third = RunStore(healed_path).load()
    assert {k: r.deterministic_dict() for k, r in third.items()} == want

    from _harness import record_bench

    record_bench(
        "chaos",
        {
            "tasks": len(tasks),
            "groups": len(by_group),
            "fault_spec": spec_text,
            "predicted_faults": {
                mode: sum(1 for m in predicted.values() if m == mode)
                for mode in ("kill", "hang", "fail")
            },
            "faulted_run_seconds": round(faulted_wall, 3),
            "faulted_crashed": faulted.crashed,
            "faulted_timeouts": faulted.timeouts,
            "faulted_errors": faulted.errors,
            "resume_seconds": round(resume_wall, 3),
            "resume_reran": resumed.ran,
            "converged_bit_identical": True,
            "selfheal_seconds": round(selfheal_wall, 3),
            "selfheal_retry_attempts": selfheal.retried,
        },
    )
