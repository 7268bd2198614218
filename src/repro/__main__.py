"""Command-line driver with two subcommands.

``map`` (the default when the first argument is a nest file — the
historical CLI) maps one loop-nest source file and reports::

    python -m repro NEST_FILE [--m 2] [--mesh 4x4] [--params N=6,M=6]
                    [--spmd] [--execute]
    python -m repro map NEST_FILE [...]

``campaign`` orchestrates bulk experiments over generated + corpus
workloads (see :mod:`repro.campaign`)::

    python -m repro campaign run --seed 0 --nests 50 --jobs 4 \
                                 --out runs/demo.jsonl
    python -m repro campaign run --resume ...     # or: campaign resume
    python -m repro campaign summarize runs/demo.jsonl

``--shapes`` selects the workload families: ``rect`` (the historical
rectangular generator + corpus, the default), ``tri`` (triangular/
trapezoidal nests — LU, Cholesky, back-substitution and the seeded
triangular generator, through the polyhedral domain layer) or ``both``.
Multi-host campaigns partition one grid by stable task-id prefix and
merge the shard outputs::

    python -m repro campaign run --shard 0/3 --out runs/shard0.jsonl ...
    python -m repro campaign merge --out runs/all.jsonl runs/shard*.jsonl

``--mesh`` accepts 2-D ``PxQ`` and 3-D ``PxQxR`` specs; machines come
from the :mod:`repro.machine` registry (``paragon``/``cm5`` want 2-D
meshes with ``--m 2``, ``t3d`` wants 3-D meshes with ``--m 3``), e.g.::

    python -m repro campaign run --machines paragon,t3d \
        --mesh 4x4,2x2x2 --m 2,3 --out runs/mixed.jsonl

``--jobs 1`` (the default) runs in this process; ``--jobs N`` runs on
N long-lived supervised worker processes that survive worker crashes
and hangs (see :mod:`repro.campaign.executors`).  ``--retries`` /
``--backoff`` retry transient failures (worker crash, timeout, OOM)
with capped exponential backoff::

    python -m repro campaign run --retries 2 --timeout 60 --jobs 4 \
        --out runs/hardened.jsonl

``--trace`` records a span/metric JSONL trace next to the results, and
``trace report`` / ``summarize --timings`` render its per-stage time
breakdown (compile vs price vs executor overhead, per compile-key
group)::

    python -m repro campaign run --trace runs/demo_trace.jsonl ...
    python -m repro trace report runs/demo_trace.jsonl
    python -m repro campaign summarize runs/demo.jsonl \
        --timings runs/demo_trace.jsonl

Malformed input (a nest syntax error, bad ``--mesh``, bad ``--params``,
a size parameter ``--execute`` needs but ``--params`` leaves unbound,
``--m`` or ``--jobs`` below 1, a negative ``--nests``, ``--max-tasks``,
``--retries`` or ``--backoff``, a non-positive ``--timeout``, a mesh rank
that cannot match ``--m``) produces a friendly message on stderr and
exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple


class CliError(Exception):
    """User-facing argument error: message + exit code 2."""


def _parse_params(text: str) -> Dict[str, int]:
    """Parse ``N=6,M=6`` size bindings."""
    out: Dict[str, int] = {}
    if not text:
        return out
    for item in text.split(","):
        key, sep, val = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise CliError(
                f"bad --params entry {item!r}: expected NAME=INT "
                "(e.g. --params N=6,M=6)"
            )
        try:
            out[key] = int(val)
        except ValueError:
            raise CliError(
                f"bad --params value {val.strip()!r} for {key!r}: "
                "expected an integer"
            ) from None
    return out


def _parse_mesh(text: str) -> Tuple[int, ...]:
    """Parse one ``PxQ`` / ``PxQxR`` mesh spec (any rank >= 2)."""
    parts = text.split("x")
    try:
        if len(parts) < 2:
            raise ValueError
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise CliError(
            f"bad --mesh {text!r}: expected PxQ or PxQxR with integer "
            "sides (e.g. --mesh 4x4 or --mesh 2x2x2)"
        ) from None
    if any(d <= 0 for d in dims):
        raise CliError(f"bad --mesh {text!r}: sides must be positive")
    return dims


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"bad {flag} {text!r}: expected an integer") from None


def _parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``I/N`` shard spec (0-based index, positive count)."""
    idx, sep, cnt = text.partition("/")
    try:
        if not sep:
            raise ValueError
        i, n = int(idx), int(cnt)
    except ValueError:
        raise CliError(
            f"bad --shard {text!r}: expected I/N (e.g. --shard 0/3)"
        ) from None
    if n <= 0 or not 0 <= i < n:
        raise CliError(
            f"bad --shard {text!r}: need 0 <= I < N with N positive"
        )
    return i, n


def _add_common_args(ap: argparse.ArgumentParser, campaign: bool = False) -> None:
    """The arguments shared by ``map`` and ``campaign run/resume``.

    ``campaign`` mode documents the comma-separated list forms
    (``--mesh 4x4,8x8``); the parsing helpers are shared either way.
    """
    many = " (comma-separated list allowed)" if campaign else ""
    ap.add_argument(
        "--m", default="2", metavar="M",
        help=f"virtual grid dimension{many} (default: 2)",
    )
    ap.add_argument(
        "--mesh", default="4x4", metavar="PxQ[xR]",
        help=f"physical mesh, 2-D PxQ or 3-D PxQxR{many} (default: 4x4)",
    )
    ap.add_argument(
        "--params", default="", metavar="N=6,M=6",
        help="size bindings for domain enumeration",
    )


# ---------------------------------------------------------------------------
# map — the historical single-nest CLI
# ---------------------------------------------------------------------------


def _map_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro [map]",
        description="Map an affine loop nest (two-step heuristic of "
        "Dion, Randriamaro & Robert, IPPS'96).",
    )
    ap.add_argument("nest_file", help="loop-nest source file")
    _add_common_args(ap)
    ap.add_argument(
        "--outer-sequential",
        type=int,
        default=0,
        metavar="K",
        help="schedule the first K loops sequentially (default: infer "
        "the schedules from the dependences); an illegal schedule "
        "exits 2",
    )
    ap.add_argument("--spmd", action="store_true", help="emit SPMD pseudo-code")
    ap.add_argument(
        "--execute", action="store_true", help="price the execution on the mesh"
    )
    return ap


def map_main(argv: List[str]) -> int:
    args = _map_parser().parse_args(argv)
    m = _parse_int(args.m, "--m")
    if m < 1:
        raise CliError(f"--m must be >= 1, got {m}")
    mesh = _parse_mesh(args.mesh)
    params = _parse_params(args.params)
    if args.execute and len(mesh) != m:
        raise CliError(
            f"--mesh {args.mesh} is {len(mesh)}-D but --m is {m}: the "
            "virtual grid dimension must match the mesh rank (pass "
            f"--m {len(mesh)}, or a {m}-D mesh)"
        )

    from .driver import compile_nest
    from .ir import NestSyntaxError, outer_sequential_schedules, parse_nest
    from .report import format_mapping_summary

    try:
        with open(args.nest_file) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        nest = parse_nest(source, name=args.nest_file)
    except NestSyntaxError as exc:
        raise CliError(f"{args.nest_file}: {exc}") from None
    if args.execute:
        unbound = sorted({
            name
            for s in nest.statements
            for con in s.domain.constraints
            for name, _ in con.param_coeffs
        } - set(params))
        if unbound:
            raise CliError(
                "--execute needs a value for every size parameter: "
                f"{', '.join(unbound)} unbound (pass e.g. --params "
                + ",".join(f"{name}=4" for name in unbound)
                + ")"
            )
    print(nest.describe())
    for s in nest.statements:
        if not s.is_rectangular:
            print(f"  {s.name} iterates a {s.domain.describe()}")
    print()

    schedules = None
    if args.outer_sequential > 0:
        schedules = outer_sequential_schedules(nest, outer=args.outer_sequential)
    try:
        compiled = compile_nest(nest, m=m, schedules=schedules, params=params)
    except ValueError as exc:
        raise CliError(f"{args.nest_file}: {exc}") from None
    for s in nest.statements:
        theta = compiled.schedules.schedule_of(s.name).theta
        print(f"schedule {s.name}: theta={theta.tolist()}")
    print()
    print(compiled.mapping.describe())
    print()
    print(format_mapping_summary(compiled.mapping))

    if args.spmd:
        print()
        print(compiled.spmd)

    if args.execute:
        from .machine import machine_for_mesh
        from .runtime import execute

        try:
            machine = machine_for_mesh(mesh).make(mesh)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print()
        print(execute(compiled.program(machine, params), machine).describe())
    return 0


# ---------------------------------------------------------------------------
# campaign — bulk sweeps with checkpoint/resume
# ---------------------------------------------------------------------------


def _campaign_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run/resume/summarize mapping campaigns "
        "(generated + corpus workloads, parallel sweep runner).",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    for cmd in ("run", "resume"):
        p = sub.add_parser(
            cmd,
            help="execute a sweep grid"
            if cmd == "run"
            else "shorthand for: run --resume",
        )
        p.add_argument("--out", required=True, help="JSONL checkpoint/result file")
        p.add_argument("--seed", type=int, default=0, help="generator seed")
        p.add_argument(
            "--nests", type=int, default=20,
            help="number of generated workloads (default: 20)",
        )
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes: 1 runs in this process (default), "
            "N > 1 runs on N supervised workers with per-task crash and "
            "hang recovery",
        )
        _add_common_args(p, campaign=True)
        p.add_argument(
            "--machines", default="paragon,cm5",
            help="machine models to sweep, from the machine registry "
            "(e.g. paragon,cm5,t3d; default: paragon,cm5)",
        )
        p.add_argument(
            "--rank-weights", choices=("on", "off", "both"), default="on",
            help="heuristic knob: access-rank edge weights (default: on)",
        )
        p.add_argument(
            "--no-corpus", action="store_true",
            help="generated workloads only (skip the named corpus)",
        )
        p.add_argument(
            "--shapes", choices=("rect", "tri", "both"), default="rect",
            help="workload shape families: rectangular nests, "
            "triangular/trapezoidal nests, or both (default: rect)",
        )
        p.add_argument(
            "--shard", default=None, metavar="I/N",
            help="run only the I-th of N stable grid partitions "
            "(by task-id prefix; merge shard outputs with "
            "'campaign merge')",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECS",
            help="per-task wall-clock cap (must be positive)",
        )
        p.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="retry transient task failures (crash/timeout/oom/fault) "
            "up to N times with exponential backoff (default: 0)",
        )
        p.add_argument(
            "--backoff", type=float, default=0.5, metavar="SECS",
            help="base retry backoff, doubled per retry and capped "
            "(default: 0.5)",
        )
        p.add_argument(
            "--max-tasks", type=int, default=None, metavar="K",
            help="stop after K new results (checkpoint stays resumable)",
        )
        p.add_argument(
            "--trace", default=None, metavar="OUT.jsonl",
            help="record a span/metric trace of this run to a JSONL "
            "file (render it with 'python -m repro trace report'); the "
            "result store stays byte-identical to an untraced run",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="continue from the checkpoint in --out",
        )
        p.add_argument(
            "--retry-failed", action="store_true",
            help="on resume, re-run tasks recorded as error/timeout",
        )
        p.add_argument(
            "--force", action="store_true",
            help="overwrite an existing --out without --resume",
        )

    s = sub.add_parser("summarize", help="aggregate a result file")
    s.add_argument("results", help="JSONL file written by campaign run")
    s.add_argument(
        "--timings", default=None, metavar="TRACE.jsonl",
        help="also render the per-stage time breakdown from a trace "
        "file recorded with 'campaign run --trace'",
    )

    g = sub.add_parser(
        "merge",
        help="concatenate + dedupe shard JSONL files into one store",
    )
    g.add_argument("--out", required=True, help="merged JSONL output file")
    g.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --out",
    )
    g.add_argument(
        "--allow-mixed", action="store_true",
        help="merge shards even when their grid digests disagree "
        "(normally refused: mixed-grid stores are almost always an "
        "accident)",
    )
    g.add_argument("shards", nargs="+", help="shard JSONL files to merge")
    return ap


def campaign_main(argv: List[str]) -> int:
    args = _campaign_parser().parse_args(argv)

    from .campaign import (
        CampaignConfig,
        CampaignSpecMismatch,
        RunStore,
        Settings,
        default_spec,
        grid_digest,
        merge_stores,
        run_campaign,
        shard_tasks,
        summarize_results,
    )
    from .report import format_campaign_summary, format_mesh

    if args.cmd == "merge":
        import os

        if os.path.exists(args.out) and not args.force:
            raise CliError(
                f"{args.out} already exists: pass --force to overwrite"
            )
        try:
            summary = merge_stores(
                args.shards, args.out, force=args.allow_mixed
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
        if summary["skipped_lines"]:
            print(
                f"note: skipped {summary['skipped_lines']} undecodable "
                "line(s) across shards (truncated checkpoint?)",
                file=sys.stderr,
            )
        print(
            f"merged {summary['shards']} shard(s) into {args.out}: "
            f"{summary['results']} result(s), "
            f"{summary['duplicates']} duplicate(s) dropped"
        )
        _, results = RunStore(args.out).load()
        print()
        print(format_campaign_summary(summarize_results(results.values())))
        return 0

    if args.cmd == "summarize":
        store = RunStore(args.results)
        meta, results = store.load()
        if not meta and not results:
            raise CliError(f"no campaign records in {args.results!r}")
        if meta.get("_skipped_lines"):
            print(
                f"note: skipped {meta['_skipped_lines']} undecodable "
                "line(s) (truncated checkpoint?)",
                file=sys.stderr,
            )
        print(format_campaign_summary(summarize_results(results.values())))
        if args.timings:
            import os

            if not os.path.exists(args.timings):
                raise CliError(f"no trace file at {args.timings!r}")
            from .obs import format_trace_report, load_trace

            print()
            print(format_trace_report(load_trace(args.timings)))
        return 0

    resume = args.resume or args.cmd == "resume"
    meshes = tuple(_parse_mesh(part) for part in args.mesh.split(","))
    ms = tuple(_parse_int(part, "--m") for part in args.m.split(","))
    machines = tuple(s.strip() for s in args.machines.split(",") if s.strip())
    rank_weights = {
        "on": (True,), "off": (False,), "both": (True, False),
    }[args.rank_weights]
    params = _parse_params(args.params) or None
    shapes = {
        "rect": ("rect",), "tri": ("tri",), "both": ("rect", "tri"),
    }[args.shapes]
    shard = _parse_shard(args.shard) if args.shard else None
    if args.timeout is not None and args.timeout <= 0:
        raise CliError(
            f"--timeout must be positive, got {args.timeout} "
            "(omit it for no per-task cap)"
        )
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        raise CliError(f"--retries must be >= 0, got {args.retries}")
    if args.nests < 0:
        raise CliError(f"--nests must be >= 0, got {args.nests}")
    if args.max_tasks is not None and args.max_tasks < 0:
        raise CliError(f"--max-tasks must be >= 0, got {args.max_tasks}")
    if args.backoff < 0:
        raise CliError(f"--backoff must be >= 0, got {args.backoff}")
    try:
        settings = Settings.from_env()
    except ValueError as exc:
        raise CliError(str(exc)) from None

    import os

    if os.path.exists(args.out) and not resume and not args.force:
        raise CliError(
            f"{args.out} already exists: pass --resume to continue it "
            "or --force to overwrite"
        )

    try:
        spec = default_spec(
            seed=args.seed,
            nests=args.nests,
            include_corpus=not args.no_corpus,
            machines=machines,
            meshes=meshes,
            ms=ms,
            rank_weights=rank_weights,
            params=params,
            shapes=shapes,
        )
        tasks = spec.expand()
    except (ValueError, RuntimeError) as exc:
        # ValueError: unknown machine / repeated grid cell; RuntimeError:
        # generator stalled (e.g. bindings that reject every candidate)
        raise CliError(str(exc)) from None
    # the digest names the FULL grid (shards of one campaign share it,
    # which is what lets `campaign merge` verify they belong together)
    digest = grid_digest(tasks)
    meta = {
        "spec_digest": digest,
        "seed": args.seed,
        "nests": args.nests,
        "machines": list(machines),
        "meshes": [format_mesh(mm) for mm in meshes],
        "m": list(ms),
        "rank_weights": list(rank_weights),
        "corpus": not args.no_corpus,
        "shapes": list(shapes),
    }
    total = len(tasks)
    if shard is not None:
        tasks = shard_tasks(tasks, *shard)
        meta["shard"] = f"{shard[0]}/{shard[1]}"
        print(
            f"campaign grid: {total} task(s), digest {digest}; "
            f"shard {shard[0]}/{shard[1]} -> {len(tasks)} task(s)"
        )
    else:
        print(f"campaign grid: {len(tasks)} task(s), digest {digest}")

    def progress(result):
        if result.status != "ok":
            print(
                f"  [{result.status}] {result.workload} on {result.machine} "
                f"{format_mesh(result.mesh)}: {result.error}",
                file=sys.stderr,
            )

    try:
        outcome = run_campaign(
            tasks,
            args.out,
            CampaignConfig(
                jobs=args.jobs,
                timeout=args.timeout,
                max_tasks=args.max_tasks,
                retry_failures=args.retry_failed,
                retries=args.retries,
                backoff=args.backoff,
                settings=settings,
                trace=args.trace,
            ),
            resume=resume,
            meta=meta,
            progress=progress,
        )
    except CampaignSpecMismatch as exc:
        raise CliError(str(exc)) from None
    print(outcome.describe())

    _, results = RunStore(args.out).load()
    print()
    print(format_campaign_summary(summarize_results(results.values())))
    return 0


# ---------------------------------------------------------------------------
# trace — render span/metric traces recorded by `campaign run --trace`
# ---------------------------------------------------------------------------


def _trace_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Inspect span/metric traces recorded by "
        "'campaign run --trace OUT.jsonl'.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser(
        "report",
        help="per-stage time breakdown (compile vs price vs executor "
        "overhead, per compile-key group) + span/metric tables",
    )
    r.add_argument("trace", help="JSONL trace file")
    return ap


def trace_main(argv: List[str]) -> int:
    args = _trace_parser().parse_args(argv)
    import os

    if not os.path.exists(args.trace):
        raise CliError(f"no trace file at {args.trace!r}")

    from .obs import format_trace_report, load_trace

    trace = load_trace(args.trace)
    if not (trace["tasks"] or trace["spans"] or trace["meta"]):
        raise CliError(f"no trace records in {args.trace!r}")
    print(format_trace_report(trace))
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "campaign":
            return campaign_main(argv[1:])
        if argv and argv[0] == "trace":
            return trace_main(argv[1:])
        if argv and argv[0] == "map":
            argv = argv[1:]
        return map_main(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
