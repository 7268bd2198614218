"""Property tests for the seeded workload generator and the corpus."""

import pytest

from repro import compile_nest
from repro.alignment import two_step_heuristic
from repro.campaign import Workload, corpus, generate_workloads
from repro.campaign.workloads import _workload_is_valid
from repro.ir import infer_schedules, parse_nest, schedule_is_legal
from repro.obs import metrics

#: one generated nest per seed keeps the 50-seed sweep fast while still
#: exercising 50 independent RNG streams
SEEDS = range(50)


class TestGeneratorDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate_workloads(7, 6)
        b = generate_workloads(7, 6)
        assert [w.source for w in a] == [w.source for w in b]
        assert [w.to_dict() for w in a] == [w.to_dict() for w in b]

    def test_prefix_stability(self):
        long = generate_workloads(3, 8)
        short = generate_workloads(3, 4)
        assert [w.source for w in short] == [w.source for w in long[:4]]

    def test_different_seeds_differ(self):
        a = generate_workloads(0, 4)
        b = generate_workloads(1, 4)
        assert [w.source for w in a] != [w.source for w in b]

    def test_partial_params_keep_nm_bound(self):
        # user bindings that name neither N nor M must not starve the
        # generator: defaults stay bound underneath
        (wl,) = generate_workloads(0, 1, params={"K": 4})
        assert wl.params["K"] == 4
        assert "N" in wl.params and "M" in wl.params


class TestGeneratorValidity:
    """Every generated nest parses, is legally schedulable, and survives
    the two-step heuristic — over >= 50 seeds."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_nest_is_valid(self, seed):
        (wl,) = generate_workloads(seed, 1)
        nest = parse_nest(wl.source, name=wl.name)  # parses
        assert nest.statements
        bounds = dict(wl.params)
        schedules = infer_schedules(nest, bounds)
        assert schedule_is_legal(schedules, bounds)
        result = two_step_heuristic(nest, m=2, schedules=schedules)  # no raise
        # every access is either zeroed out (local) or a classified residual
        total_accesses = sum(len(s.accesses) for s in nest.statements)
        assert result.local_count + len(result.optimized) == total_accesses

    def test_workload_roundtrip(self):
        (wl,) = generate_workloads(11, 1)
        again = Workload.from_dict(wl.to_dict())
        assert again == wl
        assert again.resolve().describe() == wl.resolve().describe()


class TestCorpus:
    def test_all_corpus_workloads_resolve_and_compile(self):
        from repro.driver import compile_nest

        entries = corpus()
        assert len(entries) >= 8
        names = {w.name for w in entries}
        assert {"example1", "example5", "matmul", "gauss", "adi"} <= names
        for wl in entries:
            nest = wl.resolve()
            compiled = compile_nest(
                nest,
                m=2,
                schedules=wl.resolve_schedules(nest),
                params=dict(wl.params),
                check_legality=wl.check_legality,
                name=wl.name,
            )
            assert compiled.mapping is not None

    def test_unknown_named_workload(self):
        with pytest.raises(KeyError):
            Workload(name="nope", kind="named").resolve()

    def test_bad_schedule_policy(self):
        (wl,) = generate_workloads(2, 1)
        wl.schedule = "bogus"
        with pytest.raises(ValueError):
            wl.resolve_schedules(wl.resolve())


#: two statements write ``a[0]`` in one iteration: the inferred
#: outer-sequential schedule puts both in one time step, which legality
#: rejects (the scheduler cannot order statements within a step)
SAME_STEP_WRITES = """array a(1), b(1), c(1)
for i = 1..N:
  S0: a[0] = f(b[i])
  S1: a[0] = g(c[i])
"""


def _candidate(source: str) -> Workload:
    return Workload(
        name="candidate", kind="generated", source=source,
        schedule="infer", params={"N": 4},
    )


class TestGeneratorRejections:
    """A discarded candidate is counted by reason, never silently."""

    def test_illegal_inferred_schedule_is_loud_and_counted(self):
        nest = parse_nest(SAME_STEP_WRITES)
        schedules = infer_schedules(nest, {"N": 4})
        assert [s.theta.tolist() for s in schedules.schedules.values()] == [
            [[1]], [[1]],
        ]
        assert not schedule_is_legal(schedules, {"N": 4})
        with pytest.raises(ValueError, match="schedule is illegal"):
            compile_nest(nest, m=1, params={"N": 4})
        rejected = metrics.counter(
            "campaign.workloads.rejected.illegal_schedule"
        )
        before = rejected.value
        assert not _workload_is_valid(_candidate(SAME_STEP_WRITES))
        assert rejected.value == before + 1

    def test_raising_stage_counted_by_exception_type(self):
        rejected = metrics.counter("campaign.workloads.rejected.NestSyntaxError")
        before = rejected.value
        assert not _workload_is_valid(_candidate("garbage\n"))
        assert rejected.value == before + 1
