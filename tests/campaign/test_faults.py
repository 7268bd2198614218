"""The fault-injection harness: spec parsing, deterministic selection,
capability downgrades and the pure prediction used by the chaos gate."""

import pytest

from repro.campaign import faults
from repro.campaign.faults import (
    FaultClause,
    InjectedFault,
    parse_fault_spec,
    would_fault,
)


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.activate(None)


class TestParse:
    def test_single_clause_with_options(self):
        (c,) = parse_fault_spec("fail:p=0.25,seed=7")
        assert c.mode == "fail" and c.p == 0.25 and c.seed == 7

    def test_multiple_clauses(self):
        clauses = parse_fault_spec("kill:task=ab12,times=2;fail:p=0.1")
        assert [c.mode for c in clauses] == ["kill", "fail"]
        assert clauses[0].task == "ab12" and clauses[0].times == 2

    def test_counter_clause(self):
        (c,) = parse_fault_spec("hang:n=3")
        assert c.mode == "hang" and c.n == 3

    def test_empty_clauses_skipped(self):
        assert parse_fault_spec("; fail:p=1.0 ;") == [
            FaultClause(mode="fail", p=1.0)
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:p=0.5",  # unknown mode
            "fail:prob=0.5",  # unknown option
            "fail:p=two",  # non-numeric probability
            "fail:p=1.5",  # out of range
            "fail:times=x",  # non-integer
            "fail",  # no selector
            "fail:seed=3",  # selector-free options
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="REPRO_FAULT_INJECT"):
            parse_fault_spec(bad)


class TestSelection:
    def test_probability_roll_is_deterministic(self):
        a = faults._roll(0, "fail", "deadbeef", 1)
        b = faults._roll(0, "fail", "deadbeef", 1)
        assert a == b and 0.0 <= a < 1.0

    def test_roll_varies_with_every_key_part(self):
        base = faults._roll(0, "fail", "deadbeef", 1)
        assert faults._roll(1, "fail", "deadbeef", 1) != base
        assert faults._roll(0, "kill", "deadbeef", 1) != base
        assert faults._roll(0, "fail", "deadbee0", 1) != base
        assert faults._roll(0, "fail", "deadbeef", 2) != base

    def test_retry_rerolls_probability_clause(self):
        # transient by construction: some attempt escapes a p<1 clause
        (c,) = parse_fault_spec("fail:p=0.5,seed=3")
        fates = [c.fires("abc123", attempt, 0) for attempt in range(1, 12)]
        assert True in fates and False in fates

    def test_task_prefix_clause_caps_at_times(self):
        (c,) = parse_fault_spec("fail:task=ab,times=2")
        assert c.fires("abcd", 1, 0) and c.fires("abcd", 2, 0)
        assert not c.fires("abcd", 3, 0)
        assert not c.fires("zzzz", 1, 0)

    def test_counter_clause_fires_once_per_process(self):
        faults.activate("fail:n=2")
        plan = faults._active
        assert plan.check("t1", 1) is None
        assert plan.check("t2", 1) == "fail"
        assert plan.check("t2", 2) is None

    def test_first_matching_clause_wins(self):
        clauses = parse_fault_spec("kill:task=ab;fail:task=ab")
        assert would_fault(clauses, "abcd") == "kill"

    def test_would_fault_predicts_and_skips_counter_clauses(self):
        clauses = parse_fault_spec("hang:n=1;fail:task=ab")
        assert would_fault(clauses, "abcd") == "fail"
        assert would_fault(clauses, "zzzz") is None


class TestInjection:
    def test_inactive_plan_is_a_noop(self):
        faults.activate(None)
        faults.maybe_inject("anything", 1)  # must not raise

    def test_fail_raises_injected_fault(self):
        faults.activate("fail:task=ab")
        with pytest.raises(InjectedFault, match="fault-injected"):
            faults.maybe_inject("abcd", 1)

    def test_kill_downgrades_without_capability(self):
        # an inline run must never SIGKILL the main process
        faults.activate("kill:task=ab", allow_kill=False)
        with pytest.raises(InjectedFault, match="downgraded"):
            faults.maybe_inject("abcd", 1)

    def test_hang_downgrades_without_capability(self):
        faults.activate("hang:task=ab", allow_hang=False)
        with pytest.raises(InjectedFault, match="downgraded"):
            faults.maybe_inject("abcd", 1)

    def test_activate_none_disarms(self):
        faults.activate("fail:task=ab")
        faults.activate(None)
        faults.maybe_inject("abcd", 1)  # must not raise
