"""Golden byte-compatibility of rectangular campaigns.

The polyhedral-domain refactor must not move a single byte of what a
pre-existing (rectangular) campaign writes: the grid digest pins the
task ids (workload sources, spec hashing) and the record digest pins
every deterministic result payload (counts, residuals, times, ratios).
Both constants below were recorded from the pre-refactor implementation
(PR 4) on the reference grid ``default_spec(seed=0, nests=3,
meshes=((2, 2),))``.
"""

import hashlib
import json

from repro.campaign import CampaignConfig, RunStore, default_spec, run_campaign
from repro.campaign.sweep import canonical_json, group_by_compile_key

#: recorded from the pre-domain-layer implementation (see module doc)
GOLDEN_GRID_DIGEST = "2dac62a303bb"
GOLDEN_RECORDS_SHA1 = "ba1ded04e48e0dc682dae04ef662820fedf631cd"


class TestGoldenCampaignDigests:
    def test_grid_digest_unchanged(self):
        spec = default_spec(seed=0, nests=3, meshes=((2, 2),))
        assert spec.digest() == GOLDEN_GRID_DIGEST

    def test_record_payloads_unchanged(self, tmp_path):
        spec = default_spec(seed=0, nests=3, meshes=((2, 2),))
        tasks = spec.expand()
        out = str(tmp_path / "golden.jsonl")
        outcome = run_campaign(tasks, out, CampaignConfig(jobs=1), meta={})
        assert outcome.errors == 0 and outcome.timeouts == 0
        assert _records_digest(out, tasks) == GOLDEN_RECORDS_SHA1

    def test_cut_group_write_resumes_to_golden_records(self, tmp_path):
        """A writer killed inside its last group write leaves that
        group's first record whole and the second cut mid-line; the
        resumed store holds the same record lines (minus the cut one)
        and the golden digest."""
        spec = default_spec(seed=0, nests=3, meshes=((2, 2),))
        tasks = spec.expand()
        meta = {"spec_digest": spec.digest()}
        full = tmp_path / "full.jsonl"
        run_campaign(tasks, str(full), CampaignConfig(jobs=1), meta=meta)
        last = group_by_compile_key(tasks)[-1]
        assert len(last) == 2  # paragon and cm5 on the 2x2 mesh
        lines = full.read_text().splitlines(keepends=True)
        kept = lines[: -len(last) + 1]
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(kept) + lines[-1][: len(lines[-1]) // 2])

        outcome = run_campaign(
            tasks, str(cut), CampaignConfig(jobs=1), resume=True, meta=meta
        )
        assert outcome.prior == len(tasks) - 1 and outcome.ran == 1
        assert _records_digest(str(cut), tasks) == GOLDEN_RECORDS_SHA1
        assert _record_lines(cut) == _record_lines(full)


def _records_digest(path, tasks):
    _, results = RunStore(path).load()
    payload = canonical_json(
        [results[t.task_id].deterministic_dict() for t in tasks]
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def _record_lines(path):
    """The store's whole result lines, wall-clock field dropped, sorted."""
    out = []
    for line in path.read_text().splitlines():
        try:
            d = json.loads(line)
        except ValueError:
            continue  # the line a killed writer cut short
        if d.get("record") == "result":
            d.pop("seconds")
            out.append(json.dumps(d, sort_keys=True))
    return sorted(out)
