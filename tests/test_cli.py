"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.__main__ import _parse_params, main

EX5_SRC = """array a(4), b(3)
for t = 1..n:
  for i = 1..n:
    for j = 1..n:
      for k = 1..n:
        S: a[t, i, j, k] = b[t, i, j]
"""


#: ``S0`` reads the row its previous ``i`` iteration wrote: the inferred
#: schedule runs ``i`` sequentially
CARRIED_SRC = """array a(2)
for i = 1..N:
  for j = 1..N:
    S0: a[i, j] = f(a[i-1, j])
"""

#: two statements write ``a[0]`` in one ``i`` iteration: no
#: outer-sequential schedule orders them
SAME_STEP_SRC = """array a(1)
for i = 1..N:
  S0: a[0] = f(a[i])
  S1: a[0] = g(a[i])
"""


@pytest.fixture()
def nest_file(tmp_path):
    p = tmp_path / "ex5.nest"
    p.write_text(EX5_SRC)
    return str(p)


class TestCli:
    def test_basic_run(self, nest_file, capsys):
        assert main([nest_file]) == 0
        out = capsys.readouterr().out
        assert "mapping:" in out

    def test_outer_sequential_communication_free(self, nest_file, capsys):
        assert main([nest_file, "--outer-sequential", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 local" in out

    def test_spmd_flag(self, nest_file, capsys):
        assert main([nest_file, "--spmd"]) == 0
        out = capsys.readouterr().out
        assert "distribute a[" in out
        assert "on_processor" in out

    def test_execute_flag(self, nest_file, capsys):
        rc = main(
            [nest_file, "--execute", "--params", "n=3", "--mesh", "2x2",
             "--outer-sequential", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total:" in out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/nest.txt"]) == 2

    def test_parse_params(self):
        assert _parse_params("N=4,M=7") == {"N": 4, "M": 7}
        assert _parse_params("") == {}

    def test_inferred_schedule_is_legal(self, tmp_path, capsys):
        p = tmp_path / "carried.nest"
        p.write_text(CARRIED_SRC)
        assert main([str(p), "--params", "N=4", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "schedule S0: theta=[[1, 0]]" in out
        assert "total:" in out

    def test_local_label_with_an_offset_is_priced(self, tmp_path, capsys):
        """``local`` means step 1 aligned the access's linear part: the
        read ``a[i-1, j]`` keeps its constant offset, so each of its
        events still moves one row and is priced."""
        p = tmp_path / "carried.nest"
        p.write_text(CARRIED_SRC)
        assert main([str(p), "--params", "N=4", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "local: ['F1', 'F2']" in out
        assert (
            "F1     [local      ] events=16 virt-local=16 msgs=0 "
            "macro_ops=0 time=0.0"
        ) in out
        assert (
            "F2     [local      ] events=16 virt-local=0 msgs=16 "
            "macro_ops=0 time=87.0"
        ) in out

    @pytest.mark.parametrize("extra", [[], ["--outer-sequential", "1"]])
    def test_same_step_statements_exit_2(self, tmp_path, capsys, extra):
        p = tmp_path / "same_step.nest"
        p.write_text(SAME_STEP_SRC)
        assert main([str(p), "--params", "N=4", "--execute", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "schedule is illegal" in captured.err
        assert "total:" not in captured.out

    def test_explicit_map_subcommand_matches_default(self, nest_file, capsys):
        assert main([nest_file]) == 0
        implicit = capsys.readouterr().out
        assert main(["map", nest_file]) == 0
        explicit = capsys.readouterr().out
        assert implicit == explicit


class TestCliHardening:
    """Malformed arguments exit 2 with a friendly message (shared
    between the map and campaign subcommands)."""

    def test_bad_mesh(self, nest_file, capsys):
        assert main([nest_file, "--execute", "--mesh", "4"]) == 2
        err = capsys.readouterr().err
        assert "bad --mesh" in err and "PxQ" in err

    def test_bad_mesh_nonnumeric(self, nest_file, capsys):
        assert main([nest_file, "--mesh", "axb"]) == 2
        assert "bad --mesh" in capsys.readouterr().err

    def test_nonpositive_mesh(self, nest_file, capsys):
        assert main([nest_file, "--mesh", "0x4"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_bad_params_no_equals(self, nest_file, capsys):
        assert main([nest_file, "--execute", "--params", "N"]) == 2
        assert "bad --params" in capsys.readouterr().err

    def test_bad_params_value(self, nest_file, capsys):
        assert main([nest_file, "--execute", "--params", "N=three"]) == 2
        assert "bad --params" in capsys.readouterr().err

    def test_bad_m(self, nest_file, capsys):
        assert main([nest_file, "--m", "two"]) == 2
        assert "bad --m" in capsys.readouterr().err

    def test_nest_syntax_error_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.nest"
        p.write_text("array a(1)\nfor i = 1..n\n  S: a[i] = a[i]\n")
        assert main([str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot parse" in err

    def test_execute_with_unbound_size_parameter_exits_2(
        self, nest_file, capsys
    ):
        rc = main([nest_file, "--execute", "--mesh", "2x2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n unbound" in err
        assert "--params" in err

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_nonpositive_m_exits_2(self, nest_file, capsys, m):
        assert main([nest_file, "--m", m]) == 2
        assert f"--m must be >= 1, got {m}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_campaign_nonpositive_jobs_exits_2(self, tmp_path, capsys, jobs):
        out = str(tmp_path / "r.jsonl")
        rc = main(
            ["campaign", "run", "--out", out, "--nests", "1", "--no-corpus",
             "--jobs", jobs]
        )
        assert rc == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--nests", "-1"), ("--max-tasks", "-1"), ("--backoff", "-0.5")],
    )
    def test_campaign_negative_count_exits_2(
        self, tmp_path, capsys, flag, value
    ):
        out = str(tmp_path / "r.jsonl")
        rc = main(
            ["campaign", "run", "--out", out, "--nests", "1", "--no-corpus",
             flag, value]
        )
        assert rc == 2
        assert f"{flag} must be >= 0, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_campaign_shares_parsers(self, tmp_path, capsys):
        out = str(tmp_path / "r.jsonl")
        assert main(["campaign", "run", "--out", out, "--mesh", "4"]) == 2
        assert "bad --mesh" in capsys.readouterr().err
        assert main(["campaign", "run", "--out", out, "--m", "x"]) == 2
        assert "bad --m" in capsys.readouterr().err

    def test_campaign_repeated_grid_cell(self, tmp_path, capsys):
        out = str(tmp_path / "r.jsonl")
        rc = main(
            ["campaign", "run", "--out", out, "--nests", "1", "--no-corpus",
             "--mesh", "4x4,4x4"]
        )
        assert rc == 2
        assert "repeated cell" in capsys.readouterr().err

    def test_truncated_3d_mesh(self, nest_file, capsys):
        assert main([nest_file, "--mesh", "2x"]) == 2
        assert "bad --mesh" in capsys.readouterr().err

    def test_map_3d_mesh_with_m2_exits_2(self, nest_file, capsys):
        rc = main(
            [nest_file, "--execute", "--mesh", "2x2x2", "--m", "2"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "3-D" in err and "--m" in err

    def test_map_2d_mesh_with_m3_exits_2(self, nest_file, capsys):
        rc = main([nest_file, "--execute", "--mesh", "4x4", "--m", "3"])
        assert rc == 2
        assert "mesh rank" in capsys.readouterr().err

    def test_campaign_3d_mesh_with_m2_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "r.jsonl")
        rc = main(
            ["campaign", "run", "--out", out, "--nests", "1", "--no-corpus",
             "--mesh", "2x2x2", "--m", "2"]
        )
        assert rc == 2
        assert "compatible" in capsys.readouterr().err


class TestCampaignCli:
    def _run(self, tmp_path, *extra):
        out = str(tmp_path / "demo.jsonl")
        args = [
            "campaign", "run", "--seed", "0", "--nests", "2", "--no-corpus",
            "--machines", "paragon", "--out", out,
        ] + list(extra)
        return out, main(args)

    def test_run_and_summarize(self, tmp_path, capsys):
        out, rc = self._run(tmp_path)
        assert rc == 0
        run_out = capsys.readouterr().out
        assert "campaign grid:" in run_out
        assert "campaign summary" in run_out

        assert main(["campaign", "summarize", out]) == 0
        text = capsys.readouterr().out
        assert "campaign summary" in text
        assert "paragon" in text

    def test_refuses_to_clobber_without_resume(self, tmp_path, capsys):
        out, rc = self._run(tmp_path)
        assert rc == 0
        capsys.readouterr()
        _, rc2 = self._run(tmp_path)
        assert rc2 == 2
        assert "--resume" in capsys.readouterr().err

    def test_interrupt_resume_matches_uninterrupted(self, tmp_path, capsys):
        import json

        full, rc = self._run(tmp_path)
        assert rc == 0
        part = str(tmp_path / "part.jsonl")
        base = [
            "campaign", "run", "--seed", "0", "--nests", "2", "--no-corpus",
            "--machines", "paragon", "--out", part,
        ]
        assert main(base + ["--max-tasks", "1"]) == 0
        assert main(base + ["--resume"]) == 0
        capsys.readouterr()

        def load(path):
            out = {}
            with open(path) as fh:
                for line in fh:
                    d = json.loads(line)
                    if d.get("record") == "result":
                        d.pop("seconds")
                        out[d["task_id"]] = d
            return out

        assert load(full) == load(part)

    def test_resume_subcommand(self, tmp_path, capsys):
        part = str(tmp_path / "p.jsonl")
        base = ["--seed", "0", "--nests", "2", "--no-corpus",
                "--machines", "paragon", "--out", part]
        assert main(["campaign", "run"] + base + ["--max-tasks", "1"]) == 0
        assert main(["campaign", "resume"] + base) == 0
        out = capsys.readouterr().out
        assert "restored from checkpoint" in out

    def test_summarize_missing_file(self, tmp_path, capsys):
        assert main(["campaign", "summarize", str(tmp_path / "no.jsonl")]) == 2
        assert "no campaign records" in capsys.readouterr().err


class TestCli3D:
    """The m = 3 / T3D path through both subcommands."""

    def test_map_execute_on_cube(self, nest_file, capsys):
        rc = main(
            [nest_file, "--execute", "--mesh", "2x2x2", "--m", "3",
             "--params", "n=3", "--outer-sequential", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total:" in out

    def test_campaign_t3d_runs_clean(self, tmp_path, capsys):
        out = str(tmp_path / "t3d.jsonl")
        rc = main(
            ["campaign", "run", "--seed", "0", "--nests", "2", "--no-corpus",
             "--machines", "t3d", "--mesh", "2x2x2", "--m", "3",
             "--out", out]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "0 error" in text
        assert "2x2x2" in text  # N-D mesh rendered in the summary table

    def test_campaign_mixed_rank_grid(self, tmp_path, capsys):
        """paragon on 4x4 at m=2 next to t3d on 2x2x2 at m=3 in one
        campaign: only compatible cells expand, zero error records."""
        import json

        out = str(tmp_path / "mixed.jsonl")
        rc = main(
            ["campaign", "run", "--seed", "0", "--nests", "2", "--no-corpus",
             "--machines", "paragon,t3d", "--mesh", "4x4,2x2x2",
             "--m", "2,3", "--out", out]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "4 task(s)" in text and "4 ok" in text
        by_machine = {}
        with open(out) as fh:
            for line in fh:
                d = json.loads(line)
                if d.get("record") == "result":
                    assert d["status"] == "ok"
                    by_machine.setdefault(d["machine"], set()).add(
                        tuple(d["mesh"])
                    )
        assert by_machine == {
            "paragon": {(4, 4)}, "t3d": {(2, 2, 2)},
        }
