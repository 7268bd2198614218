"""The ``REPRO_*`` knobs: one ``Settings`` snapshot parses all three,
unset or blank knobs take their default, a malformed value fails loudly
naming the knob, and no other module of ``repro`` reads the
environment."""

import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from repro._config import KNOBS, Settings
from repro.campaign import run_campaign

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
BENCHMARKS = os.path.join(ROOT, "benchmarks")


def _sources(top=PACKAGE):
    for root, _dirs, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield os.path.relpath(path, top), fh.read()


class TestParsing:
    def test_unset_and_blank_take_the_default(self):
        assert Settings.from_env({}) == Settings()
        blank = {name: "  " for name in KNOBS.values()}
        assert Settings.from_env(blank) == Settings()

    def test_valid_values_parse(self, tmp_path):
        env = {
            "REPRO_CAMPAIGN_COMPILE_DIR": f" {tmp_path} ",
            "REPRO_STORE_FSYNC": "On",
            "REPRO_FAULT_INJECT": "fail:p=0.5;kill:task=ab",
        }
        assert Settings.from_env(env) == Settings(
            compile_dir=str(tmp_path),
            fsync=True,
            fault_spec="fail:p=0.5;kill:task=ab",
        )
        assert Settings.from_env({"REPRO_STORE_FSYNC": " 0 "}).fsync is False

    def test_malformed_values_raise(self, tmp_path):
        afile = tmp_path / "not-a-dir"
        afile.write_text("")
        for name, value in [
            ("REPRO_STORE_FSYNC", "maybe"),
            ("REPRO_FAULT_INJECT", "explode:p=0.5"),
            ("REPRO_FAULT_INJECT", "fail:p=2"),
            ("REPRO_CAMPAIGN_COMPILE_DIR", str(afile)),
        ]:
            with pytest.raises(ValueError, match=name):
                Settings.from_env({name: value})

    def test_direct_construction_validates_too(self):
        with pytest.raises(ValueError, match="REPRO_FAULT_INJECT"):
            Settings(fault_spec="fail")
        with pytest.raises(ValueError, match="REPRO_STORE_FSYNC"):
            Settings(fsync="yes")

    def test_reads_the_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:n=1")
        assert Settings.from_env().fault_spec == "fail:n=1"


def test_knob_table_covers_every_field():
    assert set(KNOBS) == {f.name for f in fields(Settings)}


def test_only_config_reads_the_environment():
    readers = [
        rel
        for rel, text in _sources()
        if rel != "_config.py" and re.search(r"\b(environ|getenv)\b", text)
    ]
    assert readers == []


def test_src_names_exactly_the_settings_knobs():
    names = set()
    for _rel, text in _sources():
        names.update(re.findall(r"REPRO_[A-Z_]+", text))
    assert names == set(KNOBS.values())


def test_benchmarks_name_only_the_settings_knobs():
    """The benchmark harness has one mode: no environment switch of its
    own (such as a strict-timing flag) may come back."""
    names = {
        (rel, name)
        for rel, text in _sources(BENCHMARKS)
        for name in re.findall(r"REPRO_[A-Z_]+", text)
    }
    assert names, "no benchmark sources found"
    assert {
        (rel, name) for rel, name in names if name not in KNOBS.values()
    } == set()


class TestMalformedKnobFailsTheRun:
    """A malformed ``REPRO_FAULT_INJECT`` used to reach process workers
    unparsed: each worker died initialising and every task was stored
    as ``crashed``, which ``--resume`` then counted as done."""

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["inline", "resilient"])
    def test_cli_exits_naming_the_knob(self, tmp_path, jobs):
        out = tmp_path / "o.jsonl"
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["REPRO_FAULT_INJECT"] = "explode:p=0.5"
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                "--out", str(out), "--nests", "2", "--jobs", jobs,
                "--no-corpus",
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2  # a CLI error, not a traceback
        assert proc.stderr.startswith("error: bad REPRO_FAULT_INJECT")
        assert not out.exists()

    def test_run_campaign_raises_before_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "maybe")
        out = tmp_path / "o.jsonl"
        with pytest.raises(ValueError, match="REPRO_STORE_FSYNC"):
            run_campaign([], str(out))
        assert not out.exists()
