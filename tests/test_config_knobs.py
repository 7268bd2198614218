"""``REPRO_*`` knob parsing: unset or blank knobs take their default,
malformed ones fail loudly, naming the variable and the value."""

import os
import subprocess
import sys

import pytest

from repro._config import env_flag, env_int

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@pytest.mark.parametrize(
    "name,value,module",
    [
        ("REPRO_CAMPAIGN_COMPILE_CACHE", "abc", "repro.campaign"),
        ("REPRO_TRACE", "maybe", "repro.obs"),
    ],
)
def test_malformed_knob_fails_at_import(name, value, module):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env[name] = value
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
    assert f"{name}={value!r}" in proc.stderr


class TestParsing:
    def test_unset_and_blank_take_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_X_TEST", raising=False)
        assert env_int("REPRO_X_TEST", 7) == 7
        assert env_flag("REPRO_X_TEST", True) is True
        monkeypatch.setenv("REPRO_X_TEST", "  ")
        assert env_int("REPRO_X_TEST", 7) == 7
        assert env_flag("REPRO_X_TEST", False) is False

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_X_TEST", " 0 ")
        assert env_int("REPRO_X_TEST", 7) == 0
        assert env_flag("REPRO_X_TEST", True) is False
        monkeypatch.setenv("REPRO_X_TEST", "On")
        assert env_flag("REPRO_X_TEST", False) is True

    def test_malformed_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_X_TEST", "12kb")
        with pytest.raises(ValueError, match="REPRO_X_TEST='12kb'"):
            env_int("REPRO_X_TEST", 7)
        with pytest.raises(ValueError, match="REPRO_X_TEST='12kb'"):
            env_flag("REPRO_X_TEST")
