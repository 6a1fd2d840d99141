"""The suite's own pytest settings must report a failing test, not abort the session.

``pyproject.toml`` turns deprecation warnings into errors; one raised by a tool that
pytest or a plugin imports while it reports a failure would abort the whole session
with ``INTERNALERROR`` (exit 3) and hide every test after it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# on failure the hypothesis plugin imports the tools it explains a failing example with
PROBE = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass
"""


def test_a_failing_hypothesis_test_fails_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, *args, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 1, done.stdout + done.stderr  # 3: the session aborted
    assert "1 failed, 1 passed" in done.stdout
