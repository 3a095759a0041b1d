"""The README's examples as a user runs them: each in a fresh interpreter,
outside pytest's warning capture, with a numpy RuntimeWarning made an error.
CI's contract steps call these tests, so Tier-1 runs what CI checks."""
import os
import subprocess
import sys

from conftest import ROOT, readme_library_example


def test_readme_library_example_runs_clean(tmp_path):
    example = tmp_path / "example.py"
    example.write_text(readme_library_example())
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(example)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        cwd=tmp_path,
    )
    assert (out.returncode, out.stderr) == (0, "")
