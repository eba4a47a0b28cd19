"""The byte-identity gate: ``tools/output_digest.py`` on this repository
prints the committed ``tests/output_digest.txt``, one sha256 per section of
library and CLI output and a total.

A change that means to change output re-records the file with

    python3 tools/output_digest.py . > tests/output_digest.txt

and names the sections that moved; any other change must leave every line.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digest_matches_the_committed_lines():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "tests" / "output_digest.txt").read_text().splitlines()
    assert proc.stdout.splitlines() == expected
