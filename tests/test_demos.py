"""Each demo prints exactly its pinned output in demos/expected."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_pinned_output():
    pinned = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert pinned == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert proc.stdout == expected
