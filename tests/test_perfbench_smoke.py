"""The benchmark's own smoke test must pass against the current program.

perfbench/run.py drives the CLI with fixed flags and reads fields of the
artifacts it writes (history.json, report.json). A renamed flag, a removed
field or a crash there ends a benchmark run without its JSON result line;
perfbench/smoke.py runs every workload at tiny sizes and checks for that
result, so a change that breaks the benchmark fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
