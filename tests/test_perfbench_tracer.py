"""The per-layer tracer in perfbench/ still installs over the package.

The tracer wraps public functions by name, so deleting or renaming one of
them breaks `perfbench/run.py --trace 1`.  Installing it patches module
namespaces for the life of the process, so the check runs in a child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import parityparts
from parityparts import cli
import tracer as tracing

tracer = tracing.Tracer()
tracing.install(tracer)
codes = []
for argv in (
    ["verify", "--mode", "exhaustive", "--from", "20", "--to", "21"],
    ["verify", "--mode", "sampled", "--from", "373", "--to", "373", "--samples", "20"],
    ["verify", "--mode", "inequality", "--from", "50", "--to", "60"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(json.dumps({"codes": codes, "metrics": tracing.metrics(tracer, 1)}))
"""


def test_tracer_installs_and_sees_each_layer():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    metrics = result["metrics"]
    assert metrics["core.parity_split.calls"] > 0
    assert metrics["families.FamilySampler.builds"] > 0
    assert metrics["families.CountTable.build.calls"] > 0
