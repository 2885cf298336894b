"""Run a snippet in a fresh interpreter, which holds none of the test
process's memory, and read that interpreter's own peak RSS."""

import subprocess
import sys
from pathlib import Path

import parityparts

SRC = str(Path(parityparts.__file__).resolve().parents[1])

# a snippet's last line, printing its own peak RSS in KiB.  On Linux a
# child's ru_maxrss starts from the high-water mark of the process that
# started it; VmHWM starts afresh at exec.
PRINT_PEAK = """
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def run_fresh(snippet, *args):
    """stdout of ``snippet`` under ``python -I -S``, with the checkout's
    ``src`` as ``sys.argv[1]`` and ``args`` after it."""
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", snippet, SRC, *args],
        capture_output=True, text=True, check=True,
    )
    return result.stdout
