"""One repetition of a workload in a fresh process; started by run.py.

Usage: child.py WORKLOAD SEED MODE, where MODE is `run` (timed, no
tracing), `trace` (per-layer tracing) or `setup` (import, time the
reference work, exit).

Prints one JSON line.  `ready` is the `time.monotonic()` reading taken
right after `parityparts` is imported, before the first workload call;
run.py subtracts the reading it took before starting this process.
run.py starts it with `python -I -S`, and only `sys`, `os` and `time`
are imported before that reading, so the set-up time is interpreter
start plus the package import.
"""

import os
import sys
import time


def reference_work() -> float:
    """Seconds taken by fixed pure-Python work that does not use the package.

    It tracks how fast this machine runs Python at the moment: run.py
    rescales its time metrics by it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        parts = sorted(((i * 7 + k) % 23 + 1 for k in range(i % 11)), reverse=True)
        total += sum(parts) * len(tuple(parts)) + (i << 40) // (i + 1)
    return time.perf_counter() - start


def main() -> None:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import parityparts
    from parityparts import cli

    ready = time.monotonic()

    import contextlib
    import io
    import json
    import resource

    sys.path.insert(0, here)
    import workloads

    if not os.path.abspath(parityparts.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"imported parityparts from {parityparts.__file__}, not from {src}")
    result = {"ready": ready}
    if mode == "setup":
        result["reference_s"] = reference_work()
        print(json.dumps(result))
        return
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    outputs = []
    wall = time.perf_counter()
    cpu = time.process_time()
    for argv in workloads.commands(workload, seed):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = cli.run(argv)
        outputs.append((status, buffer.getvalue()))
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    items = workloads.items(workload)
    failures, errors = workloads.check(workload, seed, outputs)
    result.update(wall_s=wall, cpu_s=cpu, maxrss_kib=maxrss_kib, items=items,
                  failures=failures, errors=errors)
    if tracer is not None:
        result["metrics"] = tracing.metrics(tracer, items)
        result["table"] = tracer.table()
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
