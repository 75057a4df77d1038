"""Daemon entry owned by the benchmark.

Usage: ``python3 perfbench/launcher.py [--trace-out PATH] serve ARGS...``

With ``--trace-out`` it installs the span wrappers of :mod:`spans`
first; then it enters the normal ``repro`` command-line entry point
with the remaining arguments.  When that returns (the daemon drained),
the recorded spans and counters are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    trace_out = ""
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    recorder = None
    if trace_out:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    if recorder is not None:
        with open(trace_out, "w") as handle:
            json.dump(recorder.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
