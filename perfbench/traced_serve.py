"""Run ``repro serve`` with the benchmark's span recorders installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_DIR serve [serve flags]``

The wrappers go in before the service is built and, on a worker fleet,
before the supervisor forks, so every serve process records spans.  On
SIGUSR1 a process writes its totals to ``SPANS_DIR/spans.<pid>.json``;
the benchmark signals each serve pid before it kills or stops it.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def main() -> int:
    directory, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install_server(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(directory))
    from repro.experiments.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
