"""``repro serve`` with the benchmark's layer wrappers installed.

Used only by traced ``service-mix`` runs: it takes the same arguments as
``python -m repro serve``, runs with ``REPRO_TELEMETRY=trace`` from the
environment, and on SIGINT the CLI flushes the spans and counters to
``REPRO_TELEMETRY_DIR``.
"""

import sys

import tracing
from repro.cli import main

if __name__ == "__main__":
    tracing.install_wrappers()
    sys.exit(main(["serve", *sys.argv[1:]]))
