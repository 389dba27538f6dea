"""Set-up probe: the work a fresh interpreter does before its first operation.

Imports stochrd, parses the workload's first config and samples its
driver path, then prints time.perf_counter().  The harness takes the
time from launching this process to that reading.

Usage: python3 probe.py CONFIG.ini
"""

import sys
import time

from stochrd.cli import load_config
from stochrd.wiener import sample_two_sided_path

config = load_config(sys.argv[1])
sample_two_sided_path(config.seed, config.path_span(), config.dt)
print(time.perf_counter())
