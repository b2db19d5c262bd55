"""Shared pytest hooks for the test suite.

The acceptance module appends one "criterion N: PASS/FAIL" line per check to
CRITERION_LINES; echoing them from the terminal-summary hook keeps them
visible in plain ``pytest -v`` output, where capture would otherwise swallow
stdout of passing tests.

BLAS is pinned to one thread before numpy loads, as in benchmarks/run.py: on
the suite's small matrices a second thread doubles CPU time and gains no
wall time, and one thread leaves the other cores to other work.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

CRITERION_LINES = []


def forward_one(model, x):
    """One representation -> its class probability vector, as a one-row batch."""
    return model.forward_batch(x[None, :])[0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
