"""Module-level task functions for the sweep tests.

They live in their own importable module (not inside a test function)
because sweep tasks must survive pickling into worker processes.
"""

from __future__ import annotations

import os
import time


def add(x, y):
    return x + y


def square(x, seed=None):
    return x * x


def echo_seed(seed=None):
    return seed


def sleeper(seconds, value):
    time.sleep(seconds)
    return value


def flaky(counter_path, fail_times, value):
    """Fail the first ``fail_times`` calls, then succeed.

    The call counter is a file grown by one byte per call
    (``O_APPEND`` writes are atomic), so the count is shared across
    worker processes.
    """
    with open(counter_path, "ab") as handle:
        handle.write(b"x")
    with open(counter_path, "rb") as handle:
        calls = len(handle.read())
    if calls <= fail_times:
        raise RuntimeError(f"flaky failure #{calls}")
    return value


def pid_tag(value):
    return (value, os.getpid())
