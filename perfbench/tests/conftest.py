import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

ROOT = BENCH.parent


@pytest.fixture(scope="session")
def prog():
    return workloads.import_program(ROOT)


@pytest.fixture(scope="session")
def reference():
    return workloads.load_reference()
