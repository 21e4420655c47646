"""perfbench's default-seed digests, checked in the test suite.

Runs round 0 of the default seed of each workload in-process, through
``perfbench/workloads.py`` and inside the workload's ``context()``, and
hashes each op's check bytes in order, as ``perfbench/run.py``'s
``check_digest`` does. A change that moves a recorded benchmark output
then fails here, not only in a benchmark run. Nothing under perfbench/
is written.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import dpsco

PERFBENCH = Path(dpsco.__file__).resolve().parents[2] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling checks.py as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", sorted(EXPECTED["digests"]))
def test_default_seed_round_matches_the_recorded_digest(workloads, name):
    wl = workloads.WORKLOADS[name](dpsco)
    digest = hashlib.sha256()
    problems = []
    with wl.context():
        for op in wl.round(workloads.round_seed(EXPECTED["default_seed"], 0)):
            data, found = op.check(op.run())
            digest.update(data)
            problems += [f"{op.kind}: {problem}" for problem in found]
    assert problems == []
    assert digest.hexdigest() == EXPECTED["digests"][name]
