"""The benchmark's own output checks, run once as tests.

One seed-1 pass of each workload of `perfbench/workloads.py`: every
operation's check must return None.  That covers the bundle, `verify` and
dump digests, each probe's prediction kind and maximum deviation, the
cocycle oracle and the disjointness certificates against
`perfbench/reference.json`.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", ["cli_roundtrip", "probe_scale", "exact_algebra"])
def test_one_pass_passes_every_check(workload, tmp_path):
    reference = wl.load_reference()
    inputs = wl.make_inputs(workload, 1, reference)
    ops = wl.build(workload, ROOT, tmp_path, inputs, reference)
    assert ops
    failures = [(op.name, failure) for op in ops
                if (failure := op.check(op.run())) is not None]
    assert failures == []
