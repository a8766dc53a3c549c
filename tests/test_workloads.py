"""The benchmark's workloads (perfbench/workloads.py) as tier-1 tests.

Each workload runs at seed 3 and full size, exactly as the benchmark runs it,
and its own check must pass: the pinned digest is the bytes of the result
(JSON, entropy map or CSV), so a change that should leave the numbers alone
is shown to do so here rather than only by a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize(
    "name,digest,steps",
    [
        ("sid-stem", "16444e6c4982ea57177732b9a20f2650be04b181e7691886b2bfacb27db9287c", 80),
        ("ru-cli", "551a840446955f1f8925585e3ea9d41eb759fd2bd659f0fa89867362ecef22b9", 600),
        ("damage", "b5ea2dbb109a74e6f1baefc731462928e93054abfd59ff23fa7397d7f5509540", 0),
    ],
    ids=["sid-stem", "ru-cli", "damage"],
)
def test_workload_digest_at_seed_3(workloads, tmp_path, name, digest, steps):
    workload = workloads[name](3, tmp_path, False)
    outdir = tmp_path / "out"
    outcome = workload.check(workload.execute(outdir), outdir)
    assert (outcome.digest, outcome.steps) == (digest, steps)


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads) == ["damage", "ru-cli", "sid-stem"]
