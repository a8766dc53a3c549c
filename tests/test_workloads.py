"""The benchmark's workloads (perfbench/workloads.py) as tier-1 tests.

Each workload runs at seed 3 and full size, exactly as the benchmark runs it,
and its own check must pass: the pinned digest is the bytes of the result
(JSON, entropy map or CSV), so a change that should leave the numbers alone
is shown to do so here rather than only by a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import pinned_by_core

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
        ("sid-stem", {
            "SkylakeX": "1adff3d1f43287267bc385e770225b048d292a472f26438416553c9c06432957",
            "Haswell": "ecde2e6bbae80bd56c24ff7689a8ca78a322fb711b2292a68556fa7c5b9e49e1",
        }, 80),
        ("ru-cli", {
            "SkylakeX": "00d52fcc8e0f4a665d2adf4a3f204097dd1804f305738090850b04f6612cedb0",
            "Haswell": "4452250264e004fb2659889ab62ec236ef7ac6fe1cabaaf99133dbe239892264",
        }, 600),
        ("damage", {
            "SkylakeX": "50b6174be312afbd43898f169e010358ac3b064a6f7e62a980135744dc75278f",
            "Haswell": "d0dc9fdbf84e005d88267de60c329dee8d2f0d42156a7179416c02a0ce4c01e8",
        }, 0),
    ],
    ids=["sid-stem", "ru-cli", "damage"],
)
def test_workload_digest_at_seed_3(workloads, tmp_path, name, digest, steps):
    workload = workloads[name](3, tmp_path, False)
    outdir = tmp_path / "out"
    outcome = workload.check(workload.execute(outdir), outdir)
    assert (outcome.digest, outcome.steps) == (pinned_by_core(digest), steps)


def test_every_workload_is_pinned(workloads):
    assert sorted(workloads) == ["damage", "ru-cli", "sid-stem"]
