"""The schedule contract: every registered scheduler on every Table II
scenario, pinned.

One row per (scenario, scheduler) pins the assignment-trace digest (who
ran what, where and when, hashed with ``float.hex``), the number of
events processed and the number of tasks executed.  The values were
recorded before the OURS cycle's availability heap replaced its
per-chunk minimum scan, and every later change to scheduling code must
keep them.  A change that moves a pinned value changes behaviour: it
names the rows and the reason when it updates them.

Each scenario runs at a scale where every scheduler executes tasks, so
no row pins the digest of an empty trace.  Scenario 4 is the 64-node
configuration; its OURS row places tasks in phases 2, 3 and 4 of
Algorithm 1 (checked below).
"""

import hashlib

import pytest

from repro.core.ours import OursScheduler
from repro.core.registry import SCHEDULER_NAMES
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

#: Scenario -> scale of its rows.
SCALES = {1: 0.1, 2: 0.1, 3: 0.01, 4: 0.01}

EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()

#: ``(scenario, scheduler): (trace digest, events_processed, tasks_executed)``.
PINNED = {
    (1, "FS"): (
        "9fce1f07b18f3927c865de4aa4b785db0cba72e3fb7a6facccca94c1e656c366",
        1539,
        32,
    ),
    (1, "SF"): (
        "0bd9747334cb548b7435015f6a1c58530866a0486082a253648670f810866f6a",
        1314,
        40,
    ),
    (1, "FCFS"): (
        "6132a8868522ea453da4105bc2555cf317c8596d0f91a0e97931106fa93d7ae3",
        1217,
        17,
    ),
    (1, "FCFSU"): (
        "fa3deab55ac8148743a4a6c783702244da63f47b78f3281e26a89aff0cd070c6",
        5843,
        4643,
    ),
    (1, "FCFSL"): (
        "5795a72e74fd32d169ed86c442cd176488fb3656ca4bac35de0ee91b16146f1e",
        5984,
        4784,
    ),
    (1, "OURS"): (
        "f2c5eb5f58b14b4368c937663c406c710055f67ac600ebe8e990f0a8943f809f",
        6283,
        4776,
    ),
    (1, "RR"): (
        "71edc6565f65ecbe09ae7952f71bf3d8f1272d1da5602c85e62872732a39b048",
        1248,
        48,
    ),
    (2, "FS"): (
        "ede63565c65037a1243774c319b749555e285f683ab658365ce96fa74f367906",
        2334,
        428,
    ),
    (2, "SF"): (
        "fea3924dd2bd19ce8f66887de2c57a1bfdf1a070678235b83c2ef0d166ef8f21",
        1593,
        34,
    ),
    (2, "FCFS"): (
        "c71a7c5563adece3bf83ea13ab44dcc81e6230cd5c8b6c76c17d7846e2b6f2d0",
        1862,
        428,
    ),
    (2, "FCFSU"): (
        "c1b5fdfd030380f97d9808d2ad5cd42c74f8d23d989292d2e52857115a863e1d",
        9365,
        7931,
    ),
    (2, "FCFSL"): (
        "94891a4f42e54f42ad402b4d2734fabf919d52d5f0a4e58b40b76136831905ea",
        7170,
        5736,
    ),
    (2, "OURS"): (
        "5b77c16d4ea6e414a2252f857819edfc25e458d67c41a0e0fb99b78a1415d3b8",
        7799,
        5732,
    ),
    (2, "RR"): (
        "a65adfa402ae0eba8c5c271e38717c080fb356ebbf4e7a52d5bbac010f20fbc1",
        1874,
        440,
    ),
    (3, "FS"): (
        "96c25652f8e458010c295d528c2d70a5e800bf40f3154d3143b41527b5f98603",
        625,
        85,
    ),
    (3, "SF"): (
        "8b36045ae2d7b5724a2b1f7ea159ccc65defef145166f9065e463d357d29acf2",
        520,
        85,
    ),
    (3, "FCFS"): (
        "5f79cfcd6a61c84a70f792b3c54c9d4d48926a7f9fc988d3efdbc6643f9cd093",
        489,
        85,
    ),
    (3, "FCFSU"): (
        "8435faf8d33e5fd999e6ebb9778f58e70165afbf8ff96804569c3662b8eab341",
        23349,
        22945,
    ),
    (3, "FCFSL"): (
        "6c9190d9d13ea22ecb7b50645f9c975f16fc281ca6b2a6ad3813d199197eba0f",
        6836,
        6432,
    ),
    (3, "OURS"): (
        "3f63f1819903c8fa2a28eac22110052167a074b97fe1f96343b1dfce525cdb14",
        4365,
        3818,
    ),
    (3, "RR"): (
        "481f227ca98c965edd97966e0b978b63344973eef8e150933bb7cc8d44792472",
        1348,
        944,
    ),
    (4, "FS"): (
        "6e2c1d0bc0260e81ed2c9c70b2d477e10d3557fcf54b933ea5af98636e759539",
        2032,
        100,
    ),
    (4, "SF"): (
        "7cfa0bd9fb969b280c0600a74b1500597e30f2fee578fb59c613e1188a51e436",
        1953,
        176,
    ),
    (4, "FCFS"): (
        "e50b997636360441930c78b13e3cd6bc2029556bdb9abb3d530199b09b1e4518",
        1754,
        82,
    ),
    (4, "FCFSU"): (
        "4f3c4447d7b91527a7f7be9c14bb925d97fe7f39ca8196f43f1bcfc3843d1e63",
        33032,
        31360,
    ),
    (4, "FCFSL"): (
        "e819b2b9b2562cb0496c57d0432c992a0ae3d2dcecfcacfb819be5f092178de8",
        4024,
        2352,
    ),
    (4, "OURS"): (
        "923e008b0fcfac98791fddb1ad3140de0d8771268dbc0e5483754f668eba2329",
        20380,
        18375,
    ),
    (4, "RR"): (
        "6bbf856a6a1df2c6b64be2829a466c524e0c324f15dce3e218ba5c89fd6913c6",
        1784,
        112,
    ),
}


def _run(number, scheduler):
    return run_simulation(
        make_scenario(number, scale=SCALES[number]),
        scheduler,
        RunConfig(record_assignments=True),
    )


def test_table_covers_every_registered_scheduler():
    assert set(PINNED) == {
        (number, name) for number in SCALES for name in SCHEDULER_NAMES
    }


@pytest.mark.parametrize("number, scheduler", sorted(PINNED))
def test_schedule_is_pinned(number, scheduler):
    digest, events, tasks = PINNED[number, scheduler]
    result = _run(number, scheduler)
    assert result.tasks_executed > 0 and digest != EMPTY_DIGEST
    assert result.assignment_trace_hash() == digest
    assert result.events_processed == events
    assert result.tasks_executed == tasks


def test_scenario4_ours_row_places_tasks_in_every_phase(monkeypatch):
    """The 64-node OURS row reaches interactive placement (phase 2),
    the cached batch pull (phase 3) and the non-cached batch pull
    (phase 4), so its digest covers all three."""
    placed = {"cached": 0, "noncached": 0}

    def counting(phase, method):
        def wrapper(self, lam, ctx):
            before = len(ctx._assignments)
            method(self, lam, ctx)
            placed[phase] += len(ctx._assignments) - before

        return wrapper

    for phase, name in (
        ("cached", "_schedule_cached_batch"),
        ("noncached", "_schedule_noncached_batch"),
    ):
        monkeypatch.setattr(
            OursScheduler, name, counting(phase, getattr(OursScheduler, name))
        )
    result = _run(4, "OURS")
    assert result.assignment_trace_hash() == PINNED[4, "OURS"][0]
    assert placed["cached"] > 0 and placed["noncached"] > 0
    assert len(result.assignment_trace) > placed["cached"] + placed["noncached"]
