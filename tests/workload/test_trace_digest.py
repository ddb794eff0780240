"""Pinned workload traces: generation is bit-identical to the scalar builder.

The generators build each action's frame times with one vector jitter
draw and order each stream with one argsort.  The digests below were
recorded from the earlier generator, which drew one scalar jitter value
per frame and sorted every trace with a Python key, so any change to a
request's time (to the last bit), type, dataset, user, action or
sequence, or to the request order, fails here.  The e2e workload scales
are covered, so the benchmark's inputs are pinned too.
"""

import hashlib
import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import dataset_suite
from repro.core.job import JobType
from repro.util.units import GiB
from repro.workload import (
    UserAction,
    make_scenario,
    persistent_actions,
    poisson_action_stream,
    poisson_batch_stream,
    time_varying_batch_stream,
)


def trace_digest(requests) -> str:
    """sha256 over every request field, times via ``float.hex``."""
    h = hashlib.sha256()
    for r in requests:
        h.update(
            f"{float.hex(r.time)} {r.job_type.value} {r.dataset} {r.user} "
            f"{r.action} {r.sequence}\n".encode()
        )
    return h.hexdigest()


D4 = dataset_suite(4, GiB)
D6 = dataset_suite(6, GiB)

#: name -> (trace builder, request count, digest).
CASES = {
    "scenario1-cached-s1": (
        lambda: make_scenario(1, scale=3.5).trace,
        42006,
        "2e847099c7c1c78d70733c0c70002374c78b67ccde7d525b6ff9cbea79ec034f",
    ),
    "scenario2-paper-s2": (
        lambda: make_scenario(2, scale=1.7, seed=2).trace,
        37402,
        "f15686849fe1c93e7a7a550170752b2be8d9443472f686a3a502df3f53ebc18b",
    ),
    "scenario3-immediate-s3": (
        lambda: make_scenario(3, scale=0.065, seed=3).trace,
        6511,
        "eafae22a4a270799e45a289170dc04ee832e83fe372b2f5e1eb04465434d22da",
    ),
    "scenario4-backlog-s4": (
        lambda: make_scenario(4, scale=0.045, seed=4).trace,
        14543,
        "c01282d29c830c840d13b5f23bb0b6825e905f2a39fd4dcd7a9cf34a5295509c",
    ),
    "scenario2-observed-storm": (
        lambda: make_scenario(2, scale=2.4, seed=2, load=2.5).trace,
        128539,
        "e9757ad357a4641fb44566cc35a893bb284beace1c15eccf71daa2e3f2116ff1",
    ),
    "scenario3-users3": (
        lambda: make_scenario(3, scale=0.02, seed=5, users=3).trace,
        4225,
        "b06857c072458a0921bddb73244d32ceeccce000a403b1209df96f08be25ff16",
    ),
    "persistent-actions12": (
        lambda: persistent_actions(D4, 5.0, actions=12, seed=5),
        2004,
        "c0a23c6154855b750bfbbd01a4d82a73857b2b561ed6f4734d8263d0284e22e2",
    ),
    "persistent-jitter0": (
        lambda: persistent_actions(D4, 2.0, jitter=0.0, seed=6),
        268,
        "4efbd4147c1ddfda8a36922d414529a4c00fbddd54fa1f9965450a3858d4e433",
    ),
    "poisson-weights": (
        lambda: poisson_action_stream(
            D6,
            20.0,
            arrival_rate=2.0,
            mean_action_duration=1.5,
            dataset_weights=[3.0, 1.0, 0.0, 1.0, 0.0, 2.0],
            seed=11,
        ),
        2284,
        "557fa772cd93c4f44daa264dc88cf16ef0f9ae0cbf31245f588b79c07b7186da",
    ),
    "poisson-users": (
        lambda: poisson_action_stream(
            D4,
            20.0,
            arrival_rate=3.0,
            mean_action_duration=1.0,
            users=3,
            first_user=7,
            first_action_id=100,
            seed=12,
        ),
        2199,
        "97630527d90ea98b3cb7c719f1324c8ff83e690317033ebab6eff4dfa962acef",
    ),
    "poisson-jitter0": (
        lambda: poisson_action_stream(
            D4, 20.0, arrival_rate=2.0, mean_action_duration=0.5, jitter=0.0,
            seed=13,
        ),
        600,
        "fbffc22beea2be3d8d00cbdf5cbd87c7b6fe0616c315e9c144fe00396647994d",
    ),
    "batch": (
        lambda: poisson_batch_stream(
            D6, 60.0, submission_rate=0.5, mean_frames=20.0, seed=14
        ),
        459,
        "63a46cd47ef9adce9937510f2d27821961bfaf9aadaa9cd38e03710918b4da60",
    ),
    "batch-single-frame": (
        lambda: poisson_batch_stream(
            D4, 20.0, submission_rate=2.0, mean_frames=1.0, seed=15
        ),
        42,
        "bd00bdd25b495cd72469076f92dcfe492a1bbd1e35759618b4d1bcfeeeb2b33b",
    ),
    "time-varying": (
        lambda: time_varying_batch_stream(
            D6, 30.0, submission_rate=0.3, frames_per_submission=9, seed=16
        ),
        99,
        "1a9a24050ecbba59da957684c2d147a8670cfb87ecbb9fc18304cac61d55dcf1",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_pinned(name):
    build, count, expected = CASES[name]
    requests = build().requests
    assert len(requests) == count
    assert trace_digest(requests) == expected


def test_request_fields_are_python_scalars():
    """Times are ``float`` and ids ``int``, never numpy scalars."""
    trace = make_scenario(2, scale=0.05, seed=2)
    for r in trace.trace.requests:
        assert type(r.time) is float
        assert type(r.user) is int
        assert type(r.action) is int
        assert type(r.sequence) is int
        assert type(r.dataset) is str
        assert isinstance(r.job_type, JobType)


# -- differential test against the scalar builder ---------------------------


def scalar_frame_times(action: UserAction, jitter: float, rng) -> List[float]:
    """The earlier per-frame builder, kept as the oracle."""
    out: List[float] = []
    n = int(math.floor(action.duration / action.interval + 1e-9)) + 1
    tolerance = 1e-9 * max(1.0, abs(action.start) + action.duration)
    half = jitter * action.interval
    for i in range(n):
        t = action.start + i * action.interval
        if i > 0 and t > action.start + action.duration + tolerance:
            break
        if half and i > 0:
            t += float(rng.uniform(-half, half))
        out.append(t)
    return out


@st.composite
def actions(draw):
    rate = draw(st.floats(10.0, 1000.0))
    interval = 1.0 / rate
    kind = draw(st.sampled_from(["multiple", "ratio", "short", "any"]))
    if kind == "multiple":
        # Exact multiples of the interval sit on the break test's edge.
        duration = draw(st.integers(0, 300)) * interval
    elif kind == "ratio":
        # k / rate rounds apart from k * interval by an ulp either way,
        # which the break test's tolerance absorbs.
        duration = draw(st.integers(0, 3000)) / rate
    elif kind == "short":
        duration = draw(st.floats(0.0, interval, exclude_max=True))
    else:
        duration = draw(st.floats(0.0, 10.0))
    start = draw(st.floats(0.0, 1000.0))
    return UserAction(7, 3, "ds", start=start, duration=duration, interval=interval)


@given(
    action=actions(),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.49)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_frame_times_match_scalar_builder(action, jitter, seed):
    oracle_rng = np.random.default_rng(seed)
    expected = scalar_frame_times(action, jitter, oracle_rng)
    rng = np.random.default_rng(seed)
    requests = action.requests(jitter=jitter, rng=rng)
    assert [float.hex(r.time) for r in requests] == [
        float.hex(t) for t in expected
    ]
    assert [r.sequence for r in requests] == list(range(len(expected)))
    # Equal generator states prove the same number of draws.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_frame_times_is_the_request_series():
    action = UserAction(0, 0, "ds", start=2.0, duration=1.0, interval=0.03)
    times = action.frame_times(jitter=0.25, rng=np.random.default_rng(4))
    requests = action.requests(jitter=0.25, rng=np.random.default_rng(4))
    assert times.tolist() == [r.time for r in requests]
