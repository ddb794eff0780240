"""The price list: every component prices a task from one definition.

``CostParameters.render_times`` / ``composite_times`` and
``SchedulerTables.io_estimates`` fill a missing entry on its first read.
These properties pin each price to the Definition-1 formula bit for bit
(``float.hex``), check that a read stores what it returns, that copies
start empty, that a pickled cost model (the ``run_many`` pool ships one)
prices alike, and that a completion's measured I/O time is what
``estimate()`` adds the render price to.

The example count comes from the Hypothesis profile, so
``--hypothesis-profile=deep`` runs this suite far past tier-1's count.
"""

import dataclasses
import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.costs import CostParameters
from repro.cluster.interconnect import swap_stage_count
from repro.core.chunks import Dataset
from repro.util.units import GiB, MiB
from tests.conftest import MiniHarness

constant = st.floats(min_value=0.0, max_value=1.0)
costs = st.builds(
    CostParameters,
    render_base=constant,
    render_per_pixel=st.floats(min_value=0.0, max_value=1e-6),
    image_pixels=st.integers(1, 4096 * 4096),
    render_per_byte=st.floats(min_value=0.0, max_value=1e-9),
    group_stage_overhead=constant,
    composite_stage_latency=constant,
    composite_per_pixel=st.floats(min_value=0.0, max_value=1e-6),
    render_jitter=st.floats(min_value=0.0, max_value=0.99),
)
chunk_bytes = st.integers(0, 4 * GiB)
groups = st.integers(0, 128)
keys = st.lists(st.tuples(chunk_bytes, groups), min_size=1, max_size=8)


def render_formula(cost, nbytes, group):
    return (
        cost.render_base
        + cost.render_per_pixel * cost.image_pixels
        + cost.render_per_byte * nbytes
        + cost.group_stage_overhead * swap_stage_count(max(1, group))
    )


def composite_formula(cost, group):
    return (
        cost.composite_stage_latency * swap_stage_count(max(1, group))
        + cost.composite_per_pixel * cost.image_pixels
    )


@given(costs, keys)
def test_prices_match_the_formula_to_the_bit(cost, keys):
    for nbytes, group in keys:
        expected = render_formula(cost, nbytes, group).hex()
        assert cost.render_times[nbytes, group].hex() == expected
        assert cost.render_time(nbytes, group).hex() == expected
        expected = composite_formula(cost, group).hex()
        assert cost.composite_times[group].hex() == expected
        assert cost.composite_time(group).hex() == expected


@given(costs, chunk_bytes, groups)
def test_first_read_stores_the_entry(cost, nbytes, group):
    assert (nbytes, group) not in cost.render_times
    assert group not in cost.composite_times
    render = cost.render_time(nbytes, group)
    composite = cost.composite_time(group)
    assert dict(cost.render_times) == {(nbytes, group): render}
    assert dict(cost.composite_times) == {group: composite}


@given(costs, keys, constant)
def test_copies_start_with_empty_tables(cost, keys, base):
    for nbytes, group in keys:
        cost.render_time(nbytes, group)
        cost.composite_time(group)
    for copy in (
        cost.with_overrides(render_base=base),
        dataclasses.replace(cost),
    ):
        assert not copy.render_times and not copy.composite_times
        nbytes, group = keys[0]
        assert copy.render_time(nbytes, group).hex() == (
            render_formula(copy, nbytes, group).hex()
        )
    assert len(cost.render_times) == len(set(keys))


@given(costs, keys, keys)
def test_pickled_cost_prices_alike(cost, read, fresh):
    for nbytes, group in read:
        cost.render_time(nbytes, group)
        cost.composite_time(group)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(cost, protocol=protocol))
        assert loaded == cost
        assert loaded.render_times == cost.render_times
        assert loaded.composite_times == cost.composite_times
        for nbytes, group in fresh:
            assert loaded.render_time(nbytes, group).hex() == (
                cost.render_time(nbytes, group).hex()
            )
            assert loaded.composite_time(group).hex() == (
                cost.composite_time(group).hex()
            )
        # The loaded tables fill themselves, not the original's.
        assert loaded.render_times.price.__self__ is loaded


@given(
    costs,
    st.integers(1, 8),
    st.floats(min_value=1e-6, max_value=100.0),
    groups,
)
def test_estimate_is_measured_io_plus_render(cost, chunks, io_time, group):
    harness = MiniHarness(cost=cost)
    tables = harness.tables
    job = harness.job(Dataset("ds", chunks * 256 * MiB))
    task = harness.ctx.decompose(job)[0]
    chunk = task.chunk
    seed = harness.cluster.storage.estimate_load_time(chunk.size)
    assert chunk not in tables.io_estimates
    assert tables.estimate(chunk, group).hex() == (
        (seed + cost.render_times[chunk.size, group]).hex()
    )
    assert tables.io_estimates[chunk] == seed

    tables.record_assignment(task, 0, now=0.0)
    task.start_time, task.finish_time = 0.0, io_time + 1.0
    task.cache_hit, task.io_time = False, io_time
    tables.correct_completion(task, 0, now=task.finish_time)

    assert tables.io_estimates[chunk] == io_time
    render = cost.render_times[chunk.size, group]
    assert tables.estimate(chunk, group).hex() == (io_time + render).hex()
    assert tables.io_estimate(chunk) == io_time
    hit, cold = tables.estimate_components(chunk, group)
    assert (hit.hex(), cold.hex()) == (render.hex(), (io_time + render).hex())
    cold_node = next(k for k in range(harness.tables.node_count) if k != 0)
    assert tables.exec_estimate(chunk, cold_node, group).hex() == cold.hex()
    assert tables.exec_estimate(chunk, 0, group).hex() == hit.hex()
