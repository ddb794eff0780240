"""The event heap holds self-scheduled work only, never the arrival trace.

The simulator feeds a scenario's arrival trace through
``EventQueue.feed``, which keeps it in a sorted run beside the heap.  What is left on the heap is work the simulation schedules for
itself: one completion per running task plus a few cycle/tick events.
So its size at any completion is bounded by the cluster's concurrency,
however many requests the trace holds.  A count, not a timing: if the
trace ever lands back on the heap, the bound breaks at the larger scale.
"""

from repro.cluster.node import RenderNode
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

#: Pending events beside the running tasks' completions (scheduling
#: cycle and the like).
SLACK = 4


def test_heap_bounded_by_concurrency_not_trace_size(monkeypatch):
    finish = RenderNode._finish
    sizes = []

    def observed_finish(node, task):
        sizes.append(len(node._heap))
        finish(node, task)

    monkeypatch.setattr(RenderNode, "_finish", observed_finish)
    small, large = make_scenario(2, scale=0.05), make_scenario(2, scale=0.25)
    assert len(large.trace.requests) >= 4 * len(small.trace.requests)
    for scenario in (small, large):
        sizes.clear()
        result = run_simulation(scenario, "OURS", RunConfig(drain=True))
        assert result.drained and sizes
        concurrency = scenario.system.node_count * scenario.system.gpus_per_node
        assert max(sizes) <= concurrency + SLACK
