"""Tests for the interconnect model and stage counting."""

import numpy as np
import pytest

from repro.cluster.interconnect import Interconnect, LinkSpec, swap_stage_count
from repro.render.compositing import two_three_swap
from repro.util.units import GiB, MiB


class TestLinkSpec:
    def test_transfer_time(self):
        spec = LinkSpec(latency=1e-4, bandwidth=1 * GiB)
        assert spec.transfer_time(1 * GiB) == pytest.approx(1.0001)

    def test_zero_bytes_is_latency(self):
        spec = LinkSpec(latency=5e-5, bandwidth=GiB)
        assert spec.transfer_time(0) == 5e-5

    @pytest.mark.parametrize("kwargs", [{"latency": -1}, {"bandwidth": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkSpec(**kwargs)


class TestInterconnect:
    def test_accounting(self):
        net = Interconnect(LinkSpec())
        net.send(100)
        net.send(200)
        assert net.messages == 2
        assert net.bytes_sent == 300

    def test_reset(self):
        net = Interconnect(LinkSpec())
        net.send(MiB)
        net.reset_counters()
        assert net.messages == 0
        assert net.bytes_sent == 0

    def test_send_returns_transfer_time(self):
        spec = LinkSpec(latency=0.0, bandwidth=MiB)
        net = Interconnect(spec)
        assert net.send(MiB) == pytest.approx(1.0)


class TestSwapStageCount:
    @pytest.mark.parametrize(
        "group,stages",
        [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (16, 4), (64, 6), (100, 7)],
    )
    def test_stages(self, group, stages):
        assert swap_stage_count(group) == stages

    def test_invalid(self):
        with pytest.raises(ValueError):
            swap_stage_count(0)


#: The functional 2-3 swap's stage count minus ``swap_stage_count(g)``,
#: for the group sizes where the two differ (0 for every other g in
#: 1..64).  The functional count includes the gather of the final image
#: at the root and the pair-merge stage for a count that is not 2-3
#: smooth; the cost model's ``ceil(log2 g)`` has neither.
STAGE_DIFFERENCES = {
    **{g: +1 for g in (2, 4, 5, 7, 8, 13, 14, 15, 16, 17, 25, 26,
                       32, 33, 34, 35, 49, 50, 51, 52, 53, 64)},
    **{g: -1 for g in (9, 18, 27, 36, 54)},
}


def test_stage_count_against_the_functional_two_three_swap():
    """The cost model's stage count and the functional algorithm's stay
    as they are: a change to either fails here."""
    image = np.zeros((4, 2, 4), dtype=np.float32)
    differences = {}
    for g in range(1, 65):
        functional = two_three_swap([image] * g).stages
        if functional != swap_stage_count(g):
            differences[g] = functional - swap_stage_count(g)
    assert differences == STAGE_DIFFERENCES
