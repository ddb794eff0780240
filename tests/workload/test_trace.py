"""Tests for workload traces."""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.util.units import GiB
from repro.workload.trace import Request, WorkloadTrace, merge_traces


def req(t, ds="a", jt=JobType.INTERACTIVE, action=0, seq=0, user=0):
    return Request(
        time=t, job_type=jt, dataset=ds, user=user, action=action, sequence=seq
    )


def make_trace(requests, datasets=None, **kw):
    if datasets is None:
        datasets = [Dataset("a", GiB), Dataset("b", GiB)]
    return WorkloadTrace(
        requests=requests, datasets=datasets, duration=10.0, **kw
    )


class TestTrace:
    def test_sorted_by_time(self):
        trace = make_trace([req(2.0), req(1.0), req(3.0)])
        assert [r.time for r in trace.requests] == [1.0, 2.0, 3.0]

    def test_counts(self):
        trace = make_trace(
            [
                req(0.0, action=0),
                req(0.1, action=1),
                req(0.2, jt=JobType.BATCH, action=2),
            ]
        )
        assert trace.interactive_count == 2
        assert trace.batch_count == 1
        assert trace.action_count == 2

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            make_trace([req(0.0, ds="zz")])

    def test_duplicate_dataset_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_trace([], datasets=[Dataset("a", 1), Dataset("a", 2)])

    def test_dataset_by_name(self):
        trace = make_trace([])
        assert trace.dataset_by_name("a").size == GiB
        with pytest.raises(KeyError):
            trace.dataset_by_name("zz")

    def test_summary_mentions_counts(self):
        trace = make_trace([req(0.0), req(0.1, jt=JobType.BATCH)])
        s = trace.summary()
        assert "1 batch" in s and "1 interactive" in s


class TestSerialization:
    def test_roundtrip(self):
        trace = make_trace(
            [req(0.5, action=3, seq=7, user=2), req(1.0, jt=JobType.BATCH)],
            name="t",
        )
        restored = WorkloadTrace.from_json(trace.to_json())
        assert restored.name == trace.name
        assert restored.duration == trace.duration
        assert restored.requests == trace.requests
        assert restored.datasets == trace.datasets

    @pytest.mark.parametrize(
        "rows, bad",
        [
            # A seventh field used to be dropped when rows mixed widths.
            (
                [[0.5, "interactive", "a", 0, 0, 0], [1.0, "batch", "a", 0, 0, 0, 9]],
                1,
            ),
            ([[0.5, "interactive", "a", 0, 0]], 0),
            ([[0.5, "interactive", "a", 0, 0, 0, 1]], 0),
            ([[0.5, "interactive", "a", 0, 0, 0], 7], 1),
        ],
    )
    def test_rows_without_six_fields_rejected_and_named(self, rows, bad):
        text = make_trace([req(0.5)], name="t").to_json()
        data = json.loads(text)
        data["requests"] = rows
        message = rf"request row {bad} must have 6 fields"
        with pytest.raises(ValueError, match=message):
            WorkloadTrace.from_json(json.dumps(data))


class TestRequestSlots:
    """One request per arrival lives for the whole run: no ``__dict__``."""

    def test_no_instance_dict_and_still_frozen(self):
        r = req(0.5, action=3, seq=7, user=2)
        assert not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.time = 1.0
        with pytest.raises((AttributeError, TypeError)):
            r.extra = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        r = req(0.5, jt=JobType.BATCH, action=3, seq=7, user=2)
        clone = pickle.loads(pickle.dumps(r, protocol=protocol))
        assert type(clone) is Request
        assert clone == r and hash(clone) == hash(r)
        assert clone.job_type is JobType.BATCH
        assert copy.deepcopy(r) == r
        assert dataclasses.replace(r, user=5) == req(
            0.5, jt=JobType.BATCH, action=3, seq=7, user=5
        )

    def test_json_text_unchanged(self):
        trace = make_trace(
            [req(0.5, action=3, seq=7, user=2), req(1.0, ds="b", jt=JobType.BATCH)],
            name="t",
        )
        text = trace.to_json()
        assert text == (
            '{"name": "t", "duration": 10.0, "target_framerate": 33.33, '
            '"datasets": [{"name": "a", "size": 1073741824}, '
            '{"name": "b", "size": 1073741824}], "requests": '
            '[[0.5, "interactive", "a", 2, 3, 7], [1.0, "batch", "b", 0, 0, 0]]}'
        )
        assert WorkloadTrace.from_json(text).to_json() == text


class TestMerge:
    def test_merge_unions_datasets_and_sorts(self):
        t1 = make_trace([req(2.0)], datasets=[Dataset("a", GiB)])
        t2 = WorkloadTrace(
            requests=[req(1.0, ds="b", jt=JobType.BATCH)],
            datasets=[Dataset("b", 2 * GiB)],
            duration=20.0,
        )
        merged = merge_traces([t1, t2])
        assert {d.name for d in merged.datasets} == {"a", "b"}
        assert merged.duration == 20.0
        assert [r.time for r in merged.requests] == [1.0, 2.0]

    def test_conflicting_sizes_rejected(self):
        t1 = make_trace([], datasets=[Dataset("a", 1)])
        t2 = make_trace([], datasets=[Dataset("a", 2)])
        with pytest.raises(ValueError, match="conflicting"):
            merge_traces([t1, t2])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([])


class TestOrdering:
    def _sorted_with_ties(self):
        return [
            req(1.0, action=0, seq=0),
            req(1.0, action=1, seq=0),
            req(1.0, action=1, seq=1),
            req(1.5, ds="b", jt=JobType.BATCH, action=9, seq=0),
            req(1.5, ds="b", jt=JobType.BATCH, action=9, seq=1),
            req(2.0, action=0, seq=1),
        ]

    def test_sorted_input_with_equal_time_ties_keeps_its_order(self):
        requests = self._sorted_with_ties()
        before = list(requests)
        trace = make_trace(requests)
        assert trace.requests == before

    def test_reversed_input_is_sorted(self):
        expected = self._sorted_with_ties()
        trace = make_trace(list(reversed(expected)))
        assert trace.requests == expected

    def test_equal_keys_keep_input_order(self):
        """The sort is stable on (time, action, sequence)."""
        first = req(1.0, action=3, seq=0, user=1)
        second = req(1.0, action=3, seq=0, user=2)
        trace = make_trace([req(2.0), second, first])
        assert trace.requests[0] == second and trace.requests[1] == first

    def test_actions_in_id_order_are_sorted_by_time(self):
        """A generator's layout: whole actions, ids rising, times interleaved."""
        requests = [
            req(0.0, action=0, seq=0),
            req(0.5, action=0, seq=1),
            req(0.2, action=1, seq=0),
            req(0.5, action=1, seq=1),
        ]
        trace = make_trace(list(requests))
        assert trace.requests == [requests[i] for i in (0, 2, 1, 3)]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)
            ),
            max_size=30,
        )
    )
    def test_order_equals_one_stable_keyed_sort(self, keys):
        requests = [
            req(t / 2, action=a, seq=s, user=i)
            for i, (t, a, s) in enumerate(keys)
        ]
        expected = sorted(
            requests, key=lambda r: (r.time, r.action, r.sequence)
        )
        trace = make_trace(list(requests))
        assert trace.requests == expected

    def test_merge_matches_a_keyed_sort_of_the_parts(self):
        interactive = make_trace(
            [req(0.3, action=1), req(0.1, action=0), req(0.2, action=0, seq=1)]
        )
        batch = make_trace(
            [
                req(0.2, ds="b", jt=JobType.BATCH, action=5, seq=i)
                for i in range(3)
            ]
        )
        merged = merge_traces([interactive, batch])
        assert merged.requests == sorted(
            [*interactive.requests, *batch.requests],
            key=lambda r: (r.time, r.action, r.sequence),
        )
        assert [(r.time, r.action) for r in merged.requests[:3]] == [
            (0.1, 0),
            (0.2, 0),
            (0.2, 5),
        ]


class TestBoundaryValidation:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -0.5]
    )
    def test_bad_request_time_rejected_and_named(self, bad):
        requests = [req(0.0), req(bad, action=4, seq=2), req(1.0)]
        with pytest.raises(ValueError, match="finite and >= 0") as info:
            make_trace(requests)
        assert "action=4, sequence=2" in str(info.value)

    @pytest.mark.parametrize("duration", [-1.0, float("nan")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            WorkloadTrace(
                requests=[], datasets=[Dataset("a", GiB)], duration=duration
            )

    @pytest.mark.parametrize("fps", [0.0, -33.33, float("nan")])
    def test_bad_target_framerate_rejected(self, fps):
        with pytest.raises(ValueError, match="target_framerate"):
            make_trace([], target_framerate=fps)

    def test_unknown_dataset_named_in_request_order(self):
        with pytest.raises(ValueError, match="unknown dataset 'y'"):
            make_trace([req(0.0), req(0.1, ds="y"), req(0.2, ds="x")])

    def test_job_type_not_a_member_rejected_and_named(self):
        """A string job type would run as batch without a word: the
        service tests ``job_type is JobType.INTERACTIVE``."""
        bad = Request(0.0, "interactive", "a", 0, 5, 1)
        with pytest.raises(ValueError, match="job_type must be a JobType") as info:
            make_trace([req(0.0), bad])
        assert "action=5, sequence=1" in str(info.value)

    @pytest.mark.parametrize("field", ["user", "action", "sequence"])
    @pytest.mark.parametrize("value", [1.5, "3", None, 2**63])
    def test_non_int_id_rejected_and_named(self, field, value):
        bad = dataclasses.replace(req(0.1, action=4, seq=2, user=1), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be a 64-bit int") as info:
            make_trace([req(0.0), bad])
        assert repr(bad) in str(info.value)

    def test_first_bad_request_in_row_order_is_named(self):
        rows = [
            req(0.0),
            req(0.1, user=1.5, action=7),
            Request(0.2, "batch", "a", 0, 8, 0),
        ]
        with pytest.raises(ValueError, match="user must be") as info:
            make_trace(rows)
        assert "action=7" in str(info.value)

    def test_zero_time_and_duration_accepted(self):
        trace = WorkloadTrace(
            requests=[req(0.0)], datasets=[Dataset("a", GiB)], duration=0.0
        )
        assert trace.requests[0].time == 0.0
