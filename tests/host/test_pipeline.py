"""Tests for the pipeline overlap model."""

import pytest

from repro.host import run_pipeline


class TestSchedule:
    def test_single_item(self):
        result = run_pipeline([[1.0, 2.0, 3.0]])
        assert result.total_time == pytest.approx(6.0)

    def test_perfect_overlap(self):
        # identical items: steady state advances by the slowest stage
        result = run_pipeline([[1.0, 2.0, 1.0]] * 5)
        # fill (1+2+1) + 4 more items through the 2.0 bottleneck
        assert result.total_time == pytest.approx(4.0 + 4 * 2.0)

    def test_io_bound_pipeline_idles_kernel(self):
        result = run_pipeline([[10.0, 1.0, 2.0]] * 4,
                              ["io", "h2d", "kernel"])
        # kernel waits (10+1) before the first run, then 8 per gap
        assert result.idle_of("kernel") == pytest.approx(11.0 + 3 * 8.0)

    def test_compute_bound_pipeline_has_low_kernel_idle(self):
        result = run_pipeline([[1.0, 1.0, 10.0]] * 4,
                              ["io", "h2d", "kernel"])
        assert result.idle_of("kernel") == pytest.approx(2.0)  # fill only

    def test_busy_accounting(self):
        result = run_pipeline([[1.0, 2.0]] * 3, ["a", "b"])
        assert result.busy_of("a") == pytest.approx(3.0)
        assert result.busy_of("b") == pytest.approx(6.0)

    def test_heterogeneous_items(self):
        result = run_pipeline([[1.0, 1.0], [5.0, 1.0], [1.0, 1.0]])
        # item2 waits for item1's long stage0
        assert result.finish_times[1][0] == pytest.approx(6.0)
        assert result.total_time == pytest.approx(8.0)

    def test_in_order_constraint(self):
        # a fast item cannot overtake a slow predecessor in a stage
        result = run_pipeline([[5.0, 1.0], [0.1, 1.0]])
        assert result.finish_times[1][0] >= result.finish_times[0][0]


class TestValidation:
    def test_empty(self):
        assert run_pipeline([]).total_time == 0.0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0, 2.0], [1.0]])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0, -2.0]])

    def test_name_length_mismatch(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0, 2.0]], ["only-one"])


class TestQueues:
    """Finite inter-stage queues (§5.3.2 backpressure)."""

    def test_huge_queues_match_unbounded(self):
        stage_times = [[1.0, 2.0]] * 6
        assert run_pipeline(stage_times,
                            queue_capacities=[100]).total_time == \
            pytest.approx(run_pipeline(stage_times).total_time)

    def test_small_queue_blocks_fast_producer(self):
        # stage0 fast, stage1 slow: with queue size 1 the producer stalls
        stage_times = [[0.1, 1.0]] * 8
        tight = run_pipeline(stage_times, queue_capacities=[1])
        assert sum(tight.stage_blocked) > 0
        # blocked time exists but throughput is still stage-1 bound,
        # so total latency matches the unbounded schedule
        loose = run_pipeline(stage_times, queue_capacities=[8])
        assert tight.total_time == pytest.approx(loose.total_time)

    def test_blocking_propagates_upstream(self):
        # three stages, middle queue tiny, last stage slow: stage 0
        # eventually stalls behind stage 1's stalls
        stage_times = [[0.1, 0.1, 1.0]] * 10
        result = run_pipeline(stage_times, queue_capacities=[1, 1])
        assert result.stage_blocked[0] > 0
        assert result.stage_blocked[1] > 0
        assert result.stage_blocked[2] == pytest.approx(0.0)

    def test_bounded_never_faster_than_unbounded(self):
        stage_times = [[0.5, 0.2, 0.9], [0.1, 1.2, 0.3], [0.8, 0.2, 0.2],
                       [0.05, 0.9, 0.6]]
        unbounded = run_pipeline(stage_times).total_time
        for capacity in (1, 2, 3):
            bounded = run_pipeline(
                stage_times,
                queue_capacities=[capacity, capacity]).total_time
            assert bounded >= unbounded - 1e-12

    def test_wrong_capacity_count(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0, 1.0]], queue_capacities=[1, 1])

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0, 1.0]], queue_capacities=[0])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0, -1.0]], queue_capacities=[1])
