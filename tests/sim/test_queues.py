"""Input checks of run_pipeline when its inter-stage queues are bounded
(§5.3.2 backpressure)."""

import pytest

from repro.host import run_pipeline


class TestValidation:
    def test_empty(self):
        assert run_pipeline([], queue_capacities=[]).total_time == 0.0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([[1.0], [1.0, 2.0]], queue_capacities=[1])
