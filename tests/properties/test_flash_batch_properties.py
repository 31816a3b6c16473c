"""Property: a flash batch costs what its pages cost one call at a time.

``FlashArray.read_pages`` and ``program_pages`` issue every page of a
batch at the batch's start time, in order. The STL's pending program
chain and ``BaselineSSD._program_lpns`` group programs into one batch on
the strength of this: a batch must leave every channel and bank
timeline exactly as one-page calls at the same issue time would, and
end when the last of those calls ends.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm import TINY_TEST, FlashArray

PAGES = TINY_TEST.geometry.total_pages

#: one step: (read or program, page indices, issue time)
STEPS = st.lists(
    st.tuples(st.sampled_from(("read", "program")),
              st.lists(st.integers(0, PAGES - 1), min_size=1, max_size=24),
              st.floats(0.0, 2e-3, allow_nan=False)),
    min_size=1, max_size=6)


def _timelines(flash: FlashArray) -> list:
    lines = flash.channel_lines + [line for row in flash.bank_lines
                                   for line in row]
    return [(line.free_at.hex(), line.busy_time.hex(), line.ops)
            for line in lines]


@settings(max_examples=150, deadline=None)
@given(steps=STEPS)
def test_batch_equals_one_page_calls(steps):
    batched = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                         store_data=False)
    single = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                        store_data=False)
    for kind, pages, issue in steps:
        end = getattr(batched, kind + "_pages")(pages, issue)
        op = getattr(single, kind + "_pages")
        ends = [op([page], issue) for page in pages]
        assert end == max(ends)
        assert _timelines(batched) == _timelines(single)
    assert batched.stats.counters == single.stats.counters
