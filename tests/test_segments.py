"""Property test of the segment rule: free, driven, free runs from one drive window."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from jcdrive.dynamics import TimeDependentHamiltonian, _segments
from jcdrive.hilbert import FockCutoff

_CUT = FockCutoff(2)
_HAM = TimeDependentHamiltonian(
    static_part=np.zeros((_CUT.dim, _CUT.dim)),
    cutoff=_CUT,
    drive=np.zeros((_CUT.dim, _CUT.dim)),
    window=(0.0, 1.0),
)


@st.composite
def runs_and_windows(draw):
    """(t0, dt, steps, window); edges land before, inside or after the run,
    often exactly on a step midpoint, and the window may have zero length."""
    t0 = draw(st.floats(-50.0, 50.0))
    dt = draw(st.floats(1e-4, 1.0))
    steps = draw(st.integers(1, 5000))
    step = st.integers(-3, 3) | st.integers(0, steps) | st.integers(steps - 3, steps + 3)
    offset = st.sampled_from([0.5, 0.0]) | st.floats(0.0, 1.0)

    def edge():
        return t0 + (draw(step) + draw(offset)) * dt

    t_on = edge()
    t_off = t_on if draw(st.booleans()) else edge()
    return t0, dt, steps, (min(t_on, t_off), max(t_on, t_off))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(runs_and_windows())
@example((0.0, 0.25, 8, (-3.0, -1.0)))        # window before the run
@example((0.0, 0.25, 8, (-1.0, 5.0)))         # window across the run
@example((0.0, 0.25, 8, (3.0, 9.0)))          # window after the run
@example((0.0, 0.25, 8, (0.625, 1.375)))      # both edges on midpoints
@example((0.0, 0.25, 8, (0.875, 0.875)))      # zero length, on a midpoint
@example((0.0, 0.25, 8, (0.8, 0.8)))          # zero length, between midpoints
def test_segments_match_literal_scan(case):
    t0, dt, steps, window = case
    ham = dataclasses.replace(_HAM, window=window)
    runs = _segments(ham, t0, dt, steps)

    assert 1 <= len(runs) <= 3
    assert runs[0][0] == 0 and runs[-1][1] == steps
    assert all(k0 < k1 for k0, k1, _ in runs)
    for (_, end, driven), (start, _, next_driven) in zip(runs, runs[1:]):
        assert end == start and driven != next_driven
    t_on, t_off = window
    scan = [t_on <= t0 + (k + 0.5) * dt <= t_off for k in range(steps)]
    assert [driven for k0, k1, driven in runs for _ in range(k0, k1)] == scan
