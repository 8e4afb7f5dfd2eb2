"""Receive-side beam planning for head-mounted mmWave links.

Splits a planar array into sub-arrays, steers one merged beam per segment of
the predicted head trajectory, phase-aligns the segments at their overlaps,
and scores the result against single-beam baselines over an IEEE 802.11ad
link budget.
"""

__version__ = "0.1.0"
