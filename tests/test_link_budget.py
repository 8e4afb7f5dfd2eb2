"""Path loss, rate selection, received power and noise penalty checks.

Received power and noise penalty are read off ``sweep_trajectory``, the one
place the program computes them.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covrage.array_model import ArrayConfig, Awv, beamwidth_uv, steering_weights
from covrage.errors import ConfigError
from covrage.geometry import Trajectory, UvPoint
from covrage.harness import sweep_trajectory
from covrage.link_budget import (
    LINK_LOST,
    LinkParams,
    McsEntry,
    default_mcs_table,
    friis_reference_loss,
    load_mcs_table,
    path_loss,
    select_mcs,
    select_mcs_levels,
)

# A single element receives with 0 dBi in every direction.
ISOTROPIC = Awv(np.ones((1, 1)))


def swept(awv, points, params=LinkParams(), spacing_wl=0.5):
    """Sweep ``awv`` over sine-space (u, v) points."""
    return sweep_trajectory(awv, Trajectory(points), params, spacing_wl)


# ---------------------------------------------------------------------------
# Path loss


def test_path_loss_anchors():
    params = LinkParams()
    assert path_loss(1.0, params) == 68.0
    assert path_loss(2.0, params) == pytest.approx(68.0 + 20.0 * math.log10(2.0), abs=1e-12)
    assert path_loss(10.0, params) == pytest.approx(88.0, abs=1e-12)


def test_path_loss_doubling_delta():
    params = LinkParams()
    delta = path_loss(6.0, params) - path_loss(3.0, params)
    assert delta == pytest.approx(6.02, abs=0.01)


def test_path_loss_rejects_non_positive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, LinkParams())
    with pytest.raises(ValueError):
        path_loss(-2.0, LinkParams())


def test_friis_reference_matches_default_loss():
    # Free-space loss over 1 m at 60 GHz lands within a tenth of a dB of the
    # fixed 68 dB reference the defaults use.
    assert friis_reference_loss(60e9) == pytest.approx(68.0, abs=0.1)
    params = LinkParams(reference_loss_db=None)
    assert path_loss(1.0, params) == pytest.approx(68.0, abs=0.1)


@given(st.floats(0.1, 50.0), st.floats(0.1, 50.0))
def test_path_loss_monotone(d1, d2):
    params = LinkParams()
    if d1 < d2:
        assert path_loss(d1, params) < path_loss(d2, params)


# ---------------------------------------------------------------------------
# Received power


def test_received_power_examples():
    res = swept(ISOTROPIC, [[0.3, 0.1]], LinkParams(eirp_dbm=30.0, distance_m=1.0))
    assert res.rx_power_dbm[0] == pytest.approx(-38.0)
    # 16x16 broadside coherent gain is 20 log10(256) = 48.16 dBi.
    broadside = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    res = swept(broadside, [[0.0, 0.0]], LinkParams(eirp_dbm=30.0, distance_m=2.0))
    assert res.rx_power_dbm[0] == pytest.approx(4.14, abs=0.005)


def test_received_power_gain_linearity():
    params = LinkParams(eirp_dbm=20.0, distance_m=3.0)
    awv = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    res = swept(awv, [[0.0, 0.0], [0.03, 0.0], [0.06, 0.02]], params)
    offset = res.rx_power_dbm - res.gain_dbi
    assert np.ptp(offset) == pytest.approx(0.0, abs=1e-12)
    assert offset[0] == pytest.approx(20.0 - path_loss(3.0, params), abs=1e-12)


def test_received_power_follows_link_distance():
    res = swept(ISOTROPIC, [[0.0, 0.0]], LinkParams(eirp_dbm=30.0, distance_m=10.0))
    assert res.rx_power_dbm[0] == pytest.approx(30.0 - 88.0)


# ---------------------------------------------------------------------------
# MCS table


def test_default_table_shape():
    table = default_mcs_table()
    assert len(table) == 13
    control = table[0]
    assert (control.index, control.sensitivity_dbm, control.datarate_mbps) == (0, -78.0, 27.5)
    assert table[-1].sensitivity_dbm == -53.0
    assert table[-1].datarate_mbps == 4620.0
    # Data entries span exactly the 15 dB between lowest rate and top rate.
    assert table[-1].sensitivity_dbm - table[1].sensitivity_dbm == 15.0
    sens = [e.sensitivity_dbm for e in table]
    assert sens == sorted(sens)


def test_select_mcs_boundaries():
    table = default_mcs_table()
    assert select_mcs(-53.0, table).datarate_mbps == 4620.0
    assert select_mcs(-40.0, table).datarate_mbps == 4620.0
    assert select_mcs(-68.0, table).datarate_mbps == 385.0
    # Below every data threshold but above the control threshold.
    assert select_mcs(-68.5, table).index == 0
    assert select_mcs(-78.0, table).index == 0
    # Below even the control threshold: the link is gone.
    assert select_mcs(-78.5, table) is LINK_LOST
    assert select_mcs(-78.5, table).datarate_mbps == 0.0


def test_select_mcs_sixteen_db_margin_hits_control():
    # 16 dB under the top threshold undercuts the whole 15 dB data span.
    table = default_mcs_table()
    entry = select_mcs(-53.0 - 16.0, table)
    assert entry.index == 0
    assert entry.datarate_mbps == 27.5


def test_select_mcs_empty_table():
    with pytest.raises(ConfigError):
        select_mcs(-60.0, ())


@given(st.floats(-100.0, -40.0), st.floats(-100.0, -40.0))
def test_select_mcs_monotone(a, b):
    table = default_mcs_table()
    lo, hi = sorted((a, b))
    assert select_mcs(lo, table).datarate_mbps <= select_mcs(hi, table).datarate_mbps


# A table off the packaged one's grid: negative and positive, uneven steps.
CUSTOM_TABLE = (
    McsEntry(3, -91.25, 10.0),
    McsEntry(7, -60.0, 20.0),
    McsEntry(8, -0.5, 25.0),
    McsEntry(11, 0.0, 40.0),
    McsEntry(12, 17.125, 80.0),
)


def reference_select_mcs(level_db: float, table) -> McsEntry:
    """The rate rule as a scalar loop: the last entry whose sensitivity the level meets."""
    best = None
    for entry in table:
        if entry.sensitivity_dbm <= level_db:
            best = entry
    return best if best is not None else LINK_LOST


@pytest.mark.parametrize("table", [default_mcs_table(), CUSTOM_TABLE], ids=["packaged", "custom"])
def test_select_mcs_levels_equals_per_level_rule(table):
    sens = np.array([e.sensitivity_dbm for e in table])
    levels = np.concatenate([
        sens,  # each sensitivity exactly
        np.nextafter(sens, -np.inf),  # one ulp below
        np.nextafter(sens, np.inf),  # one ulp above
        [sens[0] - 1.0, -1e300, -np.inf],  # below the lowest: LINK_LOST
        [sens[-1] + 1.0, 1e300, np.inf],  # above the highest
        [np.nan, -np.nan],  # no comparison holds: LINK_LOST, not the top entry
    ])
    got = select_mcs_levels(levels, table)
    assert got == tuple(reference_select_mcs(float(level), table) for level in levels)
    assert got == tuple(select_mcs(float(level), table) for level in levels)
    assert got[-2] is LINK_LOST and got[-1] is LINK_LOST
    n = len(table)
    assert got[:n] == table  # a level meeting a sensitivity exactly selects that entry
    assert got[n] is LINK_LOST and got[n + 1 : 2 * n] == table[:-1]


def test_select_mcs_levels_empty_inputs():
    assert select_mcs_levels(np.array([]), default_mcs_table()) == ()
    with pytest.raises(ConfigError):
        select_mcs_levels(np.array([-60.0]), ())


def test_load_mcs_table_roundtrip_and_comments():
    text = "# a comment\nindex,sensitivity_dbm,datarate_mbps\n\n0,-78,27.5\n1,-68,385\n"
    table = load_mcs_table(io.StringIO(text))
    assert len(table) == 2
    assert table[1] == McsEntry(1, -68.0, 385.0)


def test_load_mcs_table_header_required():
    with pytest.raises(ConfigError, match="first row"):
        load_mcs_table(io.StringIO("0,-78,27.5\n"))


def test_load_mcs_table_bad_row_names_line():
    text = "index,sensitivity_dbm,datarate_mbps\n0,-78,27.5\n1,not_a_number,385\n"
    with pytest.raises(ConfigError, match="row 3"):
        load_mcs_table(io.StringIO(text))
    with pytest.raises(ConfigError, match="columns"):
        load_mcs_table(io.StringIO("index,sensitivity_dbm,datarate_mbps\n0,-78\n"))


@pytest.mark.parametrize(
    "rows,needle",
    [
        ("0,nan,27.5\n1,-68,385", "row 2"),
        ("0,-78,27.5\n1,-68,inf", "row 3"),
        ("0,-78,27.5\n1,-Infinity,385", "row 3"),
        ("0,-78,27.5\n1,-68,385\n2,-66,NaN", "row 4"),
    ],
)
def test_load_mcs_table_rejects_non_finite_cells(rows, needle):
    text = f"index,sensitivity_dbm,datarate_mbps\n{rows}\n"
    with pytest.raises(ConfigError, match=f"{needle}: sensitivity and datarate must be finite"):
        load_mcs_table(io.StringIO(text))


def test_load_mcs_table_requires_increasing_sensitivity():
    text = "index,sensitivity_dbm,datarate_mbps\n0,-78,27.5\n1,-78,385\n"
    with pytest.raises(ConfigError, match="increase"):
        load_mcs_table(io.StringIO(text))


def test_load_mcs_table_from_path(tmp_path):
    p = tmp_path / "rates.csv"
    p.write_text("index,sensitivity_dbm,datarate_mbps\n0,-78,27.5\n")
    table = load_mcs_table(p)
    assert table[0].sensitivity_dbm == -78.0


# ---------------------------------------------------------------------------
# Noise penalty


def test_noise_penalty_zero_at_own_peak():
    awv = steering_weights((16, 16), 0.5, UvPoint(0.2, 0.15))
    assert swept(awv, [[0.2, 0.15]]).noise_penalty_db[0] == pytest.approx(0.0, abs=0.02)


def test_noise_penalty_three_db_at_half_width():
    awv = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    off = [[beamwidth_uv(16, 0.5) / 2.0, 0.0]]
    assert swept(awv, off).noise_penalty_db[0] == pytest.approx(3.0, abs=0.35)


def test_noise_penalty_global_phase_invariant():
    awv = steering_weights((16, 16), 0.5, UvPoint(0.1, -0.2))
    rotated = Awv(awv.weights * np.exp(0.7j))
    a = swept(awv, [[0.3, 0.1]]).noise_penalty_db[0]
    b = swept(rotated, [[0.3, 0.1]]).noise_penalty_db[0]
    assert a == pytest.approx(b, abs=1e-9)
    assert a >= 0.0


def test_link_params_validation():
    with pytest.raises(ConfigError):
        LinkParams(distance_m=0.0)
    with pytest.raises(ConfigError):
        LinkParams(frequency_hz=-1.0)


def test_carrier_is_read_only_beside_a_null_loss():
    # A numeric reference loss never reads the carrier, so another carrier is an error.
    with pytest.raises(ConfigError, match=r"link\.frequency_hz"):
        LinkParams(frequency_hz=28e9)
    assert path_loss(1.0, LinkParams(frequency_hz=28e9, reference_loss_db=None)) == friis_reference_loss(28e9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls,field",
    [
        (ArrayConfig, "spacing_wavelengths"),
        (LinkParams, "eirp_dbm"),
        (LinkParams, "distance_m"),
        (LinkParams, "frequency_hz"),
        (LinkParams, "path_loss_exponent"),
        (LinkParams, "reference_distance_m"),
        (LinkParams, "reference_loss_db"),
    ],
)
def test_config_floats_must_be_finite(cls, field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cls(**{field: value})
