"""Link budget: log-distance path loss and MCS selection.

The default profile is a 60 GHz indoor line-of-sight link: loss at the 1 m
reference distance is pinned to 68 dB (the free-space value at 60 GHz rounds
to it) and grows 20 dB per decade. Setting reference_loss_db to None swaps in
the exact free-space reference for the configured frequency instead.

Rate selection compares a received level against per-entry sensitivities from
the IEEE 802.11ad single-carrier set, shipped as a CSV (robust control mode at
27.5 Mbps, then 385 through 4620 Mbps across a 15 dB sensitivity span). Levels
below the control sensitivity yield the LINK_LOST sentinel. Sweeps select for
all their levels at once (select_mcs_levels); select_mcs is the same rule for
one level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ConfigError, read_utf8

SPEED_OF_LIGHT = 299_792_458.0
MCS_TABLE_RESOURCE = "data/mcs_80211ad.csv"
MCS_TABLE_HEADER = ("index", "sensitivity_dbm", "datarate_mbps")


@dataclass(frozen=True)
class LinkParams:
    """Transmit side and propagation profile of one link; every field is a float."""

    eirp_dbm: float = 30.0
    distance_m: float = 3.0
    frequency_hz: float = 60e9
    path_loss_exponent: float = 2.0
    reference_distance_m: float = 1.0
    # None selects the free-space reference loss for frequency_hz.
    reference_loss_db: float | None = 68.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"link {f.name} must be finite")
        if self.distance_m <= 0.0:
            raise ConfigError("link distance must be positive")
        if self.reference_distance_m <= 0.0:
            raise ConfigError("reference distance must be positive")
        if self.frequency_hz <= 0.0:
            raise ConfigError("carrier frequency must be positive")
        if self.path_loss_exponent <= 0.0:
            raise ConfigError("path-loss exponent must be positive")
        try:
            loss = path_loss(self.distance_m, self)
        except ValueError:  # log10 of a free-space ratio that underflowed to 0
            loss = math.nan
        if not math.isfinite(loss):
            raise ConfigError(
                "link path loss at distance_m is not finite: check distance_m, "
                "reference_distance_m, reference_loss_db, frequency_hz and path_loss_exponent"
            )
        # Received power is eirp_dbm - loss plus a bounded array gain.
        if not math.isfinite(self.eirp_dbm - loss):
            raise ConfigError(
                "link eirp_dbm minus the path loss at distance_m is not finite: check eirp_dbm "
                "and reference_loss_db"
            )


def friis_reference_loss(frequency_hz: float, distance_m: float = 1.0) -> float:
    """Free-space loss in dB at the given distance."""
    if frequency_hz <= 0.0 or distance_m <= 0.0:
        raise ValueError("frequency and distance must be positive")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def path_loss(distance_m: float, params: LinkParams) -> float:
    """Log-distance loss in dB: reference loss plus exponent-scaled decades."""
    if distance_m <= 0.0:
        raise ValueError("path loss is undefined for non-positive distances")
    if params.reference_loss_db is None:
        ref = friis_reference_loss(params.frequency_hz, params.reference_distance_m)
    else:
        ref = params.reference_loss_db
    return ref + 10.0 * params.path_loss_exponent * math.log10(distance_m / params.reference_distance_m)


@dataclass(frozen=True)
class McsEntry:
    """One rate step: usable above its sensitivity."""

    index: int
    sensitivity_dbm: float
    datarate_mbps: float


# Level below every sensitivity, including the control mode's.
LINK_LOST = McsEntry(index=-1, sensitivity_dbm=float("-inf"), datarate_mbps=0.0)


def _validate_table(entries: list[McsEntry], origin: str) -> tuple[McsEntry, ...]:
    if not entries:
        raise ConfigError(f"{origin}: table has no entries")
    for prev, cur in zip(entries, entries[1:]):
        if cur.sensitivity_dbm <= prev.sensitivity_dbm:
            raise ConfigError(
                f"{origin}: sensitivities must increase strictly "
                f"(entry {cur.index} not above entry {prev.index})"
            )
        if cur.datarate_mbps <= prev.datarate_mbps:
            raise ConfigError(
                f"{origin}: datarates must increase strictly "
                f"(entry {cur.index} not above entry {prev.index})"
            )
    return tuple(entries)


def load_mcs_table(source) -> tuple[McsEntry, ...]:
    """Parse a rate table from a CSV path or file-like object.

    Column order is fixed: index, sensitivity_dbm, datarate_mbps. Blank lines
    and lines starting with # are skipped; the header row is required.
    """
    if hasattr(source, "read"):
        text = source.read()
        origin = getattr(source, "name", "<table>")
    else:
        text = read_utf8(source)
        origin = str(source)
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows or tuple(c.strip() for c in rows[0].split(",")) != MCS_TABLE_HEADER:
        raise ConfigError(f"{origin}: first row must be '{','.join(MCS_TABLE_HEADER)}'")
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != 3:
            raise ConfigError(f"{origin}: row {lineno} needs 3 columns, has {len(cells)}")
        try:
            entry = McsEntry(int(cells[0]), float(cells[1]), float(cells[2]))
        except ValueError as exc:
            raise ConfigError(f"{origin}: row {lineno}: {exc}") from None
        if not (math.isfinite(entry.sensitivity_dbm) and math.isfinite(entry.datarate_mbps)):
            raise ConfigError(f"{origin}: row {lineno}: sensitivity and datarate must be finite")
        entries.append(entry)
    return _validate_table(entries, origin)


@lru_cache(maxsize=1)
def default_mcs_table() -> tuple[McsEntry, ...]:
    """The packaged 802.11ad single-carrier table."""
    ref = resources.files("covrage").joinpath(MCS_TABLE_RESOURCE)
    with ref.open("r", encoding="utf-8") as fh:
        return load_mcs_table(fh)


def select_mcs(level_db: float, table: tuple[McsEntry, ...]) -> McsEntry:
    """Highest-rate entry whose sensitivity the level meets, else LINK_LOST.

    The level and the table sensitivities must share a scale (received dBm
    against receiver sensitivities, or any consistent margin convention).
    """
    return select_mcs_levels([level_db], table)[0]


def select_mcs_levels(levels, table: tuple[McsEntry, ...]) -> tuple[McsEntry, ...]:
    """select_mcs for each level of a sequence, in one search over the sensitivities.

    With sensitivities increasing strictly, the number of entries a level
    meets is its right insertion point among them. A NaN meets none:
    searchsorted would place it past the top entry, so it is mapped to
    LINK_LOST.
    """
    if not table:
        raise ConfigError("empty rate table")
    levels = np.asarray(levels, dtype=float)
    met = np.searchsorted([entry.sensitivity_dbm for entry in table], levels, side="right")
    met[np.isnan(levels)] = 0
    choices = (LINK_LOST, *table)
    return tuple(choices[k] for k in met.tolist())
