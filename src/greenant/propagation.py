"""Channel model: deterministic, seeded link gains between mobiles and
every receive point, plus downlink pilot levels for association.

All gains are composed in dB as

    gain = -path_loss + rx_antenna_gain - penetration + shadowing

with a 0 dBi omni mobile antenna. Shadowing is an i.i.d. zero-mean
Gaussian per (mobile, receive point, direction). Each column is one
counter stream keyed by a hash of the snapshot seed and "<direction>:<receive
point>", and each mobile's row in the drop is a counter in it, so adding or
removing a green antenna leaves every other link's draw bit-identical. A table
is built in one array pass over the drop's arrays, one draw call per direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .scenario import AntennaPattern, Drop, PathLossModel, Scenario
from .seeds import label_normal

#: Near-field clamp: distances below this evaluate the model at 10 m.
D_MIN_M = 10.0


@dataclass(frozen=True)
class ReceivePoint:
    """An uplink receive branch: a sector's own antenna or a green antenna."""

    kind: str                       # "sector" | "green"
    id: str
    position: tuple[float, float]
    antenna: AntennaPattern
    azimuth_deg: float
    noise_figure_db: float = 0.0


def receive_points(s: Scenario) -> list[ReceivePoint]:
    """All receive points: sector antennas first, then greens, in declaration order."""
    points = [
        ReceivePoint(
            kind="sector",
            id=sec.id,
            position=site.position,
            antenna=sec.antenna,
            azimuth_deg=sec.azimuth_deg,
            noise_figure_db=sec.noise_figure_db,
        )
        for site, sec in s.sectors()
    ]
    points.extend(
        ReceivePoint(
            kind="green",
            id=g.id,
            position=g.position,
            antenna=g.antenna,
            azimuth_deg=0.0,
            noise_figure_db=g.noise_figure_db,
        )
        for g in s.greens
    )
    return points


@dataclass(frozen=True)
class LinkGainMatrix:
    """Per-snapshot channel tables.

    Row i of each table is mobile i of the drop (the gain dump's ms_id).
    ul_gain_db is |MS| x |receive points| (sectors then greens);
    dl_rx_dbm is |MS| x |sectors| and never contains green antennas.
    noise_dbm is the per-branch noise floor (thermal + noise figure).
    """

    receive_points: tuple[ReceivePoint, ...]
    sector_ids: tuple[str, ...]
    ul_gain_db: np.ndarray
    dl_rx_dbm: np.ndarray
    noise_dbm: np.ndarray

    @cached_property
    def rp_index(self) -> dict[str, int]:
        return {rp.id: i for i, rp in enumerate(self.receive_points)}

    @cached_property
    def ul_gain_mw(self) -> np.ndarray:
        """ul_gain_db in linear units, computed once per table."""
        return 10.0 ** (self.ul_gain_db / 10.0)

    @cached_property
    def noise_mw(self) -> np.ndarray:
        """noise_dbm in milliwatts, computed once per table."""
        return 10.0 ** (self.noise_dbm / 10.0)

    def restricted_to(self, s: Scenario) -> LinkGainMatrix:
        """The columns of s's receive points, by id and in s's order.

        Each column depends only on its receive point, so for a scenario
        whose points are all in this table the result equals s's own table
        of the same drop. The copy is C-ordered, as a built table is: the
        layout of the gain array changes the last bits of `powers @ gains`.
        """
        cols = [self.rp_index[rid] for rid in (*s.sector_ids(), *(g.id for g in s.greens))]
        ul = np.ascontiguousarray(self.ul_gain_db[:, cols])
        noise = self.noise_dbm[cols]
        for arr in (ul, noise):
            arr.flags.writeable = False
        return replace(self, receive_points=tuple(self.receive_points[c] for c in cols),
                       ul_gain_db=ul, noise_dbm=noise)


def path_loss(model: PathLossModel, distance_m):
    """Log-distance path loss in dB; distances clamp at 10 m near-field.

    Accepts scalars or arrays; the gain table passes per-mobile model fields.
    """
    d = np.maximum(distance_m, D_MIN_M)
    return model.pl0_db + 10.0 * model.exponent * np.log10(d / model.d0_m)


def antenna_gain(pattern: AntennaPattern, bearing_deg):
    """Gain (dBi) at a bearing relative to boresight; scalar or array.

    Omni patterns return the boresight gain everywhere. Sector patterns
    attenuate by 12*(theta/theta_3db)^2, capped at front_to_back_db.
    """
    if pattern.kind == "omni":
        return pattern.gain_dbi + np.zeros_like(np.asarray(bearing_deg, dtype=float))
    theta = np.abs((np.asarray(bearing_deg, dtype=float) + 180.0) % 360.0 - 180.0)
    attenuation = np.minimum(12.0 * (theta / pattern.theta_3db_deg) ** 2, pattern.front_to_back_db)
    return pattern.gain_dbi - attenuation


def build_gain_matrix(s: Scenario, mobiles: Drop, seed: int) -> LinkGainMatrix:
    """Channel tables for one drop; deterministic in (scenario, mobiles, seed).

    Each UL entry is -path_loss + rx_antenna_gain - penetration + shadowing,
    evaluated for every (mobile, receive point) link in one array pass:
    per-mobile quantities are columns, per-point ones rows. Shadowing is
    one label_normal call per direction, with one "ul:<receive point>"
    label per column and the mobile ids (rows) as counters, so each column keeps
    its own key (no draw where sigma is 0). A DL entry is the sector's
    tx_power_dbm plus the same composition. DL shadowing follows
    radio.dl_shadowing_mode: independent "dl:<sector>" columns by default,
    or a copy of the UL draw in reciprocal mode. Each column depends only
    on its receive point, so another scenario's points read from this
    table are `restricted_to` it.
    """
    rps = receive_points(s)
    sector_ids = s.sector_ids()
    n_sec = len(sector_ids)
    clutter, radio = s.clutter, s.radio

    xs, ys = mobiles.xy[:, 0], mobiles.xy[:, 1]
    ids = np.arange(len(mobiles), dtype=np.uint64)
    # outdoor mobiles (building -1) read the trailing 0 dB entry
    pen = np.array([*(b.penetration_loss_db for b in clutter.buildings), 0.0])[
        mobiles.building, None]

    # per-mobile clutter parameters, looked up by class code, as columns
    codes = clutter.class_codes(xs, ys)
    per_class = [radio.pathloss[c] for c in clutter.classes]
    model = PathLossModel(pl0_db=np.array([pm.pl0_db for pm in per_class])[codes, None],
                          d0_m=np.array([pm.d0_m for pm in per_class])[codes, None],
                          exponent=np.array([pm.exponent for pm in per_class])[codes, None])
    sigma = np.array([radio.shadowing_sigma_db[c] for c in clutter.classes])[codes, None]
    shadowed = sigma != 0.0

    dx = xs[:, None] - np.array([rp.position[0] for rp in rps])
    dy = ys[:, None] - np.array([rp.position[1] for rp in rps])
    bearing = np.degrees(np.arctan2(dy, dx)) - np.array([rp.azimuth_deg for rp in rps])
    rx_gain = np.empty_like(bearing)
    by_pattern: dict[AntennaPattern, list[int]] = {}
    for j, rp in enumerate(rps):
        by_pattern.setdefault(rp.antenna, []).append(j)
    for pattern, cols in by_pattern.items():
        rx_gain[:, cols] = antenna_gain(pattern, bearing[:, cols])
    base = -path_loss(model, np.hypot(dx, dy)) + rx_gain - pen

    def chi(labels):
        if not shadowed.any():
            return 0.0
        return np.where(shadowed, sigma * label_normal(seed, labels, ids), 0.0)

    # a sector's DL column shares its UL column's geometry; in reciprocal
    # mode it also shares the UL draw, so each sector column is drawn once
    tx_dbm = np.array([sec.tx_power_dbm for _, sec in s.sectors()])
    ul = base + chi([f"ul:{rp.id}" for rp in rps])
    if radio.dl_shadowing_mode == "reciprocal":
        dl = tx_dbm + ul[:, :n_sec]
    else:
        dl = tx_dbm + (base[:, :n_sec] + chi([f"dl:{sid}" for sid in sector_ids]))

    noise = np.array([radio.thermal_noise_dbm + rp.noise_figure_db for rp in rps])
    for arr in (ul, dl, noise):
        arr.flags.writeable = False
    return LinkGainMatrix(
        receive_points=tuple(rps),
        sector_ids=tuple(sector_ids),
        ul_gain_db=ul,
        dl_rx_dbm=dl,
        noise_dbm=noise,
    )


def write_gain_dump(gm: LinkGainMatrix, path: str) -> None:
    """Debug CSV of both channel tables (long format)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("table,ms_id,point_id,value_db\n")
        for i in range(len(gm.ul_gain_db)):
            for j, rp in enumerate(gm.receive_points):
                fh.write(f"ul,{i},{rp.id},{gm.ul_gain_db[i, j]:.6f}\n")
        for i in range(len(gm.dl_rx_dbm)):
            for j, sid in enumerate(gm.sector_ids):
                fh.write(f"dl,{i},{sid},{gm.dl_rx_dbm[i, j]:.6f}\n")
