"""Channel model: deterministic, seeded link gains between mobiles and
every receive point, plus downlink pilot levels for association.

All gains are composed in dB as

    gain = -path_loss + rx_antenna_gain - penetration + shadowing

with a 0 dBi omni mobile antenna. Shadowing is an i.i.d. zero-mean
Gaussian per (mobile, receive point, direction), drawn from a labeled
hash of the snapshot seed, so adding or removing a green antenna leaves
every other link's draw bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .scenario import AntennaPattern, MobileStation, Scenario
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
    sector_ids: tuple[str, ...]     # owning sector, or all attached sectors
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
            sector_ids=(sec.id,),
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
            sector_ids=g.attached_sectors,
            noise_figure_db=g.noise_figure_db,
        )
        for g in s.greens
    )
    return points


@dataclass(frozen=True)
class LinkGainMatrix:
    """Per-snapshot channel tables.

    ul_gain_db is |MS| x |receive points| (sectors then greens);
    dl_rx_dbm is |MS| x |sectors| and never contains green antennas.
    noise_dbm is the per-branch noise floor (thermal + noise figure).
    """

    ms_ids: tuple[int, ...]
    receive_points: tuple[ReceivePoint, ...]
    sector_ids: tuple[str, ...]
    ul_gain_db: np.ndarray
    dl_rx_dbm: np.ndarray
    noise_dbm: np.ndarray
    seed: int

    @cached_property
    def rp_index(self) -> dict[str, int]:
        return {rp.id: i for i, rp in enumerate(self.receive_points)}

    @cached_property
    def sector_index(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.sector_ids)}

    def without_greens(self) -> LinkGainMatrix:
        """This drop's tables without green columns (sectors come first)."""
        n = len(self.sector_ids)
        return replace(self, receive_points=self.receive_points[:n],
                       ul_gain_db=self.ul_gain_db[:, :n], noise_dbm=self.noise_dbm[:n])


def path_loss(model, distance_m):
    """Log-distance path loss in dB; distances clamp at 10 m near-field.

    Accepts scalars or arrays.
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


def shadowing_sample(seed: int, link_label: str, sigma_db: float) -> float:
    """Zero-mean Gaussian shadowing in dB, determined by (seed, link_label)."""
    if sigma_db == 0.0:
        return 0.0
    return sigma_db * label_normal(seed, link_label)


def _penetration_db(ms: MobileStation, s: Scenario) -> float:
    if not ms.indoor:
        return 0.0
    for b in s.clutter.buildings:
        if b.id == ms.building_id:
            return b.penetration_loss_db
    raise KeyError(f"mobile {ms.id} references unknown building '{ms.building_id}'")


def link_gain(ms: MobileStation, rp: ReceivePoint, s: Scenario, seed: int) -> float:
    """Uplink channel gain (dB) between one mobile and one receive point."""
    return _channel_gain(ms, rp.position, rp.antenna, rp.azimuth_deg, s, seed,
                         label=f"ul:{ms.id}:{rp.id}")


def _channel_gain(ms, position, antenna, azimuth_deg, s, seed, label):
    cls = s.clutter.clutter_class_at(*ms.position)
    model = s.radio.pathloss[cls]
    dx = ms.position[0] - position[0]
    dy = ms.position[1] - position[1]
    pl = path_loss(model, np.hypot(dx, dy))
    bearing = np.degrees(np.arctan2(dy, dx)) - azimuth_deg
    g_rx = antenna_gain(antenna, bearing)
    pen = _penetration_db(ms, s)
    chi = shadowing_sample(seed, label, s.radio.shadowing_sigma_db[cls])
    return float(-pl + g_rx - pen + chi)


def build_gain_matrix(s: Scenario, mobiles: list[MobileStation], seed: int) -> LinkGainMatrix:
    """Channel tables for one drop; deterministic in (scenario, mobiles, seed).

    UL entries equal link_gain calls, DL entries tx_power_dbm + _channel_gain;
    the vectorized fill only batches the arithmetic. DL shadowing follows
    radio.dl_shadowing_mode: an independent labeled draw by default, or a
    copy of the UL draw in reciprocal mode. Each column depends only on
    its receive point, so without the greens the tables are `without_greens()`.
    """
    rps = receive_points(s)
    sector_ids = s.sector_ids()
    n_ms = len(mobiles)

    xs = np.array([m.position[0] for m in mobiles], dtype=float)
    ys = np.array([m.position[1] for m in mobiles], dtype=float)
    # per-mobile clutter parameters
    classes = [s.clutter.clutter_class_at(m.position[0], m.position[1]) for m in mobiles]
    pl0 = np.array([s.radio.pathloss[c].pl0_db for c in classes])
    d0 = np.array([s.radio.pathloss[c].d0_m for c in classes])
    expo = np.array([s.radio.pathloss[c].exponent for c in classes])
    sigma = np.array([s.radio.shadowing_sigma_db[c] for c in classes])
    pen = np.array([_penetration_db(m, s) for m in mobiles])

    def base(rp):
        dx = xs - rp.position[0]
        dy = ys - rp.position[1]
        d = np.maximum(np.hypot(dx, dy), D_MIN_M)
        pl = pl0 + 10.0 * expo * np.log10(d / d0)
        bearing = np.degrees(np.arctan2(dy, dx)) - rp.azimuth_deg
        return -pl + antenna_gain(rp.antenna, bearing) - pen

    def chi(direction, rp_id):
        return np.array([shadowing_sample(seed, f"{direction}:{m.id}:{rp_id}", sig)
                         for m, sig in zip(mobiles, sigma)])

    # a sector's DL column shares its UL column's geometry; in reciprocal
    # mode it also shares the UL draw, so each sector link is hashed once
    reciprocal = s.radio.dl_shadowing_mode == "reciprocal"
    tx_dbm = [sec.tx_power_dbm for _, sec in s.sectors()]
    ul = np.empty((n_ms, len(rps)))
    dl = np.empty((n_ms, len(sector_ids)))
    for j, rp in enumerate(rps):
        b = base(rp)
        ul[:, j] = b + chi("ul", rp.id)
        if rp.kind == "sector":
            dl[:, j] = tx_dbm[j] + (ul[:, j] if reciprocal else b + chi("dl", rp.id))

    noise = np.array([s.radio.thermal_noise_dbm + rp.noise_figure_db for rp in rps])
    for arr in (ul, dl, noise):
        arr.flags.writeable = False
    return LinkGainMatrix(
        ms_ids=tuple(m.id for m in mobiles),
        receive_points=tuple(rps),
        sector_ids=tuple(sector_ids),
        ul_gain_db=ul,
        dl_rx_dbm=dl,
        noise_dbm=noise,
        seed=seed,
    )


def write_gain_dump(gm: LinkGainMatrix, path: str) -> None:
    """Debug CSV of both channel tables (long format)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("table,ms_id,point_id,value_db\n")
        for i, ms_id in enumerate(gm.ms_ids):
            for j, rp in enumerate(gm.receive_points):
                fh.write(f"ul,{ms_id},{rp.id},{gm.ul_gain_db[i, j]:.6f}\n")
        for i, ms_id in enumerate(gm.ms_ids):
            for j, sid in enumerate(gm.sector_ids):
                fh.write(f"dl,{ms_id},{sid},{gm.dl_rx_dbm[i, j]:.6f}\n")
