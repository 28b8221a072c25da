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
What depends only on the scenario is its `ChannelArrays` (`Scenario.channel`),
which every table of it keeps: distances and angles are taken once per
distinct receive point position (a site's sectors share one) and gathered to
the columns, so a table computes only what depends on its drop and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .scenario import AntennaPattern, ChannelArrays, Drop, PathLossModel, ReceivePoint, Scenario
from .seeds import label_normal

#: Near-field clamp: distances below this evaluate the model at 10 m.
D_MIN_M = 10.0


@dataclass(frozen=True)
class LinkGainMatrix:
    """Per-snapshot channel tables.

    Row i of each table is mobile i of the drop (the gain dump's ms_id).
    ul_gain_db is |MS| x |receive points| (sectors then greens);
    dl_rx_dbm is |MS| x |sectors| and never contains green antennas.
    channel is the scenario's shared record: its receive points (the UL
    columns), sector ids (the DL columns) and per-branch noise floor.
    """

    channel: ChannelArrays
    ul_gain_db: np.ndarray
    dl_rx_dbm: np.ndarray

    @property
    def receive_points(self) -> tuple[ReceivePoint, ...]:
        return self.channel.receive_points

    @property
    def sector_ids(self) -> tuple[str, ...]:
        return self.channel.sector_ids

    @property
    def noise_dbm(self) -> np.ndarray:
        """The noise floor per receive point: thermal noise plus its noise figure."""
        return self.channel.noise_dbm

    @cached_property
    def ul_gain_mw(self) -> np.ndarray:
        """ul_gain_db in linear units, computed once per table."""
        return 10.0 ** (self.ul_gain_db / 10.0)

    def restricted_to(self, s: Scenario) -> LinkGainMatrix:
        """The columns of s's receive points, by id and in s's order.

        Each column depends only on its receive point, so for a scenario
        whose points are all in this table the result equals s's own table
        of the same drop. The copy is C-ordered, as a built table is: the
        layout of the gain array changes the last bits of `powers @ gains`.
        """
        ul = np.ascontiguousarray(self.ul_gain_db[:, s.channel.columns_in(self.channel)])
        ul.flags.writeable = False
        return replace(self, channel=s.channel, ul_gain_db=ul)


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
    # theta is |(b + 180) % 360 - 180|, bit for bit. numpy's remainder is
    # fmod moved into [0, 360), except that it turns -0.0 into 0.0, which
    # gives the same theta. fmod is exact, so below 360 in magnitude, where
    # every bearing of a table lies, it is the identity and is skipped.
    w = np.asarray(bearing_deg, dtype=float) + 180.0
    if np.abs(w).max(initial=0.0) >= 360.0:
        w = np.fmod(w, 360.0)
    theta = np.abs(np.where(w < 0.0, w + 360.0, w) - 180.0)
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
    table are `restricted_to` it. The per-point and per-class arrays, the
    labels and the noise floor are the scenario's (`Scenario.channel`),
    built at its first table; only what depends on the drop or the seed
    is computed per call.
    """
    ch = s.channel
    n_sec = len(ch.sector_ids)

    xs, ys = mobiles.xy[:, 0], mobiles.xy[:, 1]
    ids = np.arange(len(mobiles), dtype=np.uint64)
    # outdoor mobiles (building -1) read the trailing 0 dB entry
    pen = ch.penetration_db[mobiles.building, None]

    # per-mobile clutter parameters, looked up by class code, as columns
    codes = s.clutter.class_codes(xs, ys)
    model = PathLossModel(pl0_db=ch.pl0_db[codes, None], d0_m=ch.d0_m[codes, None],
                          exponent=ch.exponent[codes, None])
    sigma = ch.sigma_db[codes, None]
    shadowed = sigma != 0.0

    # distance and angle per distinct receive point position (sectors share
    # their site's), gathered to that position's columns
    dx = xs[:, None] - ch.pos_x
    dy = ys[:, None] - ch.pos_y
    loss = path_loss(model, np.hypot(dx, dy))[:, ch.rp_pos]
    bearing = np.degrees(np.arctan2(dy, dx))[:, ch.rp_pos] - ch.rp_azimuth_deg
    rx_gain = np.empty_like(bearing)
    for pattern, cols in ch.pattern_cols:
        rx_gain[:, cols] = antenna_gain(pattern, bearing[:, cols])
    base = -loss + rx_gain - pen

    def chi(labels):
        if not shadowed.any():
            return 0.0
        return np.where(shadowed, sigma * label_normal(seed, labels, ids), 0.0)

    # a sector's DL column shares its UL column's geometry; in reciprocal
    # mode it also shares the UL draw, so each sector column is drawn once
    ul = base + chi(ch.ul_labels)
    if s.radio.dl_shadowing_mode == "reciprocal":
        dl = ch.tx_power_dbm + ul[:, :n_sec]
    else:
        dl = ch.tx_power_dbm + (base[:, :n_sec] + chi(ch.dl_labels))

    for arr in (ul, dl):
        arr.flags.writeable = False
    return LinkGainMatrix(channel=ch, ul_gain_db=ul, dl_rx_dbm=dl)


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
