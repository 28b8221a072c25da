"""Channel model: deterministic, seeded link gains between mobiles and
every receive point, plus downlink pilot levels for association.

All gains are composed in dB as

    gain = -path_loss + rx_antenna_gain - penetration + shadowing

with a 0 dBi omni mobile antenna. Shadowing is an i.i.d. zero-mean
Gaussian per (mobile, receive point, direction). Each column is one
counter stream keyed by a hash of the snapshot seed and "<direction>:<receive
point>", and each mobile's row in the drop is a counter in it, so adding or
removing a green antenna leaves every other link's draw bit-identical. A table,
or a block of tables of several drops, is built in one array pass over the
drops' arrays, with one draw call per direction and drop.
What depends only on the scenario is its `ChannelArrays` (`Scenario.channel`),
which every table of it keeps: distances and angles are taken once per
distinct receive point position (a site's sectors share one) and gathered to
the columns, so a table computes only what depends on its drop and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .scenario import (D_MIN_M, AntennaPattern, ChannelArrays, Drop, PathLossModel,
                       ReceivePoint, Scenario)
from .seeds import label_normal


@dataclass(frozen=True)
class LinkGainMatrix:
    """Per-snapshot channel tables, or a block of them.

    Row i of each table is mobile i of the drop (the gain dump's ms_id).
    ul_gain_db is |MS| x |receive points| (sectors then greens);
    dl_rx_dbm is |MS| x |sectors| and never contains green antennas.
    A block's tables lead both with the block axis (`build_gain_matrix`
    of a block of drops): row i of each array is drop i's table. The
    solver reads a block's `ul_gain_mw` once, gathering each run's columns
    into its stack, and keeps no table. channel is the scenario's shared record:
    its receive points (the UL columns), sector ids (the DL columns) and
    per-branch noise floor.
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
        """ul_gain_db in linear units, computed once per table or block."""
        return 10.0 ** (self.ul_gain_db / 10.0)

    def restricted_to(self, s: Scenario) -> LinkGainMatrix:
        """The columns of s's receive points, by id and in s's order.

        Each column depends only on its receive point, so for a scenario
        whose points are all in this table the result equals s's own table
        of the same drop. The copy is C-ordered, as a built table is.
        """
        ul = np.ascontiguousarray(self.ul_gain_db[..., s.channel.columns_in(self.channel)])
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
    # After the copy every step is in place, with the bits of its operator
    # form, since a block's bearings are a large array.
    w = np.array(bearing_deg, dtype=float)
    w += 180.0
    if np.abs(w).max(initial=0.0) >= 360.0:
        np.fmod(w, 360.0, out=w)
    np.add(w, 360.0, out=w, where=w < 0.0)
    w -= 180.0
    attenuation = np.abs(w, out=w)      # theta
    attenuation /= pattern.theta_3db_deg
    np.square(attenuation, out=attenuation)
    attenuation *= 12.0
    np.minimum(attenuation, pattern.front_to_back_db, out=attenuation)
    return pattern.gain_dbi - attenuation


def build_gain_matrix(s: Scenario, mobiles: Drop, seed) -> LinkGainMatrix:
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

    A block of drops (`drop_mobiles` of k seeds) with its k seeds gives
    the block's tables, whose arrays lead with the block axis: table i is
    the table of drop i and seed i, bit for bit. Everything but the draws
    runs once over the block's k * n mobile rows; each seed's draws are its
    own label_normal calls, written into its drop's rows. The antenna
    gains, the composition and the draws work in place, and each
    intermediate is freed once used, so a block's temporaries are about
    two UL tables' worth.
    """
    ch = s.channel
    n_sec = len(ch.sector_ids)
    one = isinstance(seed, (int, np.integer))
    seeds = [seed] if one else list(seed)
    n = len(mobiles)
    if mobiles.building.shape != ((n,) if one else (len(seeds), n)):
        raise ValueError("a block of drops needs one seed per drop, and one drop one seed")

    xy = mobiles.xy.reshape(-1, 2)
    xs, ys = xy[:, 0], xy[:, 1]
    ids = np.arange(n, dtype=np.uint64)
    # outdoor mobiles (building -1) read the trailing 0 dB entry
    pen = ch.penetration_db[mobiles.building.reshape(-1), None]

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
    distance, angle = np.hypot(dx, dy), np.arctan2(dy, dx)
    del dx, dy
    rx_gain = np.degrees(angle, out=angle)[:, ch.rp_pos]
    del angle
    rx_gain -= ch.rp_azimuth_deg            # the bearing, until each pattern's gain
    for pattern, cols in ch.pattern_cols:
        rx_gain[:, cols] = antenna_gain(pattern, rx_gain[:, cols])
    # the base -loss + rx_gain - pen, composed in place in the gathered
    # loss; the tables are then C-ordered arrays (a column gather is not)
    base = path_loss(model, distance)[:, ch.rp_pos]
    del distance
    np.negative(base, out=base)
    base += rx_gain
    base -= pen
    del rx_gain

    def shadowed_by(labels, base):
        """base plus sigma times each seed's draws in its drop's rows (none
        where sigma is 0), in the C-ordered array that holds the draws."""
        out = np.zeros((len(xs), len(labels)))
        for i, sd in enumerate(seeds):
            rows = slice(i * n, (i + 1) * n)
            if shadowed[rows].any():
                np.multiply(sigma[rows], label_normal(sd, labels, ids), out=out[rows],
                            where=shadowed[rows])
        return np.add(base, out, out=out)

    # a sector's DL column shares its UL column's geometry; in reciprocal
    # mode it also shares the UL draw, so each sector column is drawn once
    if s.radio.dl_shadowing_mode == "reciprocal":
        ul = shadowed_by(ch.ul_labels, base)
        dl = ul[:, :n_sec] + ch.tx_power_dbm
    else:
        dl = shadowed_by(ch.dl_labels, base[:, :n_sec])
        dl += ch.tx_power_dbm
        ul = shadowed_by(ch.ul_labels, base)

    lead = (n,) if one else (len(seeds), n)
    ul, dl = ul.reshape(*lead, len(ch.rp_pos)), dl.reshape(*lead, n_sec)
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
