"""Channel model: path loss, antenna patterns, shadowing, gain tables."""

import json

import numpy as np
import pytest

from greenant.propagation import (
    _channel_gain,
    antenna_gain,
    build_gain_matrix,
    link_gain,
    path_loss,
    receive_points,
    shadowing_sample,
    write_gain_dump,
)
from greenant.scenario import AntennaPattern, PathLossModel, drop_mobiles, strip_greens

from conftest import load_doc, place, two_cell_doc

URBAN = PathLossModel(pl0_db=128.1, d0_m=1000.0, exponent=3.76)


def test_path_loss_reference_distance():
    assert path_loss(URBAN, 1000.0) == pytest.approx(128.1)


def test_path_loss_slope_per_decade():
    assert path_loss(URBAN, 10000.0) - path_loss(URBAN, 1000.0) == pytest.approx(37.6)


def test_path_loss_near_field_clamp():
    assert path_loss(URBAN, 1.0) == path_loss(URBAN, 10.0)
    assert path_loss(URBAN, 0.0) == path_loss(URBAN, 10.0)


def test_path_loss_accepts_arrays():
    d = np.array([10.0, 100.0, 1000.0])
    pl = path_loss(URBAN, d)
    assert pl.shape == (3,)
    assert np.all(np.diff(pl) > 0)


def test_omni_gain_is_flat():
    omni = AntennaPattern(kind="omni", gain_dbi=4.0)
    for bearing in (0.0, 90.0, -170.0, 350.0):
        assert antenna_gain(omni, bearing) == pytest.approx(4.0)


def test_sector_gain_shape():
    sec = AntennaPattern(kind="sector", gain_dbi=15.0, theta_3db_deg=65.0,
                         front_to_back_db=25.0)
    assert antenna_gain(sec, 0.0) == pytest.approx(15.0)
    # half the 3 dB beamwidth off boresight costs 3 dB
    assert antenna_gain(sec, 32.5) == pytest.approx(12.0)
    assert antenna_gain(sec, -32.5) == pytest.approx(12.0)
    # far off boresight the loss saturates at the front-to-back ratio
    assert antenna_gain(sec, 180.0) == pytest.approx(-10.0)


def test_sector_gain_folds_bearings():
    sec = AntennaPattern(kind="sector", gain_dbi=15.0)
    assert antenna_gain(sec, 350.0) == pytest.approx(antenna_gain(sec, -10.0))
    assert antenna_gain(sec, 370.0) == pytest.approx(antenna_gain(sec, 10.0))


def test_shadowing_sample_properties():
    assert shadowing_sample(5, "ul:0:s0", 0.0) == 0.0
    a = shadowing_sample(5, "ul:0:s0", 8.0)
    assert shadowing_sample(5, "ul:0:s0", 8.0) == a
    assert shadowing_sample(5, "ul:0:s0", 4.0) == pytest.approx(a / 2.0)
    assert shadowing_sample(5, "ul:1:s0", 8.0) != a


def test_link_gain_composition_without_shadowing():
    s = load_doc(two_cell_doc(sigma=0.0))
    rp = receive_points(s)[0]       # site A's omni, 10 dBi
    m = place(0, 500.0, 0.0)
    expected = -(128.1 + 37.6 * np.log10(0.5)) + 10.0
    assert link_gain(m, rp, s, 1) == pytest.approx(expected)


def test_penetration_applies_to_indoor_mobiles_only():
    doc = two_cell_doc(sigma=0.0)
    doc["clutter"] = {"buildings": [{"id": "bld", "rect": [400, -50, 600, 50],
                                     "penetration_loss_db": 20}]}
    s = load_doc(doc)
    rp = receive_points(s)[0]
    outdoor = place(0, 500.0, 0.0)
    indoor = place(1, 500.0, 0.0, indoor=True, building_id="bld")
    assert link_gain(indoor, rp, s, 1) == pytest.approx(link_gain(outdoor, rp, s, 1) - 20.0)


def test_gain_matrix_matches_scalar_link_gain_bitwise():
    """The vectorized fill must be the same arithmetic as link_gain (UL)
    and as tx power plus _channel_gain with the mode's label (DL)."""
    doc = {
        "sites": [
            {"id": "A", "position": [0, 0],
             "sectors": [{"id": "A1", "azimuth_deg": 30}]},
            {"id": "B", "position": [1500, 800],
             "sectors": [{"id": "B1", "azimuth_deg": 200}]},
        ],
        "greens": [{"id": "G", "position": [700, 300], "attached_sectors": ["A1"]}],
        "clutter": {"bounds": [-2000, -2000, 4000, 4000],
                    "buildings": [{"id": "bd", "rect": [600, 200, 900, 500]}]},
        "traffic": {"mobiles_per_sector": 6, "indoor_fraction": 0.4},
    }
    for dl_mode, direction in (("independent", "dl"), ("reciprocal", "ul")):
        doc["radio"] = {"dl_shadowing_mode": dl_mode}
        s = load_doc(doc)
        mobiles = drop_mobiles(s, 99)
        gm = build_gain_matrix(s, mobiles, 99)
        for i, m in enumerate(mobiles):
            for j, rp in enumerate(receive_points(s)):
                assert gm.ul_gain_db[i, j] == link_gain(m, rp, s, 99)
            for j, (site, sec) in enumerate(s.sectors()):
                assert gm.dl_rx_dbm[i, j] == sec.tx_power_dbm + _channel_gain(
                    m, site.position, sec.antenna, sec.azimuth_deg, s, 99,
                    label=f"{direction}:{m.id}:{sec.id}")


def test_receive_point_order_is_sectors_then_greens(two_cell_green):
    rps = receive_points(two_cell_green)
    assert [rp.id for rp in rps] == ["A1", "B1", "G"]
    assert [rp.kind for rp in rps] == ["sector", "sector", "green"]


def test_greens_are_invisible_to_downlink_and_sector_columns(two_cell_green):
    """Adding a green must leave every other table entry bit-identical."""
    s = two_cell_green
    bare = strip_greens(s)
    mobiles = drop_mobiles(s, 7)
    gm_g = build_gain_matrix(s, mobiles, 7)
    gm_b = build_gain_matrix(bare, mobiles, 7)
    assert gm_g.dl_rx_dbm.shape[1] == 2        # sectors only
    assert np.array_equal(gm_g.dl_rx_dbm, gm_b.dl_rx_dbm)
    assert np.array_equal(gm_g.ul_gain_db[:, :2], gm_b.ul_gain_db)
    sectors = gm_g.without_greens()
    assert sectors.receive_points == gm_b.receive_points
    assert np.array_equal(sectors.ul_gain_db, gm_b.ul_gain_db)
    assert np.array_equal(sectors.noise_dbm, gm_b.noise_dbm)
    assert np.array_equal(sectors.dl_rx_dbm, gm_b.dl_rx_dbm)


def test_downlink_uses_tx_power_and_independent_shadowing():
    doc = two_cell_doc(sigma=0.0)
    doc["sites"][0]["sectors"][0]["tx_power_dbm"] = 40.0
    s = load_doc(doc)
    mobiles = [place(0, 500.0, 0.0)]
    gm = build_gain_matrix(s, mobiles, 1)
    assert gm.dl_rx_dbm[0, 0] == pytest.approx(40.0 + gm.ul_gain_db[0, 0])


def test_reciprocal_mode_copies_uplink_shadowing():
    doc = two_cell_doc(sigma=8.0)
    doc["radio"]["dl_shadowing_mode"] = "reciprocal"
    s = load_doc(doc)
    mobiles = [place(0, 431.0, 77.0), place(1, 1210.0, -340.0)]
    gm = build_gain_matrix(s, mobiles, 21)
    tx = np.array([sec.tx_power_dbm for _, sec in s.sectors()])
    assert np.array_equal(gm.dl_rx_dbm, tx[None, :] + gm.ul_gain_db[:, :2])


def test_independent_mode_draws_fresh_downlink_shadowing():
    s = load_doc(two_cell_doc(sigma=8.0))
    mobiles = [place(0, 431.0, 77.0)]
    gm = build_gain_matrix(s, mobiles, 21)
    tx = s.sites[0].sectors[0].tx_power_dbm
    assert gm.dl_rx_dbm[0, 0] != pytest.approx(tx + gm.ul_gain_db[0, 0])


def test_noise_floor_includes_noise_figure():
    doc = two_cell_doc()
    doc["sites"][0]["sectors"][0]["noise_figure_db"] = 5.0
    s = load_doc(doc)
    gm = build_gain_matrix(s, [place(0, 100.0, 0.0)], 1)
    assert gm.noise_dbm[0] == pytest.approx(-99.0)
    assert gm.noise_dbm[1] == pytest.approx(-104.0)


def test_gain_dump_format(tmp_path, two_cell_green):
    s = two_cell_green
    mobiles = drop_mobiles(s, 5)
    gm = build_gain_matrix(s, mobiles, 5)
    out = tmp_path / "gains.csv"
    write_gain_dump(gm, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "table,ms_id,point_id,value_db"
    n_ms = len(mobiles)
    assert len(lines) == 1 + n_ms * 3 + n_ms * 2
    write_gain_dump(gm, str(tmp_path / "gains2.csv"))
    assert (tmp_path / "gains2.csv").read_bytes() == out.read_bytes()
