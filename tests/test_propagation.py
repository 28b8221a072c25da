"""Channel model: path loss, antenna patterns, shadowing, gain tables."""

import json
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

import greenant.propagation
from greenant.powerctl import associate, solve_snapshots
from greenant.propagation import (
    LinkGainMatrix,
    antenna_gain,
    build_gain_matrix,
    path_loss,
    write_gain_dump,
)
from greenant.scenario import AntennaPattern, Drop, PathLossModel, drop_mobiles, strip_greens
from greenant.seeds import label_normal
from greenant.simulate import snapshot_seed

from conftest import (GREEN_JSON, clutter_class_at, drawn, load_doc, multi_green_doc, place,
                      snapshots, two_cell_doc)

URBAN = PathLossModel(pl0_db=128.1, d0_m=1000.0, exponent=3.76)


def _shadowing(seed, label, ms_id, sigma_db):
    """1x1 reference: the column's draw for one mobile id, none at sigma 0."""
    return 0.0 if sigma_db == 0.0 else sigma_db * label_normal(seed, [label], np.array([ms_id]))[0, 0]


def _scalar_gain(drop, i, position, antenna, azimuth_deg, s, seed, label):
    """1x1 reference of a table entry (mobile i of the drop), in dB, composed
    one link at a time: -path_loss + rx_antenna_gain - penetration + shadowing."""
    x, y = drop.xy[i].tolist()
    cls = clutter_class_at(s.clutter, x, y)
    dx = x - position[0]
    dy = y - position[1]
    pl = path_loss(s.radio.pathloss[cls], np.hypot(dx, dy))
    g_rx = antenna_gain(antenna, np.degrees(np.arctan2(dy, dx)) - azimuth_deg)
    b = int(drop.building[i])
    pen = s.clutter.buildings[b].penetration_loss_db if b >= 0 else 0.0
    chi = _shadowing(seed, label, i, s.radio.shadowing_sigma_db[cls])
    return float(-pl + g_rx - pen + chi)


def _ul_gain(drop, i, rp, s, seed):
    return _scalar_gain(drop, i, rp.position, rp.antenna, rp.azimuth_deg, s, seed,
                        label=f"ul:{rp.id}")


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


def _remainder_gain(pattern, bearing_deg):
    """A sector pattern's gain with the bearing wrapped by numpy's
    remainder, (b + 180) % 360 - 180."""
    theta = np.abs((np.asarray(bearing_deg, dtype=float) + 180.0) % 360.0 - 180.0)
    return pattern.gain_dbi - np.minimum(12.0 * (theta / pattern.theta_3db_deg) ** 2,
                                         pattern.front_to_back_db)


def test_sector_gain_wrap_is_bitwise_the_remainder():
    """The wrap gives the remainder's bits, type and shape, on 0-d and
    array bearings, at the wrap points and far outside a table's range.
    An infinite front-to-back ratio leaves every theta visible."""
    sec = AntennaPattern(kind="sector", gain_dbi=15.0, theta_3db_deg=65.0,
                         front_to_back_db=np.inf)
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, 180.0, -180.0, 540.0, -540.0, 360.0, -360.0, 720.0, -720.0,
             3600.0, -3600.0, 1e6, -1e6, tiny, -tiny, 1e-300, -1e-300, 1e-12, -1e-12,
             np.nextafter(180.0, 0.0), np.nextafter(-180.0, 0.0), np.nextafter(-540.0, 0.0),
             np.nextafter(360.0, 1e3), 179.99999999999997, -359.99999999999994]
    rng = np.random.default_rng(19)
    arrays = [np.array(edges), np.array(edges).reshape(2, -1),
              rng.uniform(-540.0, 180.0, size=(50, 7)),       # a table's bearings
              rng.uniform(-1e6, 1e6, size=(50, 7)), np.zeros((0, 3))]
    for b in [*edges, *(np.float64(x) for x in edges), *(np.array(x) for x in edges), *arrays]:
        got, want = antenna_gain(sec, b), _remainder_gain(sec, b)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), b


def test_shadowing_sample_properties(monkeypatch):
    assert _shadowing(5, "ul:s0", 0, 0.0) == 0.0
    a = _shadowing(5, "ul:s0", 0, 8.0)
    assert _shadowing(5, "ul:s0", 0, 8.0) == a
    assert _shadowing(5, "ul:s0", 0, 4.0) == pytest.approx(a / 2.0)
    assert _shadowing(5, "ul:s0", 1, 8.0) != a
    # the table draws each direction with one call through the module's
    # label_normal, one label per column and the mobile ids as counters,
    # and makes no call at sigma 0
    calls = []

    def counted(seed, labels, counters):
        calls.append((list(labels), list(counters)))
        return label_normal(seed, labels, counters)

    monkeypatch.setattr(greenant.propagation, "label_normal", counted)
    mobiles = place((431.0, 77.0), (1210.0, -340.0), (-80.0, 5.0))
    build_gain_matrix(load_doc(two_cell_doc(sigma=0.0)), mobiles, 21)
    assert calls == []
    build_gain_matrix(load_doc(two_cell_doc(sigma=8.0)), mobiles, 21)
    assert sorted(labels for labels, _ in calls) == [["dl:A1", "dl:B1"], ["ul:A1", "ul:B1"]]
    assert all(counters == [0, 1, 2] for _, counters in calls)


def test_link_gain_composition_without_shadowing():
    s = load_doc(two_cell_doc(sigma=0.0))
    rp = s.receive_points[0]         # site A's omni, 10 dBi
    m = place((500.0, 0.0))
    expected = -(128.1 + 37.6 * np.log10(0.5)) + 10.0
    assert _ul_gain(m, 0, rp, s, 1) == pytest.approx(expected)
    assert build_gain_matrix(s, m, 1).ul_gain_db[0, 0] == _ul_gain(m, 0, rp, s, 1)


def test_penetration_applies_to_indoor_mobiles_only():
    doc = two_cell_doc(sigma=0.0)
    doc["clutter"] = {"buildings": [{"id": "bld", "rect": [400, -50, 600, 50],
                                     "penetration_loss_db": 20}]}
    s = load_doc(doc)
    rp = s.receive_points[0]
    mobiles = place((500.0, 0.0), (500.0, 0.0), building=[-1, 0])   # outdoor, in "bld"
    assert _ul_gain(mobiles, 1, rp, s, 1) == pytest.approx(_ul_gain(mobiles, 0, rp, s, 1) - 20.0)
    gm = build_gain_matrix(s, mobiles, 1)
    assert gm.ul_gain_db[1, 0] == pytest.approx(gm.ul_gain_db[0, 0] - 20.0)


def test_gain_matrix_matches_scalar_link_gain_bitwise():
    """The vectorized fill must be the same arithmetic as the 1x1
    reference (UL) and as tx power plus it with the mode's label (DL)."""
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
        for i in range(len(mobiles)):
            for j, rp in enumerate(s.receive_points):
                assert gm.ul_gain_db[i, j] == _ul_gain(mobiles, i, rp, s, 99)
            for j, (site, sec) in enumerate(s.sectors()):
                assert gm.dl_rx_dbm[i, j] == sec.tx_power_dbm + _scalar_gain(
                    mobiles, i, site.position, sec.antenna, sec.azimuth_deg, s, 99,
                    label=f"{direction}:{sec.id}")


def _column_loop_tables(s, mobiles, seed):
    """Reference of a whole table, built one receive-point column at a
    time: each column is its own array expression with its own one-label
    draw, and a reciprocal DL column adds tx power to its UL column."""
    clutter, radio = s.clutter, s.radio
    xs, ys = mobiles.xy.T
    ids = np.arange(len(mobiles), dtype=np.uint64)
    pen = np.array([*(b.penetration_loss_db for b in clutter.buildings), 0.0])[mobiles.building]
    codes = clutter.class_codes(xs, ys)
    per_class = [radio.pathloss[c] for c in clutter.classes]
    model = PathLossModel(pl0_db=np.array([pm.pl0_db for pm in per_class])[codes],
                          d0_m=np.array([pm.d0_m for pm in per_class])[codes],
                          exponent=np.array([pm.exponent for pm in per_class])[codes])
    sigma = np.array([radio.shadowing_sigma_db[c] for c in clutter.classes])[codes]
    shadowed = sigma != 0.0

    def base(rp):
        dx = xs - rp.position[0]
        dy = ys - rp.position[1]
        bearing = np.degrees(np.arctan2(dy, dx)) - rp.azimuth_deg
        return -path_loss(model, np.hypot(dx, dy)) + antenna_gain(rp.antenna, bearing) - pen

    def chi(label):
        if not shadowed.any():
            return 0.0
        return np.where(shadowed, sigma * label_normal(seed, [label], ids)[:, 0], 0.0)

    rps = s.receive_points
    reciprocal = radio.dl_shadowing_mode == "reciprocal"
    tx_dbm = [sec.tx_power_dbm for _, sec in s.sectors()]
    ul = np.empty((len(mobiles), len(rps)))
    dl = np.empty((len(mobiles), len(tx_dbm)))
    for j, rp in enumerate(rps):
        b = base(rp)
        ul[:, j] = b + chi(f"ul:{rp.id}")
        if rp.kind == "sector":
            dl[:, j] = tx_dbm[j] + (ul[:, j] if reciprocal else b + chi(f"dl:{rp.id}"))
    noise = np.array([radio.thermal_noise_dbm + rp.noise_figure_db for rp in rps])
    return ul, dl, noise


def _multi_green_doc():
    """green.json with a green in every building: omni greens attached to
    the three nearest sites' sectors and one sector-pattern green, plus an
    open (sigma 0) and a suburban clutter region."""
    doc = json.loads(GREEN_JSON.read_text())
    sites = doc["sites"]
    for k, b in enumerate(doc["clutter"]["buildings"][1:]):
        x0, y0, x1, y1 = b["rect"]
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        near = sorted(sites, key=lambda st: np.hypot(cx - st["position"][0],
                                                      cy - st["position"][1]))[:3]
        antenna = ({"kind": "sector", "gain_dbi": 12.0} if k == 0
                   else {"kind": "omni", "gain_dbi": 2.0})
        doc["greens"].append({"id": f"g-{b['id']}", "position": [cx, cy], "antenna": antenna,
                              "attached_sectors": [sec["id"] for st in near
                                                   for sec in st["sectors"]]})
    doc["clutter"]["class_regions"] = [
        {"rect": [-1900, -1900, 0, 0], "clutter_class": "open"},
        {"rect": [300, 100, 1900, 1900], "clutter_class": "suburban"},
    ]
    doc["radio"]["shadowing_sigma_db"] = {"open": 0.0, "suburban": 6.0, "urban": 8.0}
    return doc


def _shared_positions_doc():
    """green.json with one green exactly on a site, so a green column and
    three sector columns share one position, and two greens of different
    patterns at one position of their own."""
    doc = json.loads(GREEN_JSON.read_text())
    site = doc["sites"][2]
    doc["greens"] += [
        {"id": "on-site", "position": list(site["position"]),
         "attached_sectors": [site["sectors"][0]["id"]]},
        {"id": "twin-sector", "position": [-450.0, 820.0],
         "antenna": {"kind": "sector", "gain_dbi": 12.0}, "attached_sectors": ["s0a", "s0b"]},
        {"id": "twin-omni", "position": [-450.0, 820.0], "attached_sectors": ["s0b"]},
    ]
    return doc


@pytest.mark.parametrize("doc", [json.loads(GREEN_JSON.read_text()), _multi_green_doc(),
                                 _shared_positions_doc()],
                         ids=["green", "multi-green", "shared-positions"])
def test_gain_matrix_is_bitwise_the_column_loop(doc):
    """The one-pass table equals the column-at-a-time reference entry for
    entry, in both DL shadowing modes, and so do its columns restricted to
    the greenless world; every array is C-ordered (the layout changes the
    last bits of `powers @ gains`)."""
    s_by_mode = {}
    for mode in ("reciprocal", "independent"):
        doc["radio"]["dl_shadowing_mode"] = mode
        s_by_mode[mode] = load_doc(doc)
    s = s_by_mode["reciprocal"]
    # each scenario's channel arrays are built at its first table and read
    # by all 200; its greenless variant reads its columns of those tables
    bare_by_mode = {mode: strip_greens(sm) for mode, sm in s_by_mode.items()}
    patterns = {rp.antenna.kind for rp in s.receive_points}
    assert patterns == {"sector", "omni"}
    # the table computes its geometry once per distinct position
    positions = {rp.position for rp in s.receive_points}
    assert len(s.channel.pos_x) == len(positions) < len(s.receive_points)
    sigma = np.array([s.radio.shadowing_sigma_db[c] for c in s.clutter.classes])
    unshadowed = 0
    for k in range(200):
        seed = 1000 + k
        mobiles = drop_mobiles(s, seed)
        for mode, sm in s_by_mode.items():
            gm = build_gain_matrix(sm, mobiles, seed)
            bare = bare_by_mode[mode]
            for table, ref in ((gm, sm), (gm.restricted_to(bare), bare)):
                ul, dl, noise = _column_loop_tables(ref, mobiles, seed)
                for got, want in ((table.ul_gain_db, ul), (table.dl_rx_dbm, dl),
                                  (table.noise_dbm, noise)):
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, want)
        codes = s.clutter.class_codes(mobiles.xy[:, 0], mobiles.xy[:, 1])
        unshadowed += int(np.count_nonzero(sigma[codes] == 0.0))
    # the multi-green map's open region has sigma 0, and mobiles land in it
    assert (unshadowed > 0) == (0.0 in sigma)


@pytest.mark.parametrize("doc", [json.loads(GREEN_JSON.read_text()), _multi_green_doc(),
                                 _shared_positions_doc()],
                         ids=["green", "multi-green", "shared-positions"])
def test_block_tables_are_bitwise_the_tables_alone(doc):
    """Blocks of 1, 2, 5 and 12 drops, in both DL shadowing modes: table i
    of a block, its linear gains, its columns restricted to the greenless
    world and its association are bitwise those of drop i's table alone,
    and the tables equal the column-loop reference, also where a class has
    sigma 0. The block's arrays lead with the block axis, are C-ordered
    and read-only, and row i of each is table i's."""
    seeds = [snapshot_seed(41, k) for k in range(12)]
    for mode in ("reciprocal", "independent"):
        doc["radio"]["dl_shadowing_mode"] = mode
        s = load_doc(doc)
        bare = strip_greens(s)
        drops = [drop_mobiles(s, seed) for seed in seeds]
        alone = [build_gain_matrix(s, d, seed) for d, seed in zip(drops, seeds)]
        refs = [(_column_loop_tables(s, d, seed), _column_loop_tables(bare, d, seed))
                for d, seed in zip(drops, seeds)]
        # the multi-green map's open region has sigma 0, and mobiles land in it
        sigma = np.array([s.radio.shadowing_sigma_db[c] for c in s.clutter.classes])
        unshadowed = [sigma[s.clutter.class_codes(d.xy[:, 0], d.xy[:, 1])] == 0.0 for d in drops]
        assert any(u.any() for u in unshadowed) == (0.0 in sigma)
        for k in (1, 2, 5, 12):
            for lo in range(0, len(seeds) - k + 1, k):
                block_seeds = seeds[lo:lo + k]
                block = build_gain_matrix(s, drop_mobiles(s, block_seeds), block_seeds)
                restricted = block.restricted_to(bare)
                serving = associate(block)
                n = len(drops[0])
                for table in (block, restricted):
                    for arr in (table.ul_gain_db, table.dl_rx_dbm, table.ul_gain_mw):
                        assert arr.shape[:2] == (k, n) and arr.flags.c_contiguous
                    assert not table.ul_gain_db.flags.writeable
                assert serving.shape == (k, n) and not serving.flags.writeable
                assert block.channel is s.channel and restricted.channel is bare.channel
                assert not (block.dl_rx_dbm.flags.writeable or restricted.dl_rx_dbm.flags.writeable)
                for i, own in enumerate(alone[lo:lo + k]):
                    (ul, dl, _), (bare_ul, _, _) = refs[lo + i]
                    own_bare = own.restricted_to(bare)
                    for got, want, ref in ((block.ul_gain_db[i], own.ul_gain_db, ul),
                                           (block.dl_rx_dbm[i], own.dl_rx_dbm, dl),
                                           (restricted.ul_gain_db[i], own_bare.ul_gain_db, bare_ul),
                                           (restricted.dl_rx_dbm[i], own_bare.dl_rx_dbm, dl)):
                        assert got.tobytes() == want.tobytes() == ref.tobytes()
                    assert block.ul_gain_mw[i].tobytes() == own.ul_gain_mw.tobytes()
                    assert restricted.ul_gain_mw[i].tobytes() == own_bare.ul_gain_mw.tobytes()
                    assert own.channel is s.channel and own_bare.channel is bare.channel
                    want = associate(own)
                    assert serving[i].dtype == want.dtype
                    assert serving[i].tobytes() == want.tobytes()


def _stacked(*drops):
    """One block Drop of hand-placed drops of one size."""
    return Drop(*(np.stack([getattr(d, f.name) for d in drops]) for f in fields(Drop)))


@pytest.mark.parametrize("mode", ["reciprocal", "independent"])
def test_block_draws_each_shadowed_drop_once(mode, monkeypatch):
    """A block makes the label_normal calls of its tables alone: one per
    direction and shadowed drop, with that drop's seed, and none for a
    drop whose mobiles all stand in a sigma-0 class. A block of an
    all-open drop (sigma 0) and an urban one, and a block of two all-open
    drops, are bitwise their tables alone."""
    doc = two_cell_doc(sigma=8.0)
    doc["radio"]["shadowing_sigma_db"]["open"] = 0.0
    doc["radio"]["dl_shadowing_mode"] = mode
    doc["clutter"] = {"class_regions": [{"rect": [-2000, -2000, 0, 2000],
                                         "clutter_class": "open"}]}
    s = load_doc(doc)
    open_a = place((-431.0, 77.0), (-1210.0, -340.0))
    open_b = place((-80.0, 5.0), (-1500.0, 900.0))
    urban = place((431.0, 77.0), (1210.0, -340.0))
    calls = []

    def counted(seed, labels, counters):
        calls.append(seed)
        return label_normal(seed, labels, counters)

    monkeypatch.setattr(greenant.propagation, "label_normal", counted)
    for pair, seeds in (((open_a, urban), [21, 22]), ((urban, open_a), [22, 21]),
                        ((open_a, open_b), [21, 23])):
        calls.clear()
        alone = [build_gain_matrix(s, d, seed) for d, seed in zip(pair, seeds)]
        want_calls = list(calls)
        calls.clear()
        block = build_gain_matrix(s, _stacked(*pair), seeds)
        assert calls == want_calls == [22] * (1 if mode == "reciprocal" else 2) * (22 in seeds)
        for i, own in enumerate(alone):
            assert block.ul_gain_db[i].tobytes() == own.ul_gain_db.tobytes()
            assert block.dl_rx_dbm[i].tobytes() == own.dl_rx_dbm.tobytes()


def test_block_needs_one_seed_per_drop():
    s = load_doc(two_cell_doc())
    block = _stacked(place((1.0, 2.0)), place((3.0, 4.0)))
    with pytest.raises(ValueError):
        build_gain_matrix(s, block, [1, 2, 3])
    with pytest.raises(ValueError):
        build_gain_matrix(s, block, 1)
    with pytest.raises(ValueError):
        build_gain_matrix(s, place((1.0, 2.0)), [1])


def test_channel_arrays_belong_to_one_scenario_and_stay_out_of_pickles(two_cell_green):
    """A scenario builds its receive points and channel arrays at its first
    table, and its branch table and class targets at its first solve, and
    keeps them; a replace()d variant builds its own, and keeps its columns
    in the fuller scenario's table. A pickle carries the fields alone, so
    a pool task is the same size with or without them, and the copy's
    tables and solves have the same bits."""
    memos = {"receive_points", "channel", "branches", "class_targets"}
    s = two_cell_green
    size = len(pickle.dumps(s))
    mobiles = drop_mobiles(s, 3)
    gm = build_gain_matrix(s, mobiles, 3)
    assert gm.channel is s.channel
    assert gm.receive_points is s.receive_points and gm.noise_dbm is s.channel.noise_dbm
    assert {"receive_points", "channel"} <= set(vars(s))
    assert "building_rects" in vars(s.clutter)
    variant = replace(s, greens=())
    assert not memos & set(vars(variant))
    assert variant.channel is not s.channel
    assert variant.receive_points == s.receive_points[:2]
    sectors = gm.restricted_to(variant)
    assert sectors.channel is variant.channel
    cols = variant.channel.columns_in(s.channel)
    assert cols.tolist() == [0, 1] and not cols.flags.writeable
    assert gm.restricted_to(variant).ul_gain_db.tobytes() == sectors.ul_gain_db.tobytes()
    assert variant.channel.columns_in(s.channel) is cols
    solved = solve_snapshots((variant, s), drawn([(mobiles, associate(gm), gm)]), 1)
    # the targets are read from the class targets of the drop's scenario
    assert memos <= set(vars(s)) and memos - {"class_targets"} <= set(vars(variant))
    assert s.branches is s.branches and s.class_targets is s.class_targets
    assert len(pickle.dumps(s)) == size
    clone = pickle.loads(pickle.dumps(s))
    assert clone == s
    assert not memos & set(vars(clone))
    again = build_gain_matrix(clone, drop_mobiles(clone, 3), 3)
    for got, want in ((again.ul_gain_db, gm.ul_gain_db), (again.dl_rx_dbm, gm.dl_rx_dbm),
                      (again.noise_dbm, gm.noise_dbm)):
        assert got.tobytes() == want.tobytes()
    bare = pickle.loads(pickle.dumps(variant))
    resolved = solve_snapshots((bare, clone), drawn([(mobiles, associate(again), again)]), 1)
    for got, want in zip(snapshots(resolved)[0].runs, snapshots(solved)[0].runs, strict=True):
        assert pickle.dumps(got) == pickle.dumps(want)


def test_restricted_linear_gains_are_a_gather_of_the_full_table():
    """The pow is elementwise, so the linear gains of `restricted_to`'s dB
    columns are bitwise the same columns of the full table's `ul_gain_mw`,
    as the solver gathers them for an earlier run. Checked on random
    tables and column subsets."""
    rng = np.random.default_rng(73)
    world = load_doc(multi_green_doc())
    for _ in range(300):
        full = replace(world, greens=tuple(g for g in world.greens if rng.random() < 0.7))
        part = replace(full, greens=tuple(g for g in full.greens if rng.random() < 0.5))
        n = int(rng.integers(1, 300))
        gm = LinkGainMatrix(channel=full.channel,
                            ul_gain_db=rng.uniform(-320.0, 30.0, size=(n, len(full.receive_points))),
                            dl_rx_dbm=np.zeros((n, full.n_sectors())))
        table = gm.restricted_to(part)
        assert table.ul_gain_db.flags.c_contiguous and table.ul_gain_mw.flags.c_contiguous
        cols = part.channel.columns_in(full.channel)
        assert table.ul_gain_mw.tobytes() == np.take(gm.ul_gain_mw, cols, axis=-1).tobytes()


def test_receive_point_order_is_sectors_then_greens(two_cell_green):
    rps = two_cell_green.receive_points
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
    sectors = gm_g.restricted_to(bare)
    assert sectors.receive_points == gm_b.receive_points
    assert sectors.ul_gain_db.flags.c_contiguous
    assert np.array_equal(sectors.ul_gain_db, gm_b.ul_gain_db)
    assert np.array_equal(sectors.noise_dbm, gm_b.noise_dbm)
    assert np.array_equal(sectors.dl_rx_dbm, gm_b.dl_rx_dbm)


def test_downlink_uses_tx_power_and_independent_shadowing():
    doc = two_cell_doc(sigma=0.0)
    doc["sites"][0]["sectors"][0]["tx_power_dbm"] = 40.0
    s = load_doc(doc)
    gm = build_gain_matrix(s, place((500.0, 0.0)), 1)
    assert gm.dl_rx_dbm[0, 0] == pytest.approx(40.0 + gm.ul_gain_db[0, 0])


def test_reciprocal_mode_copies_uplink_shadowing():
    doc = two_cell_doc(sigma=8.0)
    doc["radio"]["dl_shadowing_mode"] = "reciprocal"
    s = load_doc(doc)
    gm = build_gain_matrix(s, place((431.0, 77.0), (1210.0, -340.0)), 21)
    tx = np.array([sec.tx_power_dbm for _, sec in s.sectors()])
    assert np.array_equal(gm.dl_rx_dbm, tx[None, :] + gm.ul_gain_db[:, :2])


def test_independent_mode_draws_fresh_downlink_shadowing():
    s = load_doc(two_cell_doc(sigma=8.0))
    gm = build_gain_matrix(s, place((431.0, 77.0)), 21)
    tx = s.sites[0].sectors[0].tx_power_dbm
    assert gm.dl_rx_dbm[0, 0] != pytest.approx(tx + gm.ul_gain_db[0, 0])


def test_noise_floor_includes_noise_figure():
    doc = two_cell_doc()
    doc["sites"][0]["sectors"][0]["noise_figure_db"] = 5.0
    s = load_doc(doc)
    gm = build_gain_matrix(s, place((100.0, 0.0)), 1)
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
