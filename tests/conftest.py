"""Shared builders: tiny scenario documents, hand-placed mobiles, and
synthetic channel tables that bypass the propagation layer."""

import json
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from greenant import simulate
from greenant.propagation import LinkGainMatrix
from greenant.scenario import (
    AntennaPattern,
    BranchTable,
    Drop,
    GreenAntenna,
    RadioParams,
    Scenario,
    Sector,
    Site,
    load_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BASELINE_JSON = SCENARIO_DIR / "baseline.json"
GREEN_JSON = SCENARIO_DIR / "green.json"


def two_cell_doc(with_green=False, sigma=0.0, targets=(-12.0, -12.0),
                 mobiles_per_sector=2, indoor_fraction=0.0, buildings=()):
    """Two single-sector omni sites 2 km apart; optionally one green near B."""
    doc = {
        "sites": [
            {"id": "A", "position": [0, 0],
             "sectors": [{"id": "A1", "azimuth_deg": 0,
                          "antenna": {"kind": "omni", "gain_dbi": 10}}]},
            {"id": "B", "position": [2000, 0],
             "sectors": [{"id": "B1", "azimuth_deg": 0,
                          "antenna": {"kind": "omni", "gain_dbi": 10}}]},
        ],
        "radio": {"shadowing_sigma_db": {"open": sigma, "suburban": sigma, "urban": sigma}},
        "traffic": {
            "mobiles_per_sector": mobiles_per_sector,
            "indoor_fraction": indoor_fraction,
            "sinr_target_db": {"voice": targets[0], "data": targets[1]},
        },
    }
    if buildings:
        doc["clutter"] = {"buildings": list(buildings)}
    if with_green:
        doc["greens"] = [{"id": "G", "position": [1600, 0],
                          "antenna": {"kind": "omni", "gain_dbi": 10},
                          "attached_sectors": ["A1"]}]
    return doc


def load_doc(doc):
    return load_scenario(json.dumps(doc))


def bundled_doc(name):
    """A bundled scenario file as a document, for tests that vary it."""
    return json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))


def multi_green_doc(mobiles_per_sector=2, combining="egc", attached=6):
    """green.json with an omni green at the centre of every other building,
    attached to its `attached` nearest sectors: 3-7 branches per sector."""
    doc = bundled_doc("green.json")
    sectors = [(sec["id"], site["position"]) for site in doc["sites"] for sec in site["sectors"]]
    for b in doc["clutter"]["buildings"][1:]:
        x0, y0, x1, y1 = b["rect"]
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        nearest = sorted(sectors, key=lambda s: (math.hypot(cx - s[1][0], cy - s[1][1]), s[0]))
        doc["greens"].append({"id": f"green-{b['id']}", "position": [cx, cy],
                              "attached_sectors": [sid for sid, _ in nearest[:attached]]})
    doc["traffic"]["mobiles_per_sector"] = mobiles_per_sector
    doc["traffic"]["sinr_target_db"] = {"voice": -10.0, "data": -6.0}
    doc["radio"]["combining"] = combining
    return doc


def place(*xy, building=None, target_db=-12.0):
    """A hand-placed drop for constructed (non-random) snapshots: one (x, y)
    row per mobile, outdoor data users unless `building` gives each row's
    building index; `target_db` is one target or one per row."""
    xy = np.array(xy, dtype=float).reshape(-1, 2)
    n = len(xy)
    return Drop(xy=xy,
                building=np.full(n, -1, dtype=np.intp) if building is None
                else np.array(building, dtype=np.intp),
                voice=np.zeros(n, dtype=bool),
                target_db=np.zeros(n) + target_db)


def clutter_class_at(clutter, x, y):
    """The clutter class of one point, through the map's array lookup."""
    return clutter.classes[int(clutter.class_codes(np.array([x], float), np.array([y], float))[0])]


def contains(building, x, y):
    """Scalar reference of the drop's building test: a closed rectangle."""
    x0, y0, x1, y1 = building.rect
    return x0 <= x <= x1 and y0 <= y <= y1


def building_at(clutter, x, y):
    """The first building of the map that contains (x, y), else None."""
    for b in clutter.buildings:
        if contains(b, x, y):
            return b
    return None


def drop_bits(drop):
    """Each field's dtype, shape and bytes: drops compare by these, because
    a dataclass == of arrays is ambiguous."""
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (drop.xy, drop.building, drop.voice, drop.target_db))


def act_from(monkeypatch, first, action):
    """Call `action(index)` as each snapshot from index `first` on is drawn,
    before its seed is derived; a forked worker inherits the patch."""
    real = simulate.snapshot_seed

    def seed_or_act(seed, index):
        if index >= first:
            action(index)
        return real(seed, index)

    monkeypatch.setattr(simulate, "snapshot_seed", seed_or_act)


def make_tables(ul_gain_db, n_sectors, serving, noise_dbm=-104.0, attach=None):
    """Synthetic LinkGainMatrix, serving sector index array and BranchTable.

    ul_gain_db: (n_ms, n_rp) with sector columns first, green columns after.
    serving: per-MS sector index. attach: {sector_id: [green ids]}, each
    sector's greens in branch order. The table's world is a scenario of
    omni sectors "s<k>" and greens "g<k>" at the origin, with noise_dbm of
    thermal noise and no noise figure.
    """
    ul = np.asarray(ul_gain_db, dtype=float)
    n_ms, n_rp = ul.shape
    pattern = AntennaPattern()
    world = Scenario(
        sites=tuple(Site(id=f"site{k}", position=(0.0, 0.0),
                         sectors=(Sector(id=f"s{k}", antenna=pattern),))
                    for k in range(n_sectors)),
        greens=tuple(GreenAntenna(id=f"g{k}", position=(0.0, 0.0), attached_sectors=())
                     for k in range(n_rp - n_sectors)),
        radio=RadioParams(thermal_noise_dbm=float(noise_dbm)))

    dl = np.full((n_ms, n_sectors), -90.0)
    rows = np.arange(n_ms)
    serving = np.asarray(serving, dtype=int)
    dl[rows, serving] = -60.0
    gm = LinkGainMatrix(channel=world.channel, ul_gain_db=ul, dl_rx_dbm=dl)
    column = {rp.id: j for j, rp in enumerate(world.receive_points)}
    attach = attach or {}
    return gm, serving, BranchTable.of([[k, *(column[g] for g in attach.get(f"s{k}", ()))]
                                        for k in range(n_sectors)])


def branch_ids(branches, receive_points):
    """{sector id: its branch set's receive point ids}, from a branch table."""
    return {receive_points[k].id: tuple(receive_points[j].id for j in row[:width])
            for k, (row, width) in enumerate(zip(branches.cols.tolist(),
                                                 branches.widths.tolist()))}


def own_antennas(branches):
    """The branch table with each sector's own antenna as its only branch."""
    return BranchTable(cols=branches.cols[:, :1], widths=np.ones_like(branches.widths))


def random_instance(rng, max_ms=20, max_sectors=5, green_prob=0.5):
    """Random synthetic instance for property tests.

    Returns (gm, serving, branches, targets_db). Gains span a wide dynamic
    range so interference-dominated and noise-dominated cases both occur.
    """
    n_ms = int(rng.integers(1, max_ms + 1))
    n_sec = int(rng.integers(1, max_sectors + 1))
    n_green = int(rng.integers(0, 3)) if rng.random() < green_prob else 0
    ul = rng.uniform(-130.0, -70.0, size=(n_ms, n_sec + n_green))
    serving = rng.integers(0, n_sec, size=n_ms)
    attach = {}
    for k in range(n_green):
        sec = int(rng.integers(0, n_sec))
        attach.setdefault(f"s{sec}", []).append(f"g{k}")
    gm, serving, branches = make_tables(ul, n_sec, serving, attach=attach)
    targets = rng.uniform(-15.0, 9.0, size=n_ms)
    return gm, serving, branches, targets


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test that leaves a child process running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"the test left processes running: {left}"


@pytest.fixture
def two_cell():
    return load_doc(two_cell_doc())


@pytest.fixture
def two_cell_green():
    return load_doc(two_cell_doc(with_green=True))
