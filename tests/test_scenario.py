"""Scenario documents: parsing, defaults, validation, and mobile drops."""

import dataclasses
import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

from greenant import scenario
from greenant.scenario import (
    Building,
    ClutterMap,
    InfeasibleDropError,
    ParseError,
    Scenario,
    ScenarioError,
    Sector,
    Site,
    ValidationError,
    Drop,
    drop_mobiles,
    load_scenario,
    load_scenario_file,
    strip_greens,
    validate_scenario,
)

from greenant.seeds import substream
from greenant.simulate import snapshot_seed

from conftest import (building_at, bundled_doc, clutter_class_at, contains, drop_bits, load_doc,
                      multi_green_doc, two_cell_doc)


MINIMAL = {
    "sites": [{"id": "A", "position": [0, 0], "sectors": [{"id": "A1"}]}],
}


def test_minimal_document_loads_with_defaults():
    s = load_doc(MINIMAL)
    assert s.sector_ids() == ["A1"]
    assert s.greens == ()
    # radio defaults
    assert s.radio.p_min_dbm == -50.0
    assert s.radio.p_max_dbm == 24.0
    assert s.radio.thermal_noise_dbm == -104.0
    assert s.radio.combining == "mrc"
    assert s.radio.dl_shadowing_mode == "independent"
    urban = s.radio.pathloss["urban"]
    assert (urban.pl0_db, urban.d0_m, urban.exponent) == (128.1, 1000.0, 3.76)
    assert s.radio.shadowing_sigma_db == {"open": 4.0, "suburban": 6.0, "urban": 8.0}
    # traffic defaults
    assert s.traffic.mobiles_per_sector == 10
    assert s.traffic.indoor_fraction == 0.3
    assert s.traffic.sinr_target_db == {"voice": 2.0, "data": 8.0}
    # default sector antenna
    ant = s.sites[0].sectors[0].antenna
    assert ant.kind == "sector" and ant.gain_dbi == 15.0
    # absent fields take the dataclass defaults
    site = Site(id="A", position=(0.0, 0.0), sectors=(Sector(id="A1"),))
    assert s == Scenario(sites=(site,), clutter=ClutterMap(bounds=(-2000.0, -2000.0, 2000.0, 2000.0)))


def test_a_partial_antenna_keeps_its_context_pattern():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sites"][0]["sectors"][0]["antenna"] = {"gain_dbi": 10}
    doc["greens"] = [{"id": "G", "position": [0, 0], "attached_sectors": ["A1"],
                      "antenna": {"gain_dbi": 10}}]
    s = load_doc(doc)
    sector, green = s.sites[0].sectors[0].antenna, s.greens[0].antenna
    assert (sector.kind, sector.gain_dbi, sector.theta_3db_deg) == ("sector", 10.0, 65.0)
    assert (green.kind, green.gain_dbi) == ("omni", 10.0)


def test_auto_bounds_cover_sites_with_margin():
    s = load_doc(MINIMAL)
    x0, y0, x1, y1 = s.clutter.bounds
    assert x0 <= -2000.0 and x1 >= 2000.0
    assert y0 <= -2000.0 and y1 >= 2000.0


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        load_scenario("{not json")


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(bogus=1), "scenario: unknown key 'bogus'"),
    (lambda d: d["sites"][0].update(colour="red"), "sites[0]: unknown key 'colour'"),
    (lambda d: d["sites"][0]["sectors"][0].update(tilt=3), "sites[0].sectors[0]: unknown key 'tilt'"),
    (lambda d: d.update(radio={"p_max": 10}), "radio: unknown key 'p_max'"),
])
def test_unknown_keys_are_rejected_with_path(mutate, fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        load_doc(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["sites"].append(dict(d["sites"][0])), "duplicate"),
    (lambda d: d["sites"][0]["sectors"][0].update(azimuth_deg=380), "azimuth"),
    (lambda d: d.update(greens=[{"id": "G", "position": [0, 0], "attached_sectors": []}]),
     "attached_sectors must be non-empty"),
    (lambda d: d.update(greens=[{"id": "G", "position": [0, 0], "attached_sectors": ["nope"]}]),
     "does not exist"),
    (lambda d: d.update(greens=[{"id": "G", "position": [0, 0],
                                 "attached_sectors": ["A1", "A1"]}]),
     "greens[0] ('G'): attached sector 'A1' listed twice"),
    (lambda d: d.update(radio={"p_min_dbm": 30, "p_max_dbm": 24}), "p_min_dbm must be below"),
    (lambda d: d.update(traffic={"indoor_fraction": 1.5}), "indoor_fraction"),
    (lambda d: d.update(traffic={"mobiles_per_sector": -1}), "mobiles_per_sector"),
    (lambda d: d.update(clutter={"bounds": [50, 50, 150, 150]}), "outside clutter map bounds"),
    (lambda d: d.update(clutter={"buildings": 5}), "clutter.buildings: expected a list"),
    (lambda d: d.update(clutter={"class_regions": 5}), "clutter.class_regions: expected a list"),
    (lambda d: d.update(greens=0), "greens: expected a list"),
    (lambda d: d.update(greens={}), "greens: expected a list"),
    (lambda d: d.update(greens=""), "greens: expected a list"),
    (lambda d: d.update(greens=False), "greens: expected a list"),
])
def test_invalid_documents_are_rejected(mutate, fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        load_doc(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize("path", [
    ("greens",), ("clutter",), ("radio",), ("traffic",), ("clutter", "buildings"),
    ("clutter", "class_regions"), ("radio", "pathloss"), ("radio", "shadowing_sigma_db"),
    ("traffic", "sinr_target_db"), ("sites", 0, "sectors", 0, "antenna"), ("greens", 0, "antenna"),
])
def test_a_null_list_or_object_is_an_absent_key(path):
    doc = bundled_doc("green.json")
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    parent[path[-1]] = None
    nulled = load_doc(doc)
    del parent[path[-1]]
    assert nulled == load_doc(doc)


WRONG_KINDS = (None, 0, 1.5, "", True, [], {})


def _nested_paths(node, path=()):
    """The path of every object- or list-valued entry below `node`."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield (*path, key)
            yield from _nested_paths(value, (*path, key))


@pytest.mark.parametrize("name", ["baseline.json", "green.json"])
def test_lists_and_objects_of_the_wrong_kind_are_scenario_errors(name):
    """Each object or list of a bundled document, replaced in turn by a value
    of every JSON kind: the loader returns a scenario or raises a
    ScenarioError, never another exception."""
    doc = bundled_doc(name)
    outcomes = set()
    for path in _nested_paths(doc):
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        kept = parent[path[-1]]
        for wrong in WRONG_KINDS:
            parent[path[-1]] = wrong
            try:
                load_doc(doc)
            except ScenarioError:
                outcomes.add("rejected")
            else:
                outcomes.add("loaded")
        parent[path[-1]] = kept
    assert outcomes == {"loaded", "rejected"}


def test_readme_schema_example_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    s = load_scenario(block)
    assert s.greens[0].attached_sectors == ("s0a", "s1b")


def test_validate_scenario_returns_violations_as_data():
    s = load_doc(MINIMAL)
    assert validate_scenario(s) == []
    bad = dataclasses.replace(s, radio=dataclasses.replace(s.radio, combining="fft"))
    msgs = validate_scenario(bad)
    assert any("combining" in m for m in msgs)


def test_load_scenario_file_names_missing_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValidationError) as err:
        load_scenario_file(str(missing))
    assert "nope.json" in str(err.value)


def test_load_scenario_file_errors_keep_their_class_and_name_the_path(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["radio"] = {"p_min_dbm": 30, "p_max_dbm": 24}
    cases = [(b"\xff\xfe{\x00}\x00", ParseError, "not UTF-8"),
             (b"{not json", ParseError, "malformed scenario document"),
             (json.dumps(doc).encode(), ValidationError, "p_min_dbm must be below")]
    for k, (content, cls, fragment) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_bytes(content)
        with pytest.raises(cls) as err:
            load_scenario_file(str(path))
        assert str(err.value).startswith(f"{path}: ") and fragment in str(err.value)


def test_strip_greens_removes_only_greens():
    s = load_doc(two_cell_doc(with_green=True))
    bare = strip_greens(s)
    assert bare.greens == ()
    assert bare.sites == s.sites
    assert bare.radio == s.radio
    assert bare.traffic == s.traffic


# ---------------------------------------------------------------------------
# clutter map

def test_clutter_class_is_resolved_per_cell():
    cm = ClutterMap(bounds=(0.0, 0.0, 1000.0, 1000.0), cell_size=100.0,
                    default_class="urban",
                    class_regions=(((0.0, 0.0, 260.0, 260.0), "open"),))
    # both points share the cell whose center is (250, 250), inside the region
    assert clutter_class_at(cm, 201.0, 201.0) == "open"
    assert clutter_class_at(cm, 299.0, 299.0) == "open"
    assert clutter_class_at(cm, 301.0, 301.0) == "urban"


def test_clutter_last_region_wins():
    cm = ClutterMap(bounds=(0.0, 0.0, 1000.0, 1000.0), cell_size=50.0,
                    class_regions=(
                        ((0.0, 0.0, 500.0, 500.0), "open"),
                        ((0.0, 0.0, 500.0, 500.0), "suburban"),
                    ))
    assert clutter_class_at(cm, 100.0, 100.0) == "suburban"


def test_building_lookup():
    b = Building(id="b0", rect=(0.0, 0.0, 100.0, 50.0))
    assert contains(b, 50.0, 25.0)
    assert not contains(b, 150.0, 25.0)
    assert b.area == 100.0 * 50.0
    cm = ClutterMap(bounds=(-10.0, -10.0, 200.0, 200.0), buildings=(b,))
    assert building_at(cm, 1.0, 1.0) is b
    assert building_at(cm, 150.0, 150.0) is None


# ---------------------------------------------------------------------------
# mobile drops

def _with_building(doc):
    doc = json.loads(json.dumps(doc))
    doc["clutter"] = {"buildings": [{"id": "bld", "rect": [500, -100, 800, 100]}]}
    return doc


def test_drop_count_and_determinism():
    s = load_doc(two_cell_doc(mobiles_per_sector=4))
    a = drop_mobiles(s, 11)
    b = drop_mobiles(s, 11)
    c = drop_mobiles(s, 12)
    assert len(a) == 4 * 2
    assert [len(f) for f in (a.xy, a.building, a.voice, a.target_db)] == [8] * 4
    assert drop_bits(a) == drop_bits(b)
    assert not np.array_equal(a.xy, c.xy)


def test_drops_ignore_green_antennas():
    doc = _with_building(two_cell_doc(with_green=True, indoor_fraction=0.5,
                                      mobiles_per_sector=5))
    s = load_doc(doc)
    assert drop_bits(drop_mobiles(s, 4)) == drop_bits(drop_mobiles(strip_greens(s), 4))


def test_indoor_mobiles_land_in_their_building():
    doc = _with_building(two_cell_doc(indoor_fraction=1.0, mobiles_per_sector=10))
    s = load_doc(doc)
    d = drop_mobiles(s, 2)
    assert d.indoor.all()
    for (x, y), b in zip(d.xy.tolist(), d.building.tolist()):
        assert s.clutter.buildings[b].id == "bld"
        assert building_at(s.clutter, x, y).id == "bld"


def test_outdoor_mobiles_avoid_buildings_and_stay_in_bounds():
    doc = _with_building(two_cell_doc(indoor_fraction=0.0, mobiles_per_sector=20))
    s = load_doc(doc)
    d = drop_mobiles(s, 3)
    assert not d.indoor.any() and (d.building == -1).all()
    for x, y in d.xy.tolist():
        assert s.clutter.in_bounds(x, y)
        assert building_at(s.clutter, x, y) is None


def test_indoor_fraction_is_respected_statistically():
    doc = _with_building(two_cell_doc(indoor_fraction=0.3, mobiles_per_sector=50))
    s = load_doc(doc)
    frac = np.mean([drop_mobiles(s, seed).indoor for seed in range(20)])
    assert 0.25 < frac < 0.35


def test_service_targets_follow_traffic_config():
    doc = _with_building(two_cell_doc(indoor_fraction=0.2, mobiles_per_sector=30,
                                      targets=(-16.0, -10.0)))
    s = load_doc(doc)
    d = drop_mobiles(s, 8)
    assert set(d.voice.tolist()) == {True, False}
    for voice, target in zip(d.voice.tolist(), d.target_db.tolist()):
        assert target == (-16.0 if voice else -10.0)


def test_indoor_without_buildings_is_infeasible():
    s = load_doc(two_cell_doc(indoor_fraction=0.4))
    with pytest.raises(InfeasibleDropError):
        drop_mobiles(s, 1)


# ---------------------------------------------------------------------------
# the block-drawn drop against a scalar draw per value

def _reference_drop(s, seed):
    """The drop as one scalar draw per value: drop_mobiles must give its bits."""
    traffic = s.traffic
    clutter = s.clutter
    n = traffic.mobiles_per_sector * s.n_sectors()
    buildings = clutter.buildings
    if traffic.indoor_fraction > 0 and not buildings:
        raise InfeasibleDropError("indoor_fraction > 0 but the scenario has no buildings")

    rng = substream(seed, "drops")
    areas = [b.area for b in buildings]
    total_area = sum(areas)
    cum = []
    acc = 0.0
    for a in areas:
        acc += a
        cum.append(acc)

    x0, y0, x1, y1 = clutter.bounds
    xy, building, voice, target_db = [], [], [], []
    for _ in range(n):
        indoor = bool(rng.random() < traffic.indoor_fraction)
        if indoor:
            u = rng.random() * total_area
            b_idx = 0
            while b_idx < len(cum) - 1 and u > cum[b_idx]:
                b_idx += 1
            b = buildings[b_idx]
            bx0, by0, bx1, by1 = b.rect
            pos = (float(rng.uniform(bx0, bx1)), float(rng.uniform(by0, by1)))
        else:
            for _ in range(scenario._MAX_PLACE_TRIES):
                pos = (float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
                if building_at(clutter, *pos) is None:
                    break
            else:
                raise InfeasibleDropError("could not place an outdoor mobile; map covered by buildings")
            b_idx = -1
        service = "voice" if rng.random() < traffic.voice_fraction else "data"
        xy.append(pos)
        building.append(b_idx)
        voice.append(service == "voice")
        target_db.append(traffic.sinr_target_db[service])
    return Drop(xy=np.array(xy, dtype=float).reshape(n, 2),
                building=np.array(building, dtype=np.intp),
                voice=np.array(voice, dtype=bool), target_db=np.array(target_db, dtype=float))


def _covered_doc(mobiles_per_sector=2):
    """green.json's sites on a map 92% covered by four buildings, so an
    outdoor mobile needs about 13 tries and the drop outgrows its block."""
    doc = bundled_doc("green.json")
    x0, y0, x1, y1 = doc["clutter"]["bounds"]
    mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    gx, gy = 0.01 * (x1 - x0), 0.01 * (y1 - y0)
    doc["clutter"]["buildings"] = [
        {"id": f"q{k}", "rect": [bx0, by0, bx1, by1], "penetration_loss_db": 15.0}
        for k, (bx0, by0, bx1, by1) in enumerate([
            (x0 + gx, y0 + gy, mx - gx, my - gy), (mx + gx, y0 + gy, x1 - gx, my - gy),
            (x0 + gx, my + gy, mx - gx, y1 - gy), (mx + gx, my + gy, x1 - gx, y1 - gy)])]
    doc["greens"] = []
    doc["traffic"]["mobiles_per_sector"] = mobiles_per_sector
    return doc


def _with_traffic(doc, **traffic):
    doc["traffic"].update(traffic)
    return doc


def _assert_same_drop(got, want):
    assert len(got) == len(want)
    assert drop_bits(got) == drop_bits(want)
    assert (got.xy.dtype, got.building.dtype, got.voice.dtype, got.target_db.dtype) == (
        np.float64, np.intp, np.bool_, np.float64)


DROP_MAPS = {
    "green": lambda: bundled_doc("green.json"),
    "multi-green": multi_green_doc,
    "covered": _covered_doc,
    "all-outdoor": lambda: _with_traffic(bundled_doc("green.json"), indoor_fraction=0.0,
                                         mobiles_per_sector=3),
    "all-indoor": lambda: _with_traffic(bundled_doc("green.json"), indoor_fraction=1.0,
                                        mobiles_per_sector=3),
    "no-mobiles": lambda: _with_traffic(bundled_doc("green.json"), mobiles_per_sector=0),
}


@pytest.mark.parametrize("name", DROP_MAPS)
def test_drop_is_bitwise_the_scalar_draw_reference(name):
    s = load_doc(DROP_MAPS[name]())
    for k in range(400):
        seed = snapshot_seed(29, k)
        _assert_same_drop(drop_mobiles(s, seed), _reference_drop(s, seed))


def test_covered_map_draws_more_than_one_block(monkeypatch):
    """The covered map exercises the block regrowth that the reference test
    compares bit for bit."""
    blocks = []
    real = scenario.substream

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            blocks.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(scenario, "substream", lambda seed, label: Counting(real(seed, label)))
    drop_mobiles(load_doc(_covered_doc()), snapshot_seed(29, 0))
    assert len(blocks) >= 2


def test_place_try_budget_is_unchanged(monkeypatch):
    """With the budget cut to 50 tries on a 92% covered map, about half the
    drops run out: the block-drawn drop raises exactly where the reference
    does."""
    monkeypatch.setattr(scenario, "_MAX_PLACE_TRIES", 50)
    s = load_doc(_with_traffic(_covered_doc(), indoor_fraction=0.0))
    raised = 0
    for k in range(60):
        seed = snapshot_seed(31, k)
        try:
            want = _reference_drop(s, seed)
        except InfeasibleDropError:
            raised += 1
            with pytest.raises(InfeasibleDropError):
                drop_mobiles(s, seed)
        else:
            _assert_same_drop(drop_mobiles(s, seed), want)
    assert 0 < raised < 60


def test_fully_covered_map_is_infeasible():
    doc = _covered_doc()
    x0, y0, x1, y1 = doc["clutter"]["bounds"]
    doc["clutter"]["buildings"] = [{"id": "all", "rect": [x0, y0, x1, y1]}]
    doc["traffic"]["indoor_fraction"] = 0.0
    with pytest.raises(InfeasibleDropError, match="covered by buildings"):
        drop_mobiles(load_doc(doc), 1)
