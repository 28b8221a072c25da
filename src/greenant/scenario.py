"""Simulation worlds: sites/sectors, receive-only green antennas, clutter
and buildings, radio parameters, and seeded mobile drops.

A scenario is loaded from a single JSON document, whose schema is the
dataclasses below (the README describes it), and is immutable afterwards. Green antennas never transmit: they carry no
pilot and take no part in any downlink computation.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .seeds import NORMAL_DRAW_MAX, substream

CLUTTER_CLASSES = ("open", "suburban", "urban")
COMBINING_MODES = ("mrc", "selection", "egc")
DL_SHADOWING_MODES = ("independent", "reciprocal")
SERVICES = ("voice", "data")

#: Near/far placement retry budget for outdoor rejection sampling.
_MAX_PLACE_TRIES = 10_000


class ScenarioError(Exception):
    """Base class for scenario failures."""


class ParseError(ScenarioError):
    """The scenario document is not well-formed."""


class ValidationError(ScenarioError):
    """The document violates the schema or a scenario invariant."""


class InfeasibleDropError(ScenarioError):
    """A mobile drop cannot be realized for this scenario."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _fields_only(self) -> dict[str, Any]:
    """The pickled state of a record with memoized arrays: its fields
    alone. A memo is rebuilt where it is read, so a pool task never
    carries one."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class AntennaPattern:
    """Planar antenna pattern: omni, or a parabolic sector main lobe.

    Off-boresight attenuation for sector patterns follows
    12 * (theta / theta_3db)^2 dB, capped at front_to_back_db.
    """

    kind: str = "omni"              # "omni" | "sector"
    gain_dbi: float = 0.0
    theta_3db_deg: float = 65.0
    front_to_back_db: float = 25.0


@dataclass(frozen=True, kw_only=True)
class Sector:
    id: str
    azimuth_deg: float = 0.0        # boresight, degrees CCW from +x
    antenna: AntennaPattern = AntennaPattern(kind="sector", gain_dbi=15.0)
    tx_power_dbm: float = 43.0      # DL pilot, used for association only
    noise_figure_db: float = 0.0


@dataclass(frozen=True)
class Site:
    id: str
    position: tuple[float, float]   # meters, planar
    sectors: tuple[Sector, ...]


@dataclass(frozen=True, kw_only=True)
class GreenAntenna:
    """Receive-only antenna wired to one or more sectors.

    It contributes uplink receive branches to every attached sector and
    never appears in any downlink table.
    """

    id: str
    position: tuple[float, float]
    antenna: AntennaPattern = AntennaPattern()
    attached_sectors: tuple[str, ...]
    noise_figure_db: float = 0.0


@dataclass(frozen=True)
class Building:
    id: str
    rect: tuple[float, float, float, float]   # x0, y0, x1, y1
    penetration_loss_db: float = 20.0

    @property
    def area(self) -> float:
        x0, y0, x1, y1 = self.rect
        return max(x1 - x0, 0.0) * max(y1 - y0, 0.0)


@dataclass(frozen=True)
class ClutterMap:
    """Per-cell clutter classes plus building footprints.

    The class of a position is resolved on the grid cell containing it:
    later entries of ``class_regions`` override earlier ones, and cells
    outside every region take ``default_class``.
    """

    bounds: tuple[float, float, float, float]  # x0, y0, x1, y1
    cell_size: float = 50.0
    default_class: str = "urban"
    class_regions: tuple[tuple[tuple[float, float, float, float], str], ...] = ()
    buildings: tuple[Building, ...] = ()

    @property
    def classes(self) -> tuple[str, ...]:
        """Class names by code: the default, then each region's, in order."""
        return (self.default_class, *(cls for _, cls in self.class_regions))

    def class_codes(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Index into `classes` for each point (arrays of x and y)."""
        if not self.class_regions:
            return np.zeros(np.shape(xs), dtype=np.intp)
        x0, y0, x1, y1 = self.bounds
        cs = self.cell_size
        # snap to the center of the containing cell so the class map is
        # genuinely per-cell rather than per-point
        cx = x0 + (np.floor((np.clip(xs, x0, x1) - x0) / cs) + 0.5) * cs
        cy = y0 + (np.floor((np.clip(ys, y0, y1) - y0) / cs) + 0.5) * cs
        codes = np.zeros(np.shape(cx), dtype=np.intp)
        for k, ((rx0, ry0, rx1, ry1), _) in enumerate(self.class_regions, start=1):
            codes[(rx0 <= cx) & (cx <= rx1) & (ry0 <= cy) & (cy <= ry1)] = k
        return codes

    def in_bounds(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= x <= x1 and y0 <= y <= y1

    @functools.cached_property
    def building_rects(self) -> np.ndarray:
        """(n, 4) read-only rows of x0, y0, x1, y1, one per building, built
        at the first drop of the map."""
        return _read_only(np.array([b.rect for b in self.buildings], dtype=float).reshape(-1, 4))

    @functools.cached_property
    def building_areas(self) -> tuple[np.ndarray, float]:
        """The buildings' cumulative areas, read-only, and their total: the
        area-weighted building pick of an indoor mobile."""
        areas = [b.area for b in self.buildings]
        return _read_only(np.cumsum(areas)), sum(areas)

    __getstate__ = _fields_only


#: Near-field clamp: distances below this evaluate the model at 10 m.
D_MIN_M = 10.0


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance model: PL(d) = pl0 + 10 * exponent * log10(d / d0)."""

    pl0_db: float
    d0_m: float
    exponent: float


def default_pathloss() -> dict[str, PathLossModel]:
    return {
        "open": PathLossModel(pl0_db=98.5, d0_m=1000.0, exponent=2.5),
        "suburban": PathLossModel(pl0_db=120.9, d0_m=1000.0, exponent=3.5),
        "urban": PathLossModel(pl0_db=128.1, d0_m=1000.0, exponent=3.76),
    }


def default_shadowing_sigma() -> dict[str, float]:
    return {"open": 4.0, "suburban": 6.0, "urban": 8.0}


@dataclass(frozen=True)
class RadioParams:
    p_min_dbm: float = -50.0
    p_max_dbm: float = 24.0
    thermal_noise_dbm: float = -104.0   # per receive branch, before noise figure
    pathloss: dict[str, PathLossModel] = field(default_factory=default_pathloss)
    shadowing_sigma_db: dict[str, float] = field(default_factory=default_shadowing_sigma)
    dl_shadowing_mode: str = "independent"
    combining: str = "mrc"


def default_sinr_targets() -> dict[str, float]:
    return {"voice": 2.0, "data": 8.0}


@dataclass(frozen=True)
class TrafficParams:
    mobiles_per_sector: int = 10
    indoor_fraction: float = 0.3
    voice_fraction: float = 0.5
    sinr_target_db: dict[str, float] = field(default_factory=default_sinr_targets)


@dataclass(frozen=True)
class Drop:
    """One placement of mobiles, as read-only arrays: mobile i is row i,
    and i is its id. A campaign's record, and a block of drops, stack
    their drops in one Drop whose arrays lead with a snapshot axis; its
    len is still the mobile count, and `snapshot(i)` is drop i."""

    xy: np.ndarray                  # (n, 2) float64, meters
    building: np.ndarray            # (n,) intp into clutter.buildings, -1 outdoor
    voice: np.ndarray               # (n,) bool: voice service, else data
    target_db: np.ndarray           # (n,) float64, the service's SINR target

    def __post_init__(self) -> None:
        for arr in (self.xy, self.building, self.voice, self.target_db):
            arr.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # unpickling skips __post_init__, and its arrays come back writeable
        self.__dict__.update(state)
        self.__post_init__()

    def __len__(self) -> int:
        return self.building.shape[-1]

    def snapshot(self, i: int) -> Drop:
        """Drop i of a stacked drop, as views of its arrays."""
        return Drop(self.xy[i], self.building[i], self.voice[i], self.target_db[i])

    @property
    def indoor(self) -> np.ndarray:
        return self.building >= 0


@dataclass(frozen=True)
class ReceivePoint:
    """An uplink receive branch: a sector's own antenna or a green antenna."""

    kind: str                       # "sector" | "green"
    id: str
    position: tuple[float, float]
    antenna: AntennaPattern
    azimuth_deg: float
    noise_figure_db: float = 0.0


@dataclass(frozen=True, eq=False)
class ChannelArrays:
    """What every channel table of a scenario shares, as read-only arrays
    indexed by receive point (sectors, then greens), by distinct receive
    point position, by sector or by clutter class code
    (`ClutterMap.classes`). propagation's tables read them, and each table
    keeps its scenario's record; see `Scenario.channel`. It compares and
    hashes by identity."""

    receive_points: tuple[ReceivePoint, ...]
    pos_x: np.ndarray               # each distinct receive point position,
    pos_y: np.ndarray               # in order of first use,
    rp_pos: np.ndarray              # and each receive point's index into them
    rp_azimuth_deg: np.ndarray
    noise_dbm: np.ndarray           # thermal noise plus each point's noise figure
    noise_mw: np.ndarray            # the same in milliwatts
    #: each distinct antenna pattern, in order of first use, with its columns
    pattern_cols: tuple[tuple[AntennaPattern, np.ndarray], ...]
    pl0_db: np.ndarray              # per class code, as are d0_m, exponent and sigma_db
    d0_m: np.ndarray
    exponent: np.ndarray
    sigma_db: np.ndarray
    penetration_db: np.ndarray      # per building, then 0 dB: an outdoor mobile's -1
    sector_ids: tuple[str, ...]
    sector_rank: np.ndarray         # each sector id's place in sorted(sector_ids)
    tx_power_dbm: np.ndarray        # per sector
    ul_labels: tuple[str, ...]      # the shadowing stream of each UL column,
    dl_labels: tuple[str, ...]      # and of each independent DL column

    def columns_in(self, full: ChannelArrays) -> np.ndarray:
        """The column of each of these receive points in a table of `full`,
        by id, as a read-only int array kept for the next table of `full`."""
        memo = self.__dict__.setdefault("_columns_in", {})
        cols = memo.get(full)
        if cols is None:
            index = {rp.id: j for j, rp in enumerate(full.receive_points)}
            cols = memo[full] = _read_only(np.array([index[rp.id] for rp in self.receive_points],
                                                    dtype=np.intp))
        return cols


@dataclass(frozen=True)
class BranchTable:
    """Each sector's uplink receive branches, as receive-point columns.

    Row k of cols lists sector k's branch set (its own antenna, then each
    green attached to it) and is padded with column 0 past widths[k].
    The power-control solver gathers every mobile's branches from it.
    """

    cols: np.ndarray                # (n_sectors, widest set) intp
    widths: np.ndarray              # (n_sectors,) intp

    @classmethod
    def of(cls, branch_cols: list[list[int]]) -> BranchTable:
        """The table of one column list per sector."""
        widths = [len(c) for c in branch_cols]
        pad = max(widths)
        return cls(cols=_read_only(np.array([c + [0] * (pad - len(c)) for c in branch_cols],
                                            dtype=np.intp)),
                   widths=_read_only(np.array(widths, dtype=np.intp)))


@dataclass(frozen=True)
class Scenario:
    """One world.

    Its receive points, channel arrays, branch table and class targets,
    and its clutter map's building arrays, are built at the first table,
    solve or drop of it and shared by every later one, so a scenario, its
    radio and traffic dicts included, must not be mutated after that. A
    pickle carries the fields alone.
    """

    sites: tuple[Site, ...]
    greens: tuple[GreenAntenna, ...] = ()
    clutter: ClutterMap = ClutterMap(bounds=(-2000.0, -2000.0, 2000.0, 2000.0))
    radio: RadioParams = field(default_factory=RadioParams)
    traffic: TrafficParams = field(default_factory=TrafficParams)

    __getstate__ = _fields_only

    def sectors(self) -> list[tuple[Site, Sector]]:
        """All (site, sector) pairs in declaration order."""
        return [(site, sec) for site in self.sites for sec in site.sectors]

    def sector_ids(self) -> list[str]:
        return [sec.id for _, sec in self.sectors()]

    def n_sectors(self) -> int:
        return sum(len(site.sectors) for site in self.sites)

    @functools.cached_property
    def receive_points(self) -> tuple[ReceivePoint, ...]:
        """All receive points: sector antennas first, then greens, in declaration order."""
        return (*(ReceivePoint(kind="sector", id=sec.id, position=site.position,
                               antenna=sec.antenna, azimuth_deg=sec.azimuth_deg,
                               noise_figure_db=sec.noise_figure_db)
                  for site, sec in self.sectors()),
                *(ReceivePoint(kind="green", id=g.id, position=g.position, antenna=g.antenna,
                               azimuth_deg=0.0, noise_figure_db=g.noise_figure_db)
                  for g in self.greens))

    @functools.cached_property
    def channel(self) -> ChannelArrays:
        """The channel tables' shared arrays, built at the first table."""
        return _channel_arrays(self)

    @functools.cached_property
    def branches(self) -> BranchTable:
        """Each sector's receive branches; a green attached to several
        sectors is a branch of each. Built at the first solve."""
        n_sec = self.n_sectors()
        cols = [[k] for k in range(n_sec)]
        at = {sid: k for k, sid in enumerate(self.sector_ids())}
        for j, g in enumerate(self.greens, start=n_sec):
            for sid in g.attached_sectors:
                cols[at[sid]].append(j)
        return BranchTable.of(cols)

    @functools.cached_property
    def class_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """The SINR targets of the data and the voice class (in that order,
        so a voice flag indexes them), in dB and linear; each linear target
        is the scalar pow 10 ** (t / 10) that powerctl takes of any target."""
        db = [self.traffic.sinr_target_db[svc] for svc in ("data", "voice")]
        return (_read_only(np.array(db, dtype=float)),
                _read_only(np.array([10.0 ** (t / 10.0) for t in db], dtype=float)))


def _channel_arrays(s: Scenario) -> ChannelArrays:
    """The builder of `Scenario.channel`."""
    rps = s.receive_points
    clutter, radio = s.clutter, s.radio
    sectors = [sec for _, sec in s.sectors()]
    by_pattern: dict[AntennaPattern, list[int]] = {}
    for j, rp in enumerate(rps):
        by_pattern.setdefault(rp.antenna, []).append(j)
    # positions are told apart by their bits, so 0.0 and -0.0 stay two
    positions: dict[bytes, int] = {}
    rp_pos = [positions.setdefault(np.array(rp.position, dtype=float).tobytes(), len(positions))
              for rp in rps]
    xy = np.frombuffer(b"".join(positions), dtype=float).reshape(-1, 2)
    per_class = [radio.pathloss[c] for c in clutter.classes]
    ids = [sec.id for sec in sectors]
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    noise_dbm = _read_only(np.array([radio.thermal_noise_dbm + rp.noise_figure_db for rp in rps],
                                    dtype=float))

    def array(values) -> np.ndarray:
        return _read_only(np.array(values, dtype=float))

    return ChannelArrays(
        receive_points=rps,
        pos_x=array(xy[:, 0]),
        pos_y=array(xy[:, 1]),
        rp_pos=_read_only(np.array(rp_pos, dtype=np.intp)),
        rp_azimuth_deg=array([rp.azimuth_deg for rp in rps]),
        noise_dbm=noise_dbm,
        noise_mw=_read_only(10.0 ** (noise_dbm / 10.0)),
        pattern_cols=tuple((pattern, _read_only(np.array(cols, dtype=np.intp)))
                           for pattern, cols in by_pattern.items()),
        pl0_db=array([pm.pl0_db for pm in per_class]),
        d0_m=array([pm.d0_m for pm in per_class]),
        exponent=array([pm.exponent for pm in per_class]),
        sigma_db=array([radio.shadowing_sigma_db[c] for c in clutter.classes]),
        penetration_db=array([*(b.penetration_loss_db for b in clutter.buildings), 0.0]),
        sector_ids=tuple(ids),
        sector_rank=_read_only(rank),
        tx_power_dbm=array([sec.tx_power_dbm for sec in sectors]),
        ul_labels=tuple(f"ul:{rp.id}" for rp in rps),
        dl_labels=tuple(f"dl:{sec.id}" for sec in sectors),
    )


def strip_greens(s: Scenario) -> Scenario:
    """The same world without any green antennas."""
    return replace(s, greens=())


# ---------------------------------------------------------------------------
# document loading
#
# The dataclasses above are the schema. `_record` reads a JSON object as one
# of them: each key is a field, read as its declared type, and an absent
# field takes its default. The few readers that a type cannot name are
# written out below it.

def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:       # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{path}: expected a finite number, got {number}")
    return number


def _intval(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string")
    return value


def _xy(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{path}: expected [x, y]")
    return (_num(value[0], f"{path}[0]"), _num(value[1], f"{path}[1]"))


def _rect(value: Any, path: str) -> tuple[float, float, float, float]:
    if not isinstance(value, list) or len(value) != 4:
        raise ValidationError(f"{path}: expected [x0, y0, x1, y1]")
    x0, y0, x1, y1 = (_num(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"{path}: rectangle must satisfy x0 < x1 and y0 < y1")
    return (x0, y0, x1, y1)


#: Readers of the scalar types; null is a wrong value for each of them.
_SCALARS: dict[Any, Callable[[Any, str], Any]] = {
    float: _num, int: _intval, str: _string,
    tuple[float, float]: _xy, tuple[float, float, float, float]: _rect,
}


def _items(value: Any, path: str, read: Callable, nonempty: bool = False) -> tuple:
    """A JSON list, item i read as read(item, path[i], i); null reads as ()
    where the list may be empty."""
    if value is None and not nonempty:
        return ()
    if not isinstance(value, list) or (nonempty and not value):
        raise ValidationError(f"{path}: expected a {'non-empty ' * nonempty}list")
    return tuple(read(item, f"{path}[{i}]", i) for i, item in enumerate(value))


def _keyed(value: Any, path: str, defaults: dict, read: Callable) -> dict:
    """A JSON object merged over `defaults`, each value read as
    read(raw, path.key, default); a key not in `defaults` is an error."""
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object")
    merged = dict(defaults)
    for key, raw in value.items():
        if key not in merged:
            raise ValidationError(f"{path}: unknown key '{key}'")
        merged[key] = read(raw, f"{path}.{key}", merged[key])
    return merged


def _value(hint: Any, value: Any, path: str, default: Any) -> Any:
    """`value` read as the declared type `hint`, over the field's `default`."""
    if hint in _SCALARS:
        return _SCALARS[hint](value, path)
    if is_dataclass(hint):
        return _record(hint, value, path, default)
    args = get_args(hint)           # dict[str, V] or tuple[V, ...]
    if get_origin(hint) is dict:
        return _keyed(value, path, default, lambda raw, at, base: _value(args[1], raw, at, base))
    return _items(value, path, lambda raw, at, i: _value(args[0], raw, at, None))


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _record(cls: type, data: Any, path: str, base: Any = None, **read: Callable) -> Any:
    """The dataclass `cls` read from the JSON object `data` at `path`.

    Each key is the field of that name, read as its declared type or by
    read[name](value, path, got), which also sees an absent key, as None;
    `got` holds the fields read before it. An absent field takes its value
    in `base`, else its default, and so does a null list or object. A key
    that names no field is an error, and so is an absent required field.
    """
    where = path or "scenario"
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    hints = _hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValidationError(f"{where}: unknown key '{unknown[0]}'")
    got: dict[str, Any] = {}
    for f in fields(cls):
        name, value = f.name, data.get(f.name)
        at = f"{path}.{name}".lstrip(".")
        if base is not None:
            default = getattr(base, name)
        else:
            default = f.default if f.default_factory is MISSING else f.default_factory()
        if name in read:
            got[name] = read[name](value, at, got)
        elif value is not None or (name in data and hints[name] in _SCALARS):
            got[name] = _value(hints[name], value, at, default)
        elif default is MISSING:
            raise ValidationError(f"{at}: missing required key")
        else:
            got[name] = default
    return cls(**got)


def _generated_id(generated: str) -> Callable:
    """Reader of an id that null or absence sets to `generated`."""
    return lambda value, path, got: generated if value is None else _string(value, path)


def _site_id(value: Any, path: str, got: dict) -> str:
    if not value:
        raise ValidationError(f"{path}: missing required key")
    return _string(value, path)


def _sectors(value: Any, path: str, got: dict) -> tuple[Sector, ...]:
    return _items(value, path, lambda raw, at, i: _record(
        Sector, raw, at, id=_generated_id(f"{got['id']}-{i}")), nonempty=True)


def _sites(value: Any, path: str, got: dict) -> tuple[Site, ...]:
    return _items(value, path, lambda raw, at, i: _record(
        Site, raw, at, id=_site_id, sectors=_sectors), nonempty=True)


@dataclass(frozen=True)
class _Region:
    """One entry of `clutter.class_regions`, as the document writes it."""

    rect: tuple[float, float, float, float]
    clutter_class: str


def _regions(value: Any, path: str, got: dict) -> tuple:
    return _items(value, path, lambda raw, at, i: astuple(_record(_Region, raw, at)))


def _buildings(value: Any, path: str, got: dict) -> tuple[Building, ...]:
    return _items(value, path, lambda raw, at, i: _record(
        Building, raw, at, id=_generated_id(f"building-{i}")))


def _clutter(value: Any, path: str, got: dict) -> ClutterMap:
    """The clutter map; its bounds default to the box around the sites and
    greens, 2 km wider on every side."""
    xs, ys = zip(*(node.position for node in (*got["sites"], *got["greens"])))
    pad = 2000.0
    auto = ClutterMap(bounds=(min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad))
    if value is None:
        return auto
    return _record(ClutterMap, value, path, auto, class_regions=_regions, buildings=_buildings)


def load_scenario(config_text: str) -> Scenario:
    """Parse and validate a scenario document (JSON text).

    Unknown keys are rejected; every error names the offending path.
    Raises ParseError for malformed documents and ValidationError for
    schema or invariant violations.
    """
    try:
        data = json.loads(config_text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    scenario = _record(Scenario, data, "", sites=_sites, clutter=_clutter)
    violations = validate_scenario(scenario)
    if violations:
        raise ValidationError("; ".join(violations))
    return scenario


def load_scenario_file(path: str) -> Scenario:
    """Load a scenario from a file path; every error names the path.

    A file that is not UTF-8 text is a ParseError. Errors of the document
    keep their class, with the path in front of their message.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"scenario file not found or unreadable: {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: scenario file is not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc
    try:
        return load_scenario(text)
    except ScenarioError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# validation

def validate_scenario(s: Scenario) -> list[str]:
    """Every invariant violation of the scenario and its children.

    Returns messages in a deterministic walk order; an empty list means
    the scenario is valid. Violations are data, not exceptions.
    """
    out: list[str] = []
    clutter = s.clutter

    x0, y0, x1, y1 = clutter.bounds
    if not (x0 < x1 and y0 < y1):
        out.append("clutter.bounds: empty or inverted rectangle")
    if not clutter.cell_size > 0:
        out.append("clutter.cell_size: must be > 0")
    if clutter.default_class not in CLUTTER_CLASSES:
        out.append(f"clutter.default_class: unknown clutter class '{clutter.default_class}'")
    for i, (rect, cls) in enumerate(clutter.class_regions):
        if cls not in CLUTTER_CLASSES:
            out.append(f"clutter.class_regions[{i}]: unknown clutter class '{cls}'")

    seen_sectors: set[str] = set()
    seen_sites: set[str] = set()
    for i, site in enumerate(s.sites):
        if site.id in seen_sites:
            out.append(f"sites[{i}]: duplicate site id '{site.id}'")
        seen_sites.add(site.id)
        if not clutter.in_bounds(*site.position):
            out.append(f"sites[{i}] ('{site.id}'): position outside clutter map bounds")
        for j, sec in enumerate(site.sectors):
            path = f"sites[{i}].sectors[{j}] ('{sec.id}')"
            if sec.id in seen_sectors:
                out.append(f"{path}: duplicate sector id")
            seen_sectors.add(sec.id)
            if not (0.0 <= sec.azimuth_deg < 360.0):
                out.append(f"{path}: azimuth_deg must lie in [0, 360)")
            if not math.isfinite(sec.tx_power_dbm):
                out.append(f"{path}: tx_power_dbm must be finite")
            out.extend(_receiver_violations(sec.antenna, sec.noise_figure_db, path))

    seen_greens: set[str] = set()
    for i, g in enumerate(s.greens):
        path = f"greens[{i}] ('{g.id}')"
        if g.id in seen_greens:
            out.append(f"{path}: duplicate green antenna id")
        seen_greens.add(g.id)
        if not g.attached_sectors:
            out.append(f"{path}: attached_sectors must be non-empty")
        for k, ref in enumerate(g.attached_sectors):
            if ref not in seen_sectors:
                out.append(f"{path}: attached sector '{ref}' does not exist")
            if ref in g.attached_sectors[:k]:
                out.append(f"{path}: attached sector '{ref}' listed twice")
        if not clutter.in_bounds(*g.position):
            out.append(f"{path}: position outside clutter map bounds")
        out.extend(_receiver_violations(g.antenna, g.noise_figure_db, path))

    seen_buildings: set[str] = set()
    for i, b in enumerate(clutter.buildings):
        path = f"clutter.buildings[{i}] ('{b.id}')"
        if b.id in seen_buildings:
            out.append(f"{path}: duplicate building id")
        seen_buildings.add(b.id)
        bx0, by0, bx1, by1 = b.rect
        if not (clutter.in_bounds(bx0, by0) and clutter.in_bounds(bx1, by1)):
            out.append(f"{path}: footprint outside clutter map bounds")
        if b.penetration_loss_db < 0:
            out.append(f"{path}: penetration_loss_db must be >= 0")
        elif not _db_in_range(b.penetration_loss_db):
            out.append(f"{path}: penetration_loss_db {b.penetration_loss_db} dB "
                       "is outside the float range")

    radio = s.radio
    if not radio.p_min_dbm < radio.p_max_dbm:
        out.append("radio: p_min_dbm must be below p_max_dbm")
    for name in ("p_min_dbm", "p_max_dbm"):
        if not _linear_in_range(getattr(radio, name)):
            out.append(f"radio.{name}: {getattr(radio, name)} dBm is outside the float range")
    if not _db_in_range(radio.thermal_noise_dbm):
        out.append(f"radio.thermal_noise_dbm: {radio.thermal_noise_dbm} dBm "
                   "is outside the float range")
    # a link is as long as the near-field clamp at least, the map's diagonal at most
    link_range_m = (D_MIN_M, max(math.hypot(x1 - x0, y1 - y0), D_MIN_M))
    for cls in CLUTTER_CLASSES:
        model = radio.pathloss.get(cls)
        if model is None:
            out.append(f"radio.pathloss.{cls}: missing model")
            continue
        if not model.exponent > 0:
            out.append(f"radio.pathloss.{cls}: exponent must be > 0")
        if not model.d0_m > 0:
            out.append(f"radio.pathloss.{cls}: d0_m must be > 0")
        if not _db_in_range(model.pl0_db):
            out.append(f"radio.pathloss.{cls}.pl0_db: {model.pl0_db} dB is outside the float range")
        elif model.exponent > 0 and 0 < model.d0_m < math.inf:
            for d in link_range_m:
                pl = model.pl0_db + 10.0 * model.exponent * math.log10(d / model.d0_m)
                if not _db_in_range(pl):
                    out.append(f"radio.pathloss.{cls}: path loss {pl} dB at {d:g} m "
                               "is outside the float range")
        sigma = radio.shadowing_sigma_db.get(cls)
        if sigma is None or sigma < 0:
            out.append(f"radio.shadowing_sigma_db.{cls}: must be >= 0")
        elif not _db_in_range(sigma * NORMAL_DRAW_MAX):
            out.append(f"radio.shadowing_sigma_db.{cls}: {sigma} x {NORMAL_DRAW_MAX:.4f} dB "
                       "is outside the float range")
    if radio.dl_shadowing_mode not in DL_SHADOWING_MODES:
        out.append(f"radio.dl_shadowing_mode: unknown mode '{radio.dl_shadowing_mode}'")
    if radio.combining not in COMBINING_MODES:
        out.append(f"radio.combining: unknown mode '{radio.combining}'")

    traffic = s.traffic
    if traffic.mobiles_per_sector < 0:
        out.append("traffic.mobiles_per_sector: must be >= 0")
    if not 0.0 <= traffic.indoor_fraction <= 1.0:
        out.append("traffic.indoor_fraction: must lie in [0, 1]")
    if not 0.0 <= traffic.voice_fraction <= 1.0:
        out.append("traffic.voice_fraction: must lie in [0, 1]")
    for svc in SERVICES:
        if svc not in traffic.sinr_target_db:
            out.append(f"traffic.sinr_target_db.{svc}: missing target")
        elif not _linear_in_range(traffic.sinr_target_db[svc]):
            out.append(f"traffic.sinr_target_db.{svc}: {traffic.sinr_target_db[svc]} dB "
                       "is outside the float range")
    if not out:     # every term is in range alone; their sums may not be
        out.extend(_link_violations(s, link_range_m))

    return out


def _link_violations(s: Scenario, link_range_m: tuple[float, float]) -> list[str]:
    """The weakest and the strongest UL link a drop can reach, per clutter
    class, as received power: p_min_dbm times the weakest gain and
    p_max_dbm times the strongest must be positive finite floats, as the
    solver computes them. The weakest link has the path loss at the map's
    diagonal, the largest penetration loss of an indoor mobile, the most
    negative shadowing draw and the lowest antenna gain; the strongest has
    the path loss at the near-field clamp, the most positive draw and the
    highest antenna gain."""
    radio = s.radio
    antennas = [(f"sites[{i}].sectors[{j}] ('{sec.id}').antenna", sec.antenna)
                for i, site in enumerate(s.sites) for j, sec in enumerate(site.sectors)]
    antennas += [(f"greens[{i}] ('{g.id}').antenna", g.antenna) for i, g in enumerate(s.greens)]
    if not antennas:
        return []
    highest = max((p.gain_dbi, path) for path, p in antennas)
    lowest = min((_lowest_gain(p), path) for path, p in antennas)
    penetration = []    # as a gain in dB, with its path
    if s.traffic.indoor_fraction > 0 and s.clutter.buildings:
        pen, i = max((b.penetration_loss_db, i) for i, b in enumerate(s.clutter.buildings))
        penetration = [(-pen, f"clutter.buildings[{i}] ('{s.clutter.buildings[i].id}')"
                              ".penetration_loss_db")]
    out = []
    for cls in CLUTTER_CLASSES:
        model, sigma = radio.pathloss[cls], radio.shadowing_sigma_db[cls]
        near, far = (model.pl0_db + 10.0 * model.exponent * math.log10(d / model.d0_m)
                     for d in link_range_m)
        loss = f"radio.pathloss.{cls}"
        shadowing = [(sigma * NORMAL_DRAW_MAX, f"radio.shadowing_sigma_db.{cls}")] if sigma else []
        weakest = [(-far, loss), *penetration, *((-db, path) for db, path in shadowing), lowest]
        strongest = [(-near, loss), *shadowing, highest]
        for name, p_name, terms in (("weakest", "p_min_dbm", weakest),
                                    ("strongest", "p_max_dbm", strongest)):
            gain_db = sum(db for db, _ in terms)
            p_dbm = getattr(radio, p_name)
            if not _received_in_range(p_dbm, gain_db):
                out.append(f"{', '.join(path for _, path in terms)}: the {name} {cls} link, "
                           f"{gain_db:g} dB, at radio.{p_name} {p_dbm:g} dBm "
                           "is outside the float range")
    return out


def _lowest_gain(p: AntennaPattern) -> float:
    """A pattern's gain at its weakest bearing: a sector's attenuation grows
    up to 180 degrees off boresight, capped at front_to_back_db."""
    if p.kind != "sector":
        return p.gain_dbi
    return p.gain_dbi - min(12.0 * (180.0 / p.theta_3db_deg) ** 2, p.front_to_back_db)


def _received_in_range(p_dbm: float, gain_db: float) -> bool:
    """Whether p * g, with each taken to 10 ** (x / 10) as the solver takes
    it, is a positive finite float."""
    try:
        return 0.0 < 10.0 ** (p_dbm / 10.0) * 10.0 ** (gain_db / 10.0) < math.inf
    except OverflowError:
        return False


def _linear_in_range(db: float) -> bool:
    """Whether 10 ** (db / 10), as the solver computes it, is a positive
    finite float."""
    try:
        return 0.0 < 10.0 ** (db / 10.0) < math.inf
    except OverflowError:
        return False


def _db_in_range(db: float) -> bool:
    """Whether a gain, loss or noise level in dB maps to a positive finite
    float at both signs: the channel table adds it to or subtracts it from
    a link, and powerctl takes the sum to 10 ** (x / 10)."""
    return _linear_in_range(db) and _linear_in_range(-db)


def _receiver_violations(p: AntennaPattern, noise_figure_db: float, path: str) -> list[str]:
    """A receive point's antenna pattern and its dB inputs."""
    out = []
    if p.kind not in ("omni", "sector"):
        out.append(f"{path}: unknown antenna kind '{p.kind}'")
    if p.kind == "sector" and not p.theta_3db_deg > 0:
        out.append(f"{path}: theta_3db_deg must be > 0")
    if p.front_to_back_db < 0:
        out.append(f"{path}: front_to_back_db must be >= 0")
    for name, db in (("antenna.gain_dbi", p.gain_dbi), ("noise_figure_db", noise_figure_db)):
        if not _db_in_range(db):
            out.append(f"{path}: {name} {db} dB is outside the float range")
    return out


# ---------------------------------------------------------------------------
# mobile drops

def drop_mobiles(s: Scenario, seed) -> Drop:
    """One seeded drop: mobiles_per_sector * sector-count mobiles; or a
    block of drops, one per seed of a sequence.

    Indoor mobiles are placed uniformly over the union of building
    footprints (area-weighted); outdoor mobiles uniformly over the
    non-building map area. A drop is a pure function of
    (scenario-without-greens, seed) with stable row order. A block of k
    seeds gives one Drop whose arrays lead with a block axis, as a
    campaign's record stacks its drops: row i is the drop of seed i, bit
    for bit, and a block of one is that drop with a leading axis of 1.

    The stream contract: each mobile consumes uniforms of the "drops"
    substream in a fixed order: an indoor flag; then a building pick and
    an x and a y inside it, or (x, y) candidate pairs over the map until
    one lies outside every building (at most _MAX_PLACE_TRIES); then a
    service flag. A coordinate is low + (high - low) * u, as
    `Generator.uniform` computes it, so the drop is the one that a scalar
    draw per value gives, bit for bit. Each drop of a block reads its own
    substream into one row of a table of uniforms, and every array pass
    reads the table flat. The walk reads it as next offsets: a mobile
    starting at offset j ends at j + 5 if indoor, else three past the
    first free candidate at or after j + 1 of that parity. n hops from a
    row's first offset give its mobile starts; positions and services are
    gathers there. Only the walk is a loop, over each row's hops. A hop
    that leaves its row's uniforms grows every row and walks on; the extra
    uniforms of a finished row are never read.
    """
    traffic = s.traffic
    clutter = s.clutter
    n = traffic.mobiles_per_sector * s.n_sectors()
    buildings = clutter.buildings
    if traffic.indoor_fraction > 0 and not buildings:
        raise InfeasibleDropError("indoor_fraction > 0 but the scenario has no buildings")

    one = isinstance(seed, (int, np.integer))
    rngs = [substream(sd, "drops") for sd in ([seed] if one else seed)]
    k = len(rngs)
    cum, total_area = clutter.building_areas
    x0, y0, x1, y1 = clutter.bounds
    rects = clutter.building_rects
    size = 0                        # uniforms per row
    starts: list[list[int]] = [[] for _ in rngs]    # each mobile's indoor flag, flat
    walked = [0] * k                                # each row's next start in it
    while True:
        # a row holds its uniforms and two spare entries, so the width is
        # even and flat offsets (r * width + c) keep their parity in the row
        grow = max(size, 6 * n + 64)
        width = size + grow + 2
        grown = np.zeros((k, width))
        if size:        # each row keeps its uniforms, and its starts move with it
            grown[:, :size] = draws[:, :size]
            shift = width - draws.shape[1]
            starts = [[j + r * shift for j in got] for r, got in enumerate(starts)]
        for rng, row in zip(rngs, grown):
            row[size:size + grow] = rng.random(grow)
        draws, size = grown, size + grow
        u = draws.reshape(-1)
        # candidate c is (u[c], u[c + 1]) over the map, tested against
        # every building at once: one row per building
        cand_x = x0 + (x1 - x0) * u[:-1]
        cand_y = y0 + (y1 - y0) * u[1:]
        inside = ((rects[:, 0, None] <= cand_x) & (cand_x <= rects[:, 2, None])
                  & (rects[:, 1, None] <= cand_y) & (cand_y <= rects[:, 3, None])).any(axis=0)
        # stop[c]: the first free candidate at or after c of c's parity, or
        # the first offset of that parity whose candidate is past its row's
        # uniforms. Those offsets and the spares count as free, so no
        # minimum reaches into the next row, and a start at the row's end
        # hops past it (indoor at u = 0.0, or to a free spare): the row grows.
        free = np.ones(len(u) + 1, dtype=bool)
        np.logical_not(inside, out=free[:-2])
        free[:-1].reshape(k, width)[:, size - 1:] = True
        offsets = np.arange(len(u) + 1)
        stop = np.where(free, offsets, len(u))
        for parity in (0, 1):
            stop[parity::2] = np.minimum.accumulate(stop[parity::2][::-1])[::-1]
        indoor_at = u < traffic.indoor_fraction
        hop = np.where(indoor_at, offsets[:-1] + 5, stop[1:] + 3)
        # an outdoor start whose first _MAX_PLACE_TRIES candidates are all
        # taken cannot be placed, however far the block grows
        hop[~indoor_at & (stop[1:] - offsets[1:] >= 2 * _MAX_PLACE_TRIES)] = -1
        hops = hop.tolist()
        for r, got in enumerate(starts):
            first = r * width
            end = first + size + 1          # past the row's uniforms
            j = first + walked[r]
            while len(got) < n and 0 < hops[j] < end:
                got.append(j)
                j = hops[j]
            walked[r] = j - first
            if len(got) < n and hops[j] < 0:
                raise InfeasibleDropError("could not place an outdoor mobile; "
                                          "map covered by buildings")
        if all(len(got) == n for got in starts):
            break

    at = np.fromiter(itertools.chain.from_iterable(starts), dtype=np.intp, count=k * n)
    ends = hop[at]                              # each mobile's next start
    indoor = indoor_at[at]
    inner, outdoor = at[indoor], ~indoor
    picked = np.minimum(np.searchsorted(cum, u[inner + 1] * total_area), len(cum) - 1)
    corner = rects[picked, :2]
    xy = np.empty((k * n, 2))
    xy[indoor] = corner + (rects[picked, 2:] - corner) * u[inner[:, None] + (2, 3)]
    placed = ends[outdoor] - 3                  # an outdoor mobile's free candidate
    xy[outdoor, 0] = cand_x[placed]
    xy[outdoor, 1] = cand_y[placed]
    building = np.full(k * n, -1, dtype=np.intp)
    building[indoor] = picked
    voice = u[ends - 1] < traffic.voice_fraction
    targets = traffic.sinr_target_db
    shape = (n,) if one else (k, n)
    return Drop(xy=xy.reshape(*shape, 2), building=building.reshape(shape),
                voice=voice.reshape(shape),
                target_db=np.where(voice, targets["voice"], targets["data"]).reshape(shape))
