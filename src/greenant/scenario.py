"""Simulation worlds: sites/sectors, receive-only green antennas, clutter
and buildings, radio parameters, and seeded mobile drops.

A scenario is loaded from a single JSON document (schema in the README)
and is immutable afterwards. Green antennas never transmit: they carry no
pilot and take no part in any downlink computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .seeds import substream

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


@dataclass(frozen=True)
class Sector:
    id: str
    azimuth_deg: float              # boresight, degrees CCW from +x
    antenna: AntennaPattern
    tx_power_dbm: float = 43.0      # DL pilot, used for association only
    noise_figure_db: float = 0.0


@dataclass(frozen=True)
class Site:
    id: str
    position: tuple[float, float]   # meters, planar
    sectors: tuple[Sector, ...]


@dataclass(frozen=True)
class GreenAntenna:
    """Receive-only antenna wired to one or more sectors.

    It contributes uplink receive branches to every attached sector and
    never appears in any downlink table.
    """

    id: str
    position: tuple[float, float]
    antenna: AntennaPattern
    attached_sectors: tuple[str, ...]
    noise_figure_db: float = 0.0


@dataclass(frozen=True)
class Building:
    id: str
    rect: tuple[float, float, float, float]   # x0, y0, x1, y1
    penetration_loss_db: float = 20.0

    def contains(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.rect
        return x0 <= x <= x1 and y0 <= y <= y1

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

    def clutter_class_at(self, x: float, y: float) -> str:
        return self.classes[int(self.class_codes(np.array([x], float), np.array([y], float))[0])]

    def building_at(self, x: float, y: float) -> Building | None:
        for b in self.buildings:
            if b.contains(x, y):
                return b
        return None

    def in_bounds(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= x <= x1 and y0 <= y <= y1


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
    and i is its id."""

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
        return len(self.building)

    @property
    def indoor(self) -> np.ndarray:
        return self.building >= 0


@dataclass(frozen=True)
class Scenario:
    sites: tuple[Site, ...]
    greens: tuple[GreenAntenna, ...] = ()
    clutter: ClutterMap = ClutterMap(bounds=(-2000.0, -2000.0, 2000.0, 2000.0))
    radio: RadioParams = RadioParams()
    traffic: TrafficParams = TrafficParams()

    def sectors(self) -> list[tuple[Site, Sector]]:
        """All (site, sector) pairs in declaration order."""
        return [(site, sec) for site in self.sites for sec in site.sectors]

    def sector_ids(self) -> list[str]:
        return [sec.id for _, sec in self.sectors()]

    def n_sectors(self) -> int:
        return sum(len(site.sectors) for site in self.sites)


def strip_greens(s: Scenario) -> Scenario:
    """The same world without any green antennas."""
    return replace(s, greens=())


# ---------------------------------------------------------------------------
# document loading

class _Cfg:
    """Cursor over one mapping of the config document; tracks consumed keys."""

    def __init__(self, data: Any, path: str):
        if not isinstance(data, dict):
            raise ValidationError(f"{path}: expected an object")
        self._data = data
        self._path = path
        self._seen: set[str] = set()

    def take(self, key: str, default: Any = None) -> Any:
        self._seen.add(key)
        return self._data.get(key, default)

    def has(self, key: str) -> bool:
        return key in self._data

    def close(self) -> None:
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            raise ValidationError(f"{self._path}: unknown key '{unknown[0]}'")

    @property
    def path(self) -> str:
        return self._path


def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise ValidationError(f"{path}: expected a finite number, got {value}")
    return float(value)


def _intval(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    return value


def _string(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string")
    if choices is not None and value not in choices:
        raise ValidationError(f"{path}: '{value}' not one of {list(choices)}")
    return value


def _xy(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{path}: expected [x, y]")
    return (_num(value[0], f"{path}[0]"), _num(value[1], f"{path}[1]"))


def _rect(value: Any, path: str) -> tuple[float, float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ValidationError(f"{path}: expected [x0, y0, x1, y1]")
    x0, y0, x1, y1 = (_num(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"{path}: rectangle must satisfy x0 < x1 and y0 < y1")
    return (x0, y0, x1, y1)


def _parse_antenna(data: Any, path: str, default: AntennaPattern) -> AntennaPattern:
    if data is None:
        return default
    cfg = _Cfg(data, path)
    pattern = AntennaPattern(
        kind=_string(cfg.take("kind", default.kind), f"{path}.kind", ("omni", "sector")),
        gain_dbi=_num(cfg.take("gain_dbi", default.gain_dbi), f"{path}.gain_dbi"),
        theta_3db_deg=_num(cfg.take("theta_3db_deg", default.theta_3db_deg), f"{path}.theta_3db_deg"),
        front_to_back_db=_num(cfg.take("front_to_back_db", default.front_to_back_db), f"{path}.front_to_back_db"),
    )
    cfg.close()
    return pattern


DEFAULT_SECTOR_ANTENNA = AntennaPattern(kind="sector", gain_dbi=15.0, theta_3db_deg=65.0, front_to_back_db=25.0)
DEFAULT_GREEN_ANTENNA = AntennaPattern(kind="omni", gain_dbi=0.0)


def _parse_site(data: Any, path: str) -> Site:
    cfg = _Cfg(data, path)
    site_id = _string(cfg.take("id", None) or "", f"{path}.id")
    if not site_id:
        raise ValidationError(f"{path}.id: missing required key")
    position = _xy(cfg.take("position", None), f"{path}.position")
    raw_sectors = cfg.take("sectors", None)
    if not isinstance(raw_sectors, list) or not raw_sectors:
        raise ValidationError(f"{path}.sectors: expected a non-empty list")
    sectors = []
    for i, raw in enumerate(raw_sectors):
        spath = f"{path}.sectors[{i}]"
        scfg = _Cfg(raw, spath)
        sec_id = scfg.take("id", None)
        if sec_id is None:
            sec_id = f"{site_id}-{i}"
        sectors.append(Sector(
            id=_string(sec_id, f"{spath}.id"),
            azimuth_deg=_num(scfg.take("azimuth_deg", 0.0), f"{spath}.azimuth_deg"),
            antenna=_parse_antenna(scfg.take("antenna", None), f"{spath}.antenna", DEFAULT_SECTOR_ANTENNA),
            tx_power_dbm=_num(scfg.take("tx_power_dbm", 43.0), f"{spath}.tx_power_dbm"),
            noise_figure_db=_num(scfg.take("noise_figure_db", 0.0), f"{spath}.noise_figure_db"),
        ))
        scfg.close()
    cfg.close()
    return Site(id=site_id, position=position, sectors=tuple(sectors))


def _parse_green(data: Any, path: str) -> GreenAntenna:
    cfg = _Cfg(data, path)
    green_id = cfg.take("id", None)
    if green_id is None:
        raise ValidationError(f"{path}.id: missing required key")
    attached = cfg.take("attached_sectors", None)
    if not isinstance(attached, list):
        raise ValidationError(f"{path}.attached_sectors: expected a list of sector ids")
    green = GreenAntenna(
        id=_string(green_id, f"{path}.id"),
        position=_xy(cfg.take("position", None), f"{path}.position"),
        antenna=_parse_antenna(cfg.take("antenna", None), f"{path}.antenna", DEFAULT_GREEN_ANTENNA),
        attached_sectors=tuple(_string(a, f"{path}.attached_sectors[{i}]") for i, a in enumerate(attached)),
        noise_figure_db=_num(cfg.take("noise_figure_db", 0.0), f"{path}.noise_figure_db"),
    )
    cfg.close()
    return green


def _parse_clutter(data: Any, path: str, auto_bounds: tuple[float, float, float, float]) -> ClutterMap:
    if data is None:
        return ClutterMap(bounds=auto_bounds)
    cfg = _Cfg(data, path)
    bounds = _rect(cfg.take("bounds"), f"{path}.bounds") if cfg.has("bounds") else auto_bounds
    regions = []
    for i, raw in enumerate(cfg.take("class_regions", []) or []):
        rpath = f"{path}.class_regions[{i}]"
        rcfg = _Cfg(raw, rpath)
        regions.append((
            _rect(rcfg.take("rect", None), f"{rpath}.rect"),
            _string(rcfg.take("clutter_class", None), f"{rpath}.clutter_class", CLUTTER_CLASSES),
        ))
        rcfg.close()
    buildings = []
    for i, raw in enumerate(cfg.take("buildings", []) or []):
        bpath = f"{path}.buildings[{i}]"
        bcfg = _Cfg(raw, bpath)
        b_id = bcfg.take("id", None)
        buildings.append(Building(
            id=_string(b_id, f"{bpath}.id") if b_id is not None else f"building-{i}",
            rect=_rect(bcfg.take("rect", None), f"{bpath}.rect"),
            penetration_loss_db=_num(bcfg.take("penetration_loss_db", 20.0), f"{bpath}.penetration_loss_db"),
        ))
        bcfg.close()
    clutter = ClutterMap(
        bounds=bounds,
        cell_size=_num(cfg.take("cell_size", 50.0), f"{path}.cell_size"),
        default_class=_string(cfg.take("default_class", "urban"), f"{path}.default_class", CLUTTER_CLASSES),
        class_regions=tuple(regions),
        buildings=tuple(buildings),
    )
    cfg.close()
    return clutter


def _parse_pathloss(data: Any, path: str) -> dict[str, PathLossModel]:
    models = default_pathloss()
    if data is None:
        return models
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object keyed by clutter class")
    for cls, raw in data.items():
        if cls not in CLUTTER_CLASSES:
            raise ValidationError(f"{path}.{cls}: unknown clutter class")
        mpath = f"{path}.{cls}"
        mcfg = _Cfg(raw, mpath)
        base = models[cls]
        models[cls] = PathLossModel(
            pl0_db=_num(mcfg.take("pl0_db", base.pl0_db), f"{mpath}.pl0_db"),
            d0_m=_num(mcfg.take("d0_m", base.d0_m), f"{mpath}.d0_m"),
            exponent=_num(mcfg.take("exponent", base.exponent), f"{mpath}.exponent"),
        )
        mcfg.close()
    return models


def _parse_radio(data: Any, path: str) -> RadioParams:
    if data is None:
        return RadioParams()
    cfg = _Cfg(data, path)
    sigma = default_shadowing_sigma()
    raw_sigma = cfg.take("shadowing_sigma_db", None)
    if raw_sigma is not None:
        if not isinstance(raw_sigma, dict):
            raise ValidationError(f"{path}.shadowing_sigma_db: expected an object keyed by clutter class")
        for cls, val in raw_sigma.items():
            if cls not in CLUTTER_CLASSES:
                raise ValidationError(f"{path}.shadowing_sigma_db.{cls}: unknown clutter class")
            sigma[cls] = _num(val, f"{path}.shadowing_sigma_db.{cls}")
    radio = RadioParams(
        p_min_dbm=_num(cfg.take("p_min_dbm", -50.0), f"{path}.p_min_dbm"),
        p_max_dbm=_num(cfg.take("p_max_dbm", 24.0), f"{path}.p_max_dbm"),
        thermal_noise_dbm=_num(cfg.take("thermal_noise_dbm", -104.0), f"{path}.thermal_noise_dbm"),
        pathloss=_parse_pathloss(cfg.take("pathloss", None), f"{path}.pathloss"),
        shadowing_sigma_db=sigma,
        dl_shadowing_mode=_string(cfg.take("dl_shadowing_mode", "independent"),
                                  f"{path}.dl_shadowing_mode", DL_SHADOWING_MODES),
        combining=_string(cfg.take("combining", "mrc"), f"{path}.combining", COMBINING_MODES),
    )
    cfg.close()
    return radio


def _parse_traffic(data: Any, path: str) -> TrafficParams:
    if data is None:
        return TrafficParams()
    cfg = _Cfg(data, path)
    targets = default_sinr_targets()
    raw_targets = cfg.take("sinr_target_db", None)
    if raw_targets is not None:
        if not isinstance(raw_targets, dict):
            raise ValidationError(f"{path}.sinr_target_db: expected an object with voice/data keys")
        for svc, val in raw_targets.items():
            if svc not in SERVICES:
                raise ValidationError(f"{path}.sinr_target_db.{svc}: unknown service")
            targets[svc] = _num(val, f"{path}.sinr_target_db.{svc}")
    traffic = TrafficParams(
        mobiles_per_sector=_intval(cfg.take("mobiles_per_sector", 10), f"{path}.mobiles_per_sector"),
        indoor_fraction=_num(cfg.take("indoor_fraction", 0.3), f"{path}.indoor_fraction"),
        voice_fraction=_num(cfg.take("voice_fraction", 0.5), f"{path}.voice_fraction"),
        sinr_target_db=targets,
    )
    cfg.close()
    return traffic


def load_scenario(config_text: str) -> Scenario:
    """Parse and validate a scenario document (JSON text).

    Unknown keys are rejected; every error names the offending path.
    Raises ParseError for malformed documents and ValidationError for
    schema or invariant violations.
    """
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    cfg = _Cfg(data, "scenario")

    raw_sites = cfg.take("sites", None)
    if not isinstance(raw_sites, list) or not raw_sites:
        raise ValidationError("scenario.sites: expected a non-empty list")
    sites = tuple(_parse_site(raw, f"sites[{i}]") for i, raw in enumerate(raw_sites))

    raw_greens = cfg.take("greens", []) or []
    if not isinstance(raw_greens, list):
        raise ValidationError("scenario.greens: expected a list")
    greens = tuple(_parse_green(raw, f"greens[{i}]") for i, raw in enumerate(raw_greens))

    positions = [site.position for site in sites] + [g.position for g in greens]
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    pad = 2000.0
    auto_bounds = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)

    scenario = Scenario(
        sites=sites,
        greens=greens,
        clutter=_parse_clutter(cfg.take("clutter", None), "clutter", auto_bounds),
        radio=_parse_radio(cfg.take("radio", None), "radio"),
        traffic=_parse_traffic(cfg.take("traffic", None), "traffic"),
    )
    cfg.close()

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
            out.extend(_pattern_violations(sec.antenna, path))

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
        out.extend(_pattern_violations(g.antenna, path))

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

    radio = s.radio
    if not radio.p_min_dbm < radio.p_max_dbm:
        out.append("radio: p_min_dbm must be below p_max_dbm")
    for cls in CLUTTER_CLASSES:
        model = radio.pathloss.get(cls)
        if model is None:
            out.append(f"radio.pathloss.{cls}: missing model")
            continue
        if not model.exponent > 0:
            out.append(f"radio.pathloss.{cls}: exponent must be > 0")
        if not model.d0_m > 0:
            out.append(f"radio.pathloss.{cls}: d0_m must be > 0")
        sigma = radio.shadowing_sigma_db.get(cls)
        if sigma is None or sigma < 0:
            out.append(f"radio.shadowing_sigma_db.{cls}: must be >= 0")
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

    return out


def _pattern_violations(p: AntennaPattern, path: str) -> list[str]:
    out = []
    if p.kind not in ("omni", "sector"):
        out.append(f"{path}: unknown antenna kind '{p.kind}'")
    if p.kind == "sector" and not p.theta_3db_deg > 0:
        out.append(f"{path}: theta_3db_deg must be > 0")
    if p.front_to_back_db < 0:
        out.append(f"{path}: front_to_back_db must be >= 0")
    if not math.isfinite(p.gain_dbi):
        out.append(f"{path}: gain_dbi must be finite")
    return out


# ---------------------------------------------------------------------------
# mobile drops

def drop_mobiles(s: Scenario, seed: int) -> Drop:
    """One seeded drop: mobiles_per_sector * sector-count mobiles.

    Indoor mobiles are placed uniformly over the union of building
    footprints (area-weighted); outdoor mobiles uniformly over the
    non-building map area. The result is a pure function of
    (scenario-without-greens, seed) with stable row order.

    The stream contract: each mobile consumes uniforms of the "drops"
    substream in a fixed order: an indoor flag; then a building pick and
    an x and a y inside it, or (x, y) candidate pairs over the map until
    one lies outside every building (at most _MAX_PLACE_TRIES); then a
    service flag. A coordinate is low + (high - low) * u, as
    `Generator.uniform` computes it, so the drop is the one that a scalar
    draw per value gives, bit for bit. The walk reads a block of uniforms
    as a table of next offsets: a mobile starting at offset j ends at
    j + 5 if indoor, else three past the first free candidate at or after
    j + 1 of that parity. n hops from offset 0 give every mobile's start;
    positions and services are gathers there. A hop that leaves the block
    grows it and walks on.
    """
    traffic = s.traffic
    clutter = s.clutter
    n = traffic.mobiles_per_sector * s.n_sectors()
    buildings = clutter.buildings
    if traffic.indoor_fraction > 0 and not buildings:
        raise InfeasibleDropError("indoor_fraction > 0 but the scenario has no buildings")

    rng = substream(seed, "drops")
    areas = [b.area for b in buildings]
    cum = np.cumsum(areas)
    x0, y0, x1, y1 = clutter.bounds
    rects = np.array([b.rect for b in buildings], dtype=float).reshape(-1, 4)
    draws = np.empty(0)
    starts: list[int] = []          # offset of each mobile's indoor flag
    j = 0
    while True:
        draws = np.concatenate([draws, rng.random(max(len(draws), 6 * n + 64))])
        size = len(draws)
        cand = np.stack([x0 + (x1 - x0) * draws[:-1], y0 + (y1 - y0) * draws[1:]], axis=1)
        x, y = cand[:, :1], cand[:, 1:]     # candidate c is (u[c], u[c + 1]) over the map
        inside = ((rects[:, 0] <= x) & (x <= rects[:, 2])
                  & (rects[:, 1] <= y) & (y <= rects[:, 3])).any(axis=1)
        # stop[c]: the first free candidate at or after c of c's parity, or
        # the first offset of that parity whose candidate is past the block
        stop = np.where(np.append(~inside, (True, True)), np.arange(size + 1), size + 1)
        for parity in (0, 1):
            stop[parity::2] = np.minimum.accumulate(stop[parity::2][::-1])[::-1]
        indoor_at = draws < traffic.indoor_fraction
        hop = np.where(indoor_at, np.arange(5, size + 5), stop[1:] + 3)
        # an outdoor start whose first _MAX_PLACE_TRIES candidates are all
        # taken cannot be placed, however far the block grows
        hop[~indoor_at & (stop[1:] - np.arange(1, size + 1) >= 2 * _MAX_PLACE_TRIES)] = -1
        hops = [*hop.tolist(), size + 1]     # a start at the block's end grows it
        while len(starts) < n and 0 < hops[j] <= size:
            starts.append(j)
            j = hops[j]
        if len(starts) == n:
            break
        if hops[j] < 0:
            raise InfeasibleDropError("could not place an outdoor mobile; map covered by buildings")

    at = np.array(starts, dtype=np.intp)
    indoor = indoor_at[at]
    inner, outer = at[indoor], at[~indoor]
    picked = np.minimum(np.searchsorted(cum, draws[inner + 1] * sum(areas)), len(cum) - 1)
    corner = rects[picked, :2]
    xy = np.empty((n, 2))
    xy[indoor] = corner + (rects[picked, 2:] - corner) * draws[inner[:, None] + (2, 3)]
    xy[~indoor] = cand[stop[outer + 1]]
    building = np.full(n, -1, dtype=np.intp)
    building[indoor] = picked
    voice = draws[hop[at] - 1] < traffic.voice_fraction
    targets = traffic.sinr_target_db
    return Drop(xy=xy, building=building, voice=voice,
                target_db=np.where(voice, targets["voice"], targets["data"]))
