"""Scenario configuration: one frozen dataclass, a named preset, and an INI
loader.

A scenario bundles everything a run needs: the ground-cell point process,
the demand menu, the air-to-ground channel and radio front-end, hub capacity
limits, and the master seed. ScenarioConfig is the one record of these
values, and validates them all when built (the channel constants through
ChannelParams). The dataclass defaults reproduce the packaged urban study;
INI files start from a preset via the `defaults` key and then override
individual fields.
"""

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .channel import BRACKET_DOUBLINGS, ChannelParams


class ConfigError(ValueError):
    """Bad scenario file or field value."""


# the largest Poisson mean numpy's Generator.poisson accepts; a scenario's
# expected parent count, intensity * area_side_m**2, must not pass it
MAX_PARENT_COUNT = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)

SOLVER_CHOICES = ("greedy", "exact", "both")
CONSTRAINT_CHOICES = ("all", "qos-only")


@dataclass(frozen=True)
class ScenarioConfig:
    # master seed; streams for cells, demands and hub placement derive from
    # it. The default pins the packaged case study: a 28-cell draw on which
    # hub placement succeeds and both solvers land on the same sum rate.
    seed: int = 3655

    # ground cell layout: hard-core point field on a square
    area_side_m: float = 4000.0
    cell_intensity_per_m2: float = 2e-6
    cell_min_sep_m: float = 300.0

    # demanded rate menu, sampled uniformly per cell
    rate_menu_bps: tuple[float, ...] = (30e6, 60e6, 90e6, 120e6, 150e6)

    # air-to-ground channel (urban environment constants)
    alpha: float = 9.61
    beta: float = 0.16
    eta_los_db: float = 1.0
    eta_nlos_db: float = 20.0
    carrier_hz: float = 2e9
    pl_exponent: float = 2.0

    # radio front end
    tx_power_w: float = 5.0
    noise_w: float = 1e-13
    sinr_min_db: float = -5.0
    pl_max_db: float = 110.0

    # hub fleet limits
    backhaul_cap_bps: float = 2e9
    hub_bandwidth_hz: float = 250e6
    hub_link_cap: int = 7
    hub_altitude_m: float = 300.0
    avg_spec_eff: float = 5.0

    # default solver selection, overridable on the command line
    solver: str = "both"
    constraints: str = "all"

    def __post_init__(self):
        if self.solver not in SOLVER_CHOICES:
            raise ConfigError(f"solver must be one of {SOLVER_CHOICES}")
        if self.constraints not in CONSTRAINT_CHOICES:
            raise ConfigError(f"constraints must be one of {CONSTRAINT_CHOICES}")
        for field in dataclasses.fields(self):
            if field.type is float and not math.isfinite(getattr(self, field.name)):
                raise ConfigError(f"{field.name} must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.area_side_m <= 0:
            raise ConfigError("area_side_m must be positive")
        if self.cell_intensity_per_m2 < 0:
            raise ConfigError("cell_intensity_per_m2 must be nonnegative")
        # side * side is inf, never OverflowError, where the square overflows
        parents = self.cell_intensity_per_m2 * (self.area_side_m * self.area_side_m)
        if not parents <= MAX_PARENT_COUNT:
            raise ConfigError(f"expected parent count cell_intensity_per_m2 * "
                              f"area_side_m**2 = {parents:.3g} is not at most "
                              f"{MAX_PARENT_COUNT:.4g}")
        if not 0 < self.cell_min_sep_m < self.area_side_m:
            raise ConfigError("cell_min_sep_m must lie strictly between 0 and area_side_m")
        if not self.rate_menu_bps:
            raise ConfigError("rate_menu_bps must not be empty")
        if any(r <= 0 for r in self.rate_menu_bps):
            raise ConfigError("rate menu entries must be positive")
        if not all(math.isfinite(r) and r == math.floor(r) for r in self.rate_menu_bps):
            raise ConfigError("rate menu entries must be whole numbers of bps")
        if list(self.rate_menu_bps) != sorted(self.rate_menu_bps):
            raise ConfigError("rate menu must be ascending")
        if self.backhaul_cap_bps <= 0 or self.hub_bandwidth_hz <= 0:
            raise ConfigError("capacity limits must be positive")
        if not 1 <= self.hub_link_cap < 2**63:
            raise ConfigError("hub_link_cap must be at least 1 and fit in int64")
        if self.hub_altitude_m <= 0:
            raise ConfigError("hub_altitude_m must be positive")
        # the farthest ground distance a run evaluates the elevation angle
        # at: the area diagonal in the link table, the end of the
        # coverage_radius bracket
        far = max(math.hypot(self.area_side_m, self.area_side_m),
                  max(self.hub_altitude_m, 1.0) * 2.0 ** BRACKET_DOUBLINGS)
        if math.atan2(self.hub_altitude_m, far) == 0.0:
            raise ConfigError(f"hub_altitude_m is so small that the elevation "
                              f"angle underflows to 0 at {far:.3g} m")
        if self.avg_spec_eff <= 0:
            raise ConfigError("avg_spec_eff must be positive")
        # channel validity is delegated to ChannelParams
        try:
            self.channel
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.tx_power_w <= 0:
            raise ConfigError("tx_power_w must be positive")
        if self.noise_w <= 0:
            raise ConfigError("noise_w must be positive")

    @property
    def channel(self) -> ChannelParams:
        return ChannelParams(alpha=self.alpha, beta=self.beta,
                             eta_los_db=self.eta_los_db,
                             eta_nlos_db=self.eta_nlos_db,
                             carrier_hz=self.carrier_hz,
                             pl_exponent=self.pl_exponent)


def table1_urban() -> ScenarioConfig:
    """The packaged urban case study; identical to the dataclass defaults."""
    return ScenarioConfig()


PRESETS = {"table1-urban": table1_urban}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _parse_field(key: str, raw: str):
    """Parse one INI value by the field's type: float, int or str, else the
    comma/space-separated rate menu."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown scenario key: {key}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind in (float, int, str):
            return kind(raw)
        return tuple(float(p) for p in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario from an INI file.

    The file must contain a [scenario] section. An optional `defaults` key
    names a preset to start from; every other key overrides one dataclass
    field. Unknown keys and malformed values raise ConfigError.
    """
    parser = configparser.ConfigParser()
    loaded = parser.read(path)
    if not loaded:
        raise ConfigError(f"cannot read config file: {path}")
    if "scenario" not in parser:
        raise ConfigError("config file is missing the [scenario] section")
    section = parser["scenario"]

    base: dict = {}
    preset_name = section.get("defaults", fallback=None)
    if preset_name is not None:
        preset_name = preset_name.strip()
        if preset_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {preset_name!r} (known: {known})")
        base = dataclasses.asdict(PRESETS[preset_name]())

    overrides = {key: _parse_field(key, section[key])
                 for key in section if key != "defaults"}
    try:
        return ScenarioConfig(**{**base, **overrides})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
