import dataclasses
import math

import numpy as np
import pytest

from skyhaul.config import (MAX_PARENT_COUNT, ConfigError, ScenarioConfig,
                            load_config, table1_urban)


class TestDefaults:
    def test_urban_preset_values(self):
        cfg = table1_urban()
        assert cfg.alpha == 9.61
        assert cfg.beta == 0.16
        assert cfg.eta_los_db == 1.0
        assert cfg.eta_nlos_db == 20.0
        assert cfg.carrier_hz == 2e9
        assert cfg.tx_power_w == 5.0
        assert cfg.sinr_min_db == -5.0
        assert cfg.pl_max_db == 110.0
        assert cfg.backhaul_cap_bps == 2e9
        assert cfg.hub_bandwidth_hz == 250e6
        assert cfg.hub_link_cap == 7
        assert cfg.hub_altitude_m == 300.0
        assert cfg.rate_menu_bps == (30e6, 60e6, 90e6, 120e6, 150e6)
        assert cfg.area_side_m == 4000.0
        assert cfg.cell_intensity_per_m2 == 2e-6
        assert cfg.cell_min_sep_m == 300.0
        assert cfg.avg_spec_eff == 5.0

    def test_validation_rejects_bad_menu(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(rate_menu_bps=())
        with pytest.raises(ConfigError):
            ScenarioConfig(rate_menu_bps=(60e6, 30e6))

    def test_validation_rejects_bad_solver(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(solver="simulated-annealing")

    def test_validation_delegates_channel_checks(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(alpha=-1.0)

    def test_parent_count_limit_is_numpys(self):
        # on a 2**32 m side, side**2 = 2**64 scales the intensity exactly
        side = 2.0**32
        at_limit = MAX_PARENT_COUNT / side**2
        ScenarioConfig(area_side_m=side, cell_intensity_per_m2=at_limit)
        with pytest.raises(ConfigError, match="parent count"):
            ScenarioConfig(area_side_m=side,
                           cell_intensity_per_m2=math.nextafter(at_limit, math.inf))
        rng = np.random.default_rng(0)
        rng.poisson(MAX_PARENT_COUNT, size=0)
        with pytest.raises(ValueError):
            rng.poisson(math.nextafter(MAX_PARENT_COUNT, math.inf), size=0)


class TestLoadConfig:
    def test_preset_plus_override(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[scenario]\n"
            "defaults = table1-urban\n"
            "seed = 99\n"
            "hub_link_cap = 5\n"
            "rate_menu_bps = 30e6, 60e6\n")
        cfg = load_config(path)
        assert cfg.seed == 99
        assert cfg.hub_link_cap == 5
        assert cfg.rate_menu_bps == (30e6, 60e6)
        assert cfg.alpha == table1_urban().alpha  # untouched preset field

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(),
        ScenarioConfig(seed=7, pl_exponent=2.5, noise_w=2e-13, hub_link_cap=3,
                       rate_menu_bps=(1.0, 3.0), solver="greedy",
                       constraints="qos-only"),
    ], ids=["defaults", "changed"])
    def test_every_field_round_trips(self, tmp_path, cfg):
        lines = ["[scenario]"]
        for field in dataclasses.fields(cfg):
            value = getattr(cfg, field.name)
            if isinstance(value, tuple):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{field.name} = {value}")
        path = tmp_path / "scenario.ini"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_config(path)
        assert loaded == cfg
        for field in dataclasses.fields(cfg):
            assert type(getattr(loaded, field.name)) is type(getattr(cfg, field.name))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[other]\nseed = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nseed = banana\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_preset(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\ndefaults = mars-canyon\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")
