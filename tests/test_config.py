import json

import pytest

from conftest import interleaved_grid_workload, small_hardware
from gmemsim.cli import EXIT_INVALID, EXIT_OK, main
from gmemsim.config import config_from_dict, default_ddr, default_gddr


def config(line_bytes: int) -> dict:
    # small_hardware pages are 32 bytes
    return {"workload": interleaved_grid_workload(),
            "hardware": small_hardware(line_bytes=line_bytes)}


@pytest.mark.parametrize("line_bytes", [8, 32])
def test_l1_line_up_to_the_page_size_is_accepted(line_bytes):
    assert config_from_dict(config(line_bytes)).hardware.l1.line_bytes == line_bytes


def test_l1_line_larger_than_a_page_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="line_bytes .* page size"):
        config_from_dict(config(64))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config(64)))
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID
    path.write_text(json.dumps(config(32)))
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_partial_pool_objects_overlay_the_pool_defaults():
    cfg = config_from_dict({
        "workload": interleaved_grid_workload(),
        "hardware": {"gddr": {"layout": {"row_bits": 3},
                              "timing": {"tRCD": 20},
                              "energy": {"e_activate": 9}}}})
    gddr, default = cfg.hardware.gddr, default_gddr()
    assert gddr.layout.row_bits == 3 and gddr.layout.bank_bits == 4
    assert gddr.timing.tRCD == 20 and gddr.timing.tRP == default.timing.tRP
    # an integer is a number, kept as given
    assert gddr.energy.e_activate == 9 and gddr.energy.e_read == 4.0
    assert cfg.hardware.ddr == default_ddr()


@pytest.mark.parametrize("hardware,message", [
    ({"gddr": {"timing": {"clock_period": 1.0}}},
     "unknown field(s) in config.hardware.gddr.timing: ['clock_period']"),
    ({"check_invariants": True},
     "unknown field(s) in config.hardware: ['check_invariants']"),
    ({"cpu_pool": "hbm"}, "config.hardware.cpu_pool must be one of"),
    ({"l1": []}, "config.hardware.l1 must be an object, not []"),
    # the rules that read more than one field, or are not ranges
    ({"l1": {"line_bytes": 12}},
     "config.hardware.l1.line_bytes must be a power of two, not 12"),
    ({"l1": {"size_bytes": 64, "assoc": 0}},
     "config.hardware.l1.assoc must be >= 1 when size_bytes is above 0"),
    ({"l1": {"size_bytes": 40, "assoc": 2, "line_bytes": 8}},
     "config.hardware.l1.size_bytes (40) must be a multiple of assoc * "
     "line_bytes (16)"),
    ({"ddr": {"layout": {"page_offset_bits": 11}}},
     "config.hardware.ddr.layout.page_offset_bits (11) must equal "
     "config.hardware.gddr.layout.page_offset_bits (12)"),
    ({"cpu_row_fraction": 1.0},
     "config.hardware.cpu_row_fraction must lie strictly in (0, 1), not 1.0"),
])
def test_malformed_hardware_names_its_field(hardware, message):
    with pytest.raises(ValueError) as err:
        config_from_dict({"workload": interleaved_grid_workload(),
                          "hardware": hardware})
    assert message in str(err.value)


def test_schema_version_must_match():
    for version in (2, True):
        with pytest.raises(ValueError, match="unsupported config schema_version"):
            config_from_dict({"schema_version": version,
                              "workload": interleaved_grid_workload()})
