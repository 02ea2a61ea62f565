import json

import pytest

from conftest import interleaved_grid_workload, small_hardware
from gmemsim.cli import EXIT_INVALID, EXIT_OK, main
from gmemsim.config import config_from_dict


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
