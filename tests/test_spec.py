"""The executable spec (spec.py) against the golden digests: a second
witness, written apart from the engine, of every desk cell's recorded
outputs. The default-scale cell is left to `python tests/spec.py`."""
import json

from spec import run_spec
from test_golden import CELLS, DIGESTS, digests_of


def test_spec_reproduces_the_desk_golden_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())["cells"]
    desk = [key for key in CELLS if key.startswith("desk")]
    assert len(desk) == 30
    differ = [
        key for key in desk if digests_of(run_spec(CELLS[key]), tmp_path) != recorded[key]
    ]
    assert differ == []
