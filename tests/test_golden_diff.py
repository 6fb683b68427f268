"""What ``tools/golden_diff.py`` reports for two stdouts."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_diff", Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def test_json_keys_that_moved():
    old = '{"rate": 1.0, "rows": [{"sup": 2.0}, {"sup": 4.0}], "ok": true}\n'
    new = '{"rate": 1.0, "rows": [{"sup": 2.2}, {"sup": 4.0000001}], "ok": true}\n'
    changes = golden_diff.moved(old, new)
    assert list(changes) == ["rows.sup"]
    assert abs(changes["rows.sup"] - 0.2 / 2.2) < 1e-15


def test_csv_columns_that_moved():
    old = "b,fitted_rate,ok\n2,-1.5,True\n3,-2.0,False\n"
    new = "b,fitted_rate,ok\n2,-1.5000000000000002,True\n3,-2.0,False\n"
    assert golden_diff.moved(old, new) == {"fitted_rate": 2 ** -52 / 1.5000000000000002}
    assert golden_diff.moved(old, old) == {}
