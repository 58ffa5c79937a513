import numpy as np
import pytest

from cohaudit import util


def test_parallel_map_pool_is_capped_by_items_and_cores(monkeypatch):
    sizes = []
    real_pool = util.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(util, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 2)
    assert util.parallel_map(lambda x: x * x, range(5), threads=64) == [0, 1, 4, 9, 16]
    assert util.parallel_map(lambda x: -x, [3], threads=64) == [-3]
    assert util.parallel_map(lambda x: -x, range(3), threads=1) == [0, -1, -2]
    monkeypatch.setattr(util.os, "cpu_count", lambda: None)
    assert util.parallel_map(lambda x: x + 1, range(4), threads=8) == [1, 2, 3, 4]
    assert sizes == [2]


def test_frozen_copy_is_a_read_only_copy():
    source = [1, 2, 3]
    arr = util.frozen_copy(source)
    assert arr.dtype == float and arr.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        arr[0] = 5.0


def test_write_csv_lines(tmp_path):
    path = tmp_path / "t.csv"
    util.write_csv(path, "a,b", "%d,%.12g", [(1, 0.1), (2, 1 / 3)])
    assert path.read_text() == "a,b\n1,0.1\n2,0.333333333333\n"


@pytest.mark.parametrize("obj, error, message", [
    ({"x": float("nan")}, ValueError, "non-finite float in report"),
    ([np.float64("inf")], ValueError, "non-finite float in report"),
    ({1: 2}, TypeError, "report keys must be strings, got 1"),
    ({"x": {1, 2}}, TypeError, "cannot serialize set in report"),
])
def test_canonical_json_rejects_what_json_cannot_hold(obj, error, message):
    with pytest.raises(error) as err:
        util.canonical_json(obj)
    assert str(err.value) == message
