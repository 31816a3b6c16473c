"""The runnable examples must stay runnable (fast ones, end to end)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.skipif(not EXAMPLES.exists(), reason="examples not present")
class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "building block" in out
        assert "done." in out

    def test_multi_view_tensor(self, capsys):
        out = _run("multi_view_tensor.py", capsys)
        assert "grid view dims: (512, 512)" in out
        assert "done." in out

    def test_device_explorer(self, capsys):
        out = _run("device_explorer.py", capsys)
        assert "NDS placement" in out
        assert "[P3]" in out
        assert "done." in out

    def test_multi_tenant_trace(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = _run("multi_tenant_trace.py", capsys)
        assert "co-run" in out
        assert "vs solo" in out
        assert (tmp_path / "multi_tenant.trace.json").exists()

    def test_qos_isolation(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.argv", ["qos_isolation.py"])
        out = _run("qos_isolation.py", capsys)
        assert "isolation sweep" in out
        assert "shared channels: none" in out
        assert (tmp_path / "qos_isolation.metrics.json").exists()
        assert (tmp_path / "qos_isolation.sharded.trace.json").exists()

    def test_compression_and_sparse(self, capsys):
        out = _run("compression_and_sparse.py", capsys)
        assert "stored 4 MiB in 208 pages" in out
        assert "3360 all-zero pages elided" in out
        assert "done." in out

    def test_raw_device(self, capsys):
        out = _run("raw_device.py", capsys)
        assert "delete_space released 256 access units" in out
        assert "done." in out
