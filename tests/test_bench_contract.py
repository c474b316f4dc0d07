"""The names the benchmark tracer in perfbench/ wraps must exist.

``perfbench/tracer.py`` wraps each layer function by module and name and
reads the output path of ``cli.write_reports_csv`` from its first
argument. A refactor that renames or reshapes one of them should fail
here, not in a benchmark run. perfbench/ is only read.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from ghztangle.cli import main

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracer):
    for _, module_name, attrs in tracer.LAYERS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_sweep_writes_through_write_reports_csv_with_the_path_first(tracer, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = main(["sweep", "--channel", "phase-flip", "--r", "0,0.5", "--p-step", "0.5", "--out", str(out)])
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    stats = tracer.aggregate(recorder.take())
    assert stats["cli.write_reports_csv"]["calls"] == 1
    assert stats["cli.write_reports_csv"]["bytes"] == os.path.getsize(out)
    # One call of each closed form per (channel, r) group, the pi-tangles
    # calling the other two again: 2 groups x 5 calls.
    assert stats["closedform"]["calls"] == 10
