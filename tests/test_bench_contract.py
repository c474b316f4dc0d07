"""The names the benchmark tracer in perfbench/ wraps must exist, and the
benchmark's own requests must pass their checks.

``perfbench/tracer.py`` wraps each layer function by module and name and
reads the output path of ``cli.write_reports_csv`` from its first
argument. ``perfbench/workloads.py`` calls ``cli.main`` and the package's
public functions many times in one process. A refactor that renames or
reshapes one of them, or that carries state from one call to the next,
should fail here, not in a benchmark run. perfbench/ is only read.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from ghztangle.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


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
    # One stack of one channel: one call of each of its two one-tangle closed
    # forms; the pi-tangle column is combined from their values, 2 calls.
    assert stats["closedform"]["calls"] == 2
    # One state per distinct r, gathered into every stack that needs it.
    assert stats["rindler.ghz_rindler_density"]["calls"] == 2


@pytest.mark.parametrize("name", ["grid", "esd", "dense_states"])
def test_benchmark_requests_pass_their_checks_twice(workloads, name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name](1, "tiny", str(tmp_path))
    for _ in range(2):
        for req in workload.requests:
            result = workload.call(req)
            assert workload.check(req, workload.collect(req, result)) == 0, req.describe()
    capsys.readouterr()


def test_a_dense_states_request_makes_no_kernel_call(tracer, workloads, tmp_path):
    # The tracer still wraps _kernels.jacobi_sweeps, but no public route calls
    # it: a dense state's cuts go to np.linalg.eigvalsh, so the kernel layer
    # reads 0 calls while the request passes its check.
    workload = workloads.WORKLOADS["dense_states"](1, "tiny", str(tmp_path))
    req = workload.requests[0]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        result = workload.call(req)
    finally:
        recorder.uninstall()
    assert workload.check(req, workload.collect(req, result)) == 0
    jacobi = tracer.aggregate(recorder.take())["kernels.jacobi_sweeps"]
    assert (jacobi["calls"], jacobi["calls_n8"], jacobi["calls_n16"], jacobi["sweeps"]) == (0, 0, 0, 0)
