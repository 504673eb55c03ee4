"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_bench_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_tracing_changes_no_output(workload):
    runs = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        *_, details, result = proc.stdout.strip().splitlines()
        result = json.loads(result)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert ({k: m["unit"] for k, m in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in SPEC[kind]})
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        runs[trace] = result["metrics"], json.loads(details)["details"]["outputs"]
    (plain, plain_out), (traced, traced_out) = runs[0], runs[1]
    assert plain_out == traced_out
    assert plain["final_train_loss"]["value"] == traced_out["final_train_loss"]
    assert traced["trace.covered_frac"]["value"] >= 0.9
    # every workload writes its feature files (and eval-* a checkpoint) and
    # reads back what it wrote; every workload runs episodes
    assert traced["io_files.bytes_written"]["value"] > 0
    assert traced["io_files.bytes_written"]["value"] == traced["io_files.bytes_read"]["value"]
    assert traced["episodes.episodes"]["value"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train-clta", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def tracing():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))


def test_tracer_wraps_every_binding_site_and_restores_them(tracing):
    from clta import episodes, model, trainer
    originals = (trainer.adam_step, episodes.adam_step, model.descriptor,
                 episodes.descriptor, model.Model.forward_video)
    tracer = tracing.Tracer()
    with tracer:
        assert trainer.adam_step is not originals[0]
        assert episodes.adam_step is not originals[1]
        assert trainer.adam_step is not episodes.adam_step  # split by caller
        assert model.descriptor is not originals[2]
        assert episodes.descriptor is not originals[3]
        assert model.Model.forward_video is not originals[4]
    assert (trainer.adam_step, episodes.adam_step, model.descriptor,
            episodes.descriptor, model.Model.forward_video) == originals


def test_span_of_a_missing_function_reports_zero_calls(tracing):
    gone = tracing.Span("model.gone", "model", "Model.gone")
    tracer = tracing.Tracer(spans=[*tracing.SPANS, gone])
    with tracer:
        pass
    assert tracer.calls["model.gone"] == 0
    assert tracer.self_s["model.gone"] == 0.0
