"""The benchmark's own tests, at small scale.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs twice per mode with one cycle of ops (about five
minutes in all). The runs check that every declared metric appears with
its unit, that the deterministic counters repeat exactly, and that the
traced run hands every function back.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from common import tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fp:
    SPEC = json.load(_fp)
with open(os.path.join(HERE, "metrics_map.json")) as _fp:
    MAP = json.load(_fp)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counters that depend only on the seed and the run length.
DETERMINISTIC = {
    1: ["core.decrypts", "core.windows", "core.distinct_windows",
        "native.steps", "bytecode_wm.pieces_condition",
        "bytecode_wm.pieces_loop", "step_growth_pct"],
    0: ["code_growth_pct"],
}

_RUNS: dict = {}


def bench(workload: str, trace: int, attempt: int, seed: int = 7,
          seconds: float = 1) -> dict:
    """Run the benchmark (one cycle unless ``seconds`` asks for more);
    memoized per argument set."""
    key = (workload, trace, attempt, seed, seconds)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    result = bench(workload, trace, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counters_repeat_exactly(workload, trace):
    first = bench(workload, trace, 0)["metrics"]
    second = bench(workload, trace, 1)["metrics"]
    for name in DETERMINISTIC[trace]:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_run_measures_the_layers_it_names():
    mint = bench("mint", 1, 0)["metrics"]
    serve = bench("serve", 1, 0)["metrics"]
    native = bench("native", 1, 0)["metrics"]
    # Decrypt-every-window recognition: about 14 decrypts per distinct
    # window on jess copies, about 3.3 on CaffeineMark.
    ratio = "core.decrypts_per_distinct_window"
    assert 10 < serve[f"{ratio}.jess-gcrt"]["value"] < 20
    assert 2.5 < mint[f"{ratio}.caffeinemark-gcrt"]["value"] < 4
    assert native["native_wm.runs_per_extract"]["value"] == 2
    assert native["core.decrypts"]["value"] == 0
    assert mint["native.steps"]["value"] == 0
    assert serve["serve.job_s"]["value"] > 0
    for metrics in (mint, serve, native):
        assert metrics["false_mark_rate"]["value"] == 0
        assert metrics["trace.unattributed_share"]["value"] < 0.05


def test_cycles_after_the_first_stay_traced():
    # Two native cycles: the second runs after cycle 0's paired replay.
    native = bench("native", 1, 0, seconds=16)["metrics"]
    assert native["op_samples"]["value"] == 12
    assert native["trace.unattributed_share"]["value"] < 0.05
    # Three Machine.run calls per positive op (profile, discovery,
    # trace); one per negative, whose discovery finds nothing. A cycle
    # holds five positives and one negative.
    assert native["native.run_calls"]["value"] == pytest.approx(16 / 6)


def test_map_names_only_declared_metrics():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(MAP["workloads"]) == set(WORKLOADS)
    for workload, doc in MAP["workloads"].items():
        assert doc["why"] == next(
            w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    for entry in MAP["layer_to_end_to_end"]:
        assert set(entry["metrics"]) <= per_layer, entry
        for target in entry["moves"]:
            assert target["metric"] in end_to_end, target
            assert set(target["on"]) <= set(WORKLOADS), target


def test_tail_keeps_ten_samples_beyond():
    assert tail([1.0] * 5) == (1.0, 100.0, 0)
    values, pct, beyond = tail([float(i) for i in range(40)])
    assert (values, beyond) == (29.0, 10)
    assert pct == 75.0


def test_speed_log_scales_by_the_probes_around_a_span():
    from hostspeed import REFERENCE_PROBE_S, SpeedLog

    log = SpeedLog()
    log.samples = [REFERENCE_PROBE_S * k for k in (1, 2, 2, 9, 2, 2)]
    # One disturbed probe among the four around a span does not count.
    assert log.adjust(3.0, 2) == pytest.approx(1.5)
    # At the ends fewer neighbours exist.
    assert log.adjust(3.0, 0) == pytest.approx(1.5)
    assert log.adjust(3.0, 5) == pytest.approx(1.5)
    assert log.mark() == 6 and log.samples[6] > 0
    assert log.mark(3) == 7 and log.samples[7] > 0


def test_probes_restore_every_function():
    from probes import Probes, TARGETS
    from repro.core.cipher import BlockCipher
    from repro.core.recovery import extract_candidates

    probes = Probes()
    probes.install()
    try:
        assert getattr(BlockCipher.decrypt_block, "_perfbench_probe", False)
        BlockCipher((1, 2, 3, 4)).decrypt_block(5)
        assert probes.take().count["core.decrypts"] == 1
        import repro.core.recovery as recovery
        assert recovery.extract_candidates is not extract_candidates
        with pytest.raises(RuntimeError):
            probes.assert_pristine()
    finally:
        probes.uninstall()
    probes.assert_pristine()
    import repro.core.recovery as recovery
    assert recovery.extract_candidates is extract_candidates
    assert len(probes.originals) == len(TARGETS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "mint", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
