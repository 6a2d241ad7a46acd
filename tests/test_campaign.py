"""The campaign subsystem: generator oracle, attack schedules, runner
determinism, and the replayability contract.

The replayability regression here pins the PR's acceptance criterion:
a campaign with a fixed seed reproduces identical per-cell recovery
outcomes across two *independent* invocations (full recompute, not a
checkpoint replay), and the CLI's ``outcomes.json`` is byte-identical.
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignConfig,
    CampaignReport,
    GeneratorConfig,
    campaign_attacks,
    cell_seed,
    copy_rng,
    differential_check,
    generate_corpus,
    generate_program,
    run_campaign,
)
from repro.bytecode_wm import WatermarkKey
from repro.campaign import runner
from repro.cli import main as cli_main
from repro.pipeline import CopySpec, prepare, run_batch
from repro.vm import disassemble, run_module
from repro.workloads.simple import gcd_module

# One small matrix shared by the runner tests: 1 workload, 2 copies,
# 2 single-level attacks -> 2 cells, a few seconds end to end.
_FAST = dict(
    seed=11,
    workloads=1,
    copies=2,
    bits=(16,),
    attacks=("block-reordering", "locals-renumbering"),
)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic():
    assert generate_program(17).source == generate_program(17).source
    assert generate_program(17).inputs == generate_program(17).inputs


def test_generator_seeds_diversify():
    sources = {generate_program(seed).source for seed in range(10)}
    assert len(sources) == 10


def test_generated_programs_pass_the_oracle():
    for program in generate_corpus(5, base_seed=100):
        oracle = differential_check(program)
        assert oracle.ok, oracle.detail
        assert oracle.branch_events >= 8


def test_generated_program_runs_on_its_key_inputs():
    program = generate_program(3)
    result = run_module(program.module(), program.inputs)
    assert result.output  # every program prints its locals


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(functions=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(input_count=0)
    with pytest.raises(ValueError):
        GeneratorConfig(max_loop_nest=0)


def test_oracle_rejects_branch_starved_programs():
    # A straight-line program can't host a watermark; the oracle's
    # min_branch_events floor keeps such workloads out of the matrix.
    program = generate_program(0)
    starved = differential_check(program, min_branch_events=10**9)
    assert not starved.ok
    assert "branch events" in starved.detail


# ---------------------------------------------------------------------------
# Attack schedules
# ---------------------------------------------------------------------------

def test_unknown_attack_name_fails_early():
    with pytest.raises(KeyError, match="unknown attack"):
        campaign_attacks(["not-an-attack"])
    with pytest.raises(KeyError):
        CampaignConfig(attacks=("not-an-attack",))


def test_every_schedule_preserves_semantics():
    """Each registered attack at full intensity keeps the generated
    program's behaviour on its key inputs (they are all supposed to be
    semantics-preserving transformations)."""
    program = generate_program(5)
    module = program.module()
    want = run_module(module, program.inputs).output
    for schedule in campaign_attacks():
        rng = copy_rng(1234, schedule.name)
        attacked = schedule.apply(module, 1.0, rng)
        got = run_module(attacked, program.inputs).output
        assert got == want, schedule.name


def test_cell_seed_is_coordinate_pure():
    a = cell_seed(7, "w", 16, "noop-insertion", 1)
    assert a == cell_seed(7, "w", 16, "noop-insertion", 1)
    neighbours = {
        cell_seed(7, "w", 16, "noop-insertion", 0),
        cell_seed(7, "w", 16, "noop-insertion", 2),
        cell_seed(7, "w", 8, "noop-insertion", 1),
        cell_seed(7, "x", 16, "noop-insertion", 1),
        cell_seed(8, "w", 16, "noop-insertion", 1),
    }
    assert a not in neighbours


# ---------------------------------------------------------------------------
# Runner: the replayability contract (acceptance criterion)
# ---------------------------------------------------------------------------

def test_fixed_seed_campaign_replays_identically():
    first = run_campaign(CampaignConfig(**_FAST))
    second = run_campaign(CampaignConfig(**_FAST))
    assert first.outcomes() == second.outcomes()
    assert first.outcomes_json() == second.outcomes_json()
    assert first.outcomes_digest() == second.outcomes_digest()
    # Sanity on content: layout attacks never dislodge the mark.
    assert first.recovery_rate == 1.0
    assert all(c.program_ok == c.copies for c in first.cells)
    assert all(c.cell_seed == cell_seed(
        first.seed, c.workload, c.bits, c.attack, c.intensity_index
    ) for c in first.cells)


def test_pooled_cells_leave_the_parent_no_remints(monkeypatch):
    """With pooled cells every worker re-mints the copies it attacks;
    the parent mints none of its own, and the outcomes do not move."""
    serial = run_campaign(CampaignConfig(**_FAST))
    parent_remints = []
    remint = runner._remint

    def counting(prepared, spec):
        parent_remints.append(spec.copy_id)
        return remint(prepared, spec)

    monkeypatch.setattr(runner, "_remint", counting)
    pooled = run_campaign(CampaignConfig(cell_workers=2, **_FAST))
    # Forked workers count into their own copies of the list.
    assert parent_remints == []
    assert pooled.outcomes_json() == serial.outcomes_json()


@pytest.mark.parametrize("codec", ["gcrt", "rs-8"])
def test_remint_is_the_batch_copy(codec):
    """The campaign attacks re-minted copies, so each must be the very
    module ``run_batch`` emitted for its spec."""
    key = WatermarkKey(secret=b"campaign", inputs=[25, 10])
    prepared = prepare(gcd_module(), key, 16, codec=codec)
    spec = CopySpec("c0", 0x1234, seed=3)
    copy = run_batch(prepared, [spec]).copies[0]
    assert copy.ok
    assert disassemble(runner._remint(prepared, spec)) == copy.text


def test_campaign_resumes_from_cell_journal(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    cold = run_campaign(CampaignConfig(checkpoint_dir=ckpt, **_FAST))
    assert cold.resumed_cells == 0
    assert os.path.exists(os.path.join(ckpt, "cells.jsonl"))
    warm = run_campaign(
        CampaignConfig(checkpoint_dir=ckpt, resume=True, **_FAST)
    )
    assert warm.resumed_cells == len(warm.cells) == len(cold.cells)
    assert warm.outcomes_json() == cold.outcomes_json()


def test_campaign_report_roundtrips_through_disk(tmp_path):
    report = run_campaign(CampaignConfig(**_FAST))
    path = str(tmp_path / "report.json")
    report.write(path)
    again = CampaignReport.read(path)
    assert again.to_dict() == report.to_dict()
    assert again.outcomes_json() == report.outcomes_json()
    # The replay fields identify every copy the cell attacked.
    for cell in again.cells:
        assert len(cell.copy_watermarks) == cell.copies
        assert len(cell.copy_seeds) == cell.copies


@pytest.mark.slow
def test_cli_campaign_outcomes_are_byte_identical(tmp_path):
    """`repro campaign --seed S` twice -> byte-identical outcomes.json
    (the acceptance criterion, at the CLI boundary)."""
    args = ["campaign", "--seed", "11", "--workloads", "1",
            "--copies", "2", "--attacks",
            "block-reordering,locals-renumbering"]
    assert cli_main(args + ["-o", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["-o", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "outcomes.json").read_bytes()
    b = (tmp_path / "b" / "outcomes.json").read_bytes()
    assert a == b
    doc = json.loads(a)
    assert doc["seed"] == 11
    assert doc["cells"]
    report = CampaignReport.read(str(tmp_path / "a" / "report.json"))
    assert report.outcomes() == [
        CampaignCell.from_dict(c).outcome_dict() for c in doc["cells"]
    ]
