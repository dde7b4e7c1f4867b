"""Tests for the in-memory experiment grid (the §VI run plan)."""

import pytest

import repro.harness.grid as grid_module
from repro.harness import (
    CellSpec,
    ExperimentGrid,
    StandardParams,
    run_buffer_sweep,
    run_consumer_scaling,
    run_multi_comparison,
    run_wakeup_accounting,
)


@pytest.fixture
def params():
    return StandardParams(duration_s=0.3, replicates=2, seed=99)


@pytest.fixture
def simulated(monkeypatch):
    """Every (cell, replicate) task the grid hands to its executor."""
    tasks = []
    real = grid_module._replicate_task

    def counting(task):
        tasks.append(task)
        return real(task)

    monkeypatch.setattr(grid_module, "_replicate_task", counting)
    return tasks


def test_cell_spec_make_normalises_overrides():
    spec = CellSpec.make("PBPL", pbpl_overrides={"resize_margin": 0.3})
    assert spec.pbpl_overrides == (("resize_margin", 0.3),)
    assert spec.overrides_dict() == {"resize_margin": 0.3}
    assert hash(spec)  # hashable → usable as dict key


def test_run_returns_runs_in_spec_replicate_order(params, simulated):
    grid = ExperimentGrid(params, jobs=1)
    specs = [CellSpec.make("BP", n_consumers=2), CellSpec.make("Sem", n_consumers=2)]
    runs = grid.run(specs)
    assert [(r.implementation, r.replicate) for r in runs] == [
        ("BP", 0),
        ("BP", 1),
        ("Sem", 0),
        ("Sem", 1),
    ]
    assert len(simulated) == 4
    # Asking again, in any order, simulates nothing and returns the
    # very same runs.
    again = grid.run(specs[::-1])
    assert len(simulated) == 4
    assert [id(r) for r in again] == [id(r) for r in runs[2:] + runs[:2]]


def test_buffer_none_resolves_to_params_buffer(params, simulated):
    grid = ExperimentGrid(params, jobs=1)
    default = grid.run([CellSpec.make("BP", n_consumers=2)])
    explicit = grid.run([CellSpec.make("BP", n_consumers=2, buffer_size=25)])
    assert explicit == default
    assert len(simulated) == params.replicates


def test_pbpl_overrides_part_of_key(params, simulated):
    grid = ExperimentGrid(params, jobs=1)
    default = grid.run([CellSpec.make("PBPL", n_consumers=2)])
    # An override equal to its default is the default cell.
    same = grid.run(
        [CellSpec.make("PBPL", n_consumers=2, pbpl_overrides={"resize_margin": 0.5})]
    )
    assert [id(r) for r in same] == [id(r) for r in default]
    assert len(simulated) == params.replicates
    # A different value is a different cell.
    other = grid.run(
        [CellSpec.make("PBPL", n_consumers=2, pbpl_overrides={"resize_margin": 0.9})]
    )
    assert len(simulated) == 2 * params.replicates
    assert other != default


def test_one_grid_serves_every_view_once(params, simulated):
    grid = ExperimentGrid(params, jobs=1)
    fig9 = run_multi_comparison(grid, n_consumers=5)
    fig10 = run_consumer_scaling(grid, counts=(2, 5))
    fig11 = run_buffer_sweep(grid, sizes=(25, 50))
    acc25 = run_wakeup_accounting(grid, buffer_size=25)
    acc50 = run_wakeup_accounting(grid, buffer_size=50)

    # Distinct resolved cells: Mutex/Sem/BP/PBPL at 2 and 5 consumers
    # (buffer 25), plus BP/PBPL at 5 consumers, buffer 50.
    cells = [
        (s.implementation, s.n_consumers, s.buffer_size or params.buffer_size, r)
        for s, _, r in simulated
    ]
    assert len(cells) == len(set(cells)) == 10 * params.replicates

    # Each view equals the standalone call that simulates its own runs.
    assert fig9 == run_multi_comparison(params, n_consumers=5)
    assert fig10 == run_consumer_scaling(params, counts=(2, 5))
    assert fig11 == run_buffer_sweep(params, sizes=(25, 50))
    assert acc25 == run_wakeup_accounting(params, buffer_size=25)
    assert acc50 == run_wakeup_accounting(params, buffer_size=50)
    assert fig10.render() == run_consumer_scaling(params, counts=(2, 5)).render()


def test_standalone_calls_simulate_every_run(params, simulated):
    # bench/ times repeated standalone calls: there is no memo across
    # calls, so each one simulates its runs afresh.
    first = run_multi_comparison(params, n_consumers=2)
    second = run_multi_comparison(params, n_consumers=2)
    assert len(simulated) == 2 * 4 * params.replicates
    assert second.runs == first.runs
    assert all(a is not b for a, b in zip(first.runs, second.runs))
