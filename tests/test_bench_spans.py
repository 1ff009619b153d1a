"""The benchmark's calls into qnav still resolve and run.

The benchmark's tracer finds its per-layer spans by name (for example
``env.build_observation`` for ``env.observation_us_p50``); a name that no
longer resolves silently reads 0. ``bench/workloads.py`` is only read here,
not imported; its setup and a short run go through ``bench/run.py`` in a
subprocess.
"""

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def named_spans() -> tuple:
    """NAMED_SPANS as bench/workloads.py defines it, from the module-level
    assignments of string tuples it is built from."""
    namespace: dict = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
            try:
                value = eval(compile(ast.Expression(node.value), str(WORKLOADS), "eval"),
                             {"__builtins__": {}}, dict(namespace))
            except NameError:  # built from something other than the span tuples
                continue
            if isinstance(value, tuple) and all(isinstance(v, str) for v in value):
                namespace.update((t.id, value) for t in node.targets)
    return namespace["NAMED_SPANS"]


def test_every_named_span_resolves_to_a_qnav_function():
    names = named_spans()
    assert "planner.cross_track_error" in names and "agent.ActorCriticModel.trunk_forward" in names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"qnav.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name
        assert not any(part.startswith("_") for part in attrs), name


def test_a_read_counting_trace_class_can_take_over_training_traces(monkeypatch):
    """bench/workloads.py counts the critic values a training loop reads: it
    sets the ``__class__`` of each trace ``agent.run_episode`` returns to a
    subclass of ``agent.EpisodeTrace`` that overrides ``__getattribute__``,
    and gives it an attribute with ``object.__setattr__``. So the trace must
    stay a plain dataclass, and ``train_run`` must train through that class
    as it does without it. The critic runs in the gradient pass, not in the
    rollout, so no trace holds a value or a bootstrap for the class to count.
    Only traced benchmark runs would show a break."""
    from qnav import agent, env

    reads, traces = [], []

    class ReadCounting(agent.EpisodeTrace):
        def __getattribute__(self, attr):
            if attr in ("values", "bootstrap"):
                reads.append((object.__getattribute__(self, "_episode"), attr))
            return object.__getattribute__(self, attr)

    run_episode = agent.run_episode

    def counted(*args, **kwargs):
        trace = run_episode(*args, **kwargs)
        trace.__class__ = ReadCounting
        object.__setattr__(trace, "_episode", len(traces))
        traces.append(trace)
        return trace

    config = agent.AgentConfig(critic="quantum", n_qubits=2, n_layers=1, lstm_hidden=6,
                               encoder_out=8, max_steps=5, episodes=3, seed=3)
    scenes = [env.make_scene(1, 20.0, 1.2)]
    expected, expected_model = agent.train_run(config, scenes)
    monkeypatch.setattr(agent, "run_episode", counted)
    record, model = agent.train_run(config, scenes)
    assert record.outcomes == ["timeout"] * 3 and len(traces) == 3
    assert reads == []
    assert (record.returns, record.value_losses) == (expected.returns, expected.value_losses)
    assert model.flat.tobytes() == expected_model.flat.tobytes()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_each_workload_sets_up(workload):
    """The benchmark's setup builds each workload's configs, scenes and model
    through the qnav API (``EnvConfig(max_steps=...)`` and
    ``generate_scenes(..., config=...)`` among its calls): a change to that
    API that breaks it fails here, not only in a benchmark run."""
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", "0", "--setup-probe"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(proc.stdout.strip().splitlines()[-1])


def test_an_eval_grid_run_passes_its_checks(tmp_path):
    """A short ``eval-grid`` run, in a copy of the checkout so that its
    ``.bench_out`` lands there, passes every output check: the check reads
    ``max_steps`` and ``dt`` through the run's EnvConfig."""
    assert_a_short_run_passes_its_checks("eval-grid", tmp_path)


@pytest.mark.parametrize("workload", ["train-quantum", "train-paramshift-noisy",
                                      "train-classical"])
def test_a_training_run_passes_its_checks(workload, tmp_path):
    """A short training run passes every output check: the episodes and
    value losses its hooks on ``agent.run_episode`` and
    ``agent.episode_gradients`` capture equal the RunRecord, its repeat of
    the first episodes gives their bytes and losses again, and, for a
    quantum critic, the adjoint and parameter-shift critic gradients agree.
    ``train-classical`` is the workload where the rollout's own glue
    (sampling, the trunk) dominates."""
    assert_a_short_run_passes_its_checks(workload, tmp_path)


def assert_a_short_run_passes_its_checks(workload, tmp_path):
    """A one-second run of the workload in a copy of ``bench/`` and ``src/``
    reports ``correct`` with no failed episode."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
                           "--seconds", "1"], capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
