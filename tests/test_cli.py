"""CLI commands: config loading, artifacts, determinism, exit codes."""

import csv
import importlib
import json
import pkgutil
import re

import pytest
import yaml

import qnav
from qnav import UsageError, agent, cli, env, planner
from qnav.qsim import NoiseSpec

SMOKE_AGENT = {
    "critic": "classical",
    "episodes": 2,
    "lstm_hidden": 6,
    "encoder_hidden": 16,
    "encoder_out": 8,
    "max_steps": 50,
}
SMOKE_SCENES = {
    "split": "train",
    "scenarios": [1],
    "speed": [1.0, 1.1, 0.1],
    "distance": [15.0, 18.0, 1.0],
}


def write_config(tmp_path, filename="smoke.yaml", **overrides):
    raw = {
        "name": "smoke",
        "seeds": [0],
        "agent": dict(SMOKE_AGENT),
        "scenes": dict(SMOKE_SCENES),
        "output": str(tmp_path / "run"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    path = tmp_path / filename
    path.write_text(yaml.safe_dump(raw))
    return path


# ---------------------------------------------------------------------------
# config loading


def test_load_config_defaults(tmp_path):
    path = write_config(tmp_path)
    config = cli.load_config(str(path))
    assert config.name == "smoke"
    assert config.seeds == [0]
    assert config.agent.critic == "classical"
    assert config.agent.episodes == 2
    assert config.scene_spec["scenarios"] == [1]


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, frobnicate=True)
    with pytest.raises(UsageError):
        cli.load_config(str(path))
    path = write_config(tmp_path, agent={"warp_drive": 1})
    with pytest.raises(UsageError):
        cli.load_config(str(path))
    path = write_config(tmp_path, scenes={"velocity": [1, 2, 3]})
    with pytest.raises(UsageError):
        cli.load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(UsageError):
        cli.load_config("/nonexistent/config.yaml")


def test_load_config_rejects_agent_seed_pointing_to_seeds(tmp_path):
    """Every run takes its seed from seeds, so an agent seed would be ignored
    while the manifest recorded it."""
    path = write_config(tmp_path, agent={"seed": 7})
    with pytest.raises(UsageError, match=r"seeds: \[7\]"):
        cli.load_config(str(path))


def test_cmd_train_non_utf8_config_exit_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: caf\xe9\n")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_load_config_overrides(tmp_path):
    path = write_config(tmp_path)
    config = cli.load_config(str(path), {"seed": 7, "episodes": 9, "critic": "quantum"})
    assert config.seeds == [7]
    assert config.agent.episodes == 9
    assert config.agent.critic == "quantum"


def test_parse_noise_flag():
    spec = cli._parse_noise_flag("gate_error=0.01,depolarizing=0.05")
    assert spec.gate_error == 0.01
    assert spec.depolarizing == 0.05
    assert cli._parse_noise_flag("off") is None
    with pytest.raises(UsageError):
        cli._parse_noise_flag("amplitude_damping=0.1")
    with pytest.raises(UsageError, match="'gate_error' given more than once"):
        cli._parse_noise_flag("gate_error=0.1,gate_error=0.2")


def test_resolved_config_round_trips_to_json(tmp_path):
    path = write_config(tmp_path)
    config = cli.load_config(str(path))
    payload = json.dumps(config.resolved())
    assert "classical" in payload


def test_resolved_config_records_the_seeds_and_no_agent_seed(tmp_path):
    """The manifest's config names each run's seed in ``seeds`` only: its
    agent section has no seed, which would read 0 whatever seeds hold."""
    config = cli.load_config(str(write_config(tmp_path, seeds=[3, 4])))
    assert config.resolved()["seeds"] == [3, 4]
    assert "seed" not in config.resolved()["agent"]


# ---------------------------------------------------------------------------
# train


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_cmd_train_smoke(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["train", "--config", str(path)]) == 0
    out = tmp_path / "run"
    rows = read_csv(out / "curve_seed0.csv")
    assert len(rows) == 2
    assert set(rows[0]) == {"episode", "return", "smoothed_return", "entropy",
                            "steps", "outcome"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["n_scenes"] == 8  # 1 scenario x 2 speeds x 4 distances
    assert manifest["param_counts"]["critic"] == 2305 or manifest["param_counts"]["critic"] > 0
    assert (out / "checkpoint_seed0.json").exists()


def test_cmd_train_byte_identical_reruns(tmp_path):
    path = write_config(tmp_path)
    cli.main(["train", "--config", str(path), "--out", str(tmp_path / "a")])
    cli.main(["train", "--config", str(path), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "curve_seed0.csv").read_bytes()
    b = (tmp_path / "b" / "curve_seed0.csv").read_bytes()
    assert a == b


def test_cmd_train_quantum_manifest_layout(tmp_path):
    path = write_config(tmp_path, agent={**SMOKE_AGENT, "critic": "quantum",
                                         "n_qubits": 4, "n_layers": 2,
                                         "lstm_hidden": 32, "episodes": 1})
    out = tmp_path / "q"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["param_counts"]["critic"] == 53
    assert manifest["param_counts"]["layout"]["pqc_param_count"] == 48


def test_cmd_train_noisy_byte_identical(tmp_path):
    path = write_config(tmp_path, agent={**SMOKE_AGENT, "critic": "quantum",
                                         "gradient_mode": "param-shift"})
    noise = "gate_error=0.01,depolarizing=0.02"
    cli.main(["train", "--config", str(path), "--noise", noise,
              "--out", str(tmp_path / "n1")])
    cli.main(["train", "--config", str(path), "--noise", noise,
              "--out", str(tmp_path / "n2")])
    a = (tmp_path / "n1" / "curve_seed0.csv").read_bytes()
    b = (tmp_path / "n2" / "curve_seed0.csv").read_bytes()
    assert a == b


def test_cmd_train_failure_on_second_seed_leaves_partial_manifest(tmp_path, monkeypatch):
    path = write_config(tmp_path, seeds=[0, 1])
    train_run = agent.train_run

    def fail_on_seed_1(config, *args, **kwargs):
        if config.seed == 1:
            raise RuntimeError("injected failure")
        return train_run(config, *args, **kwargs)

    monkeypatch.setattr(agent, "train_run", fail_on_seed_1)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == cli.EXIT_RUNTIME
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["artifacts"] == ["curve_seed0.csv", "checkpoint_seed0.json"]
    assert manifest["param_counts"]["critic"] > 0
    assert manifest["config"]["seeds"] == [0, 1]
    assert (out / "checkpoint_seed0.json").exists()
    assert not (out / "curve_seed1.csv").exists()


def test_cmd_train_bad_config_exit_code(tmp_path):
    path = write_config(tmp_path, agent={"nonsense_field": 3})
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG


def test_cmd_train_invalid_noise_combo_exit_code(tmp_path):
    # depolarizing noise with backprop gradients is rejected at config time
    path = write_config(tmp_path, agent={**SMOKE_AGENT, "critic": "quantum"})
    code = cli.main(["train", "--config", str(path), "--noise", "depolarizing=0.1"])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("sections,flags", [
    ({"agent": {"critic": "quantum", "gradient_mode": "param-shift",
                "noise": {"depolarizing": 2.0}}}, []),
    ({"agent": {"critic": "quantum"}}, ["--noise", "gate_error=abc"]),
    ({"agent": {"critic": "quantum"}}, ["--noise", "gate_error=-1"]),
    ({"agent": {"critic": "quantum", "n_qubits": 0}}, []),
    ({"agent": {"lstm_hidden": 0}}, []),
    ({"agent": {"encoder_hidden": 0}}, []),
    ({"agent": {"max_steps": 0}}, []),
    ({"agent": {"episodes": -1}}, []),
    ({"agent": {"lr": -1}}, []),
    ({"agent": {"max_grad_norm": -1}}, []),
    ({"env": {"dt": 0}}, []),
    ({"env": {"map_resolution": 0}}, []),  # an unknown key: the route is planned no more
    ({"env": {"max_steps": 0}}, []),
    ({"env": {"k_pedestrians": -1}}, []),
    ({"env": {"wheelbase": 0}}, []),  # an unknown key too
    ({"env": {"goal_tol": -1}}, []),
    ({"agent": {"encoder_out": 0}}, []),
    ({"env": {"speed_step": 0}}, []),
    ({"env": {"speed_step": -1.0}}, []),
    ({"env": {"sense_radius": -5.0}}, []),
    ({"env": {"car_length": 0}}, []),
    ({"env": {"car_width": 0}}, []),
    ({"env": {"ped_radius": 0}}, []),
    ({"env": {"road_x_min": 200.0}}, []),
    ({"env": {"road_y_min": 7.0}}, []),
    ({"env": {"speed_limit": 0.0}}, []),
    ({"env": {"v_max": 0.0}}, []),
    ({"env": {"v_max": -1.0}}, []),
    ({"scenes": {"scenarios": [9]}}, []),
    ({"scenes": {"split": "val"}}, []),
    ({"scenes": {"speed": [2.0, 1.0, 0.1]}}, []),
    ({"scenes": {"distance": [0, 10]}}, []),
    ({"scenes": {"speed": [0.6, 2.0, 0.0]}}, []),
    ({"scenes": {"scenarios": [1, 1]}}, []),
    ({"smooth_window": "abc"}, []),
    ({"smooth_window": 0}, []),
    ({"seeds": 5}, []),
    ({"seeds": ["x"]}, []),
    ({"seeds": []}, []),
    ({"agent": {"episodes": 2.5}}, []),
    ({"agent": {"max_steps": 2.5}}, []),
    ({"agent": {"seed": 1.5}}, []),
    ({"agent": {"lstm_hidden": True}}, []),
    ({"agent": {"critic": "quantum", "n_qubits": 2.0}}, []),
    ({"env": {"max_steps": 2.5}}, []),
    ({"env": {"k_pedestrians": 4.0}}, []),
    ({"agent": {"entropy_weight": float("nan")}}, []),
    ({"agent": {"critic": "quantum", "gradient_mode": "param-shift",
                "noise": {"gate_error": float("nan")}}}, []),
    ({"agent": {"critic": "quantum"}}, ["--noise", "gate_error=nan"]),
    ({"env": {"near_miss_margin": -1.0}}, []),
    ({"env": {"near_miss_margin": float("nan")}}, []),
    ({"env": {"oncoming_speed": float("nan")}}, []),
    ({"agent": {"lr": float("inf")}}, []),
    ({"name": 5}, []),
    ({"output": 5}, []),
    ({"scenes": [1, 2]}, []),
    ({"agent": [1]}, []),
    ({"env": 3}, []),
    ({"seeds": [0, -1]}, []),
    ({"seeds": [1, 2, 1]}, []),
    ({}, ["--seed", "-1"]),
    ({"agent": {"seed": -1}}, []),
    ({"agent": {"noise": {"gate_error": 0.01}}}, []),
    ({"agent": {"gradient_mode": "param-shift"}}, []),
    ({"agent": {"critic": "quantum", "noise": {"gate_error": 0.01}}}, []),
    ({"agent": {"critic": "quantum", "gradient_mode": "param-shift"}},
     ["--noise", "gate_error=0.1,gate_error=0.2"]),
    ({"agent": {"gamma": True}}, []),
    ({"agent": {"lr": True}}, []),
    ({"agent": {"entropy_weight": True}}, []),
    ({"agent": {"max_grad_norm": True}}, []),
    ({"agent": {"critic": "quantum", "gradient_mode": "param-shift",
                "noise": {"gate_error": True}}}, []),
    ({"agent": {"critic": "quantum", "gradient_mode": "param-shift",
                "noise": {"depolarizing": True}}}, []),
], ids=["yaml-depolarizing-2", "flag-not-a-number", "flag-negative", "zero-qubits",
        "zero-lstm-hidden", "zero-encoder-hidden", "zero-agent-max-steps", "negative-episodes",
        "negative-lr", "negative-max-grad-norm", "zero-dt", "zero-map-resolution",
        "zero-env-max-steps", "negative-k-pedestrians", "zero-wheelbase",
        "negative-goal-tol", "zero-encoder-out", "zero-speed-step", "negative-speed-step",
        "negative-sense-radius", "zero-car-length", "zero-car-width", "zero-ped-radius",
        "road-x-min-above-max", "road-y-min-equals-max", "zero-speed-limit", "zero-v-max",
        "negative-v-max", "unknown-scenario", "unknown-split", "empty-speed-grid",
        "two-value-distance", "zero-speed-grid-step", "repeated-scenarios",
        "smooth-window-not-a-number",
        "zero-smooth-window", "seeds-not-a-list", "seed-not-an-integer", "no-seeds",
        "fractional-episodes", "fractional-agent-max-steps", "fractional-agent-seed",
        "boolean-lstm-hidden", "float-qubits", "fractional-env-max-steps",
        "float-k-pedestrians", "nan-entropy-weight", "yaml-nan-gate-error", "flag-nan-gate-error",
        "negative-near-miss-margin", "nan-near-miss-margin", "nan-oncoming-speed", "infinite-lr",
        "name-not-a-string", "output-not-a-string", "scenes-not-a-mapping",
        "agent-not-a-mapping", "env-not-a-mapping", "negative-seed-in-list", "repeated-seeds",
        "negative-seed-flag", "negative-agent-seed", "noise-with-classical-critic",
        "param-shift-with-classical-critic", "gate-error-with-backprop",
        "flag-repeated-noise-field", "boolean-gamma", "boolean-lr", "boolean-entropy-weight",
        "boolean-max-grad-norm", "boolean-gate-error", "boolean-depolarizing"])
def test_cmd_train_bad_values_exit_2_before_output(tmp_path, sections, flags):
    """Bad values fail when the config loads: exit 2, no output directory, so
    no manifest.json. The env keys other than max_steps and k_pedestrians
    are no EnvConfig fields, so they fail as unknown keys at any value."""
    path = write_config(tmp_path, **sections)
    assert cli.main(["train", "--config", str(path), *flags]) == cli.EXIT_CONFIG
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key,value", [("map_resolution", 1.0), ("wheelbase", 2.5),
                                       ("road_x_min", -10.0), ("dt", 0.1)])
def test_load_config_rejects_retired_env_keys(tmp_path, key, value):
    """The planner's map resolution and wheelbase, the road's x_min and the
    env constants are gone from EnvConfig: a config that names one, even at
    its old default, names an unknown key."""
    path = write_config(tmp_path, env={key: value})
    with pytest.raises(UsageError, match=f"unknown keys in env: \\['{key}'\\]"):
        cli.load_config(str(path))


@pytest.mark.parametrize("flags", [["--split", "train", "--scenarios", "1,1"],
                                   ["--scenarios", "3,1,3"]], ids=["train-1-1", "test-3-1-3"])
def test_repeated_scenarios_fail_naming_the_id(tmp_path, capsys, flags):
    """A repeated scenario id would count its scenes twice: qnav scenes and
    qnav eval exit 2 before writing, and the message names the id."""
    out = tmp_path / "scenes.jsonl"
    assert cli.main(["scenes", *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    repeated = flags[-1].split(",")[-1]
    assert f"scenarios lists {repeated} more than once" in capsys.readouterr().err
    ckpt = trained_checkpoint(tmp_path)
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(ckpt), *flags,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_noise_flag_off_overrides_yaml_noise(tmp_path):
    path = write_config(tmp_path, agent={"critic": "quantum", "n_qubits": 2, "n_layers": 1,
                                         "episodes": 1, "gradient_mode": "param-shift",
                                         "noise": {"gate_error": 0.01}})
    assert cli.load_config(str(path)).agent.noise is not None
    assert cli.main(["train", "--config", str(path), "--noise", "off"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["agent"]["noise"] is None


# ---------------------------------------------------------------------------
# eval


def trained_checkpoint(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["train", "--config", str(path), "--out", str(out)])
    return out / "checkpoint_seed0.json"


def slice_scenes(monkeypatch, pick):
    """Make ``qnav eval`` run ``build_scenes(...)[pick]``; returns the list of
    EnvConfigs it evaluated under."""
    build_scenes, evaluate_policy, seen = cli.build_scenes, agent.evaluate_policy, []

    def evaluate(model, scenes, env_config):
        seen.append(env_config)
        return evaluate_policy(model, scenes, env_config)

    monkeypatch.setattr(cli, "build_scenes", lambda scene_spec: build_scenes(scene_spec)[pick])
    monkeypatch.setattr(agent, "evaluate_policy", evaluate)
    return seen


# every 81st of scenario 1's 1215 test scenes: 15 scenes across its speeds and distances
EVAL_SLICE = slice(None, None, 81)


def test_cmd_eval(tmp_path, monkeypatch):
    ckpt = trained_checkpoint(tmp_path)
    slice_scenes(monkeypatch, EVAL_SLICE)
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--split", "test",
                     "--scenarios", "1", "--out", str(out)])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0 <= metrics["safety_index"] <= metrics["n_scenarios"]
    rows = read_csv(out / "outcomes.csv")
    assert len(rows) > 0
    assert {"scene", "scenario", "outcome", "return"} <= set(rows[0])


def test_cmd_eval_uses_training_env_config(tmp_path, monkeypatch):
    """A checkpoint trained with a non-default EnvConfig evaluates under that
    EnvConfig (the default one gives a different observation length)."""
    path = write_config(tmp_path, env={"k_pedestrians": 2})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
    ckpt = out / "checkpoint_seed0.json"
    assert agent.load_checkpoint(str(ckpt))[1] == env.EnvConfig(k_pedestrians=2)
    seen = slice_scenes(monkeypatch, slice(3))
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--scenarios", "1",
                     "--out", str(tmp_path / "eval")])
    assert code == 0
    assert seen == [env.EnvConfig(k_pedestrians=2)]
    assert len(read_csv(tmp_path / "eval" / "outcomes.csv")) == 3
    # a checkpoint without a recorded EnvConfig loads under the default one,
    # which this model's input length does not fit
    payload = json.loads(ckpt.read_text())
    del payload["env"]
    ckpt.write_text(json.dumps(payload))
    with pytest.raises(UsageError, match="obs_dim"):
        agent.load_checkpoint(str(ckpt))
    model = agent.ActorCriticModel(agent.AgentConfig(**SMOKE_AGENT), env.observation_dim(),
                                   agent.rng_streams(0)["init"])
    agent.save_checkpoint(model, str(ckpt))
    payload = json.loads(ckpt.read_text())
    del payload["env"]
    ckpt.write_text(json.dumps(payload))
    assert agent.load_checkpoint(str(ckpt))[1] == env.EnvConfig()


def test_cmd_eval_missing_checkpoint(tmp_path):
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "none.json")])
    assert code == cli.EXIT_CONFIG


def test_cmd_eval_reads_the_checkpoint_once(tmp_path, monkeypatch):
    """The model and the EnvConfig it was trained under come from one read
    and parse of the checkpoint file."""
    ckpt = trained_checkpoint(tmp_path)
    slice_scenes(monkeypatch, slice(2))
    read, calls = agent._read_checkpoint, []
    monkeypatch.setattr(agent, "_read_checkpoint", lambda path: calls.append(path) or read(path))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--scenarios", "1",
                     "--out", str(tmp_path / "eval")]) == 0
    assert calls == [str(ckpt)]


def test_load_config_rejects_repeated_seeds_naming_the_seed(tmp_path):
    """A repeated seed would train twice and overwrite its own curve and
    checkpoint: it fails at load, and the message names it."""
    path = write_config(tmp_path, seeds=[3, 7, 3])
    with pytest.raises(UsageError, match="seeds lists 3 more than once"):
        cli.load_config(str(path))


def test_cmd_eval_unknown_scenario_exit_2_before_output(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--scenarios", "9", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


def test_cmd_eval_checkpoint_input_length_mismatch_exit_2_before_output(tmp_path):
    """A checkpoint whose recorded EnvConfig gives another observation length
    than the model's input fails when it loads: exit 2, nothing written."""
    ckpt = trained_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    payload["env"]["k_pedestrians"] = 3
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("section,key,value", [
    ("env", "wheel_count", 4),
    ("config", "optimizer", "sgd"),
    ("env", "max_steps", "many"),
], ids=["unknown-env-key", "unknown-config-key", "non-numeric-env-max-steps"])
@pytest.mark.parametrize("command", ["eval", "analyze-fim"])
def test_malformed_checkpoint_exit_2_before_output(tmp_path, command, section, key, value):
    """A checkpoint whose recorded configs do not build is misuse: exit 2,
    nothing written, from both commands that load checkpoints."""
    ckpt = trained_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    payload[section][key] = value
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "out"
    load = ["eval", "--checkpoint"] if command == "eval" else ["analyze", "--fim"]
    assert cli.main([*load, str(ckpt), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(b'{"config": "\xff"}'),
    lambda path: path.mkdir(),
    lambda path: None,
], ids=["not-utf-8", "directory", "missing"])
@pytest.mark.parametrize("command", ["eval", "analyze-fim"])
def test_unreadable_checkpoint_exit_2_naming_the_file(tmp_path, capsys, command, make):
    """A checkpoint path that cannot be read as text is misuse: exit 2 with
    the path in the message, nothing written."""
    ckpt = tmp_path / "checkpoint.json"
    make(ckpt)
    out = tmp_path / "out"
    load = ["eval", "--checkpoint"] if command == "eval" else ["analyze", "--fim"]
    assert cli.main([*load, str(ckpt), "--out", str(out)]) == cli.EXIT_CONFIG
    assert str(ckpt) in capsys.readouterr().err
    assert not out.exists()


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _config_entry(key, value):
    def edit(payload):
        payload["config"][key] = value
        return payload
    return edit


def _first_param_data(change):
    def edit(payload):
        entry = next(iter(payload["params"].values()))
        entry["data"] = change(entry["data"])
        return payload
    return edit


@pytest.mark.parametrize("edit", [
    _without("config"),
    _without("obs_dim"),
    _without("params"),
    lambda payload: [payload],
    _first_param_data(lambda data: ["x"] + data[1:]),
    _first_param_data(lambda data: data[:-1]),
    _config_entry("entropy_bonus", False),
    _config_entry("noise", {"gate_error": None, "depolarizing": None, "granularity": "gate"}),
], ids=["no-config", "no-obs-dim", "no-params", "not-an-object", "non-numeric-data",
        "data-not-fitting-shape", "entropy-penalty", "gate-noise-granularity"])
def test_cmd_eval_malformed_checkpoint_payload_exit_2_before_output(tmp_path, edit):
    """A file that is no checkpoint of the expected layout is misuse too."""
    ckpt = trained_checkpoint(tmp_path)
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_cmd_eval_of_a_checkpoint_recording_fixed_settings(tmp_path, monkeypatch):
    """A checkpoint that records entropy_bonus true and a sublayer noise
    granularity, as older versions wrote each one, loads and evaluates to
    the same outcomes."""
    config = agent.AgentConfig(n_qubits=2, n_layers=1, gradient_mode="param-shift",
                               noise=NoiseSpec(gate_error=0.01, depolarizing=0.02),
                               **{**SMOKE_AGENT, "critic": "quantum"})
    model = agent.ActorCriticModel(config, env.observation_dim(), agent.rng_streams(0)["init"])
    ckpt = tmp_path / "checkpoint.json"
    agent.save_checkpoint(model, str(ckpt))
    payload = json.loads(ckpt.read_text())
    payload["config"]["entropy_bonus"] = True
    payload["config"]["noise"]["granularity"] = "sublayer"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    assert agent.load_checkpoint(str(old))[0].config == config
    slice_scenes(monkeypatch, slice(5))
    for path, out in ((ckpt, "e1"), (old, "e2")):
        assert cli.main(["eval", "--checkpoint", str(path), "--scenarios", "1",
                         "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "e1" / "outcomes.csv").read_bytes()
            == (tmp_path / "e2" / "outcomes.csv").read_bytes())


# the env section of a checkpoint written while EnvConfig held the road's
# scales, as JSON wrote it, with the planner's map_resolution and wheelbase
# of the versions before that
OLD_ENV_SECTION = {
    "dt": 0.1, "car_length": 4.5, "car_width": 2.0, "ped_radius": 0.3, "near_miss_margin": 1.5,
    "sense_radius": 50.0, "speed_limit": 13.88888888888889, "speed_step": 1.3888888888888888,
    "v_max": 16.666666666666668, "goal_tol": 2.0, "max_steps": 500, "k_pedestrians": 4,
    "road_y_min": -3.0, "road_y_max": 7.0, "sidewalk_width": 3.0, "road_x_min": -10.0,
    "road_x_max": 112.0, "oncoming_lane_y": 4.0, "oncoming_speed": 8.0,
    "map_resolution": 1.0, "wheelbase": 2.5,
}
# the retired keys that became env constants
ENV_CONSTANT_KEYS = sorted(set(OLD_ENV_SECTION) - {"max_steps", "k_pedestrians", "road_x_min",
                                                   "map_resolution", "wheelbase"})


def test_cmd_eval_of_a_checkpoint_recording_retired_env_keys(tmp_path, monkeypatch):
    """A checkpoint whose env section records every key older versions wrote
    loads under the EnvConfig without them and evaluates to the metrics and
    outcomes of one that does not record them. Each env constant holds the
    value its field recorded; map_resolution, wheelbase and road_x_min load
    at any value."""
    assert {key: getattr(env, key.upper()) for key in ENV_CONSTANT_KEYS} == {
        key: OLD_ENV_SECTION[key] for key in ENV_CONSTANT_KEYS}
    ckpt = trained_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    assert payload["env"] == {"max_steps": 500, "k_pedestrians": 4}
    payload["env"] = OLD_ENV_SECTION
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    payload["env"] = {**OLD_ENV_SECTION, "map_resolution": 0.5, "wheelbase": 3.0,
                      "road_x_min": 200.0}
    older = tmp_path / "older.json"
    older.write_text(json.dumps(payload))
    for path in (old, older):
        assert agent.load_checkpoint(str(path))[1] == env.EnvConfig()
    slice_scenes(monkeypatch, slice(5))
    outputs = []
    for path in (ckpt, old, older):
        out = tmp_path / ("eval_" + path.stem)
        assert cli.main(["eval", "--checkpoint", str(path), "--scenarios", "1",
                         "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("metrics.json", "outcomes.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_cmd_eval_of_a_checkpoint_with_an_env_constant_changed_exit_2(tmp_path, capsys):
    """A checkpoint recording a retired env key off the constant it became
    (dt 0.05, say) was trained on another road: exit 2 naming the key,
    nothing written."""
    ckpt = trained_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    out = tmp_path / "eval"
    for key in ENV_CONSTANT_KEYS:
        payload["env"] = {**OLD_ENV_SECTION, key: OLD_ENV_SECTION[key] / 2}
        ckpt.write_text(json.dumps(payload))
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"{key} {OLD_ENV_SECTION[key] / 2!r} is no longer supported" in capsys.readouterr().err
        assert not out.exists()


def test_cmd_eval_deterministic(tmp_path, monkeypatch):
    ckpt = trained_checkpoint(tmp_path)
    slice_scenes(monkeypatch, EVAL_SLICE)
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        cli.main(["eval", "--checkpoint", str(ckpt), "--scenarios", "1",
                  "--out", str(out)])
        outs.append((out / "metrics.json").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# analyze


def test_cmd_analyze_curves(tmp_path):
    path = write_config(tmp_path, seeds=[0, 1])
    out = tmp_path / "run"
    cli.main(["train", "--config", str(path), "--out", str(out)])
    an = tmp_path / "an"
    code = cli.main(["analyze", "--runs", str(out), "--out", str(an),
                     "--smooth-window", "2"])
    assert code == 0
    aucs = read_csv(an / "auc.csv")
    assert [row["run"] for row in aucs[-2:]] == ["mean", "std"]
    assert len(aucs) == 4  # 2 runs + mean + std
    stats = read_csv(an / "curve_stats.csv")
    assert len(stats) == 2


def test_cmd_analyze_fim(tmp_path):
    path = write_config(tmp_path, agent={**SMOKE_AGENT, "critic": "quantum",
                                         "episodes": 1})
    out = tmp_path / "run"
    cli.main(["train", "--config", str(path), "--out", str(out)])
    an = tmp_path / "fim"
    code = cli.main(["analyze", "--fim", str(out / "checkpoint_seed0.json"),
                     "--theta-samples", "4", "--inputs", "20", "--out", str(an)])
    assert code == 0
    report = json.loads((an / "fim.json").read_text())
    assert 0.0 < report["effective_dim"] <= report["d"]
    assert 0.0 < report["normalized_effective_dim"] <= 1.0
    spectrum = read_csv(an / "eigenspectrum.csv")
    assert len(spectrum) == min(report["d"], 50)
    eigs = [float(row["eigenvalue"]) for row in spectrum]
    assert eigs == sorted(eigs, reverse=True)


def test_cmd_analyze_no_inputs(tmp_path):
    code = cli.main(["analyze", "--runs", str(tmp_path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("flags", [[], ["--runs"]], ids=["no-flags", "empty-runs"])
def test_cmd_analyze_with_nothing_to_analyze_exit_2_before_output(tmp_path, capsys, flags):
    """Neither curves nor a checkpoint: exit 2 before the output directory
    is made, as there is nothing to write into it."""
    an = tmp_path / "an"
    assert cli.main(["analyze", *flags, "--out", str(an)]) == cli.EXIT_CONFIG
    assert "nothing to analyze" in capsys.readouterr().err
    assert not an.exists()


@pytest.mark.parametrize("flag,value", [
    ("--theta-samples", "1"),
    ("--inputs", "0"),
    ("--smooth-window", "0"),
    ("--seed", "-1"),
])
def test_cmd_analyze_bad_numbers_exit_2_before_output(tmp_path, flag, value):
    """Exit 2 and no output directory; the run has a curve CSV and a
    checkpoint, so every flag is in use."""
    ckpt = trained_checkpoint(tmp_path)
    an = tmp_path / "an"
    code = cli.main(["analyze", "--runs", str(ckpt.parent), "--fim", str(ckpt),
                     flag, value, "--out", str(an)])
    assert code == cli.EXIT_CONFIG
    assert not an.exists()


@pytest.mark.parametrize("data", [b"episode,return\n0,1.5\n1,abc\n", b"episode,reward\n0,1.5\n",
                                  b"episode,return\n0,1.5\xff\n"],
                         ids=["non-numeric-return", "no-return-column", "not-utf-8"])
def test_cmd_analyze_bad_curve_exit_2_naming_the_file(tmp_path, capsys, data):
    run = tmp_path / "run"
    run.mkdir()
    curve = run / "curve_seed0.csv"
    curve.write_bytes(data)
    with pytest.raises(UsageError, match=re.escape(str(curve))):
        cli._read_curve(curve)
    an = tmp_path / "an"
    assert cli.main(["analyze", "--runs", str(run), "--out", str(an)]) == cli.EXIT_CONFIG
    assert str(curve) in capsys.readouterr().err
    assert not an.exists()


# ---------------------------------------------------------------------------
# scenes


def test_cmd_scenes(tmp_path):
    out = tmp_path / "scenes.jsonl"
    code = cli.main(["scenes", "--split", "train", "--scenarios", "1",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 615
    first = json.loads(lines[0])
    assert first["scenario"] == 1
    assert first["car_goal"] == [100.0, 0.0]


@pytest.mark.parametrize("scenarios", ["9", "1,x"])
def test_cmd_scenes_unknown_scenario_exit_2_before_output(tmp_path, scenarios):
    out = tmp_path / "scenes.jsonl"
    code = cli.main(["scenes", "--scenarios", scenarios, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


# ---------------------------------------------------------------------------
# errors and exit codes


def test_package_defines_two_exception_classes():
    """Misuse is qnav.UsageError, and qnav.planner, which no run reaches any
    more, keeps its PlanningError; no module defines an exception class of
    its own beyond these."""
    modules = [qnav] + [importlib.import_module(f"qnav.{info.name}")
                        for info in pkgutil.iter_modules(qnav.__path__)]
    defined = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == module.__name__}
    assert defined == {UsageError, planner.PlanningError}


def short_curve_run(tmp_path, monkeypatch):
    """analyze over a one-row curve: misuse that reaches qnav.analysis."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "curve_seed0.csv").write_text("episode,return\n0,1.0\n")
    return ["analyze", "--runs", str(run), "--out", str(tmp_path / "an")]


def bad_noise_checkpoint(tmp_path, monkeypatch):
    """eval of a checkpoint whose recorded noise qnav.qsim rejects."""
    ckpt = trained_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    payload["config"]["noise"] = {"gate_error": -0.01}
    ckpt.write_text(json.dumps(payload))
    return ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")]


def injected_failure(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(agent, "train_run", fail)
    return ["train", "--config", str(write_config(tmp_path))]


@pytest.mark.parametrize("make_argv,code", [
    (short_curve_run, cli.EXIT_CONFIG),
    (bad_noise_checkpoint, cli.EXIT_CONFIG),
    (injected_failure, cli.EXIT_RUNTIME),
], ids=["analysis-misuse", "qsim-misuse", "injected-runtime-error"])
def test_main_maps_usage_error_to_2_and_the_rest_to_3(tmp_path, monkeypatch, capsys,
                                                      make_argv, code):
    argv = make_argv(tmp_path, monkeypatch)
    capsys.readouterr()
    assert cli.main(argv) == code
    prefix = "configuration error: " if code == cli.EXIT_CONFIG else "error: "
    assert capsys.readouterr().err.startswith(prefix)
