"""Actor-critic training: critics, losses, gradients, runs, evaluation."""

import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
import qnav.agent as agent
import qnav.cli as cli
import qnav.env as env
import qnav.nn as nn
import qnav.qsim as qsim
from qnav import UsageError
from qnav.agent import ActorCriticModel, AgentConfig
from qnav.qsim import NoiseSpec

SMALL = dict(lstm_hidden=6, encoder_out=8, max_steps=60)


def small_model(critic="quantum", seed=3, **kwargs):
    config = AgentConfig(critic=critic, n_qubits=2, n_layers=1, seed=seed,
                         **{**SMALL, **kwargs})
    streams = agent.rng_streams(seed)
    return config, ActorCriticModel(config, env.observation_dim(), streams["init"]), streams


def small_episode(critic="quantum", seed=3, **kwargs):
    config, model, streams = small_model(critic, seed, **kwargs)
    scene = env.make_scene(1, 20.0, 1.2)
    trace = agent.run_episode(model, scene, env.EnvConfig(),
                              policy_rng=streams["policy"])
    returns = agent.discounted_returns(trace.rewards, config.gamma, trace.bootstrap)
    return config, model, trace, returns


def replay(model, observations, steps=None):
    """The trunk forward pass of these observation rows, into rows of their
    own (``steps`` of them: one per row by default)."""
    rows = agent.TraceRows(model, steps or len(observations))
    d = model.obs_dim
    for t, row in enumerate(observations):
        model.trunk_forward(row[:d], row[d:], rows, t)
    return rows


def replayed_values(model, trace):
    """Critic values of the episode's hidden states under the current parameters."""
    return model.critic.value(replay(model, trace.obs).hidden[1:])


# ---------------------------------------------------------------------------
# configuration and parameter counts


def test_config_validation():
    with pytest.raises(UsageError):
        AgentConfig(critic="tabular")
    with pytest.raises(UsageError):
        AgentConfig(gradient_mode="autodiff")
    with pytest.raises(UsageError):
        AgentConfig(gamma=1.5)
    with pytest.raises(UsageError):
        AgentConfig(entropy_weight=-0.1)
    with pytest.raises(UsageError, match="seed"):
        AgentConfig(seed=-1)
    with pytest.raises(UsageError):
        AgentConfig(noise=NoiseSpec(depolarizing=0.1), gradient_mode="backprop")
    # depolarizing noise is fine with parameter-shift gradients
    AgentConfig(noise=NoiseSpec(depolarizing=0.1), gradient_mode="param-shift")
    for bad in (dict(n_qubits=0), dict(n_qubits=13), dict(n_layers=0)):
        with pytest.raises(UsageError):
            AgentConfig(critic="quantum", **bad)
    AgentConfig(critic="classical", n_qubits=0)  # the circuit shape is unused


COUNT_FIELDS = ("episodes", "max_steps", "seed", "n_qubits", "n_layers", "lstm_hidden",
                "encoder_hidden", "encoder_out")


@pytest.mark.parametrize("name", COUNT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
def test_config_rejects_non_integer_counts(name, value):
    """Every count is an int: 2.5 episodes would fail mid-run and a max_steps
    of 2.5 would size the rollout's rows; a bool is no count either."""
    with pytest.raises(UsageError, match=f"{name} must be an integer"):
        AgentConfig(**{name: value})


@pytest.mark.parametrize("name", ["gamma", "entropy_weight", "lr", "max_grad_norm"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_floats(name, value):
    """`lr >= 0` lets infinity through, and the first Adam step then makes
    every parameter NaN."""
    with pytest.raises(UsageError, match=f"{name} must be a finite number"):
        AgentConfig(**{name: value})


def test_config_rejects_nan_entropy_weight():
    """NaN fails every comparison, so `x < 0` would let it through to NaN losses."""
    with pytest.raises(UsageError):
        AgentConfig(entropy_weight=float("nan"))
    for bad in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(UsageError):
            AgentConfig(critic="quantum", gradient_mode="param-shift",
                        noise=NoiseSpec(gate_error=bad))


@pytest.mark.parametrize("n,layers,total", [
    (4, 1, 29), (4, 2, 53), (4, 3, 77),
    (6, 1, 31), (6, 2, 55), (6, 3, 79),
])
def test_quantum_critic_param_table(n, layers, total):
    config = AgentConfig(critic="quantum", n_qubits=n, n_layers=layers)
    model = ActorCriticModel(config, env.observation_dim(), np.random.default_rng(0))
    assert model.critic_param_count == total


def test_classical_critic_param_count():
    config = AgentConfig(critic="classical")
    model = ActorCriticModel(config, env.observation_dim(), np.random.default_rng(0))
    assert model.critic_param_count == 2305


def test_critic_params_shared_with_model():
    _, model, _ = small_model()
    model.params["critic.b"][0] = 4.25
    assert model.critic.params["b"][0] == 4.25
    assert model.flat[-1] == 4.25


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_params_are_views_of_one_flat_vector(critic):
    """Every named parameter, every layer view and every critic view shares
    memory with model.flat; the critic owns its contiguous tail."""
    _, model, _ = small_model(critic)
    assert model.flat.dtype == np.float64 and model.flat.flags["C_CONTIGUOUS"]
    assert model.param_count == model.flat.size
    assert sum(p.size for p in model.params.values()) == model.flat.size
    pos = 0
    for name, p in model.params.items():
        assert np.shares_memory(p, model.flat), name
        np.testing.assert_array_equal(p.reshape(-1), model.flat[pos:pos + p.size])
        pos += p.size
    layer_views = [model.enc1, model.enc2, model.lstm, model.actor]
    for view in [v for layer in layer_views for v in layer.values()]:
        assert np.shares_memory(view, model.flat)
    assert model.critic_flat.size == model.critic_param_count
    assert model.critic_flat.base is model.flat
    names = [n for n in model.params if n.startswith("critic.")]
    assert list(model.params)[-len(names):] == names
    for key, view in model.critic.params.items():
        assert np.shares_memory(view, model.critic_flat), key
        np.testing.assert_array_equal(view, model.params[f"critic.{key}"])
    model.flat[:] = np.arange(model.flat.size)
    assert model.enc1["W"][0, 0] == 0.0
    assert model.critic_flat[0] == model.flat.size - model.critic_param_count


def test_quantum_critic_constant_readout():
    _, model, _ = small_model()
    model.params["critic.w"][:] = 0.0
    model.params["critic.b"][0] = 1.5
    h = np.random.default_rng(0).uniform(-1, 1, size=6)
    assert model.critic.value(h) == pytest.approx(1.5)


def test_quantum_critic_all_ones_expectations():
    config = AgentConfig(critic="quantum", n_qubits=4, n_layers=1, lstm_hidden=32)
    model = ActorCriticModel(config, env.observation_dim(), np.random.default_rng(0))
    model.params["critic.theta"][:] = 0.0
    model.params["critic.w"][:] = 1.0
    model.params["critic.b"][0] = 0.0
    assert model.critic.value(np.zeros(32)) == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# returns and losses


def test_discounted_returns_examples():
    assert agent.discounted_returns([3.0], 0.9) == [3.0]
    assert agent.discounted_returns([1.0, 1.0], 0.5) == [1.5, 1.0]
    assert agent.discounted_returns([2.0, -1.0, 4.0], 0.0) == [2.0, -1.0, 4.0]
    out = agent.discounted_returns([1.0, 1.0], 0.5, bootstrap=2.0)
    assert out == [2.0, 2.0]
    with pytest.raises(UsageError):
        agent.discounted_returns([1.0], 1.5)


def test_return_recursion_property():
    rng = np.random.default_rng(7)
    rewards = list(rng.normal(size=30))
    gamma = 0.97
    returns = agent.discounted_returns(rewards, gamma, bootstrap=0.5)
    for t in range(len(rewards) - 1):
        assert returns[t] - gamma * returns[t + 1] == pytest.approx(rewards[t], abs=1e-12)


def test_losses_zero_advantage():
    j_v, j_pi = agent.losses([1.0, 2.0], [1.0, 2.0], [-0.1, -0.2], [0.5, 0.5],
                             entropy_weight=0.0)
    assert j_v == 0.0
    assert j_pi == 0.0


def test_losses_single_step_example():
    j_v, j_pi = agent.losses([0.5], [1.0], [math.log(0.5)], [0.0],
                             entropy_weight=0.0)
    assert j_v == pytest.approx(0.25)
    assert j_pi == pytest.approx(math.log(0.5) * 0.5, abs=1e-4)
    assert j_pi == pytest.approx(-0.3466, abs=1e-4)
    # the entropy term is a bonus: it adds entropy_weight * H to the objective
    j_pi_bonus = agent.losses([0.5], [1.0], [math.log(0.5)], [0.7], entropy_weight=0.01)[1]
    assert j_pi_bonus - j_pi == pytest.approx(0.007)


def test_losses_length_mismatch():
    with pytest.raises(UsageError):
        agent.losses([1.0], [1.0, 2.0], [0.0], [0.0], 0.0)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_modes_agree_quantum():
    """Backprop-through-simulation equals parameter-shift on a real episode;
    the mode comes from the model's config."""
    config, model, trace, returns = small_episode()
    assert config.gradient_mode == "backprop"
    g_bp, j_v, j_pi = agent.episode_gradients(model, trace, returns)
    model.config = dataclasses.replace(config, gradient_mode="param-shift")
    g_ps, j_v2, j_pi2 = agent.episode_gradients(model, trace, returns)
    assert j_v == pytest.approx(j_v2, abs=1e-9)
    assert j_pi == pytest.approx(j_pi2, abs=1e-9)
    assert g_bp.shape == g_ps.shape == model.flat.shape
    np.testing.assert_allclose(g_bp, g_ps, atol=1e-6)


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_gradients_match_finite_differences(critic):
    config, model, trace, returns = small_episode(critic)
    advantages = [g - v for g, v in zip(returns, replayed_values(model, trace))]
    grad, _, _ = agent.episode_gradients(model, trace, returns)
    grads = nn.named(nn.views(grad, model.layers))

    def loss():
        return oracles.replay_loss(model, trace, returns, advantages=advantages)

    subset = {k: model.params[k] for k in grads
              if k.startswith("critic.") or k in ("actor.b", "lstm.b", "enc1.b", "enc2.b")}
    err = oracles.finite_diff_check(subset, loss, {k: grads[k] for k in subset})
    assert err < 1e-5


def test_policy_term_detached_from_critic():
    """The policy objective, with frozen advantages, has zero critic gradient."""
    config, model, trace, returns = small_episode()
    advantages = [g - v for g, v in zip(returns, replayed_values(model, trace))]

    def policy_loss():
        t = trace.steps
        total = 0.0
        rows = replay(model, trace.obs)
        for logits, action, adv in zip(rows.logits, trace.actions, advantages):
            probs, _, entropy = nn.softmax_logs(logits)
            total += math.log(probs[action]) * adv + config.entropy_weight * entropy
        return total / t

    theta = model.params["critic.theta"]
    base = policy_loss()
    h_step = 1e-5
    for idx in (0, theta.size - 1):
        orig = theta[idx]
        theta[idx] = orig + h_step
        up = policy_loss()
        theta[idx] = orig - h_step
        down = policy_loss()
        theta[idx] = orig
        assert (up - down) / (2 * h_step) == pytest.approx(0.0, abs=1e-12)
    assert policy_loss() == base


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_critic_batch_rows_match_single_calls(critic):
    """A (T, hidden) batch returns, row by row, what T single calls return;
    for the classical critic, bit for bit."""
    _, model, _ = small_model(critic)
    hidden = np.random.default_rng(8).uniform(-1, 1, size=(5, 6))
    modes = ("backprop", "param-shift") if critic == "quantum" else ("backprop",)
    tol = 1e-12 if critic == "quantum" else 0.0
    for mode in modes:
        values, grads, dvdh = model.critic.value_and_grads(hidden, mode=mode)
        assert values.shape == (5,) and dvdh.shape == (5, 6)
        for t, h in enumerate(hidden):
            value, single, dh = model.critic.value_and_grads(h, mode=mode)
            assert isinstance(value, float)
            assert values[t] == pytest.approx(value, rel=0, abs=tol)
            np.testing.assert_allclose(dvdh[t], dh, rtol=0, atol=tol)
            assert set(grads) == set(single)
            for key, g in single.items():
                assert grads[key][t].shape == g.shape
                np.testing.assert_allclose(grads[key][t], g, rtol=0, atol=tol)
            assert model.critic.value(h) == pytest.approx(value, rel=0, abs=tol)
        np.testing.assert_allclose(model.critic.value(hidden), values, rtol=0, atol=tol)


def test_classical_critic_batch_is_one_pass(monkeypatch):
    """A (T, hidden) classical critic call runs each dense layer once."""
    _, model, _ = small_model("classical")
    calls = []
    dense_forward = nn.dense_forward
    monkeypatch.setattr(nn, "dense_forward", lambda p, x: calls.append(x.shape) or dense_forward(p, x))
    model.critic.value_and_grads(np.random.default_rng(8).uniform(-1, 1, size=(5, 6)))
    assert calls == [(5, 6), (5, 64)]


def test_classical_critic_training_route_holds_no_per_row_weight_gradient():
    """With the loss gradient as upstream, the classical critic sums its
    d1.W gradient as one product: at 500 rows, the default max_steps, the
    traced peak stays far below the 8.2 MB of a per-row (500, 64, 32) one."""
    config = AgentConfig(critic="classical")
    model = ActorCriticModel(config, env.observation_dim(), np.random.default_rng(0))
    hidden = np.random.default_rng(8).uniform(-1, 1, size=(500, config.lstm_hidden))
    returns = np.random.default_rng(9).normal(size=500)
    tracemalloc.start()
    try:
        _, grads, dh = model.critic.value_and_grads(
            hidden, upstream=lambda values: 2.0 * (values - returns) / 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads["d1.W"].shape == (64, config.lstm_hidden) and dh.shape == hidden.shape
    assert peak < 4_000_000


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_episode_gradients_reuse_the_rollout(critic, monkeypatch):
    """The gradient runs no trunk forward pass: it backpropagates through
    the rows the training rollout wrote."""
    config, model, trace, returns = small_episode(critic)
    assert len(trace.hidden) == len(trace.logits) == trace.steps
    expected, _, _ = agent.episode_gradients(model, trace, returns)
    calls = []
    trunk_forward = model.trunk_forward
    monkeypatch.setattr(model, "trunk_forward",
                        lambda *a: calls.append(1) or trunk_forward(*a))
    monkeypatch.setattr(nn, "softmax_logs", None)
    grad, _, _ = agent.episode_gradients(model, trace, returns)
    assert calls == []
    np.testing.assert_array_equal(grad, expected)


def test_greedy_trace_records_no_forward_pass():
    """Evaluation never backpropagates, so a greedy rollout keeps no hidden
    states, logits, log-probabilities or entropies and makes no training
    rows, and its trace cannot be differentiated."""
    config, model, streams = small_model("classical")
    scene = env.make_scene(1, 20.0, 1.2)
    trace = agent.run_episode(model, scene, env.EnvConfig(), greedy=True)
    assert trace.steps == len(trace.actions) == len(trace.rewards) > 0
    assert trace.logps == [] and trace.entropies == []
    assert trace.rows is None and model._training_rows is None
    with pytest.raises(UsageError, match="no forward pass"):
        trace.hidden
    returns = agent.discounted_returns(trace.rewards, config.gamma)
    with pytest.raises(UsageError, match="no forward pass"):
        agent.episode_gradients(model, trace, returns)


def test_greedy_rollouts_run_the_forward_pass_of_full_rows(monkeypatch):
    """A greedy rollout writes each step into one row in turn. Over scenes
    rolled out one after another, every step's logits are bit for bit those
    of the scene's observations replayed into rows of their own from the
    zero state."""
    config, model, _ = small_model("classical", max_steps=7)
    seen = []
    trunk_forward = model.trunk_forward

    def recording(*args):
        h, logits = trunk_forward(*args)
        seen.append(logits.copy())
        return h, logits

    monkeypatch.setattr(model, "trunk_forward", recording)
    traces = [agent.run_episode(model, scene, env.EnvConfig(), greedy=True)
              for scene in scenes_small()[:3]]
    monkeypatch.undo()
    assert len(seen) == sum(trace.steps for trace in traces) > 2 * len(traces)
    expected = np.concatenate([replay(model, trace.obs).logits for trace in traces])
    np.testing.assert_array_equal(np.array(seen), expected)


ROW_NAMES = ("obs", "a1", "x", "gates", "tanh_cell", "logits")
STATE_NAMES = ("hidden", "cell")


def test_recorded_forward_pass_equals_a_replay():
    """The rollout's rows, hidden states, logits, log-probabilities and
    entropies are bit for bit those of replaying its observations, and the
    LSTM vectors of each step those of one nn.lstm_step on fresh arrays: on
    a collision and on a truncated episode, whose bootstrap runs the trunk
    once more after the last step."""
    for episode in ("collision", "truncated"):
        _, model, trace, _ = small_episode("classical", **PARITY_EPISODES[episode])
        assert_recorded_rows_equal_a_replay(model, trace)


def assert_recorded_rows_equal_a_replay(model, trace):
    t_len = trace.steps
    rows = replay(model, trace.obs)
    for name in ROW_NAMES:
        np.testing.assert_array_equal(getattr(trace.rows, name)[:t_len], getattr(rows, name))
    for name in STATE_NAMES:
        np.testing.assert_array_equal(getattr(trace.rows, name)[: t_len + 1], getattr(rows, name))
    np.testing.assert_array_equal(trace.hidden, rows.hidden[1:])
    np.testing.assert_array_equal(trace.logits, rows.logits)
    for t in range(t_len):
        probs, _, entropy = nn.softmax_logs(trace.logits[t])
        assert trace.logps[t] == float(np.log(probs[trace.actions[t]]))
        assert trace.entropies[t] == entropy
        h, _, (*_, i, f, o, g, c, tc) = nn.lstm_step(
            model.lstm, rows.x[t].copy(), rows.hidden[t].copy(), rows.cell[t].copy())
        np.testing.assert_array_equal(np.concatenate([i, f, o, g]), rows.gates[t])
        np.testing.assert_array_equal(c, rows.cell[t + 1])
        np.testing.assert_array_equal(tc, rows.tanh_cell[t])
        np.testing.assert_array_equal(h, rows.hidden[t + 1])


TRUNK_NAMES = ("hidden", "cell", "gates", "tanh_cell", "logits")


def oracle_trunk_rows(model, trace):
    """The TRUNK_NAMES rows of the trace's steps by oracles.trunk_replay."""
    caches, hidden, logits = oracles.trunk_replay(model, trace)
    lstm = [cache[4] for cache in caches]  # (x, h_prev, c_prev, i, f, o, g, c, tc)
    return {"hidden": hidden, "cell": np.array([cl[7] for cl in lstm]),
            "gates": np.array([np.concatenate(cl[3:7]) for cl in lstm]),
            "tanh_cell": np.array([cl[8] for cl in lstm]), "logits": logits}


def test_trunk_steps_equal_the_oracle_in_every_scenario(monkeypatch):
    """Training and greedy rollouts of a default-sized model, on one scene of
    each test scenario, step the trunk with the bits of the whole-array
    oracle in every row the step writes: its matrix-vector products give the
    oracle's bits on each shape the model uses. A greedy rollout keeps no
    rows, so each of its steps is recorded as it runs."""
    config = AgentConfig(critic="classical", seed=3, max_steps=120)
    model = ActorCriticModel(config, env.observation_dim(), agent.rng_streams(3)["init"])
    trunk_forward, seen = model.trunk_forward, []

    def recording(obs_vec, extras, rows, t):
        h, logits = trunk_forward(obs_vec, extras, rows, t)
        *_, gates, tanh_cell, _ = rows.step_views[t % rows.steps]
        c = rows.state_views[(t + 1) % (rows.steps + 1)][1]
        seen.append({name: step_row.copy() for name, step_row
                     in zip(TRUNK_NAMES, (h, c, gates, tanh_cell, logits))})
        return h, logits

    policy_rng = np.random.default_rng(4)
    env_config = env.EnvConfig(max_steps=120)
    for sid in env.TEST_SCENARIOS:
        scene = env.make_scene(sid, 20.0, 1.2)
        trace = agent.run_episode(model, scene, env_config, policy_rng=policy_rng)
        t_len, rows = trace.steps, trace.rows
        got = {"hidden": rows.hidden[1 : t_len + 1], "cell": rows.cell[1 : t_len + 1],
               "gates": rows.gates[:t_len], "tanh_cell": rows.tanh_cell[:t_len],
               "logits": rows.logits[:t_len]}
        want = oracle_trunk_rows(model, trace)
        for name in TRUNK_NAMES:
            assert got[name].tobytes() == want[name].tobytes(), (sid, "training", name)
        seen.clear()
        monkeypatch.setattr(model, "trunk_forward", recording)
        trace = agent.run_episode(model, scene, env_config, greedy=True)
        monkeypatch.undo()
        assert len(seen) == trace.steps > 0
        want = oracle_trunk_rows(model, trace)
        for name in TRUNK_NAMES:
            got = np.array([step[name] for step in seen])
            assert got.tobytes() == want[name].tobytes(), (sid, "greedy", name)


@pytest.mark.parametrize("greedy", [False, True], ids=["training", "greedy"])
def test_warm_trunk_step_allocates_no_array(greedy):
    """A warm trunk_forward step writes into rows made before it and makes
    no array of its own. With every layer 256 wide, any intermediate but the
    3 logits would hold at least 2 KiB, above the peak that the step's views
    and tuples reach."""
    config = AgentConfig(critic="classical", lstm_hidden=256, encoder_hidden=256,
                         encoder_out=256)
    model = ActorCriticModel(config, env.observation_dim(), np.random.default_rng(0))
    _, row = env.reset(env.make_scene(1, 20.0, 1.2))
    d = model.obs_dim
    rows = model._rollout_rows(greedy)
    for t in range(2):
        model.trunk_forward(row[:d], row[d:], rows, t)
    tracemalloc.start()
    try:
        model.trunk_forward(row[:d], row[d:], rows, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048


def test_a_later_training_rollout_makes_a_trace_stale():
    """The model's next training rollout writes over a trace's rows, so the
    earlier trace can no longer be read or differentiated; greedy rollouts
    in between leave it valid, and the next trace reuses the same rows."""
    config, model, streams = small_model("classical", max_steps=5)
    scene = env.make_scene(1, 20.0, 1.2)
    first = agent.run_episode(model, scene, env.EnvConfig(), policy_rng=streams["policy"])
    returns = agent.discounted_returns(first.rewards, config.gamma, first.bootstrap)
    hidden = first.hidden.copy()
    agent.evaluate_policy(model, [scene])
    np.testing.assert_array_equal(first.hidden, hidden)
    agent.episode_gradients(model, first, returns)
    second = agent.run_episode(model, scene, env.EnvConfig(), policy_rng=streams["policy"])
    assert second.rows is first.rows and second.rollout == first.rollout + 1
    for read in (lambda: first.hidden, lambda: first.logits,
                 lambda: agent.episode_gradients(model, first, returns)):
        with pytest.raises(UsageError, match="later training rollout"):
            read()
    agent.episode_gradients(model, second, agent.discounted_returns(
        second.rewards, config.gamma, second.bootstrap))


def test_agent_step_cap_truncates_as_timeout():
    """An episode cut by AgentConfig.max_steps below EnvConfig.max_steps ends
    as a timeout whose bootstrap is the critic value of the next state, and
    the rollout calls the critic for that bootstrap only."""
    config, model, streams = small_model(max_steps=5)
    env_config = env.EnvConfig(max_steps=500)
    scene = env.make_scene(1, 20.0, 1.2)
    calls = []
    value = model.critic.value
    model.critic.value = lambda *a, **k: calls.append(1) or value(*a, **k)
    trace = agent.run_episode(model, scene, env_config, policy_rng=streams["policy"])
    del model.critic.value
    assert trace.steps == 5
    assert trace.outcome == "timeout"
    assert len(calls) == 1

    world, row = env.reset(scene, config=env_config)
    observations = [row]
    for action in trace.actions:
        observations.append(env.step(world, action))
    h = replay(model, observations).hidden[-1]
    assert trace.bootstrap == model.critic.value(h)
    assert trace.bootstrap != 0.0
    returns = agent.discounted_returns(trace.rewards, config.gamma, trace.bootstrap)
    assert returns[-1] == pytest.approx(trace.rewards[-1] + config.gamma * trace.bootstrap)


def test_agent_step_cap_leaves_evaluation_to_the_env():
    """AgentConfig.max_steps truncates training rollouts only: greedy
    evaluation of a model whose agent cap (5) lies below the env's (500)
    gives the per-scene rows of the same parameters under an agent cap of
    500, and runs each scene until the env ends it."""
    _, capped, _ = small_model("classical", max_steps=5)
    _, uncapped, _ = small_model("classical", max_steps=500)
    scenes = scenes_small()[:4]
    _, rows = agent.evaluate_policy(capped, scenes)
    assert rows == agent.evaluate_policy(uncapped, scenes)[1]
    assert all(row["steps"] > 5 for row in rows)
    assert all(row["steps"] == 500 for row in rows if row["outcome"] == "timeout")


def test_episode_gradients_clipped_to_max_norm():
    """With max_grad_norm set, the returned gradient has exactly that norm
    and the direction of the unclipped one."""
    config, model, trace, returns = small_episode("classical")
    raw, _, _ = agent.episode_gradients(model, trace, returns)
    norm = float(np.linalg.norm(raw))
    assert norm > 0.5
    model.config = dataclasses.replace(config, max_grad_norm=0.5)
    clipped, _, _ = agent.episode_gradients(model, trace, returns)
    assert float(np.linalg.norm(clipped)) == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(clipped, raw * (0.5 / norm), rtol=1e-12, atol=0)
    model.config = dataclasses.replace(config, max_grad_norm=10 * norm)
    loose, _, _ = agent.episode_gradients(model, trace, returns)
    np.testing.assert_array_equal(loose, raw)


# "long" runs to 50 steps, the training cap of the benchmark's workloads; the
# policy of seed 0 does not collide before then
PARITY_EPISODES = {"collision": {}, "one-step": {"max_steps": 1}, "truncated": {"max_steps": 5},
                   "long": {"max_steps": 50, "seed": 0}}


@pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("episode", list(PARITY_EPISODES))
@pytest.mark.parametrize("critic,mode", [("quantum", "backprop"), ("quantum", "param-shift"),
                                         ("classical", "backprop")])
def test_batched_gradient_matches_per_step_loop(critic, mode, episode, clip):
    """The batched backward pass gives the gradient and losses of the
    per-step loop in tests/oracles.py, to 1e-12 of the gradient's largest
    entry: on a collision, and on a one-step, a five-step and a 50-step
    truncated episode (all bootstrapped), with and without max_grad_norm."""
    config, model, trace, returns = small_episode(critic, gradient_mode=mode,
                                                  **PARITY_EPISODES[episode])
    if episode == "collision":
        assert trace.outcome == "collision" and trace.steps > 1
    else:
        assert trace.outcome == "timeout" and trace.bootstrap != 0.0
        assert trace.steps == PARITY_EPISODES[episode]["max_steps"]
    if clip:
        raw, _, _ = oracles.episode_gradients(model, trace, returns)
        model.config = dataclasses.replace(
            config, max_grad_norm=0.5 * float(np.linalg.norm(raw)))
    expected, j_v, j_pi = oracles.episode_gradients(model, trace, returns)
    grad, j_v_batched, j_pi_batched = agent.episode_gradients(model, trace, returns)
    scale = float(np.abs(expected).max())
    assert scale > 0.0
    assert float(np.abs(grad - expected).max()) <= 1e-12 * scale
    assert j_v_batched == pytest.approx(j_v, rel=1e-12, abs=0)
    assert j_pi_batched == pytest.approx(j_pi, rel=1e-12, abs=0)


def test_empty_episode_rejected():
    config, model, _ = small_model()
    with pytest.raises(UsageError):
        agent.episode_gradients(model, agent.EpisodeTrace(), [])


# ---------------------------------------------------------------------------
# action selection


def test_select_action_greedy(monkeypatch):
    """A greedy rollout's action is the most probable one, the first of a tie;
    a row whose first maximum stands clear of every earlier logit takes no
    softmax."""
    assert agent.greedy_action(np.array([5.0, 0.0, 0.0])) == 0
    assert agent.greedy_action(np.array([0.0, 5.0, 5.0])) == 1
    assert isinstance(agent.greedy_action(np.array([0.0, 0.0, 5.0])), int)
    monkeypatch.setattr(nn, "softmax_row", None)
    assert agent.greedy_action(np.array([0.1, 0.5, -0.2])) == 1
    assert agent.greedy_action(np.array([-1.0, 2.0, 2.0])) == 1


def test_greedy_action_keeps_the_argmax_of_the_array_route():
    """greedy_action equals np.argmax of the whole-array softmax, for 1 to 8
    actions and rows with non-finite, huge and tied logits: a tie keeps the
    first maximum and a NaN the first NaN. The boundary rows sit on both
    sides of the 1e-9 gap that lets the first maximum skip the softmax."""
    rng = np.random.default_rng(19)
    up, down = np.nextafter(-1e-9, 0.0), np.nextafter(-1e-9, -1.0)
    ulp = np.nextafter(1.0, 2.0)
    tiny = np.nextafter(0.0, 1.0)
    with np.errstate(all="ignore"):
        rows = list(oracles.logit_rows(rng, range(1, 9), 400))
        rows += [np.array(row) for row in (
            [1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [np.inf, np.inf, 0.0], [-np.inf] * 3,
            [1e308, -1e308, 1e308], [0.0, 1e-300, 0.0], [np.nan, 0.0, np.nan],
            # the top two 1 ulp apart
            [1.0, ulp, 0.0], [ulp, 1.0, 0.0], [0.0, 1.0, ulp],
            # gaps of -1e-9 and its neighbours, before and after the maximum
            *([gap, 0.0, -3.0] for gap in (-1e-9, up, down)),
            *([0.0, gap, -3.0] for gap in (-1e-9, up, down)),
            *([3.0 + gap, 3.0, 2.0] for gap in (-1e-9, up, down)),
            # an earlier near-tie and a later exact tie
            [1.0 - 1e-12, 1.0, 1.0], [1.0 - 2e-9, 1.0, 1.0], [1.0, 1.0 - 1e-12, 1.0],
            # signed zeros and subnormal gaps
            [-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-0.0, -0.0], [-tiny, 0.0, tiny],
            [tiny, 0.0], [0.0, tiny], [-tiny, -0.0], [1e-300, 1e-300 + tiny * 4],
            # large magnitudes: the ulp at 1e17 is 16
            [1e17, 1e17 + 16, 1e17 - 16], [1e17 - 16, 1e17, 1e17], [-1e17, 1e17, 0.0],
            [1e308, -1e308], [-1e308, 1e308, 0.0], [1e308, 1e308, -1e308],
            # non-finite logits
            [np.inf, 0.0, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.0, -np.inf, 1.0],
            [np.nan, 0.0, 0.0], [0.0, np.nan], [0.0, 1.0, np.nan], [np.inf, np.nan],
            [-np.inf, np.inf], [np.inf, -np.inf, np.inf])]
        for row in rows:
            assert agent.greedy_action(row) == oracles.select_action(row, greedy=True)[0], row


class FixedDraw:
    """An rng whose every ``random()`` draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sampled_logp_below_the_clip_is_the_log_itself():
    """The sampled log-probability is float(np.log(probs[a])) also where the
    probability lies below the 1e-300 that clips the row of logs: the draw
    0.0 picks the first action of nonzero probability, here a subnormal one
    or one near the clip."""
    rows = [[-745.0, 0.0], [-740.0, 0.0], [-740.0, 0.0, 0.0], [-700.0, 0.0, 0.0],
            [-691.0, 0.0], [-690.0, 0.0], [-np.inf, -744.0, 0.0], [0.0, 0.0, 0.0]]
    below = 0
    for row in map(np.array, rows):
        probs = nn.softmax(row)
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            got = agent.select_action(row, FixedDraw(u))
            assert oracles.same_bits(got, oracles.select_action(row, FixedDraw(u))), (row, u)
            assert oracles.same_bits(got[1], float(np.log(probs[got[0]]))), (row, u)
            below += bool(probs[got[0]] < 1e-300)
    assert below >= 4


def test_select_action_uniform_sampling():
    rng = np.random.default_rng(11)
    counts = np.zeros(3)
    n = 10_000
    for _ in range(n):
        action, logp, entropy = agent.select_action(np.zeros(3), rng=rng)
        counts[action] += 1
        assert logp == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert entropy == pytest.approx(math.log(3), abs=1e-12)
    chi2 = float(((counts - n / 3) ** 2 / (n / 3)).sum())
    assert chi2 < 13.8  # chi-square(2) at the 0.1% level


def test_select_action_logp_matches_softmax():
    _, model, _ = small_model()
    rng = np.random.default_rng(2)
    h = rng.uniform(-1, 1, size=6)
    logits, _ = nn.dense_forward(model.actor, h)
    action, logp, _ = agent.select_action(logits, rng=rng)
    assert logp == pytest.approx(math.log(nn.softmax(logits)[action]), abs=1e-12)


def test_select_action_matches_generator_choice():
    """Same actions and the same rng stream as rng.choice(p=softmax), over
    many seeds and logits from flat to saturated."""
    draws = np.random.default_rng(5)
    for seed in range(200):
        scale = (0.0, 1.0, 10.0, 60.0)[seed % 4]
        logits = draws.normal(size=(40, 3)) * scale
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for row in logits:
            action, _, _ = agent.select_action(row, rng=ours)
            assert action == int(ref.choice(env.N_ACTIONS, p=nn.softmax(row)))
        assert ours.bit_generator.state == ref.bit_generator.state


def test_select_action_keeps_the_draws_of_the_array_route():
    """Sampled actions, log-probabilities and entropies on Python floats
    equal the cumsum/searchsorted route, with the same
    rng draws, for 1 to 8 actions and non-finite or huge logits; a row whose
    probabilities are not finite fails in both."""
    rng = np.random.default_rng(17)
    with np.errstate(all="ignore"):
        for k, row in enumerate(oracles.logit_rows(rng, range(1, 9), 400)):
            ours, ref = np.random.default_rng(k), np.random.default_rng(k)
            try:
                want = oracles.select_action(row, ref)
            except ValueError:
                with pytest.raises(ValueError):
                    agent.select_action(row, ours)
            else:
                assert oracles.same_bits(agent.select_action(row, ours), want), row
            assert ours.bit_generator.state == ref.bit_generator.state


def test_select_action_rejects_non_finite_probabilities():
    """A runtime fault (training diverged), so not a UsageError."""
    with pytest.raises(ValueError) as info:
        agent.select_action(np.array([np.nan, 0.0, 0.0]), rng=np.random.default_rng(0))
    assert not isinstance(info.value, UsageError)


# ---------------------------------------------------------------------------
# training runs


def scenes_small():
    grid = env.SceneGrid((1,), 1.0, 1.2, 0.1, 15.0, 24.0, 1.0)
    return env.generate_scenes(grid=grid)


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_train_run_deterministic(critic):
    scenes = scenes_small()
    config = AgentConfig(critic=critic, n_qubits=2, n_layers=1, episodes=3,
                         seed=5, **SMALL)
    rec1, _ = agent.train_run(config, scenes)
    rec2, _ = agent.train_run(config, scenes)
    assert rec1.returns == rec2.returns
    assert rec1.entropies == rec2.entropies
    assert rec1.outcomes == rec2.outcomes


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_train_run_bytes_do_not_depend_on_kept_memory(critic, monkeypatch):
    """Training writes into the model's kept rows and the simulator's kept
    workspace. A run whose every rollout gets fresh rows and a fresh workspace,
    after a greedy rollout of another scene, records the same bytes and
    ends with the same parameters."""
    scenes = scenes_small()
    config = AgentConfig(critic=critic, n_qubits=2, n_layers=1, episodes=6, seed=4,
                         **{**SMALL, "max_steps": 30})
    record, model = agent.train_run(config, scenes)
    run_episode = agent.run_episode

    def fresh_rollout(model, *args, **kwargs):
        model._training_rows = None
        vars(qsim._retained).clear()
        run_episode(model, scenes[-1], env.EnvConfig(), greedy=True)
        return run_episode(model, *args, **kwargs)

    monkeypatch.setattr(agent, "run_episode", fresh_rollout)
    fresh_record, fresh_model = agent.train_run(config, scenes)
    assert "timeout" in record.outcomes
    assert json.dumps(dataclasses.asdict(fresh_record)) == json.dumps(dataclasses.asdict(record))
    assert fresh_model.flat.tobytes() == model.flat.tobytes()


def test_quantum_train_run_compiles_one_circuit(monkeypatch):
    """The critic compiles its circuit once, on first use, and runs every
    bootstrap value and every adjoint gradient of a run through it."""
    compiled = []
    compile_circuit = qsim.compile_circuit

    def counted(*args, **kwargs):
        compiled.append(compile_circuit(*args, **kwargs))
        return compiled[-1]

    monkeypatch.setattr(qsim, "compile_circuit", counted)
    config = AgentConfig(critic="quantum", n_qubits=2, n_layers=1, episodes=3, seed=4,
                         **{**SMALL, "max_steps": 5})
    model = ActorCriticModel(config, env.observation_dim(env.EnvConfig()),
                             agent.rng_streams(4)["init"])
    assert not compiled  # not in setup
    record, _ = agent.train_run(config, scenes_small(), model=model)
    assert record.outcomes == ["timeout"] * 3  # each reads a bootstrap value
    assert compiled == [model.critic.circuit]


def test_critic_circuit_is_freed_with_its_model():
    """Nothing outside the model keeps its compiled circuit alive."""
    config = AgentConfig(critic="quantum", n_qubits=2, n_layers=1, episodes=1, seed=4,
                         **{**SMALL, "max_steps": 5})
    _, model = agent.train_run(config, scenes_small())
    circuit = weakref.ref(model.critic.circuit)
    del model
    gc.collect()
    assert circuit() is None


def test_train_run_with_noise_deterministic():
    scenes = scenes_small()
    config = AgentConfig(critic="quantum", n_qubits=2, n_layers=1, episodes=3,
                         seed=5, gradient_mode="param-shift",
                         noise=NoiseSpec(gate_error=0.01, depolarizing=0.02),
                         **SMALL)
    rec1, _ = agent.train_run(config, scenes)
    rec2, _ = agent.train_run(config, scenes)
    assert rec1.returns == rec2.returns


def test_entropy_bounded_during_training():
    scenes = scenes_small()
    config = AgentConfig(critic="classical", episodes=5, seed=2, **SMALL)
    record, _ = agent.train_run(config, scenes)
    assert len(record.returns) == 5
    assert all(0.0 <= h <= math.log(3) + 1e-9 for h in record.entropies)


def test_train_run_requires_scenes():
    config = AgentConfig(critic="classical", episodes=1, **SMALL)
    with pytest.raises(UsageError):
        agent.train_run(config, [])


def test_run_record_rows():
    scenes = scenes_small()
    config = AgentConfig(critic="classical", episodes=3, seed=1, **SMALL)
    record, _ = agent.train_run(config, scenes)
    rows = record.to_rows(smooth_window=2)
    assert [row["episode"] for row in rows] == [0, 1, 2]
    assert rows[1]["smoothed_return"] == pytest.approx(
        (record.returns[0] + record.returns[1]) / 2)
    assert set(rows[0]) == {"episode", "return", "smoothed_return", "entropy",
                            "steps", "outcome"}


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_policy_shapes_and_bounds():
    scenes = scenes_small()[:6]
    config, model, _ = small_model("classical")
    metrics, per_scene = agent.evaluate_policy(model, scenes)
    assert len(per_scene) == 6
    assert 0.0 <= metrics.crash_rate <= 100.0
    assert 0.0 <= metrics.near_miss_rate <= 100.0
    assert 0 <= metrics.safety_index <= metrics.n_scenarios
    assert metrics.n_scenarios == 1
    if metrics.time_to_goal is not None:
        assert metrics.time_to_goal > 0.0


def test_evaluate_policy_deterministic():
    scenes = scenes_small()[:4]
    _, model, _ = small_model("classical")
    m1, _ = agent.evaluate_policy(model, scenes)
    m2, _ = agent.evaluate_policy(model, scenes)
    assert m1 == m2


def test_greedy_eval_skips_unread_bootstrap():
    """Greedy evaluation of a quantum model on scenes that time out calls the
    critic zero times; its per-scene rows equal a plain greedy rollout's."""
    config, model, _ = small_model(max_steps=4)
    env_config = env.EnvConfig(max_steps=4)
    scenes = scenes_small()[:3]
    expected = []
    for idx, scene in enumerate(scenes):
        world, row = env.reset(scene, config=env_config)
        rows = agent.TraceRows(model, 1, greedy=True)  # as a greedy rollout's
        d = model.obs_dim
        rewards, near_miss = [], False
        while not world.done:
            _, logits = model.trunk_forward(row[:d], row[d:], rows, len(rewards))
            row = env.step(world, int(np.argmax(nn.softmax(logits))))
            rewards.append(env.compute_reward(world, world.prev_action).total)
            near_miss |= env.NEAR_MISS in world.proximity
        expected.append((idx, world.outcome, len(rewards), float(sum(rewards)), near_miss))
    calls = []
    value = model.critic.value
    model.critic.value = lambda *a, **k: calls.append(1) or value(*a, **k)
    _, per_scene = agent.evaluate_policy(model, scenes, env_config)
    assert calls == []
    assert [row["outcome"] for row in per_scene] == ["timeout"] * 3
    assert [(row["scene"], row["outcome"], row["steps"], row["return"], row["near_miss"])
            for row in per_scene] == expected
    # a training rollout of the same scene still computes its bootstrap
    trace = agent.run_episode(model, scenes[0], env.EnvConfig(),
                              policy_rng=np.random.default_rng(0))
    del model.critic.value
    assert trace.outcome == "timeout" and len(calls) == 1 and trace.bootstrap != 0.0


def test_evaluation_requires_scenes():
    """An empty scene list is misuse, as it is for train_run: there is no
    mean over no episodes."""
    _, model, _ = small_model("classical")
    with pytest.raises(UsageError, match="no scenes"):
        agent.evaluate_policy(model, [])
    with pytest.raises(UsageError, match="no scenes"):
        agent.random_policy_mean_return([], np.random.default_rng(0))


def test_random_policy_baseline_finite():
    scenes = scenes_small()[:4]
    value = agent.random_policy_mean_return(scenes, np.random.default_rng(0))
    assert math.isfinite(value)


def test_random_policy_runs_to_the_env_step_cap(monkeypatch):
    """The env's max_steps, not a count of the baseline's own, ends a
    random-policy episode: a car held at standstill runs all 600 steps of
    EnvConfig(max_steps=600), and the mean is over their rewards."""
    step, rewards = env.step, []

    def brake(world, action):
        row = step(world, env.DECELERATE)
        rewards.append(world.prev_reward)
        return row

    monkeypatch.setattr(env, "step", brake)
    scenes = scenes_small()[:1]
    value = agent.random_policy_mean_return(scenes, np.random.default_rng(0),
                                            env.EnvConfig(max_steps=600))
    assert len(rewards) == 600
    assert value == sum(rewards)


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("critic", ["quantum", "classical"])
def test_checkpoint_round_trip(critic, tmp_path):
    config, model, streams = small_model(critic)
    path = tmp_path / "ckpt.json"
    agent.save_checkpoint(model, str(path))
    loaded, _ = agent.load_checkpoint(str(path))
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])
    h = np.random.default_rng(1).uniform(-1, 1, size=config.lstm_hidden)
    assert loaded.critic.value(h) == model.critic.value(h)


def test_checkpoint_preserves_noise_config(tmp_path):
    config, model, _ = small_model(
        gradient_mode="param-shift", noise=NoiseSpec(gate_error=0.01))
    path = tmp_path / "ckpt.json"
    agent.save_checkpoint(model, str(path))
    loaded, _ = agent.load_checkpoint(str(path))
    assert loaded.config.noise == NoiseSpec(gate_error=0.01)


def test_checkpoint_missing_parameter_rejected(tmp_path):
    _, model, _ = small_model()
    path = tmp_path / "ckpt.json"
    agent.save_checkpoint(model, str(path))
    payload = json.loads(path.read_text())
    del payload["params"]["lstm.b"]
    path.write_text(json.dumps(payload))
    with pytest.raises(UsageError, match="lstm.b"):
        agent.load_checkpoint(str(path))


# ---------------------------------------------------------------------------
# the critic slice (capacity analysis)


def test_critic_param_vector_round_trip():
    """capacity_report writes sampled vectors into the critic slice and puts
    the trained values back unchanged, for both critics."""
    for critic in ("quantum", "classical"):
        _, model, _ = small_model(critic)
        before = model.flat.copy()
        seen = []
        grad_vector = agent.critic_grad_vector

        def spy(c, h, mode="backprop"):
            seen.append(model.critic_flat.copy())
            return grad_vector(c, h, mode)

        agent.critic_grad_vector = spy
        try:
            cli.capacity_report(model, theta_samples=3, n_inputs=5, seed=0)
        finally:
            agent.critic_grad_vector = grad_vector
        np.testing.assert_array_equal(model.flat, before)
        assert len(seen) == 3
        for sample in seen:
            assert sample.shape == (model.critic_param_count,)
            assert not np.array_equal(sample, model.critic_flat)


def test_critic_grad_vector_matches_fd():
    _, model, _ = small_model()
    critic = model.critic
    h = np.random.default_rng(4).uniform(-1, 1, size=6)
    grad = agent.critic_grad_vector(critic, h)
    vec = model.critic_flat.copy()
    num = np.zeros_like(vec)
    for k in range(vec.size):
        for sign in (1.0, -1.0):
            model.critic_flat[...] = vec
            model.critic_flat[k] += sign * 1e-5
            num[k] += sign * critic.value(h)
    num /= 2e-5
    model.critic_flat[...] = vec
    np.testing.assert_allclose(grad, num, atol=1e-6)
