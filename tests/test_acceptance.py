"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line so the suite output doubles as a checklist.

Criteria:
  1  critic parameter-count tables (exact)
  2  default training scene grid of 3690 scenes (exact)
  3  simulator norm/analytic/gradient properties (1e-12 / 1e-6)
  4  depolarizing trajectories vs density-matrix oracle (3 standard errors)
  5  reward branch constants (exact)
  6  classical backward passes vs finite differences (1e-5, 50 shapes)
  7  desk-scale learning improvement for both critics (300 episodes)
  8  multi-seed AUC protocol with bit-identical reproduction
  9  Fisher-information PSD + effective dimension in (0, d], both critics
  10 byte-identical training artifacts end to end, including under noise
"""

import math

import numpy as np
import pytest

import qnav.agent as agent
import qnav.analysis as analysis
import qnav.cli as cli
import qnav.encoding as encoding
import qnav.env as env
import qnav.nn as nn
import qnav.qsim as qsim
from qnav.env import Action, DECELERATE, KMH, MAINTAIN
from qnav.qsim import GateOp, NoiseSpec

import oracles


def report(criterion: int, label: str, ok: bool):
    print(f"[acceptance {criterion:02d}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {criterion} failed: {label}"


# ---------------------------------------------------------------------------


def test_criterion_01_parameter_tables():
    table = {(4, 1): 29, (4, 2): 53, (4, 3): 77, (6, 1): 31, (6, 2): 55, (6, 3): 79}
    ok = True
    for (n, layers), total in table.items():
        layout = encoding.plan_layout(p=32, n=n, layers=layers)
        ok &= layout.param_count + n + 1 == total
        model = agent.ActorCriticModel(
            agent.AgentConfig(critic="quantum", n_qubits=n, n_layers=layers),
            env.observation_dim(), np.random.default_rng(0))
        ok &= model.critic_param_count == total
    classical = agent.ActorCriticModel(
        agent.AgentConfig(critic="classical"), env.observation_dim(),
        np.random.default_rng(0))
    ok &= classical.critic_param_count == 2305
    report(1, "critic parameter totals 29/53/77, 31/55/79 and 2305", ok)


def test_criterion_02_scene_grid():
    scenes = env.generate_scenes("train")
    counts = {}
    for s in scenes:
        counts[s.scenario_id] = counts.get(s.scenario_id, 0) + 1
    ok = (len(scenes) == 3690
          and set(counts) == {1, 3, 4, 5, 6, 8}
          and all(c == 615 for c in counts.values()))
    report(2, "default train grid = 6 x 15 x 41 = 3690 scenes", ok)


def test_criterion_03_simulator_properties():
    rng = np.random.default_rng(2024)
    ok = True
    # (a) norm preservation, (b) single-RY analytic value, one row per angle
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(100, 1))
    ry = [GateOp("ry", 0, source="data", index=0)]
    circuit = qsim.compile_circuit(ry, 1)
    states = qsim._evolve(circuit, thetas, np.zeros(0))  # final states, as run_circuit takes them
    ok &= bool(np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= 1e-12))
    z = qsim.run_circuit(circuit, thetas, np.zeros(0))
    ok &= bool(np.all(np.abs(z - np.cos(thetas)) <= 1e-12))
    # (c) three-way gradient agreement on 100 random reuploading circuits
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 3))
        p = int(rng.integers(1, 6 * n + 1))
        layout = encoding.plan_layout(p, n, layers)
        gates, _ = encoding.build_circuit(layout)
        x = encoding.pad_input(rng.uniform(-1, 1, size=p), layout)
        theta = rng.uniform(-np.pi, np.pi, size=layout.param_count)
        w = rng.uniform(-1, 1, size=n)
        b = float(rng.uniform(-1, 1))
        circuit = qsim.compile_circuit(gates, n)
        state = qsim._evolve(circuit, x[None], theta)[0]
        ok &= abs(np.linalg.norm(state) - 1.0) <= 1e-12
        _, ps, _, _, _ = qsim.param_shift_value_and_grad(circuit, x, theta, w, b)
        _, adj, _, _, _ = qsim.adjoint_value_and_grad(circuit, x, theta, w, b)
        fd = np.zeros_like(theta)
        h = 1e-5
        for k in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd[k] = (qsim.circuit_value(circuit, x, tp, w, b)
                     - qsim.circuit_value(circuit, x, tm, w, b)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(ps - adj))),
                    float(np.max(np.abs(ps - fd))))
    ok &= worst <= 1e-6
    report(3, f"norm/analytic 1e-12; gradient agreement {worst:.2e} <= 1e-6", ok)


def test_criterion_04_depolarizing_oracle():
    rng = np.random.default_rng(7)
    angle = 0.7
    n_traj = 10_000
    ok = True
    for p in (0.1, 0.5, 1.0):
        rho = oracles.dm_depolarize(
            oracles.dm_apply_unitary(oracles.dm_init(1),
                                     oracles.rotation_matrix("ry", angle)),
            0, p, 1)
        exact = oracles.dm_expect_z(rho, 0, 1)
        ok &= abs(exact - (1 - 4 * p / 3) * math.cos(angle)) <= 1e-12
        samples = qsim.run_circuit(
            qsim.compile_circuit([GateOp("ry", 0, angle=angle)], 1, (0,)), np.zeros((n_traj, 0)),
            np.zeros(0), noise=NoiseSpec(depolarizing=p), rng=rng)[:, 0]
        se = samples.std(ddof=1) / math.sqrt(n_traj)
        ok &= abs(samples.mean() - exact) <= 3.0 * max(se, 1e-12)
    report(4, "trajectory mean <Z> matches (1 - 4p/3) <Z> within 3 SE", ok)


def test_criterion_05_reward_branches():
    scene = env.make_scene(1, 20.0, 1.0)
    config = env.EnvConfig()

    def world_with(ped_xy=(1000.0, 1000.0), car_xy=(0.0, 0.0), v=0.0, v_prev=0.0):
        world, _ = env.reset(scene, config=config)
        world.peds[0].x, world.peds[0].y = ped_xy
        world.peds[0].goal = ped_xy
        world.car.x, world.car.y = car_xy
        world.car.v = v
        world.v_prev = v_prev
        return world

    checks = []
    checks.append(env.compute_reward(world_with(car_xy=scene.car_goal),
                                     Action(MAINTAIN, 0.0)).goal == 200.0)
    hit = env.compute_reward(world_with(ped_xy=(0.0, 0.0), v=config.speed_limit),
                             Action(MAINTAIN, 0.0))
    checks.append(hit.hit == pytest.approx(-100.0))
    checks.append(hit.obstacle <= -100.0)
    half = env.compute_reward(world_with(ped_xy=(0.0, 0.0),
                                         v=config.speed_limit / 2.0),
                              Action(MAINTAIN, 0.0))
    checks.append(half.hit == pytest.approx(-50.0))
    near = world_with(ped_xy=(0.0, config.car_width / 2 + 1.0), v=2.0)
    checks.append(env.compute_reward(near, Action(MAINTAIN, 0.0)).near_miss == -10.0)
    fast = world_with(v=55.0 * KMH)
    checks.append(env.compute_reward(fast, Action(MAINTAIN, 0.0)).over_speeding == -10.0)
    far = env.compute_reward(world_with(), Action(MAINTAIN, 0.0))
    checks.append(far.not_goal == pytest.approx(-0.1))
    brake = env.compute_reward(world_with(), Action(DECELERATE, 0.0))
    checks.append(brake.braking == -1.0)
    steer = env.compute_reward(world_with(), Action(MAINTAIN, math.radians(25)))
    checks.append(steer.steer == -1.0)
    composite = env.compute_reward(world_with(), Action(DECELERATE, math.radians(25)))
    checks.append(composite.total == pytest.approx(-2.1))
    report(5, "+200/-100b/-obstacle/-10/-10/-dist/1000/-1/-1 branch constants",
           all(checks))


def test_criterion_06_classical_gradients():
    rng = np.random.default_rng(99)
    worst = 0.0
    for case in range(50):
        kind = case % 4
        if kind == 0:
            in_dim, out_dim = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            params = nn.dense_init(rng, in_dim, out_dim)
            x = rng.normal(size=in_dim)
            dy = rng.normal(size=out_dim)

            def loss():
                y, _ = nn.dense_forward(params, x)
                return float(dy @ y)

            _, cache = nn.dense_forward(params, x)
            _, grads = nn.dense_backward(params, dy, cache)
        elif kind == 1:
            dim = int(rng.integers(2, 10))
            params = nn.layer_norm_init(dim)
            params["gain"] = rng.normal(size=dim)
            params["bias"] = rng.normal(size=dim)
            x = rng.normal(size=dim)
            dy = rng.normal(size=dim)

            def loss():
                y, _ = nn.layer_norm_forward(params, x)
                return float(dy @ y)

            _, cache = nn.layer_norm_forward(params, x)
            _, grads = nn.layer_norm_backward(params, dy, cache)
        elif kind == 2:  # the trunk's backward pass, as training runs it
            obs_dim, steps = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            config = agent.AgentConfig(
                critic="classical", lstm_hidden=int(rng.integers(1, 7)),
                encoder_hidden=int(rng.integers(1, 7)), encoder_out=int(rng.integers(1, 7)))
            model = agent.ActorCriticModel(config, obs_dim, rng)
            obs = rng.normal(size=(steps, obs_dim))
            extras = rng.normal(size=(steps, model.lstm_in - config.encoder_out))
            dlogits = rng.normal(size=(steps, env.N_ACTIONS))
            dh_extra = rng.normal(size=(steps, config.lstm_hidden))

            def unroll():
                rows = agent.TraceRows(model, steps)
                for t in range(steps):
                    model.trunk_forward(obs[t], extras[t], rows, t)
                return rows

            def loss():
                rows = unroll()
                return float((dlogits * rows.logits).sum() + (dh_extra * rows.hidden[1:]).sum())

            trunk = ("enc1", "enc2", "lstm", "actor")
            layer_grads = nn.views(np.zeros_like(model.flat), model.layers)
            model.trunk_backward(dlogits, dh_extra, unroll(), layer_grads)
            params = nn.named({k: model.layers[k] for k in trunk})
            grads = nn.named({k: layer_grads[k] for k in trunk})
        else:
            dim = int(rng.integers(2, 8))
            params = {"logits": rng.normal(size=dim)}

            def loss():
                _, ent = nn.softmax_entropy(params["logits"])
                return ent

            probs, _ = nn.softmax_entropy(params["logits"])
            grads = {"logits": nn.entropy_backward(probs, 1.0)}
        worst = max(worst, oracles.finite_diff_check(params, loss, grads))
    report(6, f"dense/layernorm/trunk (LSTM unroll)/softmax max FD error {worst:.2e} <= 1e-5",
           worst <= 1e-5)


# ---------------------------------------------------------------------------
# desk-scale learning


def learning_scenes():
    grid = env.SceneGrid((1,), 0.6, 1.0, 0.1, 10.0, 19.0, 1.0)
    return env.generate_scenes(grid=grid)


def test_criterion_07_desk_scale_learning():
    scenes = learning_scenes()
    assert len(scenes) == 50
    baseline = agent.random_policy_mean_return(scenes, np.random.default_rng(0))
    ok = True
    summary = []
    for critic in ("quantum", "classical"):
        config = agent.AgentConfig(critic=critic, n_qubits=2, n_layers=1,
                                   episodes=300, seed=1)
        record, _ = agent.train_run(config, scenes)
        first = float(np.mean(record.returns[:50]))
        last = float(np.mean(record.returns[-50:]))
        ok &= last > first
        ok &= first > baseline and last > baseline
        ok &= all(0.0 <= h <= math.log(3) + 1e-9 for h in record.entropies)
        summary.append(f"{critic}: first50 {first:.1f} -> last50 {last:.1f}")
    report(7, f"300-episode improvement over random ({baseline:.1f}); "
              + "; ".join(summary), ok)


def test_criterion_08_multi_seed_auc_protocol():
    scenes = learning_scenes()[:10]
    table = {}
    ok = True
    for critic in ("quantum", "classical"):
        curves = []
        for seed in (0, 1, 2):
            config = agent.AgentConfig(critic=critic, n_qubits=2, n_layers=1,
                                       episodes=12, seed=seed,
                                       lstm_hidden=8, encoder_out=8, max_steps=120)
            record, _ = agent.train_run(config, scenes)
            record2, _ = agent.train_run(config, scenes)
            ok &= record.returns == record2.returns  # bit-identical per seed
            curves.append(record.returns)
        stats = analysis.aggregate_runs(curves, smooth_window=5)
        stats2 = analysis.aggregate_runs(curves, smooth_window=5)
        ok &= stats.auc_mean == stats2.auc_mean and stats.auc_std == stats2.auc_std
        ok &= all(math.isfinite(a) for a in stats.aucs) and len(stats.aucs) == 3
        table[critic] = (stats.auc_mean, stats.auc_std)
    report(8, "3-seed AUC mean/std per critic, reproduced to the last bit "
              + str({k: (round(v[0], 2), round(v[1], 2)) for k, v in table.items()}),
           ok)


def test_criterion_09_capacity_analysis():
    ok = True
    lines = []
    for critic, kwargs in (("quantum", {"n_qubits": 4, "n_layers": 2}),
                           ("classical", {})):
        config = agent.AgentConfig(critic=critic, **kwargs)
        model = agent.ActorCriticModel(config, env.observation_dim(),
                                       np.random.default_rng(1))
        report_obj = cli.capacity_report(model, theta_samples=6, n_inputs=40, seed=0)
        eigs = np.array(report_obj.eigenvalues)
        ok &= bool(np.all(eigs >= -1e-9))
        ok &= 0.0 < report_obj.effective_dim <= report_obj.d
        ok &= 0.0 < report_obj.normalized_effective_dim <= 1.0
        lines.append(f"{critic}: d={report_obj.d} "
                     f"ED={report_obj.effective_dim:.2f} "
                     f"normalized={report_obj.normalized_effective_dim:.3f}")
    report(9, "FIM PSD, ED in (0, d] - " + " | ".join(lines), ok)


def test_criterion_10_end_to_end_determinism(tmp_path):
    import yaml

    raw = {
        "name": "accept10",
        "seeds": [0],
        "agent": {
            "critic": "quantum",
            "n_qubits": 2,
            "n_layers": 1,
            "gradient_mode": "param-shift",
            "noise": {"gate_error": 0.01, "depolarizing": 0.02},
            "episodes": 2,
            "lstm_hidden": 6,
            "encoder_hidden": 16,
            "encoder_out": 8,
            "max_steps": 50,
        },
        "scenes": {"split": "train", "scenarios": [1],
                   "speed": [1.0, 1.1, 0.1], "distance": [15.0, 17.0, 1.0]},
    }
    config_path = tmp_path / "accept10.yaml"
    config_path.write_text(yaml.safe_dump(raw))
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli.main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        blobs.append((out / "curve_seed0.csv").read_bytes())
    report(10, "cmd_train twice with noise enabled: byte-identical curve CSVs",
           blobs[0] == blobs[1])
