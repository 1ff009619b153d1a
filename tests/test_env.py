"""Navigation POMDP: scene grids, rewards, kinematics, sensing, termination."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import qnav.env as env
from qnav import UsageError, agent, planner
from qnav.env import ACCELERATE, DECELERATE, KMH, MAINTAIN, Action

import oracles


def fresh_world(scenario=1, distance=20.0, speed=1.2):
    return env.reset(env.make_scene(scenario, distance, speed))


# offsets into the observation row, as the env module docstring lays it out
SPEED = 3


def visible_flags(row):
    """The visible flag of each pedestrian slot under the default EnvConfig."""
    return row[12:env.observation_dim():5]


def park_pedestrian(world, x=1000.0, y=1000.0):
    """Move the pedestrian far away so proximity terms cannot fire."""
    ped = world.peds[0]
    ped.x, ped.y = x, y
    ped.goal = (x, y)


# ---------------------------------------------------------------------------
# scenes


def test_train_grid_is_3690_scenes():
    scenes = env.generate_scenes("train")
    assert len(scenes) == 3690
    per_scenario = {}
    for s in scenes:
        per_scenario[s.scenario_id] = per_scenario.get(s.scenario_id, 0) + 1
    assert set(per_scenario) == set(env.TRAIN_SCENARIOS)
    assert all(count == 615 for count in per_scenario.values())


def test_train_grid_axes():
    grid = env.SceneGrid.train_default()
    assert len(grid.speeds()) == 15
    assert grid.speeds()[0] == 0.6 and grid.speeds()[-1] == 2.0
    assert len(grid.distances()) == 41
    assert grid.distances() == [float(d) for d in range(41)]


def test_single_point_grid():
    grid = env.SceneGrid((3,), 1.0, 1.0, 0.1, 10.0, 10.0, 1.0)
    scenes = env.generate_scenes(grid=grid)
    assert len(scenes) == 1
    assert scenes[0].scenario_id == 3
    assert scenes[0].ped_speed == 1.0
    assert scenes[0].ped_distance == 10.0


def test_empty_grid_rejected():
    with pytest.raises(UsageError):
        env.generate_scenes(grid=env.SceneGrid((), 1.0, 1.0, 0.1, 10.0, 10.0, 1.0))
    with pytest.raises(UsageError):
        env.generate_scenes("validation")


@pytest.mark.parametrize("name", ["max_steps", "k_pedestrians"])
@pytest.mark.parametrize("value", [2.5, 4.0, True])
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(UsageError, match=f"{name} must be an integer"):
        env.EnvConfig(**{name: value})


def test_scene_ordering_deterministic():
    a = env.generate_scenes("train")
    b = env.generate_scenes("train")
    assert a == b


def test_scenario_templates():
    plain = env.make_scene(1, 20.0, 1.0)
    assert plain.obstacles == () and plain.other_cars == ()
    occluded = env.make_scene(3, 20.0, 1.0)
    assert len(occluded.obstacles) == 1
    oncoming = env.make_scene(5, 20.0, 1.0)
    assert len(oncoming.other_cars) == 1
    both = env.make_scene(8, 20.0, 1.0)
    assert len(both.obstacles) == 1 and len(both.other_cars) == 1
    with pytest.raises(UsageError):
        env.make_scene(42, 20.0, 1.0)


def test_pedestrian_crosses_road():
    scene = env.make_scene(1, 20.0, 1.0)  # spawns on the right sidewalk
    assert scene.ped_spawn[1] < 0 < scene.ped_goal[1]
    left = env.make_scene(2, 20.0, 1.0)
    assert left.ped_spawn[1] > 0 > left.ped_goal[1]


# ---------------------------------------------------------------------------
# reset


def test_reset_initial_state():
    world, row = fresh_world()
    assert world.car.v == 0.0
    assert world.t == 0
    assert not world.done
    assert row.shape == (env.observation_dim() + 4,) and env.observation_dim() == 28
    assert row[SPEED] == 0.0
    assert row[2] == 0.0  # on the lane's centre line


def test_reset_deterministic():
    scene = env.make_scene(4, 15.0, 0.8)
    _, row1 = env.reset(scene)
    _, row2 = env.reset(scene)
    assert row1.tobytes() == row2.tobytes()


def test_far_pedestrian_not_observed():
    world, row = fresh_world(distance=60.0)
    assert visible_flags(row).tolist() == [0.0] * 4


def test_near_pedestrian_observed():
    world, row = fresh_world(distance=20.0)
    assert visible_flags(row).tolist() == [1.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# observations hide pedestrian goals


def test_observation_ignores_pedestrian_goal():
    """A pedestrian's goal is hidden state: moving it changes no observed byte."""
    world, row = fresh_world()
    assert visible_flags(row)[0] == 1.0
    world.peds[0].goal = (-40.0, 90.0)
    assert env.build_observation(world).tobytes() == row.tobytes()


PARITY_CONFIGS = (env.EnvConfig(), env.EnvConfig(k_pedestrians=0),
                  env.EnvConfig(k_pedestrians=6))


def test_observation_rows_equal_object_oracle():
    """Every row reset and step return, over 102 scenes spread across each
    grid, has the bytes of the record-based oracle's ``to_vector`` followed
    by its extras. Scene i runs under ``PARITY_CONFIGS[i % 3]``; actions
    favour accelerating, so episodes end by goal or collision within about
    70 steps and the test stays short."""
    rng = np.random.default_rng(12)
    steps = 0
    for split in ("train", "test"):
        scenes = env.generate_scenes(split)
        for i, scene in enumerate(scenes[:: len(scenes) // 102][:102]):
            config = PARITY_CONFIGS[i % 3]
            actions = iter(rng.choice(env.N_ACTIONS, size=config.max_steps, p=(0.5, 0.3, 0.2)))
            world, row = env.reset(scene, config=config)
            rows, expected = [row], [oracles.observation_row(world)]
            while not world.done:
                row = env.step(world, int(next(actions)))
                rows.append(row)
                expected.append(oracles.observation_row(world))
            assert np.array(rows).tobytes() == np.array(expected).tobytes(), (split, i)
            steps += len(rows) - 1
    assert steps > 5000


def test_crowded_observation_rows_equal_object_oracle():
    """The grids' scenes hold one pedestrian, so slot order and truncation
    are checked here: nine pedestrians, some beyond sensing range or behind
    the parked car, every step of one episode under each parity config."""
    rng = np.random.default_rng(4)
    full = 0
    for config in PARITY_CONFIGS:
        world, _ = env.reset(env.make_scene(7, 25.0, 1.0), config=config)
        for _ in range(8):
            x, y = rng.uniform(-10.0, 80.0), rng.uniform(-8.0, 12.0)
            gx, gy = x + rng.uniform(-5.0, 5.0), y + rng.uniform(-10.0, 10.0)
            world.peds.append(env.PedestrianState(x, y, (gx, gy), rng.uniform(0.3, 2.0),
                                                  math.atan2(gy - y, gx - x) % (2 * math.pi)))
        row = env.build_observation(world)
        while True:
            assert row.tobytes() == oracles.observation_row(world).tobytes()
            full += config.k_pedestrians > 0 and row[env.observation_dim(config) - 1] == 1.0
            if world.done:
                break
            row = env.step(world, int(rng.integers(env.N_ACTIONS)))
    assert full > 0  # some step had more sensed pedestrians than slots


def test_occlusion_blocks_view():
    world, row = fresh_world(scenario=3, distance=20.0)
    ped = world.peds[0]
    assert env.is_occluded(world, ped)
    assert visible_flags(row).tolist() == [0.0] * 4
    # no obstacle between car and pedestrian in the plain scenario
    plain_world, plain_row = fresh_world(scenario=1, distance=20.0)
    assert not env.is_occluded(plain_world, plain_world.peds[0])
    assert visible_flags(plain_row)[0] == 1.0


# ---------------------------------------------------------------------------
# kinematics


def test_accelerate_from_rest():
    world, _ = fresh_world()
    park_pedestrian(world)
    env.step(world, ACCELERATE)
    assert world.car.v == pytest.approx(5.0 * KMH)
    assert world.car.v == pytest.approx(1.389, abs=1e-3)


def test_maintain_at_rest_stays_put():
    world, _ = fresh_world()
    park_pedestrian(world)
    x0, y0 = world.car.x, world.car.y
    env.step(world, MAINTAIN)
    assert (world.car.x, world.car.y) == (x0, y0)


def test_speed_clamped_to_hard_max():
    world, _ = fresh_world()
    park_pedestrian(world)
    for _ in range(20):
        env.step(world, ACCELERATE)
        if world.done:
            break
    assert world.car.v <= env.V_MAX + 1e-12


def test_decelerate_clamps_at_zero():
    world, _ = fresh_world()
    park_pedestrian(world)
    env.step(world, DECELERATE)
    assert world.car.v == 0.0


def test_heading_and_speed_invariants():
    world, _ = fresh_world(scenario=3)
    rng = np.random.default_rng(0)
    while not world.done:
        env.step(world, int(rng.integers(3)))
        assert 0.0 <= world.car.heading < 2 * math.pi
        assert world.car.v >= 0.0


def test_episode_caps_at_500_steps():
    world, _ = fresh_world()
    park_pedestrian(world)
    steps = 0
    while not world.done:
        env.step(world, MAINTAIN)  # stationary forever
        steps += 1
    assert steps == 500
    assert world.outcome == "timeout"


def test_step_after_done_raises():
    world, _ = fresh_world()
    world.done = True
    with pytest.raises(UsageError):
        env.step(world, MAINTAIN)
    world.done = False
    with pytest.raises(UsageError):
        env.step(world, 7)


def test_transition_deterministic():
    runs = []
    for _ in range(2):
        world, _ = fresh_world(scenario=5)
        states = []
        for _ in range(40):
            env.step(world, ACCELERATE)
            states.append((world.car.x, world.car.y, world.car.v, world.prev_reward))
            if world.done:
                break
        runs.append(states)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("action", [True, False, 1.0, 0.0, np.int64(1), "1", None, -1, 3])
def test_step_rejects_what_is_not_an_action(action):
    """Only the ints 0, 1 and 2 are actions: a bool or a float that equals
    one is rejected too, before the world moves."""
    world, _ = fresh_world(scenario=5)
    env.step(world, ACCELERATE)
    before = world_state(world)
    with pytest.raises(UsageError, match="bad speed action"):
        env.step(world, action)
    assert oracles.same_bits(world_state(world), before)
    assert (world.t, world.done, world.outcome) == (1, False, None)


def world_state(world):
    """Every float and int of a world's mutable state, as one flat list."""
    car, prev = world.car, world.prev_action
    values = [car.x, car.y, car.heading, car.v, world.t, world.v_prev, prev.acc, prev.steer,
              world.prev_reward]
    for ped in world.peds:
        values += [ped.x, ped.y, *ped.goal, ped.speed, ped.heading]
    for other in world.others:
        values += [other.x, other.y, other.heading, other.v]
    return values


def same_rows_but_cross_track(row, ref_row, x):
    """Rows of the lane-driving env and of the planner oracle agree bit for
    bit, except [2], the cross-track input: the planned path runs from x = 2
    to x = 98 on the lane's centre line, so there [2] is the oracle's 0.0,
    and before and past it the oracle reads a gap along the road that the
    lateral offset does not. Returns whether the oracle read such a gap."""
    assert oracles.same_bits(np.delete(row, 2), np.delete(ref_row, 2))
    if 2.0 <= x <= 98.0:
        assert oracles.same_bits(row[2], ref_row[2])
    assert oracles.same_bits(row[2], 0.0)
    return ref_row[2] != 0.0


def lockstep_episode(scene, policy, config, mutate=None, planned=False):
    """Roll one scene out with ``env.step`` and, on a second world of the
    same scene, ``oracles.step``; at every step both worlds, the rows,
    every reward term (``env.compute_reward`` of the stepped world), the
    total, the steering angle, the proximity, the outcome and the step count
    must agree bit for bit. With ``planned``, the oracle steers along the
    scene's planned path and the rows agree as ``same_rows_but_cross_track``
    says. Returns the outcome, whether a pedestrian was hit, the reward
    terms that fired and the number of rows whose [2] the plan changed."""
    path = oracles.plan(scene) if planned else None
    world, row = env.reset(scene, config=config)
    ref, ref_row = env.reset(scene, config=config)
    if mutate is not None:
        mutate(world)
        mutate(ref)
        row = ref_row = env.build_observation(world)
    elif planned:
        ref_row = oracles.observation_row(ref, path)
    fired, ped_hit, t, gaps = set(), False, 0, 0
    while True:
        if planned:
            gaps += same_rows_but_cross_track(row, ref_row, world.car.x)
        else:
            assert oracles.same_bits(row, ref_row), (scene, t)
        if world.done:
            break
        action = policy(row, t)
        row = env.step(world, action)
        _, ref_row, ref_reward, ref_done, ref_info = oracles.step(ref, action, path)
        reward = env.compute_reward(world, world.prev_action)
        where = (scene, t)
        assert isinstance(row, np.ndarray), where
        assert reward._fields == ref_reward._fields
        assert oracles.same_bits(list(reward), list(ref_reward)), where
        assert oracles.same_bits(reward.total, ref_reward.total), where
        assert oracles.same_bits(world.prev_reward, ref_reward.total), where
        assert oracles.same_bits(world_state(world), world_state(ref)), where
        assert ((world.done, world.outcome) == (ref.done, ref.outcome)
                == (ref_done, ref_info["outcome"])), where
        assert world.t == ref_info["t"], where
        assert oracles.same_bits(world.prev_action.steer, ref_info["steer"]), where
        assert world.proximity == ref_info["proximity"], where
        fired |= {name for name, value in zip(reward._fields, reward) if value}
        ped_hit |= env.HIT in world.proximity
        t += 1
    return world.outcome, ped_hit, fired, gaps


LOCKSTEP_CONFIG = env.EnvConfig(max_steps=200)


def lockstep_policies(sid):
    """A random, a forward-biased and a greedy-policy action source for
    scenario ``sid``; each is a function of the row and the step."""
    model = agent.ActorCriticModel(agent.AgentConfig(critic="classical", seed=3),
                                   env.observation_dim(LOCKSTEP_CONFIG),
                                   agent.rng_streams(3)["init"])
    d, rows = model.obs_dim, agent.TraceRows(model, 1)

    def drawn(seed, p):
        rng = np.random.default_rng(seed)
        return lambda row, t: int(rng.choice(3, p=p))

    return (drawn(sid, None), drawn(100 + sid, [0.6, 0.3, 0.1]),
            lambda row, t: agent.greedy_action(model.trunk_forward(row[:d], row[d:], rows, t)[1]))


def test_step_equals_the_planner_oracle_on_the_lane():
    """Every layout plans a straight path on the lane's centre line, so
    env.step, which steers 0.0 and plans nothing, gives the world states and
    reward terms of oracles.step steering along the plan, bit for bit, in
    every scenario under random, forward-biased and greedy-policy actions.
    The rows differ only in [2] before x = 2 and past x = 98, where the
    oracle reads a gap along the road and the lateral offset reads 0.0."""
    outcomes, gaps = set(), 0
    for sid in env.TEST_SCENARIOS:
        for distance, speed in ((15.0, 1.0), (30.0, 1.5)):
            scene = env.make_scene(sid, distance, speed)
            assert {pose[1:] for pose in oracles.plan(scene).poses} == {(0.0, 0.0)}
            for policy in lockstep_policies(sid):
                outcome, ped_hit, _, changed = lockstep_episode(scene, policy, LOCKSTEP_CONFIG,
                                                                planned=True)
                outcomes.add((outcome, ped_hit))
                gaps += changed
    assert outcomes >= {("goal", False), ("collision", True), ("timeout", False)}
    assert gaps > 0


def test_step_equals_the_helper_by_helper_oracle():
    """env.step, which takes the car frame and the reward total once, gives
    the bits of oracles.step in every scenario, under random, forward-biased
    and greedy-policy actions, and on worlds moved off the lane, into a
    parked car and into the oncoming car: goal, pedestrian hit, car and
    obstacle collision, near miss and timeout, and every reward term but
    the steering one, as a step always steers 0.0."""
    config = LOCKSTEP_CONFIG
    outcomes, fired = set(), set()
    for sid in env.TEST_SCENARIOS:
        for distance, speed in ((15.0, 1.0), (30.0, 1.5)):
            scene = env.make_scene(sid, distance, speed)
            for policy in lockstep_policies(sid):
                outcome, ped_hit, terms, _ = lockstep_episode(scene, policy, config)
                outcomes.add((outcome, ped_hit))
                fired |= terms
    assert outcomes >= {("goal", False), ("collision", True), ("timeout", False)}

    def off_path(world):
        world.car.y, world.car.heading, world.car.v = 1.5, 0.3, 4.0

    def behind_parked_car(world):
        park_pedestrian(world)
        x0, y0, _, y1 = world.scene.obstacles[0]
        world.car.x, world.car.y, world.car.v = x0 - 3.0, (y0 + y1) / 2.0, 8.0

    def oncoming_in_lane(world):
        park_pedestrian(world)
        world.others[0].y = 0.0

    forward = lockstep_policies(7)[1]
    outcome, _, terms, _ = lockstep_episode(env.make_scene(2, 30.0, 1.0), forward, config, off_path)
    fired |= terms
    for scene, mutate in ((env.make_scene(3, 30.0, 1.0), behind_parked_car),
                          (env.make_scene(5, 30.0, 1.0), oncoming_in_lane)):
        outcome, ped_hit, terms, _ = lockstep_episode(scene, forward, config, mutate)
        assert (outcome, ped_hit) == ("collision", False)
        assert {"hit", "obstacle"} <= terms
    assert fired == set(env.RewardBreakdown._fields) - {"steer"}


def test_step_calls_the_traced_functions_once(monkeypatch):
    """The benchmark times the observation by wrapping env.build_observation
    on its module: env.step must reach it through that module name, once a
    step, or the traced timings read 0. Neither reset nor step reaches any
    function of qnav.planner: the car drives the lane's centre line."""
    calls = []
    targets = [(env, "build_observation")] + [
        (planner, name) for name, fn in vars(planner).items()
        if inspect.isfunction(fn) and fn.__module__ == planner.__name__]
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}", **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert len(targets) > 3
    world, _ = fresh_world(scenario=7)
    assert calls == ["qnav.env.build_observation"]
    calls.clear()
    for _ in range(20):
        env.step(world, ACCELERATE)
        assert calls == ["qnav.env.build_observation"]
        calls.clear()


def planner_imports(source: str) -> list[str]:
    """The import statements of a qnav module that name qnav.planner,
    absolutely or relative to the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("qnav.planner")]
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in ("qnav.planner", ".planner") or module.startswith(("qnav.planner.", ".planner.")):
                found.append(module)
            elif module in ("qnav", "."):
                found += [f"{module}:{a.name}" for a in node.names if a.name == "planner"]
    return found


def test_no_qnav_module_imports_the_planner():
    """Only the benchmark and the tests still read qnav.planner, so deleting
    it will touch no production code."""
    assert planner_imports("from . import UsageError, planner\nimport qnav.planner as p\n"
                           "from .planner import Path\n") == [".:planner", "qnav.planner", ".planner"]
    package = Path(env.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    for source in sources:
        if source.name != "planner.py":
            assert planner_imports(source.read_text()) == [], source.name


def test_step_checks_contacts_once(monkeypatch):
    """env.step runs the car collision test once per step; its reward total
    and proximity equal compute_reward and check_proximity on the stepped
    state."""
    world, _ = fresh_world(scenario=5)
    calls = []
    collides = env._car_collides
    monkeypatch.setattr(env, "_car_collides", lambda w: calls.append(1) or collides(w))
    for _ in range(10):
        env.step(world, ACCELERATE)
        assert len(calls) == 1
        assert world.proximity == env.check_proximity(world)
        assert world.prev_reward == env.compute_reward(world, world.prev_action).total
        calls.clear()


def rect_pairs(rng):
    """Random oriented-rectangle pairs: overlapping, apart, edge to edge and
    corner to corner, the last two within a hair of touching."""
    for _ in range(400):
        a = (*rng.uniform(-50.0, 50.0, 2), rng.uniform(0.0, 2 * math.pi), *rng.uniform(0.5, 6.0, 2))
        b = (*(np.array(a[:2]) + rng.uniform(-8.0, 8.0, 2)), rng.uniform(0.0, 2 * math.pi),
             *rng.uniform(0.5, 6.0, 2))
        yield a + b
    for eps in (-1e-9, 0.0, 1e-12, 1e-9, 2e-9, 1e-6):
        for _ in range(40):
            ax, ay, ah = *rng.uniform(-50.0, 50.0, 2), rng.uniform(0.0, 2 * math.pi)
            alen, awid, blen, bwid = rng.uniform(0.5, 6.0, 4)
            c, s = math.cos(ah), math.sin(ah)
            gap = (alen + blen) / 2 + eps  # edge to edge, along A's heading
            yield (ax, ay, ah, alen, awid, ax + gap * c, ay + gap * s, ah, blen, bwid)
            # corner to corner: both diagonals on the line between the centres
            ra, rb = math.hypot(alen, awid) / 2, math.hypot(blen, bwid) / 2
            u = ah + math.atan2(awid, alen)
            bx, by = ax + (ra + rb + eps) * math.cos(u), ay + (ra + rb + eps) * math.sin(u)
            bh = (u + math.pi - math.atan2(bwid, blen)) % (2 * math.pi)
            yield (ax, ay, ah, alen, awid, bx, by, bh, blen, bwid)


def test_rects_overlap_equals_separating_axis_oracle():
    results = []
    for pair in rect_pairs(np.random.default_rng(5)):
        got = env._rects_overlap(*pair)
        assert got == oracles.rects_overlap(*pair), pair
        results.append(got)
    assert 0 < sum(results) < len(results)


# ---------------------------------------------------------------------------
# proximity


def test_proximity_clear_when_far():
    world, _ = fresh_world(distance=30.0)
    assert env.check_proximity(world) == [env.CLEAR]


def test_proximity_hit_at_car_center():
    world, _ = fresh_world()
    ped = world.peds[0]
    ped.x, ped.y = world.car.x, world.car.y
    assert env.check_proximity(world) == [env.HIT]


def test_proximity_near_miss_requires_motion():
    world, _ = fresh_world()
    ped = world.peds[0]
    # 1.0 m off the side of the car body
    ped.x = world.car.x
    ped.y = world.car.y + env.CAR_WIDTH / 2.0 + 1.0
    world.car.v = 0.0
    assert env.check_proximity(world) == [env.CLEAR]
    world.car.v = 2.0
    assert env.check_proximity(world) == [env.NEAR_MISS]


# ---------------------------------------------------------------------------
# reward branches


def test_reward_goal_term():
    world, _ = fresh_world()
    park_pedestrian(world)
    world.car.x, world.car.y = world.scene.car_goal
    breakdown = env.compute_reward(world, Action(MAINTAIN, 0.0))
    assert breakdown.goal == 200.0
    assert breakdown.not_goal == 0.0


def test_reward_stationary_composite_example():
    """Decelerate at rest with 25 degree steering, 100 m out: -1 -1 -0.1."""
    world, _ = fresh_world()
    park_pedestrian(world)
    assert math.hypot(world.car.x - 100.0, world.car.y) == pytest.approx(100.0)
    breakdown = env.compute_reward(world, Action(DECELERATE, math.radians(25.0)))
    assert breakdown.braking == -1.0
    assert breakdown.steer == -1.0
    assert breakdown.not_goal == pytest.approx(-0.1)
    assert breakdown.total == pytest.approx(-2.1)


def test_reward_hit_at_speed_limit():
    world, _ = fresh_world()
    world.car.v = env.SPEED_LIMIT  # 50 km/h
    ped = world.peds[0]
    ped.x, ped.y = world.car.x, world.car.y
    breakdown = env.compute_reward(world, Action(MAINTAIN, 0.0))
    assert breakdown.hit == pytest.approx(-100.0)
    assert breakdown.obstacle <= -100.0


def test_reward_hit_scales_with_impact_speed():
    world, _ = fresh_world()
    ped = world.peds[0]
    ped.x, ped.y = world.car.x, world.car.y
    world.car.v = env.SPEED_LIMIT / 2.0
    assert env.compute_reward(world, Action(MAINTAIN, 0.0)).hit == pytest.approx(-50.0)
    world.car.v = 0.0
    breakdown = env.compute_reward(world, Action(MAINTAIN, 0.0))
    assert breakdown.hit == 0.0
    assert breakdown.obstacle == 0.0  # stationary: no obstacle-cost penalty


def test_reward_near_miss_term():
    world, _ = fresh_world()
    ped = world.peds[0]
    ped.x = world.car.x
    ped.y = world.car.y + env.CAR_WIDTH / 2.0 + 1.0
    world.car.v = 2.0
    assert env.compute_reward(world, Action(MAINTAIN, 0.0)).near_miss == -10.0


def test_reward_over_speeding_term():
    world, _ = fresh_world()
    park_pedestrian(world)
    world.car.v = 55.0 * KMH
    assert env.compute_reward(world, Action(MAINTAIN, 0.0)).over_speeding == -10.0
    world.car.v = 50.0 * KMH
    assert env.compute_reward(world, Action(MAINTAIN, 0.0)).over_speeding == 0.0


def test_reward_not_goal_distance_term():
    world, _ = fresh_world()
    park_pedestrian(world)
    world.car.x = 60.0  # 40 m out
    breakdown = env.compute_reward(world, Action(MAINTAIN, 0.0))
    assert breakdown.not_goal == pytest.approx(-0.04)


def test_reward_braking_only_when_stationary():
    world, _ = fresh_world()
    park_pedestrian(world)
    world.v_prev = 0.0
    assert env.compute_reward(world, Action(DECELERATE, 0.0)).braking == -1.0
    world.v_prev = 1.0
    assert env.compute_reward(world, Action(DECELERATE, 0.0)).braking == 0.0


def test_reward_total_is_sum_of_terms():
    world, _ = fresh_world(scenario=3)
    rng = np.random.default_rng(1)
    while not world.done:
        env.step(world, int(rng.integers(3)))
        breakdown = env.compute_reward(world, world.prev_action)
        assert world.prev_reward == breakdown.total
        fields = (breakdown.goal + breakdown.hit + breakdown.obstacle
                  + breakdown.near_miss + breakdown.over_speeding
                  + breakdown.not_goal + breakdown.braking + breakdown.steer)
        assert breakdown.total == fields


# ---------------------------------------------------------------------------
# termination


def test_goal_outcome():
    world, _ = fresh_world()
    park_pedestrian(world)
    while not world.done:
        acc = ACCELERATE if world.car.v < 40.0 * KMH else MAINTAIN
        env.step(world, acc)
    assert world.outcome == "goal"


def test_collision_outcome():
    world, _ = fresh_world(distance=10.0, speed=0.0)
    ped = world.peds[0]
    ped.x, ped.y = 10.0, 0.0  # parked in the lane
    ped.goal = (10.0, 0.0)
    while not world.done:
        env.step(world, ACCELERATE)
    assert world.outcome == "collision"


def test_cost_map_layout():
    """The cost map the planner oracle plans on and reads the obstacle term
    from: road, sidewalks, blocked beyond them and under a parked car."""
    scene = env.make_scene(3, 20.0, 1.0)
    cmap = oracles.cost_map(scene.obstacles)
    assert cmap.cost_at(50.0, 0.0) == planner.COST_ROAD
    assert cmap.cost_at(50.0, -4.5) == planner.COST_SIDEWALK
    assert cmap.cost_at(50.0, 20.0) == planner.COST_BLOCKED
    ox0, oy0, ox1, oy1 = scene.obstacles[0]
    assert cmap.cost_at((ox0 + ox1) / 2.0, (oy0 + oy1) / 2.0) == planner.COST_BLOCKED
