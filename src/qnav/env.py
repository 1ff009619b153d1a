"""Desk-scale collision-free-navigation POMDP.

A bicycle-model car drives ~100 m down a straight road toward a goal while
pedestrians cross from the sidewalks (optionally occluded by parked cars,
optionally with an oncoming car in the other lane). The agent controls only
the speed action; the car holds its lane, driving the route from the scene's
``car_start`` to its ``car_goal``, a straight line along the lane's centre
(y = 0 on both grids), with a steering of 0.0. Pedestrian goals are hidden
state: observations expose only positions and velocities of unoccluded
pedestrians within sensing range.

The observation that ``reset`` and ``step`` return is the policy's whole
input, one float64 row of length ``observation_dim(config) + 4``. With
``D = observation_dim(config) = 8 + 5 * k_pedestrians``:

- ``[0:2]`` goal position in the car frame, / 50 m;
- ``[2]`` signed lateral offset from the route, left positive, / 5 m;
- ``[3]`` speed, / 15 m/s;
- ``[4:7]`` previous speed action, one-hot (accelerate, maintain, decelerate);
- ``[7]`` previous reward, / 10;
- ``[8 + 5i : 13 + 5i]`` pedestrian slot ``i``, nearest sensed pedestrian
  first: position in the car frame / 50 m, velocity relative to the car in
  the car frame / 3 m/s, and a visible flag (1.0 sensed, 0.0 empty slot,
  whose other four entries are 0.0);
- ``[D:D + 4]`` the LSTM side channel: previous reward / 10, car-frame
  velocity ``(speed / 15, 0.0)``, previous speed action as -1 (accelerate),
  0 (maintain) or +1 (decelerate).

The first ``D`` entries are the encoder input; the last 4 bypass the encoder.

``step(world, acc)`` takes one of the int speed actions ``ACCELERATE``,
``MAINTAIN`` or ``DECELERATE`` (anything else, a bool or a float included,
is a UsageError raised before the world changes). It moves the car along
its heading, which a steering of 0.0 leaves as it is, and the pedestrians
and other cars one ``dt``, and returns the observation row. The rest of the
step lives on the world it mutates: ``done``, ``outcome`` and ``t``;
``prev_action``, whose ``steer`` is always 0.0; ``prev_reward``, the reward
total; and ``proximity``, each pedestrian's hit / near-miss / clear status.
``compute_reward(world, world.prev_action)`` gives the per-term
``RewardBreakdown`` of that total. ``Action`` and ``RewardBreakdown`` are
immutable named tuples: fields by name or position, equality by value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import UsageError, check_finite, check_ints, is_int

KMH = 1.0 / 3.6  # km/h -> m/s
OBSTACLE_PENALTY = -100.0  # reward when something is in the hit area while moving

ACCELERATE, MAINTAIN, DECELERATE = 0, 1, 2
ACTION_NAMES = ("accelerate", "maintain", "decelerate")
N_ACTIONS = 3


@dataclass(frozen=True)
class EnvConfig:
    """Physical and sensing knobs. Defaults are typical sedan/pedestrian scales."""

    dt: float = 0.1
    car_length: float = 4.5
    car_width: float = 2.0
    ped_radius: float = 0.3
    near_miss_margin: float = 1.5
    sense_radius: float = 50.0
    speed_limit: float = 50.0 * KMH
    speed_step: float = 5.0 * KMH
    v_max: float = 60.0 * KMH  # hard clamp above the (penalized) legal limit
    goal_tol: float = 2.0
    max_steps: int = 500
    k_pedestrians: int = 4
    # road geometry: car lane centered on y=0, oncoming lane at y=4
    road_y_min: float = -3.0
    road_y_max: float = 7.0
    sidewalk_width: float = 3.0
    road_x_min: float = -10.0
    road_x_max: float = 112.0
    oncoming_lane_y: float = 4.0
    oncoming_speed: float = 8.0

    def __post_init__(self):
        check_ints(self, ("max_steps", "k_pedestrians"))
        check_finite(self, [f.name for f in dataclasses.fields(self) if f.type == "float"])
        if not (self.dt > 0 and self.goal_tol > 0):
            raise UsageError("dt and goal_tol must be > 0")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")
        if self.k_pedestrians < 0:
            raise UsageError("k_pedestrians must be >= 0")
        if not (self.speed_step > 0 and self.car_length > 0 and self.car_width > 0
                and self.ped_radius > 0):
            raise UsageError("speed_step, car_length, car_width and ped_radius must be > 0")
        if not (self.speed_limit > 0 and self.v_max > 0):
            raise UsageError("speed_limit and v_max must be > 0")
        if not (self.sense_radius >= 0 and self.near_miss_margin >= 0):
            raise UsageError("sense_radius and near_miss_margin must be >= 0")
        if not (self.road_x_min < self.road_x_max and self.road_y_min < self.road_y_max):
            raise UsageError("road bounds need road_x_min < road_x_max and road_y_min < road_y_max")


@dataclass(frozen=True)
class OtherCar:
    """A car driving straight at constant speed; it has the ego car's size
    (``EnvConfig.car_length`` and ``car_width``)."""

    start: tuple[float, float]
    heading: float
    speed: float


@dataclass(frozen=True)
class Scene:
    """One benchmark instantiation: scenario template + spawn grid point."""

    scenario_id: int
    car_start: tuple[float, float, float]  # x, y, heading
    car_goal: tuple[float, float]
    ped_distance: float  # spawn distance ahead of the car start, m
    ped_speed: float  # m/s
    ped_spawn: tuple[float, float]
    ped_goal: tuple[float, float]  # hidden from observations
    obstacles: tuple[tuple[float, float, float, float], ...]  # AABBs (x0,y0,x1,y1)
    other_cars: tuple[OtherCar, ...] = ()


# Scenario templates on the straight road. Reconstructed as parameterized
# crossing situations: which sidewalk the pedestrian starts from, whether a
# parked car occludes it, and whether a car approaches in the oncoming lane.
SCENARIO_TEMPLATES = {
    1: {"side": "right", "occluder": False, "oncoming": False},
    2: {"side": "left", "occluder": False, "oncoming": False},
    3: {"side": "right", "occluder": True, "oncoming": False},
    4: {"side": "left", "occluder": True, "oncoming": False},
    5: {"side": "right", "occluder": False, "oncoming": True},
    6: {"side": "left", "occluder": False, "oncoming": True},
    7: {"side": "right", "occluder": True, "oncoming": True},
    8: {"side": "left", "occluder": True, "oncoming": True},
}

TRAIN_SCENARIOS = (1, 3, 4, 5, 6, 8)
TEST_SCENARIOS = (1, 2, 3, 4, 5, 6, 7, 8)


def make_scene(scenario_id: int, ped_distance: float, ped_speed: float,
               config: EnvConfig = EnvConfig()) -> Scene:
    if scenario_id not in SCENARIO_TEMPLATES:
        raise UsageError(f"unknown scenario id {scenario_id}")
    tpl = SCENARIO_TEMPLATES[scenario_id]
    right_y = config.road_y_min - config.sidewalk_width / 2.0
    left_y = config.road_y_max + config.sidewalk_width / 2.0
    if tpl["side"] == "right":
        spawn_y, goal_y = right_y, left_y
    else:
        spawn_y, goal_y = left_y, right_y
    spawn_x = ped_distance
    obstacles = ()
    if tpl["occluder"]:
        # parked car on the pedestrian's roadside edge, just upstream of the
        # crossing point, blocking the ego car's line of sight
        edge_y = config.road_y_min - 1.0 if tpl["side"] == "right" else config.road_y_max + 1.0
        obstacles = ((spawn_x - 7.0, edge_y - 1.0, spawn_x - 2.5, edge_y + 1.0),)
    other_cars = ()
    if tpl["oncoming"]:
        other_cars = (
            OtherCar(
                start=(min(spawn_x + 40.0, config.road_x_max - 5.0), config.oncoming_lane_y),
                heading=math.pi,
                speed=config.oncoming_speed,
            ),
        )
    return Scene(
        scenario_id=scenario_id,
        car_start=(0.0, 0.0, 0.0),
        car_goal=(100.0, 0.0),
        ped_distance=ped_distance,
        ped_speed=ped_speed,
        ped_spawn=(spawn_x, spawn_y),
        ped_goal=(spawn_x, goal_y),
        obstacles=obstacles,
        other_cars=other_cars,
    )


@dataclass(frozen=True)
class SceneGrid:
    """Cartesian spawn grid: scenarios x pedestrian speeds x distances."""

    scenarios: tuple[int, ...]
    speed_start: float
    speed_stop: float
    speed_step: float
    dist_start: float
    dist_stop: float
    dist_step: float

    @classmethod
    def train_default(cls) -> "SceneGrid":
        return cls(TRAIN_SCENARIOS, 0.6, 2.0, 0.1, 0.0, 40.0, 1.0)

    @classmethod
    def test_default(cls) -> "SceneGrid":
        return cls(TEST_SCENARIOS, 0.25, 2.85, 0.1, 4.75, 49.25, 1.0)

    @staticmethod
    def _values(start: float, stop: float, step: float) -> list[float]:
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + i * step, 9) for i in range(count)]

    def speeds(self) -> list[float]:
        return self._values(self.speed_start, self.speed_stop, self.speed_step)

    def distances(self) -> list[float]:
        return self._values(self.dist_start, self.dist_stop, self.dist_step)


def generate_scenes(split: str = "train", grid: Optional[SceneGrid] = None,
                    config: EnvConfig = EnvConfig()) -> list[Scene]:
    """Deterministically ordered scene list for a split or explicit grid."""
    if grid is None:
        if split == "train":
            grid = SceneGrid.train_default()
        elif split == "test":
            grid = SceneGrid.test_default()
        else:
            raise UsageError(f"unknown split {split!r}")
    if not grid.scenarios or not grid.speeds() or not grid.distances():
        raise UsageError("empty scene grid")
    repeated = [sid for i, sid in enumerate(grid.scenarios) if sid in grid.scenarios[:i]]
    if repeated:
        raise UsageError(f"scenarios lists {repeated[0]} more than once; "
                         "a scene set holds each scenario once")
    scenes = []
    for sid in grid.scenarios:
        for speed in grid.speeds():
            for dist in grid.distances():
                scenes.append(make_scene(sid, dist, speed, config))
    return scenes


# ---------------------------------------------------------------------------
# world state


@dataclass
class CarState:
    x: float
    y: float
    heading: float  # [0, 2pi)
    v: float  # m/s, >= 0


@dataclass
class PedestrianState:
    x: float
    y: float
    goal: tuple[float, float]  # hidden state
    speed: float
    heading: float


class Action(NamedTuple):
    acc: int  # index into ACTION_NAMES
    steer: float  # radians; a step always steers 0.0


@dataclass
class WorldState:
    scene: Scene
    config: EnvConfig
    car: CarState
    peds: list[PedestrianState]
    others: list[CarState]
    t: int = 0
    v_prev: float = 0.0
    prev_action: Action = Action(MAINTAIN, 0.0)
    prev_reward: float = 0.0
    done: bool = False
    outcome: Optional[str] = None  # "goal" | "collision" | "timeout"
    proximity: list[str] = field(default_factory=list)  # per pedestrian, after the last step


class RewardBreakdown(NamedTuple):
    """Per-term reward values; inapplicable terms are zero."""

    goal: float = 0.0
    hit: float = 0.0
    obstacle: float = 0.0
    near_miss: float = 0.0
    over_speeding: float = 0.0
    not_goal: float = 0.0
    braking: float = 0.0
    steer: float = 0.0

    @property
    def total(self) -> float:
        return (self.goal + self.hit + self.obstacle + self.near_miss
                + self.over_speeding + self.not_goal + self.braking + self.steer)


def observation_dim(config: EnvConfig = EnvConfig()) -> int:
    return 8 + 5 * config.k_pedestrians


# ---------------------------------------------------------------------------
# geometry helpers


def _rects_overlap(ax, ay, ah, alen, awid, bx, by, bh, blen, bwid) -> bool:
    """Separating-axis test for two oriented rectangles, after a broad phase:
    rectangles whose circumscribed discs are apart cannot overlap."""
    if math.hypot(bx - ax, by - ay) > (math.hypot(alen, awid) + math.hypot(blen, bwid)) / 2 + 1e-9:
        return False
    corners = []
    for (cx, cy, ch, ln, wd) in ((ax, ay, ah, alen, awid), (bx, by, bh, blen, bwid)):
        c, s = math.cos(ch), math.sin(ch)
        pts = []
        for sx in (-ln / 2, ln / 2):
            for sy in (-wd / 2, wd / 2):
                pts.append((cx + c * sx - s * sy, cy + s * sx + c * sy))
        corners.append(pts)
    axes = []
    for h in (ah, bh):
        axes.append((math.cos(h), math.sin(h)))
        axes.append((-math.sin(h), math.cos(h)))
    for ux, uy in axes:
        proj = [[px * ux + py * uy for px, py in pts] for pts in corners]
        if max(proj[0]) < min(proj[1]) or max(proj[1]) < min(proj[0]):
            return False
    return True


def _segment_hits_aabb(x1, y1, x2, y2, box) -> bool:
    """Slab test: does the segment intersect the axis-aligned box?"""
    bx0, by0, bx1, by1 = box
    dx, dy = x2 - x1, y2 - y1
    tmin, tmax = 0.0, 1.0
    for p, d, lo, hi in ((x1, dx, bx0, bx1), (y1, dy, by0, by1)):
        if abs(d) < 1e-12:
            if p < lo or p > hi:
                return False
            continue
        t1, t2 = (lo - p) / d, (hi - p) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin, tmax = max(tmin, t1), min(tmax, t2)
        if tmin > tmax:
            return False
    return True


def is_occluded(world: WorldState, ped: PedestrianState) -> bool:
    for box in world.scene.obstacles:
        if _segment_hits_aabb(world.car.x, world.car.y, ped.x, ped.y, box):
            return True
    return False


# ---------------------------------------------------------------------------
# proximity / collision


CLEAR, NEAR_MISS, HIT = "clear", "near_miss", "hit"


def check_proximity(world: WorldState) -> list[str]:
    """Hit / near-miss / clear status for every pedestrian.

    Hit: pedestrian disc overlaps the car rectangle. Near miss: within the
    margin of the rectangle while the car is moving.
    """
    heading = world.car.heading
    return _proximity(world, math.cos(heading), math.sin(heading))


def _proximity(world: WorldState, c: float, s: float) -> list[str]:
    """:func:`check_proximity`, given the cosine and sine of the car heading:
    each pedestrian's distance to the car rectangle, in the car frame."""
    car, config = world.car, world.config
    out = []
    for ped in world.peds:
        dx, dy = ped.x - car.x, ped.y - car.y
        d = math.hypot(max(abs(c * dx + s * dy) - config.car_length / 2.0, 0.0),
                       max(abs(-s * dx + c * dy) - config.car_width / 2.0, 0.0))
        if d <= config.ped_radius:
            out.append(HIT)
        elif d <= config.near_miss_margin and car.v > 0:
            out.append(NEAR_MISS)
        else:
            out.append(CLEAR)
    return out


def _car_collides(world: WorldState) -> bool:
    """Collision of the ego rectangle with other cars or static obstacles."""
    car = world.car
    config = world.config
    for other in world.others:
        if _rects_overlap(car.x, car.y, car.heading, config.car_length, config.car_width,
                          other.x, other.y, other.heading, config.car_length, config.car_width):
            return True
    for (bx0, by0, bx1, by1) in world.scene.obstacles:
        cx, cy = (bx0 + bx1) / 2.0, (by0 + by1) / 2.0
        if _rects_overlap(car.x, car.y, car.heading, config.car_length, config.car_width,
                          cx, cy, 0.0, bx1 - bx0, by1 - by0):
            return True
    return False


# ---------------------------------------------------------------------------
# reward


def _contacts(world: WorldState, c: float, s: float) -> tuple[float, list[str], bool]:
    """Goal distance, per-pedestrian proximity and car/obstacle collision of
    the current state, given the cosine and sine of the car heading: what
    the reward and the termination test both read."""
    car, goal = world.car, world.scene.car_goal
    return (math.hypot(car.x - goal[0], car.y - goal[1]),
            _proximity(world, c, s), _car_collides(world))


def compute_reward(world: WorldState, action: Action) -> RewardBreakdown:
    """Reward terms for the current world state after applying ``action``.

    goal +200; hit -100*beta with beta = impact speed / 50 km/h; obstacle
    -100 (``OBSTACLE_PENALTY``) when something is in the hit area while
    moving; near-miss -10; over-speeding -10; per-step goal distance penalty
    -dist/1000; -1 for braking while stationary; -1 for nonzero steering,
    which ``step`` never applies.
    """
    heading = world.car.heading
    return _reward(world, action, *_contacts(world, math.cos(heading), math.sin(heading)))


def _reward(world: WorldState, action: Action, goal_dist: float, prox: list[str],
            car_hit: bool) -> RewardBreakdown:
    config = world.config
    car = world.car
    goal = hit = obstacle = near_miss = over_speeding = not_goal = braking = steer = 0.0
    if goal_dist <= config.goal_tol:
        goal = 200.0
    else:
        not_goal = -goal_dist / 1000.0
    if HIT in prox or car_hit:
        beta = car.v / config.speed_limit  # impact speed over the 50 km/h limit
        hit = -100.0 * beta
        if car.v != 0:
            obstacle = OBSTACLE_PENALTY
    if NEAR_MISS in prox:
        near_miss = -10.0
    if car.v > config.speed_limit:
        over_speeding = -10.0
    if action.acc == DECELERATE and world.v_prev == 0:
        braking = -1.0
    if action.steer != 0.0:
        steer = -1.0
    return RewardBreakdown(goal, hit, obstacle, near_miss, over_speeding, not_goal, braking, steer)


# ---------------------------------------------------------------------------
# observation


def build_observation(world: WorldState,
                      frame: Optional[tuple[float, float]] = None) -> np.ndarray:
    """The policy input row of the current state; the module docstring gives
    its layout. ``frame`` is the cosine and sine of the car heading, when
    the caller has taken them already."""
    config = world.config
    car = world.car
    c, s = frame if frame is not None else (math.cos(car.heading), math.sin(car.heading))
    sx, sy, _ = world.scene.car_start
    gx, gy = world.scene.car_goal
    dx, dy = gx - car.x, gy - car.y
    goal_x, goal_y = c * dx + s * dy, -s * dx + c * dy
    # the lateral offset from the route: the cross product with its unit direction
    rx, ry = gx - sx, gy - sy
    length = math.hypot(rx, ry)
    lateral = rx / length * (car.y - sy) - ry / length * (car.x - sx)
    car_vx, car_vy = car.v * c, car.v * s

    sensed = []
    for ped in world.peds:
        dx, dy = ped.x - car.x, ped.y - car.y
        dist = math.hypot(dx, dy)
        if dist > config.sense_radius or is_occluded(world, ped):
            continue
        dvx = ped.speed * math.cos(ped.heading) - car_vx
        dvy = ped.speed * math.sin(ped.heading) - car_vy
        sensed.append((dist, [(c * dx + s * dy) / 50.0, (-s * dx + c * dy) / 50.0,
                              (c * dvx + s * dvy) / 3.0, (-s * dvx + c * dvy) / 3.0, 1.0]))
    sensed.sort(key=lambda item: item[0])

    speed = car.v / 15.0
    reward = world.prev_reward / 10.0
    onehot = [0.0, 0.0, 0.0]
    onehot[world.prev_action.acc] = 1.0
    row = [goal_x / 50.0, goal_y / 50.0, lateral / 5.0, speed, *onehot, reward]
    for _, slot in sensed[: config.k_pedestrians]:
        row += slot
    row += [0.0] * (5 * (config.k_pedestrians - len(sensed)))
    row += [reward, speed, 0.0, onehot[2] - onehot[0]]
    return np.array(row)


# ---------------------------------------------------------------------------
# reset / step


def reset(scene: Scene, config: EnvConfig = EnvConfig()) -> tuple[WorldState, np.ndarray]:
    """Instantiate a scene: place everyone at spawn."""
    sx, sy, sh = scene.car_start
    px, py = scene.ped_spawn
    gx, gy = scene.ped_goal
    heading = math.atan2(gy - py, gx - px) % (2 * math.pi)
    world = WorldState(
        scene=scene,
        config=config,
        car=CarState(sx, sy, sh % (2 * math.pi), 0.0),
        peds=[PedestrianState(px, py, (gx, gy), scene.ped_speed, heading)],
        others=[CarState(oc.start[0], oc.start[1], oc.heading, oc.speed)
                for oc in scene.other_cars],
    )
    return world, build_observation(world)


_STRAIGHT = tuple(Action(acc, 0.0) for acc in range(N_ACTIONS))  # the Action of each step


def step(world: WorldState, acc: int) -> np.ndarray:
    """Advance one control period, mutating the world state; returns the
    observation row of the new state.

    Steers 0.0, so the heading stays, and takes its cosine and sine once for
    the move, the proximity test and the observation. The reward total is
    summed once, into ``world.prev_reward``; the module docstring lists the
    rest of the step the world holds. An action that is not the int 0, 1 or
    2 is a UsageError, raised before the world changes."""
    if world.done:
        raise UsageError("episode already finished")
    if not (is_int(acc) and ACCELERATE <= acc <= DECELERATE):
        raise UsageError(f"bad speed action {acc!r}")
    config = world.config
    car = world.car
    world.v_prev = car.v
    if acc == ACCELERATE:
        car.v = min(car.v + config.speed_step, config.v_max)
    elif acc == DECELERATE:
        car.v = max(car.v - config.speed_step, 0.0)

    # bicycle kinematics at a steering of 0.0
    frame = c, s = math.cos(car.heading), math.sin(car.heading)
    car.x += car.v * c * config.dt
    car.y += car.v * s * config.dt

    for ped in world.peds:
        gx, gy = ped.goal
        remaining = math.hypot(gx - ped.x, gy - ped.y)
        advance = min(ped.speed * config.dt, remaining)
        if remaining > 1e-9:
            ped.x += advance * (gx - ped.x) / remaining
            ped.y += advance * (gy - ped.y) / remaining
    for other in world.others:
        other.x += other.v * math.cos(other.heading) * config.dt
        other.y += other.v * math.sin(other.heading) * config.dt

    world.t += 1
    goal_dist, prox, car_hit = _contacts(world, *frame)
    action = _STRAIGHT[acc]
    reward = _reward(world, action, goal_dist, prox, car_hit)
    if goal_dist <= config.goal_tol:
        world.done, world.outcome = True, "goal"
    elif HIT in prox or car_hit:
        world.done, world.outcome = True, "collision"
    elif world.t >= config.max_steps:
        world.done, world.outcome = True, "timeout"

    world.prev_action = action
    world.prev_reward = reward.total
    world.proximity = prox
    return build_observation(world, frame)
