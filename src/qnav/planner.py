"""Grid cost map and a weighted hybrid A* planner with motion primitives.

The planner searches over (x, y, discretized heading) using arc primitives
that match the car's five steering bins, returns a drivable pose sequence,
and a pure-pursuit tracker snaps per-step steering back onto those bins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

STEERING_BINS_DEG = (-50.0, -25.0, 0.0, 25.0, 50.0)
STEERING_BINS = tuple(math.radians(a) for a in STEERING_BINS_DEG)

COST_ROAD = 1
COST_SIDEWALK = 50
COST_BLOCKED = 100

_HEADING_BINS = 16
_STEP = 2.0  # primitive arc length, m
_GOAL_TOL = 2.0
_HEURISTIC_WEIGHT = 1.5  # weighted A*: inflate heuristic for speed
_STEER_TIEBREAK = 0.01  # prefer straight primitives on equal map cost
# np.hypot and math.hypot can differ in the last bit, so a numpy scan only
# narrows a nearest-point choice to the candidates within these bounds of its
# minimum; math.hypot settles among them (the absolute term covers subnormals).
_NEAR_REL = 1e-12
_NEAR_ABS = 1e-300


class PlanningError(RuntimeError):
    """No drivable path between start and goal."""


@dataclass
class CostMap:
    """Discretized bird's-eye obstacle cost grid.

    ``costs[iy, ix]`` covers the square cell with lower corner
    (x0 + ix*res, y0 + iy*res). Queries outside the grid are blocked.
    """

    x0: float
    y0: float
    resolution: float
    costs: np.ndarray  # (ny, nx) int

    def cost_at(self, x: float, y: float) -> int:
        ix = int(math.floor((x - self.x0) / self.resolution))
        iy = int(math.floor((y - self.y0) / self.resolution))
        ny, nx = self.costs.shape
        if not (0 <= ix < nx and 0 <= iy < ny):
            return COST_BLOCKED
        return int(self.costs[iy, ix])


@dataclass(frozen=True)
class Path:
    """Planner output: poses along the path and the cost of getting there."""

    poses: tuple[tuple[float, float, float], ...]  # (x, y, heading)
    steering: tuple[float, ...]  # primitive steering per segment
    total_cost: float

    @cached_property
    def _segments(self) -> tuple[np.ndarray, ...]:
        """Arrays the path queries scan, built on first use: vertex x and y,
        then start x, start y, vector x, vector y and squared length of every
        segment of nonzero length. Read-only, since paths are shared."""
        xy = np.array([pose[:2] for pose in self.poses], dtype=float).reshape(-1, 2)
        px, py = xy[:, 0].copy(), xy[:, 1].copy()
        vx, vy = px[1:] - px[:-1], py[1:] - py[:-1]
        len2 = vx * vx + vy * vy
        keep = len2 != 0
        arrays = (px, py, px[:-1][keep], py[:-1][keep], vx[keep], vy[keep], len2[keep])
        for a in arrays:
            a.flags.writeable = False
        return arrays


def _wrap_angle(a: float) -> float:
    return a % (2.0 * math.pi)


def _primitive(x: float, y: float, heading: float, steer: float, wheelbase: float):
    """Advance one arc of length _STEP under constant steering."""
    substeps = 4
    ds = _STEP / substeps
    for _ in range(substeps):
        x += ds * math.cos(heading)
        y += ds * math.sin(heading)
        heading = _wrap_angle(heading + ds / wheelbase * math.tan(steer))
    return x, y, heading


def plan_path(
    cost_map: CostMap,
    start: tuple[float, float, float],
    goal: tuple[float, float],
    wheelbase: float = 2.5,
    goal_tol: float = _GOAL_TOL,
) -> Path:
    """Minimum-cost path from start pose to goal under the grid costs.

    Raises PlanningError if no path exists (blocked start/goal or exhausted
    search). A start already within ``goal_tol`` of the goal yields an empty
    path.
    """
    sx, sy, sh = start
    gx, gy = goal
    res = cost_map.resolution
    ny, nx = cost_map.costs.shape

    def key(x, y, h):
        return (
            int(math.floor((x - cost_map.x0) / res)),
            int(math.floor((y - cost_map.y0) / res)),
            int(round(h / (2 * math.pi / _HEADING_BINS))) % _HEADING_BINS,
        )

    if not all(0 <= ix < nx and 0 <= iy < ny for ix, iy, _ in (key(sx, sy, 0.0), key(gx, gy, 0.0))):
        raise PlanningError("start or goal outside the cost map")
    if math.hypot(gx - sx, gy - sy) <= goal_tol:
        return Path(poses=(), steering=(), total_cost=0.0)
    if cost_map.cost_at(gx, gy) >= COST_BLOCKED:
        raise PlanningError("goal cell is blocked")

    start_key = key(sx, sy, sh)
    best = {start_key: 0.0}
    came: dict = {}
    counter = 0
    frontier = [(0.0, 0, 0.0, (sx, sy, sh), start_key)]
    goal_state = None
    expansions = 0
    max_expansions = 200_000
    while frontier:
        _, _, g_cost, pose, pkey = heapq.heappop(frontier)
        if g_cost > best.get(pkey, math.inf):
            continue
        x, y, h = pose
        if math.hypot(gx - x, gy - y) <= goal_tol:
            goal_state = pkey
            break
        expansions += 1
        if expansions > max_expansions:
            break
        for steer in STEERING_BINS:
            nx_, ny_, nh = _primitive(x, y, h, steer, wheelbase)
            cell = cost_map.cost_at(nx_, ny_)  # blocked off the grid too
            if cell >= COST_BLOCKED:
                continue
            step_cost = _STEP * cell + (_STEER_TIEBREAK if steer != 0.0 else 0.0)
            nkey = key(nx_, ny_, nh)
            ng = g_cost + step_cost
            if ng < best.get(nkey, math.inf) - 1e-9:
                best[nkey] = ng
                came[nkey] = (pkey, (nx_, ny_, nh), steer)
                counter += 1
                f = ng + _HEURISTIC_WEIGHT * math.hypot(gx - nx_, gy - ny_)
                heapq.heappush(frontier, (f, counter, ng, (nx_, ny_, nh), nkey))
    if goal_state is None:
        raise PlanningError("no path found")

    poses = []
    steering = []
    node = goal_state
    while node in came:
        parent, pose, steer = came[node]
        poses.append(pose)
        steering.append(steer)
        node = parent
    poses.reverse()
    steering.reverse()
    return Path(poses=tuple(poses), steering=tuple(steering), total_cost=best[goal_state])


def _first_nearest(ex: np.ndarray, ey: np.ndarray) -> tuple[np.ndarray, int, float]:
    """np.hypot of the offsets, then the index and math.hypot length of the
    first shortest offset: what a loop over math.hypot keeping the first
    strict minimum would pick."""
    d = np.hypot(ex, ey)
    k = int(d.argmin())
    near = (d <= d[k] * (1.0 + _NEAR_REL) + _NEAR_ABS).nonzero()[0]
    if near.size > 1:
        dists = [math.hypot(ex[i], ey[i]) for i in near.tolist()]
        k = int(near[dists.index(min(dists))])
    return d, k, math.hypot(ex[k], ey[k])


def tracking_steering(
    path: Path,
    pose: tuple[float, float, float],
    speed: float,
    wheelbase: float = 2.5,
) -> float:
    """Steering bin that best tracks the path from the current pose.

    Pure-pursuit on a speed-scaled lookahead point, snapped to the discrete
    bins. Returns 0 for an empty path or when past its end.
    """
    if not path.poses:
        return 0.0
    x, y, heading = pose
    lookahead = max(4.0, 0.8 * speed)
    # nearest vertex, then the first vertex from there at the lookahead distance
    px, py = path._segments[:2]
    ex, ey = px - x, py - y
    d, i, _ = _first_nearest(ex, ey)
    target = path.poses[-1]
    far = (d[i:] >= lookahead * (1.0 - _NEAR_REL)).nonzero()[0]
    if far.size:  # no vertex before i + far[0] can be at the lookahead distance
        for j in range(i + int(far[0]), len(path.poses)):
            if math.hypot(ex[j], ey[j]) >= lookahead:
                target = path.poses[j]
                break
    dx, dy = target[0] - x, target[1] - y
    dist = math.hypot(dx, dy)
    if dist < 0.5:
        return 0.0
    eta = math.atan2(dy, dx) - heading
    eta = (eta + math.pi) % (2 * math.pi) - math.pi
    desired = math.atan2(2.0 * wheelbase * math.sin(eta), dist)
    return min(STEERING_BINS, key=lambda b: abs(b - desired))


def cross_track_error(path: Path, x: float, y: float) -> float:
    """Signed lateral offset to the nearest path segment (left positive)."""
    if not path.poses:
        return 0.0
    if len(path.poses) == 1:
        px, py, _ = path.poses[0]
        return math.hypot(x - px, y - py)
    _, _, x1, y1, vx, vy, len2 = path._segments
    if not len(len2):
        return 0.0
    dx, dy = x - x1, y - y1
    t = np.maximum(np.minimum((dx * vx + dy * vy) / len2, 1.0), 0.0)
    _, k, d = _first_nearest(x - (x1 + t * vx), y - (y1 + t * vy))
    cross = float(vx[k] * dy[k] - vy[k] * dx[k])
    return math.copysign(d, cross) if cross != 0 else d
