"""Grid cost map and a weighted hybrid A* planner with motion primitives.

The planner searches over (x, y, discretized heading) using arc primitives
that match the car's five steering bins, returns a drivable pose sequence,
and a pure-pursuit tracker snaps per-step steering back onto those bins.

Path queries
------------
``tracking_steering`` looks up the path vertex nearest to the car and
``cross_track_error`` the nearest path segment, once per step each. Both run
the scalar loops of ``tests/oracles.py`` (``math.hypot`` distances, the first
strict minimum wins, then the forward walk to the lookahead vertex), but only
over the candidates of the square cell of side 1.0 m that holds the query
point. A path builds its cell index on first use and each cell on the first
query that lands in it. A vertex or segment is a candidate of a cell when
its minimum distance to the cell is at most the smallest maximum distance of
any item of its kind, times (1 + 1e-9), plus 1e-12 times the largest
coordinate of the indexed region (at least 1 m). A segment's minimum is
bounded below through its bounding box, and its maximum is the largest of
the four distances from the cell's corners (distance to a segment is
convex). Every point of the cell lies within that smallest maximum of some
item, and an excluded item lies farther than it from every point of the
cell by more than the slack, which is far above the rounding of a computed
distance (a few ulps of the coordinates). So an excluded item's computed
distance always exceeds the smallest one, and the first strict minimum over
the candidates, taken in path order, is the whole-path loop's choice, bit
for bit. Cells cover the path's bounding box grown by 16 m on each side; a
point outside it, including a non-finite one, takes every item as a
candidate in the same loop, which also bounds the index's memory.
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
_CELL = 1.0  # side of a path-index cell, m; a power of two, so x / _CELL is exact
_CELL_REACH = 16.0  # the cells extend this far beyond the path's bounding box, m


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
        """Arrays the path index is built from, built on first use: vertex x
        and y, then start x, start y, vector x, vector y and squared length of
        every segment of nonzero length. Read-only, since paths are shared."""
        xy = np.array([pose[:2] for pose in self.poses], dtype=float).reshape(-1, 2)
        px, py = xy[:, 0].copy(), xy[:, 1].copy()
        vx, vy = px[1:] - px[:-1], py[1:] - py[:-1]
        len2 = vx * vx + vy * vy
        keep = len2 != 0
        arrays = (px, py, px[:-1][keep], py[:-1][keep], vx[keep], vy[keep], len2[keep])
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _index(self) -> "_CellIndex":
        """The candidates of each cell for the nearest-item queries (see
        "Path queries" in the module docstring), built on first use."""
        return _CellIndex(self._segments)


class _CellIndex:
    """Per cell of side ``_CELL``, the vertices (index, x, y) and the segments
    (start x, start y, vector x, vector y, squared length) that can be the
    nearest of their kind to a point in it, in path order. Each cell is built
    on the first query that lands in it."""

    def __init__(self, segments: tuple[np.ndarray, ...]):
        px, py, x1, y1, vx, vy, len2 = self._arrays = segments
        self.xs, self.ys = px.tolist(), py.tolist()
        self.everything = (tuple(zip(range(len(px)), self.xs, self.ys)),
                           tuple(zip(*(a.tolist() for a in segments[2:]))))
        self.cells: dict = {}
        # the region's lower and upper cell numbers, x then y; none without
        # poses or with a non-finite one
        lo = hi = np.zeros(2)
        if len(px) and np.isfinite(px).all() and np.isfinite(py).all():
            lo = np.floor(np.array([px.min(), py.min()]) / _CELL) - _CELL_REACH
            hi = np.floor(np.array([px.max(), py.max()]) / _CELL) + _CELL_REACH + 1
        (self.x0, self.y0), (self.x1, self.y1) = (lo * _CELL).tolist(), (hi * _CELL).tolist()
        self.ny = int(hi[1] - lo[1])
        # rounding of a distance is a few ulps of the largest coordinate
        self.slack = 1e-12 * max(1.0, float(np.abs([lo, hi]).max()) * _CELL)

    def near(self, x: float, y: float) -> tuple[tuple, tuple]:
        """(vertices, segments): the candidates of the cell holding (x, y), or
        every item for a point outside the indexed region."""
        if not (self.x0 <= x < self.x1 and self.y0 <= y < self.y1):
            return self.everything
        ix, iy = math.floor(x / _CELL), math.floor(y / _CELL)
        key = ix * self.ny + iy
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = self._build(ix * _CELL, iy * _CELL)
        return cell

    def _build(self, a: float, c: float) -> tuple[tuple, tuple]:
        """The candidates of the cell [a, a + _CELL) x [c, c + _CELL)."""
        b, d = a + _CELL, c + _CELL
        px, py, x1, y1, vx, vy, len2 = self._arrays
        vertices, segments = self.everything
        # vertices: distance to the cell, and to its farthest corner
        near = np.hypot(_gap(px, px, a, b), _gap(py, py, c, d))
        far = np.hypot(np.maximum(np.abs(px - a), np.abs(px - b)),
                       np.maximum(np.abs(py - c), np.abs(py - d)))
        kept_vertices = self._candidates(vertices, near, far)
        if not len(len2):
            return kept_vertices, ()
        # segments: bounding box to the cell, and the farthest corner's distance
        x2, y2 = x1 + vx, y1 + vy
        near = np.hypot(_gap(np.minimum(x1, x2), np.maximum(x1, x2), a, b),
                        _gap(np.minimum(y1, y2), np.maximum(y1, y2), c, d))
        ex, ey = np.array([[a], [a], [b], [b]]) - x1, np.array([[c], [d], [c], [d]]) - y1
        t = np.clip((ex * vx + ey * vy) / len2, 0.0, 1.0)
        far = np.hypot(ex - t * vx, ey - t * vy).max(axis=0)
        return kept_vertices, self._candidates(segments, near, far)

    def _candidates(self, items: tuple, near: np.ndarray, far: np.ndarray) -> tuple:
        limit = float(far.min()) * (1.0 + 1e-9) + self.slack
        return tuple(items[k] for k in np.flatnonzero(near <= limit).tolist())


def _gap(lo: np.ndarray, hi: np.ndarray, a: float, b: float) -> np.ndarray:
    """Distance along one axis from each interval [lo, hi] to [a, b]."""
    return np.maximum(np.maximum(a - hi, lo - b), 0.0)


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
    # nearest vertex, then the first vertex from there at the lookahead
    # distance; a point with no finite distance lies outside the index, so it
    # scans every vertex and vertex 0 is the loops' first minimum too
    index = path._index
    i, best = 0, math.inf
    for j, px, py in index.near(x, y)[0]:
        d = math.hypot(px - x, py - y)
        if d < best:
            i, best = j, d
    target = path.poses[-1]
    xs, ys = index.xs, index.ys
    for j in range(i, len(xs)):
        if math.hypot(xs[j] - x, ys[j] - y) >= lookahead:
            target = path.poses[j]
            break
    dx, dy = target[0] - x, target[1] - y
    dist = math.hypot(dx, dy)
    if dist < 0.5:
        return 0.0
    eta = math.atan2(dy, dx) - heading
    eta = (eta + math.pi) % (2 * math.pi) - math.pi
    desired = math.atan2(2.0 * wheelbase * math.sin(eta), dist)
    # the first bin of least error, as min(key=...) picks it: a NaN error is
    # never less, so a NaN desired angle keeps STEERING_BINS[0]
    snapped, least = STEERING_BINS[0], abs(STEERING_BINS[0] - desired)
    for b in STEERING_BINS[1:]:
        err = abs(b - desired)
        if err < least:
            snapped, least = b, err
    return snapped


def cross_track_error(path: Path, x: float, y: float) -> float:
    """Signed lateral offset to the nearest path segment (left positive)."""
    if not path.poses:
        return 0.0
    if len(path.poses) == 1:
        px, py, _ = path.poses[0]
        return math.hypot(x - px, y - py)
    best = math.inf
    signed = 0.0
    for x1, y1, vx, vy, len2 in path._index.near(x, y)[1]:
        t = max(0.0, min(1.0, ((x - x1) * vx + (y - y1) * vy) / len2))
        d = math.hypot(x - (x1 + t * vx), y - (y1 + t * vy))
        if d < best:
            best = d
            cross = vx * (y - y1) - vy * (x - x1)
            signed = math.copysign(d, cross) if cross != 0 else d
    return signed
