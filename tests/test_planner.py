"""Grid cost maps, the arc-primitive path planner, and path tracking."""

import math

import numpy as np
import pytest

from qnav import planner
from qnav.planner import CostMap, PlanningError

import oracles


def flat_map(nx=60, ny=21, cost=planner.COST_ROAD):
    return CostMap(x0=0.0, y0=-10.0, resolution=1.0,
                   costs=np.full((ny, nx), cost, dtype=int))


# ---------------------------------------------------------------------------
# cost map


def test_cost_at_and_bounds():
    cmap = flat_map()
    assert cmap.cost_at(5.0, 0.0) == planner.COST_ROAD
    assert cmap.cost_at(-5.0, 0.0) == planner.COST_BLOCKED  # out of bounds
    assert cmap.contains(5.0, 0.0)
    assert not cmap.contains(500.0, 0.0)


def cost_map_to_text(cmap: CostMap) -> str:
    header = f"# x0={cmap.x0} y0={cmap.y0} res={cmap.resolution}\n"
    rows = "\n".join(" ".join(str(int(c)) for c in row) for row in cmap.costs)
    return header + rows + "\n"


def cost_map_from_text(text: str) -> CostMap:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    meta = {}
    if lines and lines[0].startswith("#"):
        for token in lines[0][1:].split():
            key, _, val = token.partition("=")
            meta[key] = float(val)
        lines = lines[1:]
    costs = np.array([[int(v) for v in ln.split()] for ln in lines], dtype=int)
    return CostMap(x0=meta.get("x0", 0.0), y0=meta.get("y0", 0.0),
                   resolution=meta.get("res", 1.0), costs=costs)


def test_cost_map_text_round_trip():
    cmap = flat_map(nx=5, ny=3)
    cmap.costs[1, 2] = planner.COST_SIDEWALK
    loaded = cost_map_from_text(cost_map_to_text(cmap))
    assert loaded.x0 == cmap.x0
    assert loaded.y0 == cmap.y0
    assert loaded.resolution == cmap.resolution
    np.testing.assert_array_equal(loaded.costs, cmap.costs)


# ---------------------------------------------------------------------------
# planning


def test_straight_line_on_empty_map():
    cmap = flat_map()
    path = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    assert path.poses
    assert all(s == 0.0 for s in path.steering)
    assert all(abs(y) < 1.0 for _, y, _ in path.poses)


def test_start_equals_goal():
    cmap = flat_map()
    path = planner.plan_path(cmap, (10.0, 0.0, 0.0), (10.5, 0.0))
    assert path.poses == ()
    assert path.total_cost == 0.0
    assert planner.tracking_steering(path, (10.0, 0.0, 0.0), 1.0) == 0.0


def test_blocked_goal_raises():
    cmap = flat_map()
    cmap.costs[:, 45:] = planner.COST_BLOCKED
    with pytest.raises(PlanningError):
        planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))


def test_outside_map_raises():
    cmap = flat_map()
    with pytest.raises(PlanningError):
        planner.plan_path(cmap, (-100.0, 0.0, 0.0), (50.0, 0.0))


def test_detour_around_block():
    """A wall on the straight line forces a detour; cost stays near optimal."""
    cmap = flat_map()
    cmap.costs[8:13, 25:28] = planner.COST_BLOCKED  # wall across y in [-2, 3)
    start, goal = (2.0, 0.0, 0.0), (50.0, 0.0)
    path = planner.plan_path(cmap, start, goal)
    assert any(s != 0.0 for s in path.steering)
    assert all(cmap.cost_at(x, y) < planner.COST_BLOCKED for x, y, _ in path.poses)

    # brute-force grid shortest path as an optimality reference
    ref = oracles.grid_shortest_path_cost(
        cmap.costs, start=(2, 10), goal=(50, 10), blocked=planner.COST_BLOCKED)
    assert ref < math.inf
    # hypothetical straight line through the cost-100 wall
    straight = sum(cmap.costs[10, ix] for ix in range(2, 50))
    blocked_straight = straight - 3 * planner.COST_ROAD + 3 * planner.COST_BLOCKED
    assert path.total_cost < blocked_straight
    # kinematic constraints cost something, but not much
    assert path.total_cost <= 1.6 * ref + 10.0


def test_planner_not_worse_than_straight_on_empty_map():
    cmap = flat_map()
    path = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    straight_cost = 48.0 * planner.COST_ROAD
    assert path.total_cost <= straight_cost + 2 * planner.COST_ROAD * 2.0


def test_plan_deterministic():
    cmap = flat_map()
    cmap.costs[8:13, 25:28] = planner.COST_BLOCKED
    p1 = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    p2 = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    assert p1 == p2


# ---------------------------------------------------------------------------
# tracking


def test_tracking_steering_straight():
    cmap = flat_map()
    path = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    assert planner.tracking_steering(path, (2.0, 0.0, 0.0), 1.0) == 0.0


def test_tracking_steering_pulls_back_to_path():
    cmap = flat_map()
    path = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    # displaced left of the path: pure pursuit should steer right (negative)
    steer = planner.tracking_steering(path, (10.0, 3.0, 0.0), 2.0)
    assert steer < 0.0
    assert steer in planner.STEERING_BINS


def test_tracking_steering_bins_only():
    cmap = flat_map()
    cmap.costs[8:13, 25:28] = planner.COST_BLOCKED
    path = planner.plan_path(cmap, (2.0, 0.0, 0.0), (50.0, 0.0))
    for pose in path.poses[::3]:
        assert planner.tracking_steering(path, pose, 3.0) in planner.STEERING_BINS


def test_cross_track_error_signs():
    path = planner.Path(
        poses=((0.0, 0.0, 0.0), (10.0, 0.0, 0.0)), steering=(0.0,), total_cost=10.0)
    assert planner.cross_track_error(path, 5.0, 2.0) == pytest.approx(2.0)
    assert planner.cross_track_error(path, 5.0, -2.0) == pytest.approx(-2.0)
    assert planner.cross_track_error(path, 5.0, 0.0) == pytest.approx(0.0)


def test_cross_track_error_empty_path():
    assert planner.cross_track_error(planner.Path((), (), 0.0), 3.0, 4.0) == 0.0
