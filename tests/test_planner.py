"""Grid cost maps, the arc-primitive path planner, and path tracking."""

import math

import numpy as np
import pytest

from qnav import env, planner
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


# ---------------------------------------------------------------------------
# vectorized path queries against the scalar loops in tests/oracles.py


def same_float(a, b):
    """Exact equality, including the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def grid_paths():
    """The path of every distinct obstacle layout of the train and test grids."""
    paths = {}
    for split in ("train", "test"):
        for scene in env.generate_scenes(split):
            key = (scene.obstacles, scene.car_start, scene.car_goal)
            if key not in paths:
                paths[key] = oracles.plan(scene)
    return list(paths.values())


def hand_paths():
    pose = (3.0, -1.0, 0.5)
    return [
        planner.Path((), (), 0.0),
        planner.Path((pose,), (), 0.0),
        planner.Path((pose, pose), (0.0,), 0.0),  # only a zero-length segment
        planner.Path(((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 1.6),
                      (8.0, 3.0, 0.0)), (0.0,) * 4, 0.0),
        planner.Path(((0.0, 0.0, 0.0), (10.0, 0.0, 0.0)), (0.0,), 10.0),
    ]


def check_queries(path, x, y, heading, speed):
    got = planner.cross_track_error(path, x, y)
    want = oracles.cross_track_error(path, x, y)
    assert same_float(got, want), (path.poses[:2], x, y, got, want)
    got = planner.tracking_steering(path, (x, y, heading), speed)
    want = oracles.tracking_steering(path, (x, y, heading), speed)
    assert same_float(got, want), (path.poses[:2], x, y, heading, speed, got, want)


def lookahead_speeds(path, x, y):
    """Speeds whose lookahead 0.8 * speed equals a vertex distance exactly, as
    math.hypot or np.hypot gives it, or exceeds the math.hypot one by an ulp."""
    xy = np.array([pose[:2] for pose in path.poses]).reshape(-1, 2)
    np_dists = np.hypot(xy[:, 0] - x, xy[:, 1] - y).tolist()
    speeds = []
    for (px, py, _), nd in zip(path.poses, np_dists):
        md = math.hypot(px - x, py - y)
        for d in dict.fromkeys((md, nd, float(np.nextafter(md, math.inf)))):
            for s in np.nextafter(d / 0.8, [0.0, math.inf]).tolist() + [d / 0.8]:
                if d >= 4.0 and 0.8 * s == d:
                    speeds.append(s)
                    break
    return speeds


def test_path_queries_equal_scalar_loops():
    rng = np.random.default_rng(2024)
    paths = grid_paths() + hand_paths()
    checked = 0
    for path in paths:
        for _ in range(24):
            x, y = rng.uniform(-12.0, 115.0), rng.uniform(-9.0, 9.0)
            check_queries(path, x, y, rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 20.0))
            checked += 1
        for px, py, ph in path.poses:  # poses exactly on the vertices
            check_queries(path, px, py, ph, rng.uniform(0.0, 20.0))
            # lookahead 4.0 landing exactly on this vertex
            check_queries(path, px - 4.0, py, ph, 0.0)
            checked += 2
        x, y = rng.uniform(-5.0, 60.0), rng.uniform(-3.0, 3.0)
        for speed in lookahead_speeds(path, x, y)[::4]:
            check_queries(path, x, y, rng.uniform(0.0, 2 * math.pi), speed)
            checked += 1
    assert len(paths) == 173 + 5
    assert checked > 20_000


def test_path_arrays_are_built_once_and_read_only():
    path = hand_paths()[3]
    arrays = path._segments
    assert path._segments is arrays
    px, py, x1, y1, vx, vy, len2 = arrays
    assert px.tolist() == [0.0, 4.0, 4.0, 4.0, 8.0]
    assert x1.tolist() == [0.0, 4.0, 4.0] and len2.tolist() == [16.0, 9.0, 16.0]
    with pytest.raises(ValueError):
        px[0] = 1.0


def test_near_ties_settle_as_the_loops_do():
    """Poses midway between two vertices. Where np.hypot and math.hypot order
    the two distances differently (about 0.5% of them on x86-64 with glibc),
    the loops' choice must hold."""
    rng = np.random.default_rng(7)
    n = 20_000
    ax, bx, ys = rng.uniform(-6.0, -3.0, n), rng.uniform(3.0, 7.0, n), rng.uniform(4.5, 6.0, n)
    xs = (ax + bx) / 2 + rng.integers(-3, 4, n) * 2.0**-52
    np_a, np_b = np.hypot(ax - xs, -ys).tolist(), np.hypot(bx - xs, -ys).tolist()
    flips, hypots_differ = [], False
    for a, b, x, y, na, nb in zip(ax.tolist(), bx.tolist(), xs.tolist(), ys.tolist(), np_a, np_b):
        ma, mb = math.hypot(a - x, -y), math.hypot(b - x, -y)
        hypots_differ |= (ma, mb) != (na, nb)
        if (ma <= mb) != (na <= nb):
            flips.append((a, b, x, y))
    assert flips or not hypots_differ
    for a, b, x, y in flips + [(-4.0, 6.0, 1.0, 5.0)]:
        two = planner.Path(((a, 0.0, 0.0), (b, 0.0, 0.0)), (0.0,), 0.0)
        vee = planner.Path(((a, 0.0, 0.0), (x, -30.0, 0.0), (b, 0.0, 0.0)), (0.0, 0.0), 0.0)
        for path in (two, vee):
            check_queries(path, x, y, 1.5 * math.pi, 0.0)


def test_lookahead_landing_on_a_vertex_distance():
    """On a zigzag every next vertex flips the steering bin, so taking the
    wrong vertex at the lookahead boundary changes the result."""
    zigzag = planner.Path(tuple((2.0 * k, 3.0 * (-1) ** k, 0.0) for k in range(21)),
                          (0.0,) * 20, 0.0)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        x, y = rng.uniform(-2.0, 30.0), rng.uniform(-0.5, 0.5)
        for speed in lookahead_speeds(zigzag, x, y):
            check_queries(zigzag, x, y, 0.0, speed)
            checked += 1
    assert checked > 5000


# ---------------------------------------------------------------------------
# the cell index behind the path queries


def shaped_paths():
    """A quarter circle, a zigzag, a vertical line, a path with repeated
    vertices (zero-length segments), one pose and none."""
    arc = np.linspace(0.0, math.pi / 2, 25)
    return [
        planner.Path(tuple((10.0 * math.cos(a), 10.0 * math.sin(a), a + math.pi / 2) for a in arc),
                     (0.0,) * 24, 0.0),
        planner.Path(tuple((2.0 * k, 3.0 * (-1) ** k, 0.0) for k in range(11)), (0.0,) * 10, 0.0),
        planner.Path(tuple((5.0, 2.0 * k, math.pi / 2) for k in range(-4, 5)), (0.0,) * 8, 0.0),
        planner.Path(((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                      (2.0, 3.0, 1.6), (2.0, 3.0, 1.6), (5.5, 3.25, 0.0)), (0.0,) * 6, 0.0),
        planner.Path(((1.5, -0.5, 0.3),), (), 0.0),
        planner.Path((), (), 0.0),
    ]


def test_cell_index_queries_equal_scalar_loops():
    """Random points, and points on cell edges and corners and one ulp to
    either side of them, on hand-built paths and a planned one."""
    rng = np.random.default_rng(14)
    paths = shaped_paths() + grid_paths()[:1]
    checked = 0
    for path in paths:
        for _ in range(200):
            x, y = rng.uniform(-20.0, 30.0), rng.uniform(-20.0, 20.0)
            check_queries(path, x, y, rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 20.0))
            checked += 1
        for cx in range(-17, 28, 5):
            for cy in range(-17, 19, 4):
                for x in np.nextafter(float(cx), [-math.inf, math.inf]).tolist() + [float(cx)]:
                    for y in (cy, cy + 0.5, float(np.nextafter(float(cy), -math.inf))):
                        check_queries(path, x, y, 1.0, rng.uniform(0.0, 20.0))
                        checked += 1
    assert checked > 6000


def check_queries_allowing_nan(path, x, y, heading, speed):
    """check_queries, where a NaN answer must be NaN in the loops too."""
    for query, args in ((planner.cross_track_error, (path, x, y)),
                        (planner.tracking_steering, (path, (x, y, heading), speed))):
        got, want = query(*args), getattr(oracles, query.__name__)(*args)
        assert same_float(got, want) or (math.isnan(got) and math.isnan(want)), (args, got, want)


def test_far_and_non_finite_points_scan_every_item():
    """Points beyond the indexed region take every vertex and segment as a
    candidate, build no cell, and give the loops' answers; NaN and inf
    coordinates, headings and speeds raise nothing new."""
    inf, nan = math.inf, math.nan
    points = [(1e6, 0.0), (-1e12, 3.0), (0.0, 1e300), (1e308, -1e308), (150.0, 0.0),
              (nan, 0.0), (0.0, nan), (inf, 0.0), (-inf, inf), (nan, inf)]
    for path in shaped_paths() + grid_paths()[:1]:
        for x, y in points:
            for heading, speed in ((0.5, 3.0), (nan, 3.0), (0.5, nan), (inf, inf)):
                check_queries_allowing_nan(path, x, y, heading, speed)
            if len(path.poses) > 1:
                index = path._index
                assert index.near(x, y) is index.everything
    index = grid_paths()[0]._index
    cells = dict(index.cells)
    for x, y in points:
        index.near(x, y)
    assert index.cells == cells


def test_cells_keep_the_nearest_items_and_few_others():
    """On the planned path, a cell near it keeps a handful of its 49
    vertices and 48 segments."""
    path = grid_paths()[0]
    index = path._index
    assert (len(path.poses), len(index.everything[1])) == (49, 48)
    vertices, segments = index.near(30.5, 1.25)
    assert 1 <= len(vertices) <= 4 and 1 <= len(segments) <= 4
    assert [v[0] for v in vertices] == sorted(v[0] for v in vertices)
