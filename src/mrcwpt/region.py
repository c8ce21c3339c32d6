"""Achievable power regions, sampled on load-resistance grids.

Without time sharing the region is the image of the load box under the
per-load power map (generally nonconvex). With time sharing it is the set
of convex mixtures, with total weight at most one, of points drawn from
every switch configuration's region; since mixtures are linear in the
sampled vertices, the convex hull of the pooled samples plus the origin
realizes that set exactly on the sample vertices.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

import numpy as np

from ._csvfmt import RowFormat
from .circuit import SwitchState, SystemConfig, resonant_powers
from .errors import ValidationError
from .timeshare import enumerate_configs

DEFAULT_GRID_2D = 200
DEFAULT_GRID_3D = 60

WITHOUT_TS = "without-ts"
WITH_TS = "with-ts"

# rows converted to Python floats at a time by the frontier sweeps
_ROW_CHUNK = 1024
# rows encoded per write when exporting CSV; the encoder's scratch memory
# grows with the block (about 0.9 MiB for 4,096 rows of three powers)
_CSV_CHUNK = 4096
# most power values (sampled tuples times receivers) a region may hold:
# 0.8 GB as float64, above every default-grid region up to N = 4
_MAX_REGION_VALUES = 10**8


@dataclass(frozen=True)
class PowerRegionSample:
    """A sampled power region.

    ``points`` holds one achievable power tuple per row. ``boundary`` is
    the outer frontier: the componentwise-maximal (Pareto) samples for the
    concurrent region, or the hull vertices for the time-shared region.
    """

    points: np.ndarray
    mode: str
    grid_points: int
    bounds: tuple[tuple[float, float], ...]
    boundary: np.ndarray


def _grid_points(sys: SystemConfig, grid_points: int | None, loads: int, with_ts: bool) -> int:
    """The grid size to sample ``loads`` loads on, the default for None,
    checked before anything is sampled: a grid of g points per load gives
    g**loads power tuples, (g + 1)**loads when every switch configuration
    and the origin are pooled for time sharing."""
    if grid_points is None:
        grid_points = DEFAULT_GRID_2D if loads <= 2 else DEFAULT_GRID_3D
    if grid_points < 2:
        raise ValidationError("grid_points must be at least 2")
    count = (grid_points + with_ts) ** loads
    if count * sys.n_receivers > _MAX_REGION_VALUES:
        raise ValidationError(
            f"grid_points = {grid_points} gives {count} power tuples of "
            f"{sys.n_receivers} receivers, more than {_MAX_REGION_VALUES} values"
        )
    return grid_points


def _power_samples(sys: SystemConfig, sw: SwitchState, grid_points: int) -> np.ndarray:
    """Power tuples for every grid combination of the connected loads."""
    conn = sw.connected
    axes = [np.geomspace(sys.x_lo[k], sys.x_hi[k], grid_points) for k in conn]
    x = list(sys.x_hi)
    for k, axis in zip(conn, np.meshgrid(*axes, indexing="ij", sparse=True)):
        x[k] = axis
    _, p, _ = resonant_powers(sys, x, sw.s)
    return np.stack(p, axis=-1).reshape(-1, sys.n_receivers)


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order, as
    ``np.unique(points, axis=0)`` gives them: one sort, then a neighbour
    comparison, about twice as fast on large samples."""
    if len(points) == 0:
        return points
    pts = points[np.lexsort(points.T[::-1])]
    keep = np.ones(len(pts), dtype=bool)
    np.any(pts[1:] != pts[:-1], axis=1, out=keep[1:])
    return pts[keep]


def pareto_boundary(points: np.ndarray) -> np.ndarray:
    """Componentwise-maximal (Pareto) points in lexicographic order.

    Two- and three-dimensional inputs use O(n log n) sweeps that stream
    the sorted rows as Python floats, converted a chunk at a time; higher
    dimensions fall back to an iterative dominance filter, so keep those
    sample sets moderate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
    pts = _unique_rows(pts)
    if pts.shape[1] == 1:
        return pts[[-1]]
    if pts.shape[1] == 2:
        # scan by first coordinate descending (distinct sorted rows
        # reversed); a point survives when its second coordinate beats
        # everything seen so far
        order = np.arange(len(pts))[::-1]
        best = -math.inf
        keep = []
        for pos, (_, y) in enumerate(_row_lists(pts, order)):
            if y > best:
                keep.append(pos)
                best = y
        # keep holds at most one row per first coordinate, in descending order
        return pts[order[keep[::-1]]]
    if pts.shape[1] == 3:
        frontier = pts[_maxima_3d(pts)]
        return frontier[np.lexsort(frontier.T[::-1])]
    # visiting candidates in decreasing coordinate sum prunes the cloud fast
    order = np.argsort(-pts.sum(axis=1))
    pts = pts[order]
    efficient = np.ones(len(pts), dtype=bool)
    for i in range(len(pts)):
        if not efficient[i]:
            continue
        survivors = np.any(pts[efficient] > pts[i], axis=1)
        efficient[efficient] = survivors
        efficient[i] = True
    frontier = pts[efficient]
    return frontier[np.lexsort(frontier.T[::-1])]


def _row_lists(pts: np.ndarray, order):
    """The rows ``pts[order]`` as Python lists, converted a chunk at a time.

    Python floats make the sweeps' scalar arithmetic several times cheaper
    than numpy scalars; converting every row at once would hold the whole
    array as Python objects.
    """
    for a in range(0, len(order), _ROW_CHUNK):
        yield from pts[order[a : a + _ROW_CHUNK]].tolist()


def _maxima_3d(pts: np.ndarray) -> np.ndarray:
    """Indices of componentwise-maximal rows among distinct 3-D points in
    lexicographic order.

    Plane sweep in decreasing first coordinate with a staircase of the
    (second, third)-coordinate frontier seen so far: ascending second
    coordinate, strictly descending third. O(n log n). Within a run of
    equal first coordinates (second, then third coordinate descending)
    only a row whose third coordinate beats the run's earlier rows can be
    maximal; it is then tested against the staircase.
    """
    order = np.arange(len(pts))[::-1]
    stair_y: list[float] = []
    stair_z: list[float] = []
    keep = []
    x_run = None
    best_z = -math.inf
    for pos, (x, y, z) in enumerate(_row_lists(pts, order)):
        if x != x_run:
            x_run = x
            best_z = -math.inf
        if not z > best_z:
            continue
        best_z = z
        at = bisect.bisect_left(stair_y, y)
        if at < len(stair_y) and stair_z[at] >= z:
            continue  # dominated by an earlier (strictly larger x) point
        keep.append(pos)
        # splice the new step in, dropping the steps it dominates
        lo = at
        while lo > 0 and stair_z[lo - 1] <= z:
            lo -= 1
        hi = at
        while hi < len(stair_y) and stair_y[hi] == y and stair_z[hi] <= z:
            hi += 1
        stair_y[lo:hi] = [y]
        stair_z[lo:hi] = [z]
    return order[keep]


def hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of planar points, counterclockwise (monotone chain).

    Only exactly collinear vertices are dropped; keeping near-collinear
    ones costs a few extra vertices but guarantees every input point stays
    inside the hull to float accuracy. Both chains stream the sorted rows
    as Python floats, converted a chunk at a time.
    """
    pts = _unique_rows(np.asarray(points, dtype=float))
    if len(pts) <= 2:
        return pts

    def build(rows):
        chain = []
        for p in rows:
            px, py = p
            while len(chain) >= 2:
                ax, ay = chain[-2]
                bx, by = chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    n = len(pts)
    lower = build(_row_lists(pts, range(n)))
    upper = build(_row_lists(pts, range(n - 1, -1, -1)))
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return np.array([pts[0], pts[-1]])
    return hull


def hull_area_2d(vertices: np.ndarray) -> float:
    """Shoelace area of a counterclockwise polygon (0 for degenerate hulls)."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.abs(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def point_in_hull_2d(point, vertices: np.ndarray, tol: float = 1e-6) -> bool:
    """Whether a point lies in a counterclockwise convex polygon within tol."""
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(point, dtype=float)
    if len(v) == 0:
        return False
    if len(v) == 1:
        return bool(np.linalg.norm(p - v[0]) <= tol)
    if len(v) == 2:
        a, b = v
        ab = b - a
        length = np.linalg.norm(ab)
        if length == 0.0:
            return bool(np.linalg.norm(p - a) <= tol)
        t = float(np.clip((p - a) @ ab / (length * length), 0.0, 1.0))
        return bool(np.linalg.norm(a + t * ab - p) <= tol)
    for i in range(len(v)):
        a = v[i]
        b = v[(i + 1) % len(v)]
        edge = b - a
        norm = np.linalg.norm(edge)
        if norm == 0.0:
            continue
        # signed distance to the edge line; negative means outside (CCW hull)
        if ((edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])) / norm) < -tol:
            return False
    return True


def points_in_hull_2d(points, vertices: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Vectorized :func:`point_in_hull_2d` over many points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return np.array([point_in_hull_2d(p, v, tol) for p in pts])
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(v)):
        a = v[i]
        b = v[(i + 1) % len(v)]
        edge = b - a
        norm = float(np.hypot(edge[0], edge[1]))
        if norm == 0.0:
            continue
        signed = (edge[0] * (pts[:, 1] - a[1]) - edge[1] * (pts[:, 0] - a[0])) / norm
        inside &= signed >= -tol
    return inside


def _hull_nd(points: np.ndarray):
    """Hull vertices and facet equations for 3-D point clouds (via qhull)."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    return hull


def points_in_hull_nd(points, hull, tol: float = 1e-6) -> np.ndarray:
    """Vectorized facet test against a scipy ConvexHull."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    normals = hull.equations[:, :-1]
    offsets = hull.equations[:, -1]
    return np.all(pts @ normals.T + offsets <= tol, axis=1)


def sample_region_without_ts(
    sys: SystemConfig, sw: SwitchState | None = None, grid_points: int | None = None
) -> PowerRegionSample:
    """Concurrent-transfer region: power tuples over a log grid of the load box."""
    if sw is None:
        sw = SwitchState.all_closed(sys.n_receivers)
    grid_points = _grid_points(sys, grid_points, len(sw.connected), with_ts=False)
    points = _power_samples(sys, sw, grid_points)
    return PowerRegionSample(
        points=points,
        mode=WITHOUT_TS,
        grid_points=grid_points,
        bounds=tuple((sys.x_lo[k], sys.x_hi[k]) for k in range(sys.n_receivers)),
        boundary=pareto_boundary(points),
    )


def sample_region_with_ts(
    sys: SystemConfig, grid_points: int | None = None
) -> PowerRegionSample:
    """Time-shared region: hull of all per-configuration samples plus the origin.

    Mixtures are linear in the sampled vertices, so the hull needs no
    explicit time-fraction grid.
    """
    n = sys.n_receivers
    grid_points = _grid_points(sys, grid_points, n, with_ts=True)

    pools = [np.zeros((1, n))]
    for sw in enumerate_configs(n):
        pools.append(_power_samples(sys, sw, grid_points))
    points = np.vstack(pools)

    if n == 1:
        boundary = np.array([[0.0], [float(points.max())]])
    elif n == 2:
        boundary = hull_2d(points)
    elif n == 3:
        hull = _hull_nd(points)
        boundary = points[hull.vertices] if hull is not None else np.zeros((0, n))
    else:
        boundary = np.zeros((0, n))
    return PowerRegionSample(
        points=points,
        mode=WITH_TS,
        grid_points=grid_points,
        bounds=tuple((sys.x_lo[k], sys.x_hi[k]) for k in range(n)),
        boundary=boundary,
    )


def region_to_csv(sample: PowerRegionSample, path) -> None:
    """Write the region CSV (see :func:`write_region_csv`) to a file."""
    try:
        with open(path, "w", newline="") as handle:
            write_region_csv(sample, handle)
    except OSError as exc:
        raise OSError(f"cannot write region CSV to {path}: {exc}") from exc


def write_region_csv(sample: PowerRegionSample, stream) -> None:
    """Write points then boundary as CSV sections, deterministically ordered."""
    n = sample.points.shape[1]
    stream.write(",".join([f"p_{k + 1}" for k in range(n)] + ["section"]) + "\r\n")
    for section, rows in (("points", sample.points), ("boundary", sample.boundary)):
        # the text csv.writer makes of these rows: nothing needs quoting
        encode = RowFormat(",".join(["%.11e"] * n) + f",{section}\r\n")
        for a in range(0, len(rows), _CSV_CHUNK):
            stream.write(encode(rows[a : a + _CSV_CHUNK]))


def read_region_csv(path):
    """Parse a region CSV back into (points, boundary) arrays."""
    points = []
    boundary = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        n = len(header) - 1
        for row in reader:
            values = [float(v) for v in row[:n]]
            (points if row[n] == "points" else boundary).append(values)
    return (
        np.array(points).reshape(-1, n),
        np.array(boundary).reshape(-1, n),
    )
