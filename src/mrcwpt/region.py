"""Achievable power regions, sampled on load-resistance grids.

Without time sharing the region is the image of the load box under the
per-load power map (generally nonconvex); with it, the convex hull of
every switch configuration's samples plus the origin. Both frontiers see
only the samples that no grid neighbour strictly dominates. That is exact
for the hull too: every configuration samples the same load axes, and at
one grid load fewer connected receivers each draw at least as much power
(the float denominator only grows as terms are added), so by induction on
the connected receivers the box [0, q] of every sample q lies in the
hull, and with it every sample that q strictly dominates.
"""

from __future__ import annotations

import bisect
import csv
import itertools
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
    Both see only the samples that no grid neighbour strictly dominates,
    and equal the frontier and the hull of all ``points``.
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


def _power_grid(sys: SystemConfig, sw: SwitchState, grid_points: int) -> list:
    """Each receiver's power at every grid combination of the k connected
    loads, as arrays of shape ``(grid_points,) * k``. An open receiver's
    power is exactly zero throughout."""
    conn = sw.connected
    axes = [np.geomspace(sys.x_lo[k], sys.x_hi[k], grid_points) for k in conn]
    x = list(sys.x_hi)
    for k, axis in zip(conn, np.meshgrid(*axes, indexing="ij", sparse=True)):
        x[k] = axis
    _, p, _ = resonant_powers(sys, x, sw.s)
    return p


def _neighbour_undominated(powers: list) -> np.ndarray:
    """Mask over a grid of the samples that no grid neighbour strictly
    dominates.

    ``powers`` holds one grid-shaped array per compared coordinate, at
    least one. For each of the (3^k - 1)/2 neighbour offsets d whose first
    nonzero entry is +1, the samples at i and i + d are compared once,
    coordinate by coordinate with exact float comparisons, and a strictly
    dominated one on either side is dropped. Strict dominance is a strict
    partial order on finitely many samples, so every dropped sample is
    dominated by a kept maximal one: the Pareto set of the kept samples is
    the Pareto set of all of them. Equal samples never drop each other.
    """
    shape = powers[0].shape
    keep = np.ones(shape, dtype=bool)
    for d in itertools.product((1, 0, -1), repeat=len(shape)):
        if next((step for step in d if step), 0) != 1:
            continue
        # views of the samples at i and at i + d, over every i where both exist
        here = tuple(slice(max(-step, 0), n - max(step, 0)) for step, n in zip(d, shape))
        there = tuple(slice(max(step, 0), n - max(-step, 0)) for step, n in zip(d, shape))
        ge = np.ones(keep[here].shape, dtype=bool)
        le = np.ones(keep[here].shape, dtype=bool)
        for p in powers:
            ge &= p[here] >= p[there]
            le &= p[here] <= p[there]
        # i strictly dominates i + d where ge and not le, and the reverse
        keep[there] &= le | ~ge
        keep[here] &= ge | ~le
    return keep


def _grid_samples(sys: SystemConfig, sw: SwitchState, grid_points: int):
    """Power tuples for every grid combination of the connected loads, and
    the frontier candidates among them, in the same order: the tuples that
    no grid neighbour strictly dominates."""
    powers = _power_grid(sys, sw, grid_points)
    # the open receivers' zero powers never decide a dominance
    keep = _neighbour_undominated([powers[k] for k in sw.connected])
    points = np.stack(powers, axis=-1).reshape(-1, sys.n_receivers)
    return points, points[keep.reshape(-1)]


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

    Up to three dimensions the rows, zero-padded to three, go through one
    O(n log n) staircase sweep over Python floats; higher dimensions fall
    back to an iterative dominance filter, so keep those sample sets
    moderate. The region sampler hands this only the samples that no grid
    neighbour strictly dominates: 5% of the bundled three-receiver region.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
    pts = _unique_rows(pts)
    if pts.shape[1] <= 3:
        # trailing zero columns keep the rows distinct and in lexicographic
        # order, and never decide a dominance
        return pts[_maxima_3d(np.pad(pts, ((0, 0), (0, 3 - pts.shape[1]))))]
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


def _maxima_3d(pts: np.ndarray) -> np.ndarray:
    """Mask of the componentwise-maximal rows among distinct 3-D points in
    lexicographic order.

    Plane sweep in decreasing first coordinate with a staircase of the
    (second, third)-coordinate frontier seen so far: ascending second
    coordinate, strictly descending third. O(n log n). The rows are
    distinct, so a staircase step that reaches a row in both coordinates
    strictly dominates it.
    """
    stair_y: list[float] = []
    stair_z: list[float] = []
    keep = np.zeros(len(pts), dtype=bool)
    for i, (_, y, z) in zip(range(len(pts) - 1, -1, -1), pts[::-1].tolist()):
        at = bisect.bisect_left(stair_y, y)
        if at < len(stair_y) and stair_z[at] >= z:
            continue  # dominated by an earlier point
        keep[i] = True
        # splice the new step in, dropping the steps it dominates
        lo = at
        while lo > 0 and stair_z[lo - 1] <= z:
            lo -= 1
        hi = at
        while hi < len(stair_y) and stair_y[hi] == y and stair_z[hi] <= z:
            hi += 1
        stair_y[lo:hi] = [y]
        stair_z[lo:hi] = [z]
    return keep


def hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of planar points, counterclockwise (monotone chain).

    Only exactly collinear vertices are dropped; keeping near-collinear
    ones costs a few extra vertices but guarantees every input point stays
    inside the hull to float accuracy. Both chains walk the sorted rows as
    Python floats; the region sampler hands this only the samples that no
    grid neighbour strictly dominates, which leaves the hull unchanged.
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

    rows = pts.tolist()
    lower = build(rows)
    upper = build(rows[::-1])
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
    return bool(points_in_hull_2d(point, vertices, tol)[0])


def points_in_hull_2d(points, vertices: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Which points lie in a counterclockwise convex polygon within tol; a
    degenerate polygon of one or two vertices is that point or segment."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    if len(v) == 0:
        return np.zeros(len(pts), dtype=bool)
    if len(v) <= 2:
        a = v[0]
        ab = v[-1] - a
        t = np.clip((pts - a) @ ab / (ab @ ab or 1.0), 0.0, 1.0)
        return np.linalg.norm(a + t[:, None] * ab - pts, axis=1) <= tol
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(v)):
        a = v[i]
        b = v[(i + 1) % len(v)]
        edge = b - a
        norm = float(np.hypot(edge[0], edge[1]))
        if norm == 0.0:
            continue
        # signed distance to the edge line; negative means outside (CCW hull)
        signed = (edge[0] * (pts[:, 1] - a[1]) - edge[1] * (pts[:, 0] - a[0])) / norm
        inside &= signed >= -tol
    return inside


def _hull_nd(points: np.ndarray):
    """Hull vertices and facet equations for 3-D point clouds (via qhull)."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(points)
    except QhullError:
        return None


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
    points, candidates = _grid_samples(sys, sw, grid_points)
    return PowerRegionSample(
        points=points,
        mode=WITHOUT_TS,
        grid_points=grid_points,
        bounds=tuple((sys.x_lo[k], sys.x_hi[k]) for k in range(sys.n_receivers)),
        boundary=pareto_boundary(candidates),
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

    origin = np.zeros((1, n))
    if n > 3:  # no hull is taken, so no frontier candidates are needed
        pools = [np.stack(_power_grid(sys, sw, grid_points), axis=-1).reshape(-1, n)
                 for sw in enumerate_configs(n)]
        points = np.vstack([origin] + pools)
        boundary = np.zeros((0, n))
    else:
        pools = [_grid_samples(sys, sw, grid_points) for sw in enumerate_configs(n)]
        points = np.vstack([origin] + [samples for samples, _ in pools])
        candidates = np.vstack([origin] + [kept for _, kept in pools])
        if n == 1:
            boundary = np.array([[0.0], [float(points.max())]])
        elif n == 2:
            boundary = hull_2d(candidates)
        else:
            hull = _hull_nd(candidates)
            boundary = candidates[hull.vertices] if hull is not None else np.zeros((0, n))
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
