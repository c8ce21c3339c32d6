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

from ._csvfmt import _FLOAT, RowFormat, _columns, csv_file
from .circuit import SwitchState, SystemConfig, enumerate_configs, grid_slabs
from .errors import ValidationError

DEFAULT_GRID_2D = 200
DEFAULT_GRID_3D = 60

# most power values (sampled tuples times receivers) a region may hold:
# 0.8 GB as float64, above every default-grid region up to N = 14. The grid
# is evaluated in bounded slabs straight into ``points``, so a region at the
# cap costs about those 0.8 GB plus a few bytes per tuple for the pruning
# masks
_MAX_REGION_VALUES = 10**8
# rows the staircase sweep turns into Python floats at a time
_SWEEP_ROWS = 4096


@dataclass(frozen=True)
class PowerRegionSample:
    """A sampled power region.

    ``points`` holds one achievable power tuple per row, column-major
    (each receiver's powers are contiguous). ``boundary`` is
    the outer frontier: the componentwise-maximal (Pareto) samples for the
    concurrent region, or the hull vertices for the time-shared region.
    Both see only the samples that no grid neighbour strictly dominates,
    and equal the frontier and the hull of all ``points``. ``grid_points``
    is the grid the sampler used, per load: the default when it was given
    None.
    """

    points: np.ndarray
    grid_points: int
    boundary: np.ndarray


def _grid_points(sys: SystemConfig, grid_points: int | None, loads: int, with_ts: bool) -> int:
    """The grid size to sample ``loads`` loads on, the default for None,
    checked before anything is sampled: a grid of g points per load gives
    g**loads power tuples, (g + 1)**loads when every switch configuration
    and the origin are pooled for time sharing. From three loads on, the
    default keeps about DEFAULT_GRID_3D**3 tuples: the N-D Pareto filter is
    quadratic in its candidates."""
    default = grid_points is None
    if default:
        grid_points = DEFAULT_GRID_2D if loads <= 2 else int(DEFAULT_GRID_3D ** (3 / loads))
    count = (grid_points + with_ts) ** loads
    too_many = count * sys.n_receivers > _MAX_REGION_VALUES
    if default and (grid_points < 2 or too_many):
        raise ValidationError(f"no default grid fits a region of {sys.n_receivers} receivers")
    if grid_points < 2:
        raise ValidationError("grid_points must be at least 2")
    if too_many:
        raise ValidationError(
            f"grid_points = {grid_points} gives {count} power tuples of "
            f"{sys.n_receivers} receivers, more than {_MAX_REGION_VALUES} values"
        )
    return grid_points


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
    # the comparison masks of every offset are views into these buffers
    buffers = [np.empty(keep.size, dtype=bool) for _ in range(3)]
    for d in itertools.product((1, 0, -1), repeat=len(shape)):
        if next((step for step in d if step), 0) != 1:
            continue
        # views of the samples at i and at i + d, over every i where both exist
        here = tuple(slice(max(-step, 0), n - max(step, 0)) for step, n in zip(d, shape))
        there = tuple(slice(max(step, 0), n - max(-step, 0)) for step, n in zip(d, shape))
        part = keep[here]
        ge, le, tmp = (b[: part.size].reshape(part.shape) for b in buffers)
        np.greater_equal(powers[0][here], powers[0][there], out=ge)
        np.less_equal(powers[0][here], powers[0][there], out=le)
        for p in powers[1:]:
            ge &= np.greater_equal(p[here], p[there], out=tmp)
            le &= np.less_equal(p[here], p[there], out=tmp)
        # i strictly dominates i + d where ge and not le, and the reverse
        # (the in-place operators write through the views into keep)
        np.logical_not(ge, out=tmp)
        tmp |= le
        kept = keep[there]
        kept &= tmp
        np.logical_not(le, out=le)
        le |= ge
        kept = keep[here]
        kept &= le
    return keep


def _fill_grid(sys: SystemConfig, sw: SwitchState, grid_points: int, points: np.ndarray):
    """Write the power tuples of every grid combination of the connected
    loads into the rows of the column-major ``points``, in grid order, one
    bounded slab of the grid at a time."""
    _, slabs = grid_slabs(sys, sw, grid_points)
    for span, _, p in slabs:
        for k, pk in enumerate(p):
            points[span, k] = pk.reshape(-1)


def _grid_samples(sys: SystemConfig, sw: SwitchState, grid_points: int, points: np.ndarray):
    """Fill ``points`` as :func:`_fill_grid` does and return the frontier
    candidates among its rows, in the same order: the tuples that no grid
    neighbour strictly dominates."""
    _fill_grid(sys, sw, grid_points, points)
    # each column of the column-major rows is one contiguous grid; the open
    # receivers' zero powers never decide a dominance
    shape = (grid_points,) * len(sw.connected)
    keep = _neighbour_undominated([points[:, k].reshape(shape) for k in sw.connected])
    return points[keep.reshape(-1)]


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
    for stop in range(len(pts), 0, -_SWEEP_ROWS):
        start = max(stop - _SWEEP_ROWS, 0)
        rows = pts[start:stop, 1:][::-1].tolist()
        for i, (y, z) in zip(range(stop - 1, start - 1, -1), rows):
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


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Hull vertices of up to 3-D points that include the origin.

    The hull is taken over the columns that are not all zero (an uncoupled
    receiver's column is, and would leave qhull a flat cloud); the other
    columns of every vertex are zero. With one such column the hull is the
    segment from the origin to its maximum; with none, the origin.
    """
    live = np.flatnonzero(points.any(axis=0))
    sub = points[:, live]
    if len(live) == 0:
        hull = sub[:1]
    elif len(live) == 1:
        hull = np.array([[0.0], [float(sub.max())]])
    elif len(live) == 2:
        hull = hull_2d(sub)
    else:
        qhull = _hull_nd(sub)
        hull = sub[qhull.vertices] if qhull is not None else sub[:0]
    vertices = np.zeros((len(hull), points.shape[1]))
    vertices[:, live] = hull
    return vertices


def sample_region_without_ts(
    sys: SystemConfig, grid_points: int | None = None
) -> PowerRegionSample:
    """Concurrent-transfer region: power tuples over a log grid of the load
    box, every receiver connected."""
    n = sys.n_receivers
    grid_points = _grid_points(sys, grid_points, n, with_ts=False)
    points = np.empty((grid_points**n, n), order="F")
    candidates = _grid_samples(sys, SwitchState.all_closed(n), grid_points, points)
    return PowerRegionSample(
        points=points, grid_points=grid_points, boundary=pareto_boundary(candidates)
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

    # the origin, then each configuration's samples, written in place
    points = np.empty(((grid_points + 1) ** n, n), order="F")
    points[0] = 0.0
    candidates = [points[:1]]
    start = 1
    for sw in enumerate_configs(n):
        block = points[start : start + grid_points ** len(sw.connected)]
        start += len(block)
        if n > 3:  # no hull is taken, so no frontier candidates are needed
            _fill_grid(sys, sw, grid_points, block)
        else:
            candidates.append(_grid_samples(sys, sw, grid_points, block))
    boundary = _hull_vertices(np.vstack(candidates)) if n <= 3 else np.zeros((0, n))
    return PowerRegionSample(points=points, grid_points=grid_points, boundary=boundary)


def region_to_csv(sample: PowerRegionSample, path) -> None:
    """Write the region CSV (see :func:`write_region_csv`) to a file."""
    with csv_file(path, "region CSV") as handle:
        write_region_csv(sample, handle)


def write_region_csv(sample: PowerRegionSample, stream) -> None:
    """Write points then boundary as CSV sections, deterministically ordered."""
    n = sample.points.shape[1]
    stream.write(",".join(_columns("p", n) + ["section"]) + "\r\n")
    for section, rows in (("points", sample.points), ("boundary", sample.boundary)):
        # the text csv.writer makes of these rows: nothing needs quoting
        RowFormat(",".join([_FLOAT] * n) + f",{section}\r\n").write(stream, rows)


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
