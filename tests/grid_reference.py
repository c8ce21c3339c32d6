"""Whole-grid load evaluation, kept as the reference for the bounded slabs
of ``mrcwpt.circuit.grid_slabs``.

This is the one ``resonant_powers`` call over a sparse meshgrid of the
connected loads that the region sampler and the grid oracle used before
they evaluated the grid slab by slab, with the region's neighbour pruning
and the oracle's argmin as they ran on it. It holds every power of the
grid at once, several times over, so keep the grids moderate.
"""

import itertools

import numpy as np

from mrcwpt.circuit import resonant_powers
from mrcwpt.errors import NumericalError


def grid_powers(sys, sw, grid_points):
    """Returns (axes, p_tx, [p_1, ..., p_N]) on a log grid of the load box:
    ``grid_points`` loads from x_lo to x_hi per connected receiver, arrays
    of shape ``(grid_points,) * k`` over the k axes, every open receiver at
    its x_hi with zero power. A power that is not finite raises
    NumericalError."""
    conn = sw.connected
    axes = [np.geomspace(sys.x_lo[k], sys.x_hi[k], grid_points) for k in conn]
    x = list(sys.x_hi)
    for k, axis in zip(conn, np.meshgrid(*axes, indexing="ij", sparse=True)):
        x[k] = axis
    with np.errstate(over="ignore", invalid="ignore"):
        p_tx, p, _ = resonant_powers(sys, x, sw.s)
    for pk in p:
        if not np.isfinite(pk).all():
            raise NumericalError("the powers on the load grid overflow")
    return axes, p_tx, p


def brute_force_oracle(prob, grid_resolution):
    """(x, p_tx) of the cheapest feasible point of the whole grid, the first
    in grid order among equal ones, or None: the argmin the grid oracle took
    before it reduced slab by slab."""
    sys = prob.sys
    sw = prob.switch
    reqs = prob.requirements
    axes, p_tx, p = grid_powers(sys, sw, grid_resolution)
    feasible = np.ones(p_tx.shape, dtype=bool)
    for k in sw.connected:
        if reqs[k] > 0.0:
            feasible &= p[k] >= reqs[k] * (1.0 - 1e-12)
    if not feasible.any():
        return None
    masked = np.where(feasible, p_tx, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), masked.shape)
    x_best = [float(v) for v in sys.x_hi]
    for j, k in enumerate(sw.connected):
        x_best[k] = float(axes[j][idx[j]])
    return tuple(x_best), float(masked[idx])


def neighbour_undominated(powers):
    """Mask over a grid of the samples that no grid neighbour strictly
    dominates, from fresh comparison arrays for every neighbour offset."""
    shape = powers[0].shape
    keep = np.ones(shape, dtype=bool)
    for d in itertools.product((1, 0, -1), repeat=len(shape)):
        if next((step for step in d if step), 0) != 1:
            continue
        here = tuple(slice(max(-step, 0), n - max(step, 0)) for step, n in zip(d, shape))
        there = tuple(slice(max(step, 0), n - max(-step, 0)) for step, n in zip(d, shape))
        ge = np.ones(keep[here].shape, dtype=bool)
        le = np.ones(keep[here].shape, dtype=bool)
        for p in powers:
            ge &= p[here] >= p[there]
            le &= p[here] <= p[there]
        keep[there] &= le | ~ge
        keep[here] &= ge | ~le
    return keep


def region_candidates(sys, sw, grid_points):
    """(rows, candidates) of one switch configuration: its region rows and
    those that no grid neighbour strictly dominates, in grid order."""
    p = grid_powers(sys, sw, grid_points)[2]
    rows = np.stack([np.broadcast_to(pk, p[0].shape).reshape(-1) for pk in p], axis=1)
    keep = neighbour_undominated([p[k] for k in sw.connected])
    return rows, rows[keep.reshape(-1)]
