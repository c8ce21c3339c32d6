"""Load grids in bounded slabs: the region sampler and the grid oracle see
the powers of one whole-grid evaluation bit for bit, in bounded memory."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mrcwpt import (
    SwitchState,
    parse_scenario,
    sample_region_with_ts,
    sample_region_without_ts,
    serialize_scenario,
)
from mrcwpt import region
from mrcwpt.circuit import _GRID_SLAB_POINTS, enumerate_configs, grid_slabs
from mrcwpt.cli import EXIT_NUMERICAL, main
from mrcwpt.errors import NumericalError

import grid_reference
from conftest import bench_system, random_system


def _system(n):
    """The bench system's first n receivers, or a drawn one for n = 4."""
    if n <= 3:
        return bench_system(p_req=(5.0,) * n, n=n)
    return random_system(np.random.default_rng(4), n=4)


# N = 1 fits one slab; the others split the first axis into slabs that do
# not divide it (N = 2 at 200: 81 rows a slab), or into single rows (N = 3
# at 97 and 150: a row alone holds more than the slab bound)
GRIDS = [(1, 200), (2, 200), (3, 61), (3, 97), (3, 150), (4, 12)]


class TestSlabs:
    @pytest.mark.parametrize("n, g", GRIDS)
    def test_slabs_tile_the_grid_in_bounded_pieces(self, n, g):
        config = _system(n)
        axes, slabs = grid_slabs(config, SwitchState.all_closed(n), g)
        assert [len(a) for a in axes] == [g] * n
        row = g ** (n - 1)
        start = 0
        count = 0
        for span, p_tx, p in slabs:
            assert span.start == start and span.stop > start
            rows = (span.stop - span.start) // row
            assert (span.stop - span.start) == rows * row
            assert span.stop - span.start <= max(_GRID_SLAB_POINTS, row)
            for array in (p_tx, *p):
                assert array.shape == (rows,) + (g,) * (n - 1)
            start = span.stop
            count += 1
        assert start == g**n
        assert count == -(-g // max(_GRID_SLAB_POINTS // row, 1))
        if n == 1:
            assert count == 1

    @pytest.mark.parametrize("n, g", [(1, 200), (2, 200), (3, 61), (4, 12)])
    def test_slabs_are_the_whole_grid_bits(self, n, g):
        config = _system(n)
        sw = SwitchState((1, 0, 1, 1)) if n == 4 else SwitchState.all_closed(n)
        _, p_tx, p = grid_reference.grid_powers(config, sw, g)
        for span, slab_tx, slab_p in grid_slabs(config, sw, g)[1]:
            assert slab_tx.tobytes() == p_tx.reshape(-1)[span].tobytes()
            for pk, slab_pk in zip(p, slab_p):
                whole = np.broadcast_to(pk, p_tx.shape).reshape(-1)[span]
                assert slab_pk.reshape(-1).tobytes() == whole.tobytes()


def _reference_region(config, g, with_ts):
    """(points, boundary) of a region from whole-grid powers and the
    pruning that ran on them."""
    n = config.n_receivers
    if not with_ts:
        points, candidates = grid_reference.region_candidates(
            config, SwitchState.all_closed(n), g)
        return points, region.pareto_boundary(candidates)
    blocks = [np.zeros((1, n))]
    candidates = [blocks[0]]
    for sw in enumerate_configs(n):
        rows, kept = grid_reference.region_candidates(config, sw, g)
        blocks.append(rows)
        candidates.append(kept)
    if n > 3:
        boundary = np.zeros((0, n))
    else:
        boundary = region._hull_vertices(np.vstack(candidates))
    return np.vstack(blocks), boundary


class TestRegionSlabs:
    @pytest.mark.parametrize("n, g, with_ts", [
        (1, 200, False), (1, 200, True), (2, 200, False), (2, 200, True),
        (3, 61, False), (3, 61, True), (3, 97, False), (3, 97, True),
        (3, 150, False), (4, 12, True),
    ])
    def test_points_and_boundary_are_the_whole_grid_bytes(self, n, g, with_ts):
        config = _system(n)
        if with_ts:
            sample = sample_region_with_ts(config, g)
        else:
            sample = sample_region_without_ts(config, g)
        assert sample.points.flags.f_contiguous
        points, boundary = _reference_region(config, g, with_ts)
        assert sample.points.shape == points.shape
        assert sample.points.tobytes() == points.tobytes()
        assert sample.boundary.shape == boundary.shape
        assert sample.boundary.tobytes() == boundary.tobytes()

    def test_pruning_reads_the_columns_in_place(self, monkeypatch):
        seen = []
        prune = region._neighbour_undominated

        def spy(powers):
            seen.append(powers)
            return prune(powers)

        monkeypatch.setattr(region, "_neighbour_undominated", spy)
        sample = sample_region_without_ts(_system(3), 20)
        assert len(seen) == 1
        for k, column in enumerate(seen[0]):
            assert column.shape == (20, 20, 20)
            assert np.shares_memory(column, sample.points[:, k])

    @pytest.mark.parametrize("with_ts", [False, True], ids=["without-ts", "with-ts"])
    def test_peak_memory_is_the_points_and_a_few_mib(self, with_ts):
        # evaluated as one whole grid, the kernel's temporaries and a copy
        # of every power took 46 MiB over the 23 MiB of points
        config, _ = parse_scenario("three_receivers")

        def sample(g):
            if with_ts:
                return sample_region_with_ts(config, g)
            return sample_region_without_ts(config, g)

        sample(4)  # imports the hull code outside the measurement
        tracemalloc.start()
        try:
            points = sample(100).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= points.nbytes + 6 * 2**20


class TestOverflowInALateSlab:
    @pytest.fixture
    def overflowing(self, tmp_path):
        # receiver 1's power overflows only at its last few loads of the
        # default 60-point grid, so the first slabs evaluate cleanly
        config, options = parse_scenario("three_receivers")
        b = (config.w * config.h[0]) ** 2
        x = np.geomspace(config.x_lo[0], config.x_hi[0], 60)
        config = replace(config, v_tx=complex(math.sqrt(2 * (1.5e308 / (b * x[-4])))))
        path = tmp_path / "overflow.scn"
        path.write_text(serialize_scenario(config, options))
        return config, str(path)

    def test_the_error_comes_after_clean_slabs(self, overflowing):
        config, _ = overflowing
        clean = 0
        with pytest.raises(NumericalError, match="^the powers on the load grid overflow$"):
            for _ in grid_slabs(config, SwitchState.all_closed(3), 60)[1]:
                clean += 1
        assert clean >= 10

    @pytest.mark.parametrize("flags", [(), ("--with-ts",)], ids=["without-ts", "with-ts"])
    def test_region_exits_3_and_writes_no_file(self, overflowing, flags, tmp_path, capsys):
        _, path = overflowing
        out = tmp_path / "region.csv"
        assert main(["region", path, *flags, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: the powers on the load grid overflow\n")
        assert not out.exists()
