"""Power regions: sampling, Pareto and hull boundaries, containment, CSV."""

import csv
import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcwpt import (
    SwitchState,
    ValidationError,
    hull_2d,
    hull_area_2d,
    pareto_boundary,
    points_in_hull_2d,
    read_region_csv,
    region_to_csv,
    sample_region_with_ts,
    sample_region_without_ts,
    solve_closed_form,
    thresholds,
)
from mrcwpt import _csvfmt, region
from mrcwpt.circuit import enumerate_configs
from mrcwpt.cli import main
from mrcwpt.region import PowerRegionSample

from conftest import bench_system, random_system
from grid_reference import grid_powers, region_candidates


class TestHullPrimitives:
    def test_square_hull(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7]])
        hull = hull_2d(pts)
        assert len(hull) == 4
        assert hull_area_2d(hull) == pytest.approx(1.0)

    def test_collinear_degenerates_to_segment(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        hull = hull_2d(pts)
        assert len(hull) == 2
        assert hull_area_2d(hull) == 0.0

    def test_membership(self):
        hull = hull_2d(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float))
        assert points_in_hull_2d([1.0, 1.0], hull).tolist() == [True]
        assert points_in_hull_2d([2.0 + 5e-7, 1.0], hull, tol=1e-6).tolist() == [True]
        assert points_in_hull_2d([2.1, 1.0], hull, tol=1e-6).tolist() == [False]
        mask = points_in_hull_2d([[1, 1], [3, 3]], hull)
        assert mask.tolist() == [True, False]

    def test_membership_in_degenerate_polygons(self):
        # a segment and a single point are matched within tol of the
        # segment or point; an empty polygon holds nothing
        segment = np.array([[0.0, 0.0], [2.0, 2.0]])
        pts = [[0, 0], [1, 1], [2, 2], [0.5, 0.5 + 1e-7], [0.5, 0.6], [3, 3], [-1, -1]]
        assert points_in_hull_2d(pts, segment, tol=1e-6).tolist() == [
            True, True, True, True, False, False, False,
        ]
        point = np.array([[1.0, 1.0]])
        assert points_in_hull_2d([[1, 1], [1, 1 + 5e-7], [1.1, 1]], point, tol=1e-6).tolist() \
            == [True, True, False]
        assert points_in_hull_2d([[1, 1], [0, 0]], np.zeros((0, 2))).tolist() == [False, False]

    def test_pareto_two_dim(self):
        pts = np.array([[1, 4], [2, 3], [3, 1], [2, 2], [0, 5], [2.5, 3.0]])
        frontier = pareto_boundary(pts)
        assert frontier.tolist() == [[0, 5], [1, 4], [2.5, 3.0], [3, 1]]

    def test_pareto_higher_dim(self):
        pts = np.array(
            [[1, 1, 1], [2, 0, 0], [0, 2, 0], [0, 0, 2], [0.5, 0.5, 0.5]]
        )
        frontier = pareto_boundary(pts)
        assert len(frontier) == 4
        assert [0.5, 0.5, 0.5] not in frontier.tolist()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pareto_sweep_matches_quadratic_reference(self, dim):
        def reference(pts):
            keep = [
                i
                for i, p in enumerate(pts)
                if not np.any(np.all(pts >= p, axis=1) & np.any(pts > p, axis=1))
            ]
            out = pts[keep]
            return out[np.lexsort(out.T[::-1])]

        rng = np.random.default_rng(5)
        for trial in range(150):
            n = int(rng.integers(1, 120))
            if trial % 3 == 0:
                pts = rng.integers(0, 4, (n, dim)).astype(float)  # tie-heavy
            elif trial % 3 == 1:
                pts = rng.uniform(0, 1, (n, dim))
                pts[:, dim - 1] = np.round(pts[:, dim - 1], 1)
            else:
                pts = rng.uniform(0, 1, (n, dim))
            fast = pareto_boundary(pts)
            slow = reference(np.unique(pts, axis=0))
            assert fast.shape == slow.shape
            assert np.allclose(fast, slow)


def _hull_2d_reference(points):
    """Reference for hull_2d: the monotone chain over numpy rows."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts

    def build(sequence):
        chain = []
        for p in sequence:
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if cross <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return np.array([pts[0], pts[-1]])
    return hull


def _hull_inputs(rng, trial):
    """Planar clouds with duplicate rows, exactly collinear runs or integer ties."""
    n = int(rng.integers(1, 150))
    kind = trial % 4
    if kind == 0:
        pts = rng.integers(0, 5, (n, 2)).astype(float)  # integer ties, duplicates
    elif kind == 1:
        # points on a few exact lines through integer anchors
        t = rng.integers(-6, 7, n).astype(float)
        anchor = rng.integers(-3, 4, (3, 2))[rng.integers(0, 3, n)]
        slope = rng.integers(-2, 3, (3, 2))[rng.integers(0, 3, n)]
        pts = anchor + t[:, None] * slope
    elif kind == 2:
        pts = rng.uniform(0, 1, (n, 2))
        pts = pts[rng.integers(0, n, 2 * n)]  # every row repeated at random
    else:
        pts = rng.uniform(0, 1, (n, 2))
        pts[:, 0] = np.round(pts[:, 0], 1)  # ties in the sort key
    return pts


class TestHullReference:
    """hull_2d walks Python-float rows; it must match the numpy-row chain."""

    def test_hull_matches_numpy_row_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            pts = _hull_inputs(rng, trial)
            assert np.array_equal(hull_2d(pts), _hull_2d_reference(pts))

    def test_hull_matches_reference_on_a_sampled_region(self, bench2):
        pts = sample_region_with_ts(bench2, 40).points
        assert np.array_equal(hull_2d(pts), _hull_2d_reference(pts))


class TestWithoutTs:
    def test_single_receiver_interval(self):
        config = bench_system(p_req=(5.0,), n=1)
        sample = sample_region_without_ts(config, 400)
        peak = thresholds(config, None, [2.5], 0).x_own_peak
        p_peak = solve_closed_form(config, None, [peak]).p[0]
        p_lo = solve_closed_form(config, None, [config.x_lo[0]]).p[0]
        p_hi = solve_closed_form(config, None, [config.x_hi[0]]).p[0]
        values = sample.points[:, 0]
        assert values.max() == pytest.approx(p_peak, rel=1e-3)
        assert values.min() == pytest.approx(min(p_lo, p_hi), rel=1e-9)

    def test_two_receiver_lobe(self, bench2):
        sample = sample_region_without_ts(bench2, 120)
        assert sample.points.shape == (120 * 120, 2)
        assert np.all(sample.points >= 0.0)
        # the frontier contains the single-coordinate maxima
        front = sample.boundary
        assert front[:, 0].max() == pytest.approx(sample.points[:, 0].max())
        assert front[:, 1].max() == pytest.approx(sample.points[:, 1].max())

    def test_uncoupled_receiver_collapses_axis(self):
        config = replace(bench_system(p_req=(5.0, 5.0), n=2), h=(-9.21e-8, 0.0))
        sample = sample_region_without_ts(config, 50)
        assert np.all(sample.points[:, 1] == 0.0)
        assert sample.points[:, 0].max() > 0.0

    def test_refinement_is_superset(self, bench2):
        coarse = sample_region_without_ts(bench2, 50)
        fine = sample_region_without_ts(bench2, 99)  # midpoint refinement
        coarse_rows = {tuple(row) for row in coarse.points}
        fine_rows = {tuple(row) for row in fine.points}
        assert coarse_rows <= fine_rows

    def test_grid_guard(self, bench2):
        with pytest.raises(ValidationError):
            sample_region_without_ts(bench2, 1)


def _drawn_system(draw, n):
    """A random system of n receivers, one of them sometimes uncoupled
    (h = 0, so whole grid lines, and configurations with and without it,
    give equal rows)."""
    config = random_system(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    if draw(st.booleans()):
        h = list(config.h)
        h[draw(st.integers(0, n - 1))] = 0.0
        config = replace(config, h=tuple(h))
    return config


@st.composite
def concurrent_regions(draw):
    """A random system of 1 to 4 receivers (see :func:`_drawn_system`),
    with a drawn switch state (all closed or a random nonempty subset) and
    a small grid."""
    n = draw(st.integers(1, 4))
    config = _drawn_system(draw, n)
    s = draw(st.tuples(*[st.integers(0, 1)] * n))
    sw = SwitchState(s=s) if any(s) and draw(st.booleans()) else None
    grid = draw(st.integers(2, (40, 16, 9, 6)[len(sw.connected if sw else s) - 1]))
    return config, sw, grid


class TestNeighbourFilter:
    """The concurrent frontier is swept over the samples that no grid
    neighbour strictly dominates; it must equal the sweep over all samples."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(concurrent_regions())
    def test_boundary_is_the_frontier_of_every_sample(self, drawn):
        config, sw, grid = drawn
        sw = sw or SwitchState.all_closed(config.n_receivers)
        points = np.empty((grid ** len(sw.connected), config.n_receivers), order="F")
        boundary = pareto_boundary(region._grid_samples(config, sw, grid, points))
        full = pareto_boundary(points)
        assert boundary.shape == full.shape
        assert boundary.tobytes() == full.tobytes()

    def test_equal_samples_are_kept(self):
        # receiver 2 uncoupled: every row repeats along its load axis
        config = replace(bench_system(p_req=(5.0, 5.0), n=2), h=(-9.21e-8, 0.0))
        powers = grid_powers(config, SwitchState.all_closed(2), 5)[2]
        keep = region._neighbour_undominated(powers)
        assert np.all(keep == keep[:, :1])
        assert keep.any() and not keep.all()

    def test_bundled_frontier_sees_a_small_share(self, bench3):
        powers = grid_powers(bench3, SwitchState.all_closed(3), 60)[2]
        keep = region._neighbour_undominated(powers)
        frontier = sample_region_without_ts(bench3, 60).boundary
        assert len(frontier) <= keep.sum() < 0.06 * keep.size


@st.composite
def time_shared_regions(draw):
    """A random system of 2 or 3 receivers (see :func:`_drawn_system`) and
    a small grid."""
    n = draw(st.integers(2, 3))
    return _drawn_system(draw, n), draw(st.integers(2, (40, 12)[n - 2]))


def _hull_of_coupled_columns(points):
    """The hull of every sample over the columns that are not all zero (one
    column: the segment from the origin; none: the origin), with zeros put
    back in the others."""
    live = np.flatnonzero(points.any(axis=0))
    sub = points[:, live]
    if len(live) == 0:
        hull = sub[:1]
    elif len(live) == 1:
        hull = np.array([[0.0], [sub.max()]])
    elif len(live) == 2:
        hull = hull_2d(sub)
    else:
        hull = sub[region._hull_nd(sub).vertices]
    full = np.zeros((len(hull), points.shape[1]))
    full[:, live] = hull
    return full


class TestTimeSharedCandidates:
    """The time-shared hull is taken over the origin and each configuration's
    grid-neighbour-undominated samples, in the columns of the coupled
    receivers; it must equal that hull of every sample."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(time_shared_regions())
    def test_boundary_is_the_hull_of_every_sample(self, drawn):
        config, grid = drawn
        sample = sample_region_with_ts(config, grid)
        full = _hull_of_coupled_columns(sample.points)
        assert sample.boundary.shape == full.shape
        assert sample.boundary.tobytes() == full.tobytes()

    # a segment from the origin for two receivers, a polygon for three
    @pytest.mark.parametrize("n, least", [(2, 2), (3, 4)])
    def test_uncoupled_receiver_keeps_a_boundary(self, n, least):
        h = list(bench_system(n=n).h)
        h[-1] = 0.0
        config = replace(bench_system(p_req=(5.0,) * n, n=n), h=tuple(h))
        sample = sample_region_with_ts(config, 12)
        assert len(sample.boundary) >= least
        assert np.all(sample.boundary[:, -1] == 0.0)
        samples = {tuple(row) for row in sample.points.tolist()}
        assert all(tuple(row) in samples for row in sample.boundary.tolist())

    def test_system_without_power_has_the_origin(self):
        config = replace(bench_system(n=3), h=(0.0, 0.0, 0.0))
        sample = sample_region_with_ts(config, 4)
        assert not sample.points.any()
        assert sample.boundary.tolist() == [[0.0, 0.0, 0.0]]

    def test_four_receivers_sample_every_configuration(self):
        config = random_system(np.random.default_rng(4), n=4)
        sample = sample_region_with_ts(config, 3)
        blocks = [np.zeros((1, 4))]
        for sw in enumerate_configs(4):
            blocks.append(region_candidates(config, sw, 3)[0])
        expected = np.vstack(blocks)
        assert sample.points.shape == (4**4, 4) == expected.shape
        assert sample.points.tobytes() == expected.tobytes()
        assert sample.boundary.shape == (0, 4)


class TestGridCap:
    """Grids are counted before anything is sampled: at most 10**8 power
    values (tuples times receivers)."""

    def test_default_grids_up_to_four_receivers_fit(self):
        rng = np.random.default_rng(3)
        for n in range(1, 5):
            config = random_system(rng, n=n)
            for with_ts in (False, True):
                expected = {1: 200, 2: 200, 3: 60, 4: 21}[n]
                assert region._grid_points(config, None, n, with_ts) == expected

    @pytest.mark.parametrize("n, sampler", [(18, sample_region_without_ts),
                                             (15, sample_region_with_ts)])
    def test_no_default_grid_fits_many_receivers(self, n, sampler):
        # the default is 1 point a load from 18 loads on, and 2 points a
        # load time-shared at 15 give 3**15 * 15 values, past the cap
        config = random_system(np.random.default_rng(n), n=n)
        with pytest.raises(ValidationError, match=f"no default grid fits a region of {n} receivers"):
            sampler(config)

    def test_cap_counts_tuples_times_receivers(self, bench3):
        # 321**3 * 3 = 99,228,483 values fit; 322**3 * 3 = 100,158,744 do not
        assert region._grid_points(bench3, 321, 3, False) == 321
        with pytest.raises(ValidationError, match="33386248 power tuples"):
            region._grid_points(bench3, 322, 3, False)
        # with time sharing every configuration and the origin: (g + 1)**N
        assert region._grid_points(bench3, 320, 3, True) == 320
        with pytest.raises(ValidationError, match="33386248 power tuples"):
            region._grid_points(bench3, 321, 3, True)
        # two connected loads of three receivers
        assert region._grid_points(bench3, 5_773, 2, False) == 5_773
        with pytest.raises(ValidationError, match="33339076 power tuples"):
            region._grid_points(bench3, 5_774, 2, False)

    def test_samplers_refuse_before_sampling(self, bench3):
        # grids no array could hold, so a missing check fails at once
        with pytest.raises(ValidationError, match=f"{10**15} power tuples"):
            sample_region_without_ts(bench3, 10**5)
        with pytest.raises(ValidationError, match=f"{(10**5 + 1) ** 3} power tuples"):
            sample_region_with_ts(bench3, 10**5)
        # a grid over two connected loads counts only those
        with pytest.raises(ValidationError, match=f"{10**10} power tuples"):
            region._grid_points(bench3, 10**5, 2, False)


class TestWithTs:
    def test_containment_of_concurrent_region(self, bench2):
        without = sample_region_without_ts(bench2, 60)
        with_ts = sample_region_with_ts(bench2, 60)
        assert points_in_hull_2d(without.points, with_ts.boundary, 1e-6).all()

    def test_downward_closure(self, bench2):
        with_ts = sample_region_with_ts(bench2, 60)
        hull = with_ts.boundary
        rng = np.random.default_rng(3)
        for vertex in hull[rng.integers(0, len(hull), 12)]:
            scaled = np.outer([0.0, 0.3, 0.7, 1.0], vertex)
            assert points_in_hull_2d(scaled, hull, 1e-9).all()

    def test_origin_included(self, bench2):
        with_ts = sample_region_with_ts(bench2, 40)
        assert points_in_hull_2d([0.0, 0.0], with_ts.boundary, 1e-12).all()

    def test_single_receiver_region_is_segment_to_origin(self):
        config = bench_system(p_req=(5.0,), n=1)
        with_ts = sample_region_with_ts(config, 50)
        assert with_ts.boundary.shape == (2, 1)
        assert with_ts.boundary[0, 0] == 0.0
        assert with_ts.boundary[1, 0] == pytest.approx(with_ts.points.max())

    def test_three_receiver_hull(self, bench3):
        sample = sample_region_with_ts(bench3, 12)
        assert sample.points.shape[1] == 3
        assert len(sample.boundary) > 3
        hull = region._hull_nd(sample.points)
        facets = sample.points[::101] @ hull.equations[:, :-1].T + hull.equations[:, -1]
        assert np.all(facets <= 1e-6)

    def test_frequency_dependence_of_gap(self):
        # the time-sharing advantage grows with operating frequency
        gaps = {}
        for w in (14.2e6, 127.8e6):
            config = bench_system(p_req=(5.0, 5.0), n=2, w=w)
            without = sample_region_without_ts(config, 80)
            with_ts = sample_region_with_ts(config, 80)
            a_without = hull_area_2d(hull_2d(without.points))
            a_with = hull_area_2d(with_ts.boundary)
            gaps[w] = (a_with - a_without) / a_with
        assert gaps[14.2e6] < gaps[127.8e6]


class TestCsv:
    def test_round_trip(self, bench2, tmp_path):
        sample = sample_region_without_ts(bench2, 20)
        path = tmp_path / "region.csv"
        region_to_csv(sample, path)
        points, boundary = read_region_csv(path)
        assert points.shape == sample.points.shape
        assert np.allclose(points, sample.points, rtol=1e-11)
        assert np.allclose(boundary, sample.boundary, rtol=1e-11)
        header = path.read_text().splitlines()[0]
        assert header == "p_1,p_2,section"

    def test_empty_sample_writes_header_only(self, tmp_path):
        sample = PowerRegionSample(
            points=np.zeros((0, 2)),
            grid_points=0,
            boundary=np.zeros((0, 2)),
        )
        path = tmp_path / "empty.csv"
        region_to_csv(sample, path)
        assert path.read_text().splitlines() == ["p_1,p_2,section"]

    def test_write_failure_carries_path(self, bench2, tmp_path):
        sample = sample_region_without_ts(bench2, 5)
        missing = tmp_path / "no" / "such" / "dir" / "region.csv"
        with pytest.raises(OSError, match="region.csv"):
            region_to_csv(sample, missing)

    def test_write_to_a_directory_names_the_region_csv(self, bench2, tmp_path):
        sample = sample_region_without_ts(bench2, 5)
        with pytest.raises(OSError, match="cannot write region CSV to"):
            region_to_csv(sample, tmp_path)

    def test_cli_write_to_a_directory_exits_1(self, tmp_path, capsys):
        assert main(["region", "two_receivers", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write region CSV to {tmp_path}: ")


def _region_csv_reference(sample):
    """The bytes of the region CSV as csv.writer wrote them, row by row."""
    stream = io.StringIO(newline="")
    n = sample.points.shape[1]
    writer = csv.writer(stream)
    writer.writerow([f"p_{k + 1}" for k in range(n)] + ["section"])
    for row in sample.points:
        writer.writerow([f"{v:.11e}" for v in row] + ["points"])
    for row in sample.boundary:
        writer.writerow([f"{v:.11e}" for v in row] + ["boundary"])
    return stream.getvalue().encode()


def _written_bytes(sample, tmp_path):
    path = tmp_path / "region.csv"
    region_to_csv(sample, path)
    return path.read_bytes()


class TestCsvBytes:
    """The block writer reproduces csv.writer's bytes exactly."""

    @pytest.fixture(params=[None, 7], ids=["default-chunk", "chunk-7"])
    def csv_chunk(self, request, monkeypatch):
        # 7 values: two rows of three powers a block
        if request.param is not None:
            monkeypatch.setattr(_csvfmt, "_BLOCK_VALUES", request.param)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("with_ts", [False, True])
    def test_sampled_regions(self, n, with_ts, csv_chunk, tmp_path):
        config = bench_system(p_req=(5.0, 5.0, 5.0)[:n], n=n)
        if with_ts:
            sample = sample_region_with_ts(config, 9)
        else:
            sample = sample_region_without_ts(config, 9)
        assert len(sample.boundary) > 0
        assert _written_bytes(sample, tmp_path) == _region_csv_reference(sample)

    def test_awkward_values(self, csv_chunk, tmp_path):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        points[:5] = [[0.0, -0.0, 1.0], [5e-324, -1e308, 9.999999999995e-1],
                      [1e22, 123456789012345.0, -2.5], [0.1, 0.2, 0.3], [7, 8, 9]]
        sample = PowerRegionSample(points=points, grid_points=0, boundary=points[::7])
        assert _written_bytes(sample, tmp_path) == _region_csv_reference(sample)

    def test_empty_boundary(self, bench3, tmp_path):
        sample = sample_region_without_ts(bench3, 5)
        sample = PowerRegionSample(points=sample.points, grid_points=5,
                                   boundary=np.zeros((0, 3)))
        assert _written_bytes(sample, tmp_path) == _region_csv_reference(sample)

    def test_zero_row_sample(self, tmp_path):
        sample = PowerRegionSample(points=np.zeros((0, 2)), grid_points=0,
                                   boundary=np.zeros((0, 2)))
        assert _written_bytes(sample, tmp_path) == b"p_1,p_2,section\r\n"
        assert _written_bytes(sample, tmp_path) == _region_csv_reference(sample)


class TestPinnedCsv:
    """Default-grid CLI region CSVs, which fill many whole blocks, pinned by
    sha256 digests recorded from the row-template writer that preceded the
    block encoder."""

    @pytest.mark.parametrize(
        "argv, sha, size",
        [
            (("three_receivers",),
             "2068b28d0a49773420ab865d9864e06a9d493d94e1669e8436493dbf74120fd5", 14_068_373),
            (("three_receivers", "--with-ts"),
             "c7595c83feaef0649f45b41b7bbc65c9b2f9db97bb6caed850d1e0a80a30c3ca", 14_146_507),
            (("two_receivers", "--with-ts"),
             "d5ba78f5c2e67a5304dfe2b6be9b45c41db5d805fabb77725949e567c4a55fdf", 1_781_433),
        ],
        ids=["three", "three-with-ts", "two-with-ts"],
    )
    def test_out_file(self, argv, sha, size, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", *argv, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha

    def test_stdout(self, capsys):
        assert main(["region", "two_receivers"]) == 0
        data = capsys.readouterr().out.encode()
        assert len(data) == 1_792_309
        assert hashlib.sha256(data).hexdigest() == (
            "2ccf4a06c1c49011c20e332b0499f0815fe9e96b9ff5538286ce298e82892274"
        )
