"""Circuit core: closed form vs mesh oracle, frequency optimum, derivatives,
and turnover thresholds."""

import math

import numpy as np
import pytest

from mrcwpt import (
    CoilElectrical,
    NoFiniteMaximizerError,
    SwitchState,
    SystemConfig,
    ValidationError,
    analytic_derivatives,
    optimal_frequency,
    solve_closed_form,
    solve_linear_oracle,
    thresholds,
)
from mrcwpt.circuit import _mesh_solve, resonant_powers

from conftest import bench_system, random_loads, random_switch, random_system


def assert_states_close(a, b, rel=1e-9):
    assert a.p_tx == pytest.approx(b.p_tx, rel=rel)
    assert a.p_sum == pytest.approx(b.p_sum, rel=rel)
    assert a.rho == pytest.approx(b.rho, rel=rel)
    assert a.i_tx == pytest.approx(b.i_tx, rel=rel)
    for i_a, i_b, p_a, p_b in zip(a.i, b.i, a.p, b.p):
        if i_a == 0:
            assert i_b == 0
        else:
            assert abs(i_a - i_b) <= rel * abs(i_a)
            assert p_a == pytest.approx(p_b, rel=rel)


class TestClosedForm:
    def test_benchmark_point(self, bench3):
        state = solve_closed_form(bench3, None, [2.5, 2.5, 2.5])
        # frozen from the mesh-equation oracle; headline values 44.9 / 29.4
        assert state.p_tx == pytest.approx(44.908814720, rel=1e-9)
        assert state.p[0] == pytest.approx(29.441657319, rel=1e-9)
        assert state.p_sum == pytest.approx(sum(state.p), rel=1e-12)
        assert 0.0 <= state.rho < 1.0
        assert state.p_sum < state.p_tx

    def test_zero_coupling_leaves_bare_transmitter(self):
        config = bench_system()
        config = SystemConfig(
            v_tx=config.v_tx, w=config.w, transmitter=config.transmitter,
            receivers=config.receivers, h=(0.0, 0.0, 0.0),
            x_lo=config.x_lo, x_hi=config.x_hi, p_req=config.p_req,
        )
        state = solve_closed_form(config, None, [2.5] * 3)
        assert state.p_tx == pytest.approx(
            abs(config.v_tx) ** 2 / (2 * config.transmitter.resistance), rel=1e-12
        )
        assert all(p == 0.0 for p in state.p)

    def test_huge_load_approaches_disconnection(self, bench3):
        sw = SwitchState(s=(1, 0, 0))
        state = solve_closed_form(bench3, sw, [1e12, 1.0, 1.0])
        bare = abs(bench3.v_tx) ** 2 / (2 * bench3.transmitter.resistance)
        assert state.p[0] == pytest.approx(0.0, abs=1e-6)
        assert state.p_tx == pytest.approx(bare, rel=1e-6)

    def test_disconnected_receivers_carry_nothing(self, bench3):
        sw = SwitchState(s=(1, 0, 1))
        state = solve_closed_form(bench3, sw, [2.5, 2.5, 2.5])
        assert state.i[1] == 0j
        assert state.p[1] == 0.0

    def test_rejects_nonpositive_connected_load(self, bench3):
        with pytest.raises(ValidationError, match="receiver 2"):
            solve_closed_form(bench3, None, [2.5, 0.0, 2.5])

    def test_rejects_non_finite_load_of_open_receiver(self, bench3):
        with pytest.raises(ValidationError, match="receiver 2: load resistance must be finite"):
            solve_closed_form(bench3, SwitchState(s=(1, 0, 1)), [2.5, float("nan"), 2.5])


class TestOracleEquivalence:
    def test_benchmark_agrees(self, bench3):
        x = [2.5, 2.5, 2.5]
        assert_states_close(
            solve_closed_form(bench3, None, x),
            solve_linear_oracle(bench3, None, x),
        )

    def test_thousand_random_scenarios(self):
        rng = np.random.default_rng(20260808)
        for _ in range(1000):
            config = random_system(rng)
            sw = random_switch(rng, config.n_receivers)
            x = random_loads(rng, config)
            assert_states_close(
                solve_closed_form(config, sw, x),
                solve_linear_oracle(config, sw, x),
            )

    def test_conservation_of_power(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            config = random_system(rng)
            sw = random_switch(rng, config.n_receivers)
            x = random_loads(rng, config)
            state = solve_closed_form(config, sw, x)
            ohmic = 0.5 * config.transmitter.resistance * abs(state.i_tx) ** 2
            ohmic += sum(
                0.5 * config.receivers[k].resistance * abs(state.i[k]) ** 2
                for k in range(config.n_receivers)
            )
            assert state.p_tx == pytest.approx(state.p_sum + ohmic, rel=1e-10)

    def test_off_resonance_single_receiver_elimination(self):
        # eliminate the receiver loop by hand and compare
        rng = np.random.default_rng(4)
        for _ in range(50):
            config = random_system(rng, n=1).tuned()
            x = random_loads(rng, config)
            w_eval = config.w * 10 ** rng.uniform(-0.3, 0.3)
            state = solve_linear_oracle(config, None, x, w_eval)
            tx, rx = config.transmitter, config.receivers[0]
            z_tx = tx.resistance + 1j * (
                w_eval * tx.self_inductance - 1 / (w_eval * tx.tuning_capacitance)
            )
            z_rx = rx.resistance + x[0] + 1j * (
                w_eval * rx.self_inductance - 1 / (w_eval * rx.tuning_capacitance)
            )
            i_tx = config.v_tx / (z_tx + (w_eval * config.h[0]) ** 2 / z_rx)
            assert state.i_tx == pytest.approx(i_tx, rel=1e-9)

    def test_all_open_mesh_is_single_loop(self, bench3):
        config = bench3.tuned()
        w_eval = 30e6
        i_tx, currents = _mesh_solve(config, (), [1.0] * 3, w_eval)
        tx = config.transmitter
        z = tx.resistance + 1j * (
            w_eval * tx.self_inductance - 1 / (w_eval * tx.tuning_capacitance)
        )
        assert i_tx == pytest.approx(config.v_tx / z, rel=1e-12)
        assert currents == {}


class TestResonantPowers:
    def test_agrees_with_mesh_oracle(self):
        rng = np.random.default_rng(4242)
        for _ in range(400):
            config = random_system(rng, n=int(rng.integers(1, 9)))
            sw = random_switch(rng, config.n_receivers)
            x = random_loads(rng, config)
            p_tx, p, denom = resonant_powers(config, x, sw.s)
            ref = solve_linear_oracle(config, sw, x)
            assert abs(p_tx - ref.p_tx) <= 1e-12 * ref.p_tx
            assert p_tx == 0.5 * abs(config.v_tx) ** 2 / denom
            for k in range(config.n_receivers):
                if sw.s[k]:
                    assert abs(p[k] - ref.p[k]) <= 1e-12 * ref.p[k]
                else:
                    assert p[k] == 0.0 == ref.p[k]

    def test_float_batch_and_grid_calls_agree_exactly(self):
        rng = np.random.default_rng(515)
        for config in (bench_system(), random_system(rng, n=3)):
            # a batch of slots: row k of each matrix is receiver k
            loads = [random_loads(rng, config) for _ in range(7)]
            switches = [random_switch(rng, 3).s for _ in range(7)]
            p_tx, p, denom = resonant_powers(
                config, np.array(loads).T, np.array(switches).T
            )
            for q, (x, s) in enumerate(zip(loads, switches)):
                one = resonant_powers(config, x, s)
                assert (p_tx[q], [pk[q] for pk in p], denom[q]) == (one[0], one[1], one[2])
            # the sparse axes of a load grid
            axes = [np.sort([random_loads(rng, config)[k] for _ in range(4)])
                    for k in range(3)]
            grid = resonant_powers(
                config, np.meshgrid(*axes, indexing="ij", sparse=True), (1, 1, 1)
            )
            for idx in np.ndindex(4, 4, 4):
                x = [float(axes[k][idx[k]]) for k in range(3)]
                one = resonant_powers(config, x, (1, 1, 1))
                assert grid[0][idx] == one[0] and grid[2][idx] == one[2]
                assert [pk[idx] for pk in grid[1]] == one[1]

    def test_timeshare_slot_matrix_matches_closed_form(self):
        from mrcwpt.timeshare import _config_coefficients, enumerate_configs

        rng = np.random.default_rng(626)
        for _ in range(20):
            config = random_system(rng, n=int(rng.integers(1, 6)))
            configs = enumerate_configs(config.n_receivers)
            loads = [random_loads(rng, config) for _ in configs]
            a, b = _config_coefficients(config, configs, loads)
            for q, sw in enumerate(configs):
                state = solve_closed_form(config, sw, loads[q])
                assert abs(a[q] - state.p_tx) <= 1e-14 * state.p_tx
                for k in range(config.n_receivers):
                    assert abs(b[k, q] - state.p[k]) <= 1e-14 * state.p[k]


class TestRetunesAt:
    def test_marked_frequencies_retune(self):
        # coils from subnormal to huge inductances, most tuned where their
        # capacitor is valid; every frequency the mask marks must re-tune
        rng = np.random.default_rng(2020)
        marked = 0
        for _ in range(300):
            w0 = 10 ** rng.uniform(-5, 20)
            coils = []
            for _ in range(3):
                coil = CoilElectrical(1.0, 10 ** rng.uniform(-323, 100))
                try:
                    coils.append(coil.tuned(w0) if rng.random() < 0.8 else coil)
                except ValidationError:
                    coils.append(coil)
            # every capacitor tune_capacitor returns passes SystemConfig's check
            config = SystemConfig(
                v_tx=1.0, w=w0, transmitter=coils[0], receivers=tuple(coils[1:]),
                h=(0.0, 0.0), x_lo=(1.0, 1.0), x_hi=(2.0, 2.0), p_req=(1.0, 1.0),
            )
            w = np.concatenate([10 ** rng.uniform(-320, 308, 40), -w0 * rng.random(2),
                                [0.0, np.inf, 1e-100, 1e100]])
            for wi, ok in zip(w.tolist(), config.retunes_at(w).tolist()):
                if ok:
                    assert config.with_frequency(wi).w == wi
                    marked += 1
        assert marked > 1000


class TestOptimalFrequency:
    def test_benchmark_value(self, bench3):
        w_peak = optimal_frequency(bench3, None, [2.5] * 3)
        assert w_peak == pytest.approx(17.97e6, rel=5e-3)
        assert w_peak == pytest.approx(17958248.69, rel=1e-9)

    def test_peak_confirmed_by_perturbation(self, bench3):
        x = [2.5] * 3
        w_peak = optimal_frequency(bench3, None, x)
        p_at = solve_linear_oracle(bench3.with_frequency(w_peak), None, x).p
        for w in (w_peak * 0.98, w_peak * 1.02):
            p_off = solve_linear_oracle(bench3.with_frequency(w), None, x).p
            assert all(po < pa for po, pa in zip(p_off, p_at))

    def test_grid_argmax_lands_on_nearest_point(self, bench3):
        x = [2.5] * 3
        w_peak = optimal_frequency(bench3, None, x)
        grid = np.linspace(0.5 * w_peak, 2.0 * w_peak, 301)
        p1 = [solve_closed_form(bench3.with_frequency(w), None, x).p[0] for w in grid]
        step = grid[1] - grid[0]
        assert abs(grid[int(np.argmax(p1))] - w_peak) <= 0.5 * step * 1.001

    def test_single_receiver_definition(self):
        config = bench_system(n=1)
        x = [3.7, 0, 0][:1]
        w_peak = optimal_frequency(config, None, [3.7])
        lhs = config.transmitter.resistance
        rhs = (w_peak * config.h[0]) ** 2 / (config.receivers[0].resistance + 3.7)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        del x

    def test_doubling_coupling_halves_peak(self, bench3):
        doubled = SystemConfig(
            v_tx=bench3.v_tx, w=bench3.w, transmitter=bench3.transmitter,
            receivers=bench3.receivers, h=tuple(2 * v for v in bench3.h),
            x_lo=bench3.x_lo, x_hi=bench3.x_hi, p_req=bench3.p_req,
        )
        assert optimal_frequency(doubled, None, [2.5] * 3) == pytest.approx(
            optimal_frequency(bench3, None, [2.5] * 3) / 2, rel=1e-12
        )

    def test_zero_coupling_has_no_maximizer(self, bench3):
        config = SystemConfig(
            v_tx=bench3.v_tx, w=bench3.w, transmitter=bench3.transmitter,
            receivers=bench3.receivers, h=(0.0, 0.0, 0.0),
            x_lo=bench3.x_lo, x_hi=bench3.x_hi, p_req=bench3.p_req,
        )
        with pytest.raises(NoFiniteMaximizerError):
            optimal_frequency(config, None, [2.5] * 3)


def _fd_resolvable(deriv, state, hfd):
    """Derivatives must sit well above the central-difference noise floor."""

    def floor(scale):
        return 30.0 * 4.0 * 2.3e-16 * scale / (2.0 * hfd) / 1e-5

    ok = abs(deriv.d_ptx) >= floor(state.p_tx)
    ok = ok and abs(deriv.d_rho) >= floor(state.rho)
    for m, d in enumerate(deriv.d_p):
        ok = ok and abs(d) >= floor(max(state.p[m], 1e-30))
    return ok


class TestAnalyticDerivatives:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            config = random_system(rng, spread=2.0)
            sw = SwitchState.all_closed(config.n_receivers)
            x = random_loads(rng, config)
            n = int(rng.integers(0, config.n_receivers))
            deriv = analytic_derivatives(config, sw, x, n)
            state = solve_closed_form(config, sw, x)
            hfd = 1e-6 * max(x[n], 1.0)
            if not _fd_resolvable(deriv, state, hfd):
                continue
            checked += 1
            xp = list(x)
            xp[n] += hfd
            xm = list(x)
            xm[n] -= hfd
            sp = solve_closed_form(config, sw, xp)
            sm = solve_closed_form(config, sw, xm)
            assert deriv.d_ptx == pytest.approx((sp.p_tx - sm.p_tx) / (2 * hfd), rel=1e-5)
            assert deriv.d_rho == pytest.approx((sp.rho - sm.rho) / (2 * hfd), rel=1e-5)
            for m in range(config.n_receivers):
                fd = (sp.p[m] - sm.p[m]) / (2 * hfd)
                assert deriv.d_p[m] == pytest.approx(fd, rel=1e-5)

    def test_signs_are_structural(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            config = random_system(rng)
            sw = SwitchState.all_closed(config.n_receivers)
            x = random_loads(rng, config)
            n = int(rng.integers(0, config.n_receivers))
            if config.h[n] == 0.0:
                continue
            deriv = analytic_derivatives(config, sw, x, n)
            assert deriv.d_ptx > 0.0  # drawn power always rises with any load
            for m in range(config.n_receivers):
                if m != n and config.h[m] != 0.0:
                    assert deriv.d_p[m] > 0.0  # cross powers rise too

    def test_own_power_derivative_vanishes_at_peak(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_own_peak
        x_at = [peak, 2.5, 2.5]
        deriv = analytic_derivatives(bench3, None, x_at, 0)
        scale = solve_closed_form(bench3, None, x_at).p[0] / peak
        assert abs(deriv.d_p[0]) <= 1e-10 * scale

    def test_requires_connected_receiver(self, bench3):
        with pytest.raises(ValidationError, match="not connected"):
            analytic_derivatives(bench3, SwitchState(s=(1, 0, 1)), [2.5] * 3, 1)


@pytest.mark.parametrize("n", [-1, 3])
@pytest.mark.parametrize("function", [analytic_derivatives, thresholds])
def test_receiver_index_out_of_range(bench3, function, n):
    # -1 used to count receiver 3 among its own "others"
    with pytest.raises(ValidationError, match="receiver index"):
        function(bench3, None, [2.5] * 3, n)


class TestThresholds:
    def test_benchmark_anchors(self, bench3):
        th = thresholds(bench3, None, [2.5, 2.5, 2.5], 0)
        assert th.x_own_peak == pytest.approx(5.35, abs=0.05)
        assert th.x_eff_peak == pytest.approx(0.95, abs=0.05)
        # sum power is monotone increasing in x_1 for this setup
        assert th.sum_monotone and th.x_sum_peak is None
        assert not th.eff_monotone

    def test_own_peak_by_grid_argmax(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_own_peak
        grid = np.geomspace(0.1, 50.0, 4000)
        p1 = []
        for v in grid:
            p1.append(solve_closed_form(bench3, None, [v, 2.5, 2.5]).p[0])
        assert grid[int(np.argmax(p1))] == pytest.approx(peak, rel=2e-3)

    def test_eff_peak_by_grid_argmax(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_eff_peak
        grid = np.geomspace(0.1, 50.0, 4000)
        rho = []
        for v in grid:
            rho.append(solve_closed_form(bench3, None, [v, 2.5, 2.5]).rho)
        assert grid[int(np.argmax(rho))] == pytest.approx(peak, rel=2e-3)

    def test_unimodality_of_own_power(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            config = random_system(rng)
            sw = SwitchState.all_closed(config.n_receivers)
            x = random_loads(rng, config)
            n = int(rng.integers(0, config.n_receivers))
            if config.h[n] == 0.0:
                continue
            peak = thresholds(config, sw, x, n).x_own_peak
            grid = np.geomspace(peak / 30.0, peak * 30.0, 80)
            values = []
            for v in grid:
                loads = list(x)
                loads[n] = float(v)
                values.append(solve_closed_form(config, sw, loads).p[n])
            values = np.array(values)
            rising = grid[1:] <= peak
            diffs = np.diff(values)
            assert np.all(diffs[rising] >= -1e-12 * values.max())
            falling = grid[:-1] >= peak
            assert np.all(diffs[falling] <= 1e-12 * values.max())

    def test_monotone_quantities_along_grids(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            config = random_system(rng)
            sw = SwitchState.all_closed(config.n_receivers)
            x = random_loads(rng, config)
            n = int(rng.integers(0, config.n_receivers))
            grid = np.geomspace(config.x_lo[n], config.x_hi[n], 40)
            ptx, cross = [], []
            m = next((k for k in range(config.n_receivers) if k != n), None)
            for v in grid:
                loads = list(x)
                loads[n] = float(v)
                state = solve_closed_form(config, sw, loads)
                ptx.append(state.p_tx)
                if m is not None:
                    cross.append(state.p[m])
            assert np.all(np.diff(ptx) >= -1e-12 * max(ptx))
            if m is not None and config.h[m] != 0.0 and config.h[n] != 0.0:
                assert np.all(np.diff(cross) >= -1e-12 * max(max(cross), 1e-300))

    def test_branch_flags_follow_sign_conditions(self):
        rng = np.random.default_rng(41)
        seen_sum_peak = seen_eff_mono = False
        for _ in range(200):
            config = random_system(rng)
            sw = SwitchState.all_closed(config.n_receivers)
            x = random_loads(rng, config)
            n = int(rng.integers(0, config.n_receivers))
            th = thresholds(config, sw, x, n)
            base = config.transmitter.resistance + th.reflected_others
            assert th.sum_monotone == (base - 2 * th.delivered_others <= 0.0)
            assert th.eff_monotone == (
                th.delivered_others - th.reflected_others
                - config.transmitter.resistance >= 0.0
            )
            if th.x_sum_peak is not None:
                assert th.x_sum_peak > 0
                seen_sum_peak = True
            if th.eff_monotone:
                seen_eff_mono = True
        assert seen_sum_peak  # both branches exercised
        del seen_eff_mono


def test_switch_state_validation():
    with pytest.raises(ValidationError):
        SwitchState(s=(0, 0, 0))
    with pytest.raises(ValidationError):
        SwitchState(s=(1, 2))
    assert SwitchState.from_mask("101").connected == (0, 2)
    assert SwitchState.all_closed(3).mask() == "111"


def test_system_config_validation():
    coil = CoilElectrical(0.1, 1e-5)
    tx = CoilElectrical(1.0, 1e-2)
    with pytest.raises(ValidationError, match=r"\|h\|"):
        SystemConfig(
            v_tx=10 + 0j, w=1e7, transmitter=tx, receivers=(coil,),
            h=(1.0,), x_lo=(1.0,), x_hi=(2.0,), p_req=(1.0,),
        )
    with pytest.raises(ValidationError, match="bounds"):
        SystemConfig(
            v_tx=10 + 0j, w=1e7, transmitter=tx, receivers=(coil,),
            h=(1e-7,), x_lo=(3.0,), x_hi=(2.0,), p_req=(1.0,),
        )
    config = SystemConfig(
        v_tx=10 + 0j, w=1e7, transmitter=tx, receivers=(coil,),
        h=(1e-7,), x_lo=(1.0,), x_hi=(2.0,), p_req=(1.0,),
    ).tuned()
    natural = 1 / math.sqrt(
        config.transmitter.self_inductance * config.transmitter.tuning_capacitance
    )
    assert natural == pytest.approx(config.w, rel=1e-12)


def test_tuning_check_rejects_an_l_times_c_that_underflows():
    # l*c = 1e-330 rounds to 0, so 1/sqrt(l*c) has no value
    with pytest.raises(ValidationError, match="transmitter: capacitor not tuned to w"):
        SystemConfig(
            v_tx=1.0, w=1e7, transmitter=CoilElectrical(1.0, 1e-300, 1e-30),
            receivers=(CoilElectrical(1.0, 1.0),), h=(0.0,), x_lo=(1.0,), x_hi=(2.0,),
            p_req=(1.0,),
        )


@pytest.mark.parametrize("field, value", [
    ("v_tx", complex(math.inf, 0.0)), ("w", math.nan), ("h", (math.nan,)),
    ("x_hi", (math.inf,)), ("p_req", (math.inf,)),
])
def test_system_config_rejects_non_finite(field, value):
    fields = dict(
        v_tx=10 + 0j, w=1e7, transmitter=CoilElectrical(1.0, 1e-2),
        receivers=(CoilElectrical(0.1, 1e-5),), h=(1e-7,), x_lo=(1.0,),
        x_hi=(2.0,), p_req=(1.0,),
    )
    fields[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SystemConfig(**fields)


def test_coil_rejects_non_finite():
    with pytest.raises(ValidationError, match="self_inductance must be finite"):
        CoilElectrical(0.1, math.inf)
