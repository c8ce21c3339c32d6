"""Coil model: derived parameters, tuning, coupling, and estimation."""

import math

import numpy as np
import pytest

from mrcwpt import (
    CoilElectrical,
    CoilGeometry,
    DegeneratePlacementError,
    InconsistentMeasurementError,
    SwitchState,
    ValidationError,
    derive_coil_electrical,
    estimate_mutual_inductance,
    mutual_inductance,
    solve_closed_form,
    tune_capacitor,
)
from mrcwpt.coils import MU0

from conftest import random_system

TX_GEOM = CoilGeometry(0.199, 0.201, 200, 1.68e-8)
RX_GEOM = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8)


class TestDeriveElectrical:
    def test_transmitter_coil_reference_values(self):
        coil = derive_coil_electrical(TX_GEOM)
        assert coil.resistance == pytest.approx(1.3440, rel=5e-3)
        assert coil.self_inductance == pytest.approx(54.0630e-3, rel=5e-3)
        assert coil.tuning_capacitance is None

    def test_receiver_coil_reference_values(self):
        coil = derive_coil_electrical(RX_GEOM)
        assert coil.resistance == pytest.approx(0.0672, rel=5e-3)
        assert coil.self_inductance == pytest.approx(0.0294e-3, rel=5e-3)

    def test_doubling_turns_scales_r_linearly_l_quadratically(self):
        base = derive_coil_electrical(RX_GEOM)
        doubled = derive_coil_electrical(
            CoilGeometry(0.0495, 0.0505, 20, 1.68e-8)
        )
        assert doubled.resistance == pytest.approx(2 * base.resistance, rel=1e-12)
        assert doubled.self_inductance == pytest.approx(4 * base.self_inductance, rel=1e-12)

    def test_formula_directly(self):
        # independent evaluation of both closed forms
        e_ave, e_wire = 0.2, 0.001
        r = 2 * 1.68e-8 * 200 * e_ave / e_wire**2
        l = 200**2 * e_ave * MU0 * (math.log(8 * e_ave / e_wire) - 2)
        coil = derive_coil_electrical(TX_GEOM)
        assert coil.resistance == pytest.approx(r, rel=1e-14)
        assert coil.self_inductance == pytest.approx(l, rel=1e-14)

    def test_invalid_geometry_names_field(self):
        with pytest.raises(ValidationError, match="outer_radius"):
            CoilGeometry(0.05, 0.04, 10, 1.68e-8)
        with pytest.raises(ValidationError, match="inner_radius"):
            CoilGeometry(-0.01, 0.04, 10, 1.68e-8)
        with pytest.raises(ValidationError, match="turns"):
            CoilGeometry(0.0495, 0.0505, 0, 1.68e-8)
        with pytest.raises(ValidationError, match="normal"):
            CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, normal=(0, 0, 1.001))

    def test_thick_wire_warns(self):
        with pytest.warns(UserWarning, match="wire radius"):
            CoilGeometry(0.03, 0.05, 10, 1.68e-8)


class TestTuneCapacitor:
    def test_identity_case(self):
        assert tune_capacitor(1.0, 1.0) == 1.0

    def test_transmitter_coil_value(self):
        l = 54.0630e-3
        w = 42.6e6
        c = tune_capacitor(l, w)
        assert c == pytest.approx(1.0 / (l * w * w), rel=1e-15)
        assert c == pytest.approx(1.019e-14, rel=1e-3)

    def test_round_trip_resonance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            l = 10 ** rng.uniform(-6, 0)
            w = 10 ** rng.uniform(3, 9)
            c = tune_capacitor(l, w)
            assert 1.0 / math.sqrt(l * c) == pytest.approx(w, rel=1e-12)
            # series reactance cancels at the tuned frequency
            assert w * l - 1.0 / (w * c) == pytest.approx(0.0, abs=1e-12 * w * l)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            tune_capacitor(0.0, 1.0)
        with pytest.raises(ValidationError):
            tune_capacitor(1.0, -2.0)

    @pytest.mark.parametrize("l, w", [
        # l*w**2 subnormal: c = 1.34e308, which misses w by far more than 1e-12
        (1.8366717e-317, 20127.700120247453),
        # 1 / (l*w**2) overflows to inf
        (1e-320, 1.0),
    ], ids=["subnormal", "overflow"])
    def test_rejects_what_no_capacitor_tunes(self, l, w):
        with pytest.raises(ValidationError, match="tunes"):
            tune_capacitor(l, w)
        with pytest.raises(ValidationError, match="tunes"):
            CoilElectrical(1.0, l).tuned(w)


class TestMutualInductance:
    def test_coaxial_matches_direct_expression(self):
        # 0.91 m is just inside the five-radii advisory range of the big coil
        d = 0.91
        rx = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, center=(0.0, 0.0, d))
        with pytest.warns(UserWarning, match="separation"):
            h = mutual_inductance(TX_GEOM, rx)
        expected = -math.pi * MU0 * 200 * 10 * 0.2**2 * 0.05**2 / (4 * d**3) * 2.0
        assert h == pytest.approx(expected, rel=1e-12)

    def test_magic_angle_kills_coupling(self):
        # axis-aligned normal, center at the polar angle where the axial
        # term of the dipole field changes sign
        theta = math.atan(math.sqrt(2.0))
        d = 1.5
        rx = CoilGeometry(
            0.0495, 0.0505, 10, 1.68e-8,
            center=(d * math.sin(theta), 0.0, d * math.cos(theta)),
        )
        h = mutual_inductance(TX_GEOM, rx)
        scale = math.pi * MU0 * 200 * 10 * 0.2**2 * 0.05**2 / (4 * d**3)
        assert abs(h) < 1e-12 * scale

    def test_inverse_cube_distance_scaling(self):
        rx_near = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, center=(0.36, 0.48, 0.96))
        rx_far = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, center=(0.72, 0.96, 1.92))
        h_near = mutual_inductance(TX_GEOM, rx_near)
        h_far = mutual_inductance(TX_GEOM, rx_far)
        assert h_far == pytest.approx(h_near / 8.0, rel=1e-12)

    def test_rotation_about_z_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            center = rng.uniform(-1, 1, 3)
            center[2] = rng.uniform(1.2, 2.5)
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            rx = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8,
                              center=tuple(center), normal=tuple(normal))
            h0 = mutual_inductance(TX_GEOM, rx)
            angle = rng.uniform(0, 2 * np.pi)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            rx_rot = CoilGeometry(
                0.0495, 0.0505, 10, 1.68e-8,
                center=tuple(rot @ center), normal=tuple(rot @ normal),
            )
            assert mutual_inductance(TX_GEOM, rx_rot) == pytest.approx(h0, abs=1e-12)

    def test_coupling_bounded_by_self_inductances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rx = CoilGeometry(
                0.04, 0.041, int(rng.integers(1, 40)), 1.68e-8,
                center=tuple(rng.uniform(0.8, 3.0, 3)),
                normal=tuple(np.array([0.0, 0.0, 1.0])),
            )
            h = mutual_inductance(TX_GEOM, rx)  # asserts the bound internally
            l1 = derive_coil_electrical(TX_GEOM).self_inductance
            l2 = derive_coil_electrical(rx).self_inductance
            assert abs(h) <= math.sqrt(l1 * l2)

    def test_degenerate_placement(self):
        rx = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, center=(0.0, 0.0, 0.0))
        with pytest.raises(DegeneratePlacementError):
            mutual_inductance(TX_GEOM, rx)

    def test_close_range_warns(self):
        rx = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, center=(0.0, 0.0, 0.3))
        with pytest.warns(UserWarning, match="separation"):
            mutual_inductance(TX_GEOM, rx)

    def test_offset_coil1_rejected(self):
        off = CoilGeometry(0.199, 0.201, 200, 1.68e-8, center=(0.1, 0.0, 0.0))
        rx = CoilGeometry(0.0495, 0.0505, 10, 1.68e-8, center=(0.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="origin"):
            mutual_inductance(off, rx)


class TestEstimateMutualInductance:
    def test_round_trip_recovers_coupling(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            config = random_system(rng, n=int(rng.integers(1, 5)))
            n = int(rng.integers(0, config.n_receivers))
            x_n = float(np.sqrt(config.x_lo[n] * config.x_hi[n]))
            solo = SwitchState(s=tuple(1 if k == n else 0
                                       for k in range(config.n_receivers)))
            x = [1.0] * config.n_receivers
            x[n] = x_n
            p_tx = solve_closed_form(config, solo, x).p_tx
            h_est = estimate_mutual_inductance(
                p_tx, abs(config.v_tx), config.transmitter.resistance,
                config.receivers[n].resistance, x_n, config.w,
                direction_match=True,
            )
            assert h_est == pytest.approx(abs(config.h[n]), rel=1e-9)

    def test_direction_bit_sets_sign(self):
        h_pos = estimate_mutual_inductance(10.0, 30.0, 1.0, 0.1, 2.0, 1e6, True)
        h_neg = estimate_mutual_inductance(10.0, 30.0, 1.0, 0.1, 2.0, 1e6, False)
        assert h_neg == -h_pos and h_pos > 0

    def test_bare_transmitter_power_gives_zero(self):
        v, r_tx = 30.0, 1.5
        p = v * v / (2 * r_tx)
        assert estimate_mutual_inductance(p, v, r_tx, 0.1, 2.0, 1e6, True) == 0.0

    def test_impossible_measurement_rejected(self):
        v, r_tx = 30.0, 1.5
        too_much = v * v / (2 * r_tx) * 1.01
        with pytest.raises(InconsistentMeasurementError):
            estimate_mutual_inductance(too_much, v, r_tx, 0.1, 2.0, 1e6, True)


def test_electrical_validation():
    with pytest.raises(ValidationError):
        CoilElectrical(0.0, 1e-3)
    with pytest.raises(ValidationError):
        CoilElectrical(1.0, -1e-3)
    with pytest.raises(ValidationError):
        CoilElectrical(1.0, 1e-3, tuning_capacitance=0.0)
    tuned = CoilElectrical(1.0, 1e-3).tuned(1e6)
    assert tuned.tuning_capacitance == pytest.approx(1e-9, rel=1e-12)
