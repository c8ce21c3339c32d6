"""Scenario parsing, validation diagnostics, serialization round trips."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcwpt import (
    ScenarioError,
    parse_scenario,
    parse_scenario_text,
    serialize_scenario,
)
from mrcwpt.scenario import bundled_scenario_path

MINIMAL = """
version = 1
[source]
v_tx = 10.0
w = 1e7
[transmitter]
r = 1.0
l = 1e-2
[receiver 1]
r = 0.1
l = 1e-5
h = 1e-7
x_lo = 1.0
x_hi = 10.0
p_req = 0.5
"""

# two 0.1 m coils 1 mm apart, coupled through the dipole formula
CLOSE_RANGE_DERIVE = """
[source]
v_tx = 10.0
w = 1e7
[transmitter]
inner_radius = 0.099
outer_radius = 0.101
turns = 10
resistivity = 1.68e-8
[receiver 1]
inner_radius = 0.099
outer_radius = 0.101
turns = 10
resistivity = 1.68e-8
center = 0 0 0.001
h = derive
x_lo = 1.0
x_hi = 10.0
p_req = 0.5
"""


class TestParsing:
    def test_bundled_three_receiver_benchmark(self):
        config, options = parse_scenario("three_receivers")
        assert config.transmitter.resistance == 1.344
        assert config.h == (-9.21e-8, 4.02e-8, 2.45e-8)
        assert config.w == 42.6e6
        assert abs(config.v_tx) == pytest.approx(20 * math.sqrt(2), rel=1e-12)
        assert config.p_req == (17.5, 17.5, 30.0)
        assert options.x_nominal == (2.5, 2.5, 2.5)
        assert options.dx == 1e-3 and options.itr_max == 300_000
        # capacitors come back tuned
        c = config.transmitter.tuning_capacitance
        assert 1 / math.sqrt(config.transmitter.self_inductance * c) == pytest.approx(
            config.w, rel=1e-12
        )

    def test_bundled_two_receiver_benchmark(self):
        config, _ = parse_scenario("two_receivers")
        assert config.n_receivers == 2
        assert config.p_req == (5.0, 5.0)

    def test_minimal_text(self):
        config, options = parse_scenario_text(MINIMAL)
        assert config.n_receivers == 1
        assert options.x_nominal[0] == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_geometry_coil_derivation(self):
        text = MINIMAL.replace(
            "[transmitter]\nr = 1.0\nl = 1e-2",
            "[transmitter]\ninner_radius = 0.199\nouter_radius = 0.201\n"
            "turns = 200\nresistivity = 1.68e-8",
        )
        config, _ = parse_scenario_text(text)
        assert config.transmitter.resistance == pytest.approx(1.344, rel=1e-3)

    def test_derived_coupling_from_geometry(self):
        text = """
[source]
v_tx = 10.0
w = 1e7
[transmitter]
inner_radius = 0.199
outer_radius = 0.201
turns = 200
resistivity = 1.68e-8
[receiver 1]
inner_radius = 0.0495
outer_radius = 0.0505
turns = 10
resistivity = 1.68e-8
center = 0 0 1.2
h = derive
x_lo = 1.0
x_hi = 10.0
p_req = 0.5
"""
        config, _ = parse_scenario_text(text)
        from mrcwpt.coils import MU0

        expected = -math.pi * MU0 * 2000 * 0.2**2 * 0.05**2 / (4 * 1.2**3) * 2
        assert config.h[0] == pytest.approx(expected, rel=1e-12)

    def test_nominal_x_defaults_to_geometric_mean(self):
        config, options = parse_scenario_text(MINIMAL)
        assert options.x_nominal == (pytest.approx(math.sqrt(10.0)),)
        del config


class TestErrors:
    def test_reversed_bounds_name_the_receiver(self):
        bad = MINIMAL.replace("x_lo = 1.0", "x_lo = 20.0")
        with pytest.raises(ScenarioError, match="receiver 1"):
            parse_scenario_text(bad)

    def test_unknown_key_reports_line(self):
        bad = MINIMAL + "\n[options]\nbogus = 3\n"
        with pytest.raises(ScenarioError, match="bogus"):
            parse_scenario_text(bad)

    def test_missing_value_reports_position(self):
        bad = MINIMAL.replace("w = 1e7", "w =")
        with pytest.raises(ScenarioError, match="missing value"):
            parse_scenario_text(bad)

    def test_both_coil_forms_rejected(self):
        bad = MINIMAL.replace("r = 1.0", "r = 1.0\ninner_radius = 0.1")
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario_text(bad)

    def test_derive_without_geometry_rejected(self):
        bad = MINIMAL.replace("h = 1e-7", "h = derive")
        with pytest.raises(ScenarioError, match="derive"):
            parse_scenario_text(bad)

    def test_derived_coupling_at_close_range_rejected(self):
        # two 0.1 m coils 1 mm apart: the dipole formula gives |h| far
        # above sqrt(l1*l2)
        with pytest.warns(UserWarning, match="separation"):
            with pytest.raises(ScenarioError, match=r"receiver 1: derived coupling") as exc:
                parse_scenario_text(CLOSE_RANGE_DERIVE)
        assert "sqrt(l1*l2)" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (16, 1)

    def test_excessive_coupling_rejected(self):
        bad = MINIMAL.replace("h = 1e-7", "h = 1e-2")
        with pytest.raises(ScenarioError, match=r"\|h\|"):
            parse_scenario_text(bad)

    def test_receiver_numbering_must_be_contiguous(self):
        bad = MINIMAL.replace("[receiver 1]", "[receiver 2]")
        with pytest.raises(ScenarioError, match="numbered"):
            parse_scenario_text(bad)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            # a digit that int() does not read
            ("[receiver 1]", "[receiver \u00b2]", "bad receiver section"),
            # numbering checked without a list up to the largest index
            ("[receiver 1]", "[receiver 99999999999999]", "numbered"),
            # l * w**2 underflows to zero when tuning
            ("w = 1e7", "w = 5e-324", "float range"),
        ],
        ids=["superscript-index", "huge-index", "tiny-w"],
    )
    def test_awkward_values_rejected(self, old, new, match):
        with pytest.raises(ScenarioError, match=match):
            parse_scenario_text(MINIMAL.replace(old, new))

    @pytest.mark.parametrize(
        "old, new",
        [("outer_radius = 0.101\nturns", "outer_radius = 1e308\nturns"),
         ("turns = 10\nresistivity", "turns = 1" + "0" * 400 + "\nresistivity")],
        ids=["huge-radius", "huge-turns"],
    )
    def test_geometry_out_of_float_range_rejected(self, old, new):
        text = CLOSE_RANGE_DERIVE.replace("0 0 0.001", "0 0 1")
        assert old in text
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ScenarioError, match="out of float range"):
                parse_scenario_text(text.replace(old, new))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "absent.scn")

    def test_error_carries_location(self):
        bad = MINIMAL.replace("w = 1e7", "w = banana")
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(bad, path="demo.scn")
        assert err.value.line is not None
        assert "demo.scn" in str(err.value)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        for name in ("three_receivers", "two_receivers"):
            config1, options1 = parse_scenario(name)
            text = serialize_scenario(config1, options1)
            config2, options2 = parse_scenario_text(text)
            assert config1 == config2
            assert options1 == options2

    def test_serialized_file_usable_from_disk(self, tmp_path):
        config1, options1 = parse_scenario("three_receivers")
        path = tmp_path / "copy.scn"
        path.write_text(serialize_scenario(config1, options1))
        config2, _ = parse_scenario(path)
        assert config1 == config2


def test_bundled_path_resolution():
    assert bundled_scenario_path("three_receivers") is not None
    assert bundled_scenario_path("nonexistent") is None


# values that have broken parsers: non-finite and overflowing numbers,
# digits int() does not read, huge integers, vectors, the derive keyword
_AWKWARD_VALUES = (
    "nan", "inf", "-inf", "1e309", "-1", "0", "-0.0", "5e-324", "1e-300", "1e200",
    "1e308", "derive", "\u00b2", "\u0663", "1_0", "0x10", "9" * 5000, "1" + "0" * 400,
    "1 2 3", "0 0 1", "0 0 0", "1e200 0 0",
)
_AWKWARD_LINES = (
    "[receiver \u00b2]", "[receiver 0]", "[receiver 99999999999999]", "[receiver 2]",
    "[options]", "[source]", "[ ]", "[", "]", "=", "version = 2",
)


@st.composite
def scenario_texts(draw):
    """Arbitrary text, or a valid scenario (electrical, geometric with a
    derived coupling, or bundled) after a few line edits: a value replaced,
    a line dropped, duplicated or inserted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=300))
    template = draw(st.sampled_from(
        (MINIMAL, CLOSE_RANGE_DERIVE.replace("0 0 0.001", "0 0 1"),
         bundled_scenario_path("three_receivers").read_text(encoding="utf-8"))
    ))
    lines = template.splitlines()
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.integers(0, 4))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == 0 and lines and "=" in lines[i]:
            value = draw(st.one_of(st.sampled_from(_AWKWARD_VALUES), st.text(max_size=12)))
            lines[i] = lines[i].split("=", 1)[0] + "= " + value
        elif op == 1 and lines:
            del lines[i]
        elif op == 2 and lines:
            lines.insert(i, lines[i])
        elif op == 3:
            lines.insert(i, draw(st.sampled_from(_AWKWARD_LINES)))
        else:
            lines.insert(i, draw(st.text(max_size=20)))
    return "\n".join(lines)


class TestParserProperty:
    """Any text parses to a config or raises ScenarioError, which the CLI
    maps to its documented exit code; nothing else escapes the parser."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(scenario_texts())
    def test_any_text_gives_a_config_or_a_scenario_error(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # close-range and thick-wire notes
            try:
                config, options = parse_scenario_text(text)
            except ScenarioError:
                return
        assert len(options.x_nominal) == config.n_receivers
