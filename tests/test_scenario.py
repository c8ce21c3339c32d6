"""Scenario parsing, validation diagnostics, serialization round trips."""

import cmath
import math
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcwpt import (
    CoilElectrical,
    ScenarioError,
    ScenarioOptions,
    SystemConfig,
    parse_scenario,
    parse_scenario_text,
    serialize_scenario,
)
from mrcwpt.scenario import _path_text, bundled_scenario_path

import scenario_reference

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # str.strip keeps U+FEFF, so a BOM made line 1 "expected 'key = value'"
        path = tmp_path / "bom.scn"
        path.write_bytes(b"\xef\xbb\xbf" + bundled_scenario_path("three_receivers").read_bytes())
        assert parse_scenario(path) == parse_scenario("three_receivers")

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

    @pytest.mark.parametrize("section", ["", "\n[options]\n"], ids=["absent", "empty"])
    def test_unset_options_take_the_dataclass_defaults(self, section):
        _, options = parse_scenario_text(MINIMAL + section)
        assert options == ScenarioOptions(x_nominal=options.x_nominal)

    def test_set_options_override_defaults(self):
        text = MINIMAL + "\n[options]\nitr_max = 7\ntau_total = 2.5\ngrid_points = 0\n"
        _, options = parse_scenario_text(text)
        assert options == ScenarioOptions(
            x_nominal=options.x_nominal, itr_max=7, tau_total=2.5, grid_points=None
        )


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

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            (MINIMAL + "\n[options]\nitr_max = 1.5\n",
             "'itr_max' must be an integer, got '1.5'", 18, 1),
            (CLOSE_RANGE_DERIVE.replace("center = 0 0 0.001", "center = 0 0"),
             "'center' must be three numbers", 15, 1),
            (MINIMAL + "\n[sink]\nr = 1.0\n", "unknown section '[sink]'", 17, None),
            (MINIMAL.split("[receiver 1]")[0],
             "at least one [receiver k] section is required", None, None),
            (MINIMAL.replace("v_tx = 10.0", "v_tx = 0"), "v_tx must be > 0", 3, None),
            (CLOSE_RANGE_DERIVE.replace(
                "inner_radius = 0.099\nouter_radius = 0.101\nturns = 10\n"
                "resistivity = 1.68e-8\n[receiver 1]",
                "r = 1.0\nl = 1e-2\n[receiver 1]"),
             "receiver 1: h = derive needs transmitter geometry", 14, 1),
            (MINIMAL.replace("p_req = 0.5", "p_req = 0.5\nx = 20.0"),
             "receiver 1: nominal x must lie within [x_lo, x_hi]", 9, None),
        ],
        ids=["fractional-itr_max", "two-number-center", "unknown-section", "no-receivers",
             "zero-v_tx", "derive-without-transmitter-geometry", "nominal-x-outside-box"],
    )
    def test_error_message_and_location(self, text, message, line, column):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(text, path="demo.scn")
        where = "".join(f":{v}" for v in (line, column) if v is not None)
        assert str(err.value) == f"demo.scn{where}: {message}"
        assert (err.value.path, err.value.line, err.value.column) == ("demo.scn", line, column)

    def test_directory_given_as_path(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario") as err:
            parse_scenario(tmp_path)
        assert str(err.value).startswith(f"{tmp_path}: cannot read scenario: ")
        assert (err.value.path, err.value.line, err.value.column) == (tmp_path, None, None)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_text_that_is_not_utf8(self, bom, tmp_path):
        # a Latin-1 e-acute in a comment raised a bare UnicodeDecodeError
        data = bom + MINIMAL.replace("[source]", "[source]  # caf\u00e9").encode("latin-1")
        path = tmp_path / "latin1.scn"
        path.write_bytes(data)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        offset = data.index(b"\xe9")
        assert str(err.value) == f"{path}: not UTF-8 text: byte 0xe9 at offset {offset}"
        assert (err.value.path, err.value.line, err.value.column) == (path, None, None)

    def test_missing_file(self, tmp_path, monkeypatch):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "absent.scn")
        # only a bare name (no suffix, no '/') is looked up in the bundle;
        # a name too long for the file system is not found either
        monkeypatch.chdir(tmp_path)
        for name in ("three_receivers.scn", "./three_receivers", "a" * 252):
            with pytest.raises(ScenarioError, match="scenario file not found") as err:
                parse_scenario(name)
            assert err.value.path == name

    @pytest.mark.parametrize("name", ["a" * 300, "d/" + "a" * 300, "a" * 300 + ".scn"],
                             ids=["bare", "in-a-folder", "with-suffix"])
    def test_name_too_long_for_the_file_system(self, name, tmp_path, monkeypatch):
        # past the usual 255-byte limit on a file name, looking the path up
        # fails in the file system; that is a missing scenario too
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ScenarioError, match="scenario file not found") as err:
            parse_scenario(name)
        assert err.value.path == name

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


def test_path_text_is_the_path_of_a_path():
    # the parser names a file as str(Path(path)) without always building it
    rng = random.Random(7)
    parts = ("a", "/", ".", "..", "b.scn", " ", "\\", "~")
    for _ in range(20_000):
        path = "".join(rng.choice(parts) for _ in range(rng.randint(0, 8)))
        assert _path_text(path) == str(Path(path)), path
    assert _path_text(Path("a//b/./c/")) == "a/b/c"


def test_bundled_path_resolution(tmp_path, monkeypatch):
    assert bundled_scenario_path("three_receivers") is not None
    assert bundled_scenario_path("nonexistent") is None
    # a path that exists wins over the bundle, even a bare name or a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three_receivers").write_text(MINIMAL)
    config, _ = parse_scenario("three_receivers")
    assert config == parse_scenario_text(MINIMAL)[0]
    (tmp_path / "two_receivers").mkdir()
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        parse_scenario("two_receivers")


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


def _random_system(rng):
    """A valid system of 1 to 5 electrical receivers, in plain floats."""
    n = rng.randint(1, 5)
    l_tx = 10 ** rng.uniform(-3, -1)
    receivers, h, x_lo, x_hi, p_req = [], [], [], [], []
    for _ in range(n):
        l_k = 10 ** rng.uniform(-5, -3)
        receivers.append(CoilElectrical(10 ** rng.uniform(-1.5, -0.5), l_k))
        h.append(rng.choice((-1, 1)) * 10 ** rng.uniform(-3, -0.1) * math.sqrt(l_k * l_tx))
        lo = 10 ** rng.uniform(-0.5, 0.5)
        x_lo.append(lo)
        x_hi.append(lo * 10 ** rng.uniform(0, 2))
        p_req.append(10 ** rng.uniform(-3, 1))
    config = SystemConfig(
        v_tx=cmath.rect(10 ** rng.uniform(0.5, 2), rng.choice((0.0, rng.uniform(-3, 3)))),
        w=10 ** rng.uniform(6, 7.8),
        transmitter=CoilElectrical(10 ** rng.uniform(-0.5, 0.7), l_tx),
        receivers=tuple(receivers),
        h=tuple(h),
        x_lo=tuple(x_lo),
        x_hi=tuple(x_hi),
        p_req=tuple(p_req),
    )
    x_nominal = tuple(math.sqrt(lo * hi) for lo, hi in zip(x_lo, x_hi))
    grid = rng.choice((None, rng.randint(2, 300)))
    return config, ScenarioOptions(x_nominal=x_nominal, grid_points=grid)


def _geometry(rng, center):
    """Geometry keys of a thin coil; with ``center`` it sits about 2 m from
    the transmitter, sometimes tilted by a ``normal``."""
    inner = 10 ** rng.uniform(-2, -0.5)
    lines = [f"inner_radius = {inner!r}", f"outer_radius = {inner * 1.01!r}",
             f"turns = {rng.randint(1, 300)}", f"resistivity = {1.68e-8 * rng.uniform(1, 2)!r}"]
    if center:
        lines.append("center = " + " ".join(repr(rng.uniform(-1, 1) + (2.0 if i == 2 else 0.0))
                                            for i in range(3)))
        if rng.random() < 0.5:
            v = [rng.uniform(-1, 1) for _ in range(3)]
            norm = math.sqrt(sum(c * c for c in v))
            lines.append("normal = " + " ".join(repr(c / norm) for c in v))
    return lines


def _logical_lines(rng):
    """``serialize_scenario`` of a random system, as lines whose sections
    and keys may be reordered and whose coils may be given geometrically
    (a receiver then derives h from a geometric transmitter)."""
    blocks = [[]]
    for line in serialize_scenario(*_random_system(rng)).splitlines():
        if line.startswith("["):
            blocks.append([line])
        elif line:
            blocks[-1].append(line)
    tx_geometry = rng.random() < 0.3
    for block in blocks[1:]:
        name = block[0]
        if name == "[transmitter]" and tx_geometry:
            block[1:] = _geometry(rng, center=False)
        elif name.startswith("[receiver") and rng.random() < 0.3:
            rest = [line for line in block[1:] if line.split(" =")[0] not in ("r", "l")]
            if tx_geometry:
                rest = [line for line in rest if not line.startswith("h =")] + ["h = derive"]
            block[1:] = _geometry(rng, center=True) + rest
        if rng.random() < 0.5:
            entries = block[1:]
            rng.shuffle(entries)
            block[1:] = entries
    sections = blocks[1:]
    if rng.random() < 0.3:
        rng.shuffle(sections)
    return blocks[0] + [line for block in sections for line in block]


_COMMENTS = ("# note", "#", "# x = 1", "# [receiver 9]", "#= [", "##")
_BAD_NUMBERS = ("banana", "nan", "inf", "-inf", "1e999", "1,5", "0x10", "1 2 3", "derive",
                "-1", "0", "1e-320", "٣", "1_0")


def _edit(rng, lines):
    """One edit that may make the text invalid: a dropped '=', a duplicate
    key or section, a bad number, an unknown key, a receiver gap, a
    dropped or malformed line."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    assignments = [k for k, line in enumerate(lines) if "=" in line]
    headers = [k for k, line in enumerate(lines) if line.startswith("[")]
    a = rng.choice(assignments)
    op = rng.randrange(9)
    if op == 0:
        lines[a] = lines[a].replace("=", "", 1)
    elif op == 1:
        lines.insert(a + 1, lines[a])
    elif op == 2:
        lines.insert(rng.randint(headers[0], len(lines)), lines[rng.choice(headers)])
    elif op == 3:
        lines[a] = lines[a].split("=")[0] + "= " + rng.choice(_BAD_NUMBERS)
    elif op == 4:
        lines.insert(i, rng.choice(("bogus = 1", "x = 2.0", "version = 1", "h = derive")))
    elif op == 5:
        receivers = [k for k in headers if lines[k].startswith("[receiver")]
        lines[rng.choice(receivers)] = f"[receiver {rng.choice((0, 7, 12))}]"
    elif op == 6:
        del lines[i]
    elif op == 7:
        lines[a] = lines[a].split("=")[0] + "="
    else:
        lines.insert(i, rng.choice(("= 5", "[receiver 1", "[]", "[ ]", "[receiver one]",
                                    "]", "key value", "[receiver 1] = 2")))
    return lines


def _render(rng, lines):
    """The lines written with blank and comment lines, indentation, spaces
    and tabs around '=', trailing comments and LF, CRLF or CR line ends."""
    blank = (" ", "\t", "  \t ", " ")
    out = []
    for line in lines:
        if rng.random() < 0.15:
            out.append(rng.choice(("",) + blank + _COMMENTS))
        lead = rng.choice(("",) * 4 + blank)
        if "=" in line and rng.random() < 0.5:
            key, value = (part.strip() for part in line.split("=", 1))
            line = f"{key}{rng.choice(blank)}={rng.choice(blank)}{value}"
        if rng.random() < 0.2:
            line += rng.choice(("", " ", "\t")) + rng.choice(_COMMENTS)
        out.append(lead + line + rng.choice(("",) * 4 + blank))
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(out) + rng.choice(("", end))


def _outcome(parse, text):
    """(config, options), or the error's text and position."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # close-range and thick-wire notes
        try:
            return parse(text, "case.scn")
        except ScenarioError as exc:
            return str(exc), exc.path, exc.line, exc.column


class TestAgainstReference:
    """The parser returns what the line-by-line reference parser returns,
    config, options or the identical error, on valid and edited texts."""

    def test_random_texts_and_single_edits(self):
        rng = random.Random(34)
        parsed = 0
        for _ in range(400):
            lines = _logical_lines(rng)
            for edited in (lines, _edit(rng, lines), _edit(rng, lines)):
                text = _render(rng, edited)
                expected = _outcome(scenario_reference.parse_scenario_text, text)
                assert _outcome(parse_scenario_text, text) == expected, text
                parsed += isinstance(expected[0], SystemConfig)
        assert parsed >= 300  # most unedited texts are valid systems

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(scenario_texts())
    def test_any_text(self, text):
        expected = _outcome(scenario_reference.parse_scenario_text, text)
        assert _outcome(parse_scenario_text, text) == expected
