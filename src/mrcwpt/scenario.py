"""Scenario files: a small sectioned key-value format describing one system.

Grammar (UTF-8, line oriented; a byte-order mark at the start of a file
is skipped):

    file       := line*
    line       := blank | comment | section | assignment
    comment    := '#' anything
    section    := '[' name ']'          e.g. [source], [receiver 2]
    assignment := key '=' value         value: number, word, or 3 numbers

Sections: ``[source]`` (keys v_tx, phase, w), ``[transmitter]``,
``[receiver k]`` for k = 1..N, ``[options]``. A ``version = 1`` assignment
may appear before the first section. Coils are given either electrically
(keys r, l) or geometrically (keys inner_radius, outer_radius, turns,
resistivity, and optionally center / normal as three numbers); exactly one
of the two forms per coil. Each receiver needs h (a number, or the word
``derive`` to compute it from transmitter and receiver geometry), x_lo,
x_hi, p_req, and optionally a nominal operating point x.

Parsing produces a fully validated, capacitor-tuned SystemConfig plus the
run options; serialization emits the electrical form, so a parse /
serialize / parse round trip reproduces the same SystemConfig.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .circuit import SystemConfig
from .coils import (
    CoilElectrical,
    CoilGeometry,
    derive_coil_electrical,
    mutual_inductance,
    tune_capacitor,
)
from .errors import ScenarioError, ValidationError

_GEOMETRY_KEYS = frozenset(
    ("inner_radius", "outer_radius", "turns", "resistivity", "center", "normal")
)


@dataclass(frozen=True)
class ScenarioOptions:
    """Run parameters carried alongside the physical system description."""

    x_nominal: tuple[float, ...]
    dx: float = 1e-3
    itr_max: int = 300_000
    dp_stop: float = 1e-3
    tau_total: float = 1.0
    grid_points: int | None = None


class _Section:
    __slots__ = ("name", "line", "entries")

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        # key -> (value, line number, line); the key's column is read off
        # the line only when an error reports it
        self.entries = {}


def _column(line: str) -> int:
    """Column of an entry's key: the first character of its line that is not blank."""
    return len(line) - len(line.lstrip()) + 1


def _tokenize(text: str, path) -> list[_Section]:
    sections = [_Section("", 0)]
    entries = sections[0].entries
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    for lineno, line in enumerate(lines, start=1):
        key, eq, value = line.partition("=")
        key = key.strip()
        if eq:
            value = value.strip()
            if key and value and key[0] != "[":
                if key in entries:
                    raise ScenarioError(f"duplicate key '{key}'", path, lineno, _column(line))
                entries[key] = (value, lineno, line)
                continue
        elif not key:
            continue  # blank, or a comment alone
        # a section header or a malformed line
        stripped = line.strip()
        if stripped[0] == "[":
            if not stripped.endswith("]"):
                raise ScenarioError(
                    "unterminated section header", path, lineno, line.index("[") + 1
                )
            name = stripped[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", path, lineno, 1)
            sections.append(_Section(name, lineno))
            entries = sections[-1].entries
        elif not eq:
            raise ScenarioError("expected 'key = value'", path, lineno, _column(line))
        elif not key:
            raise ScenarioError("missing key before '='", path, lineno, 1)
        else:
            raise ScenarioError(
                f"missing value for '{key}'", path, lineno, line.index("=") + 2
            )
    return sections


def _floats(section: _Section, keys, path) -> list[float]:
    """The values of ``keys``, taken from the section in order; the first
    one that is missing or not a finite number raises."""
    entries = section.entries
    numbers = []
    for key in keys:
        entry = entries.pop(key, None)
        if entry is None:
            raise ScenarioError(f"[{section.name}] is missing '{key}'", path, section.line)
        try:
            number = float(entry[0])
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            _finite(key, entry, "a finite number", path)  # raises
        numbers.append(number)
    return numbers


def _as_float(section: _Section, key: str, path, default: float | None = None) -> float | None:
    """The value of an optional key, or ``default`` when it is not given."""
    entry = section.entries.pop(key, None)
    if entry is None:
        return default
    return _finite(key, entry, "a finite number", path)


def _finite(key: str, entry, kind: str, path, text: str | None = None) -> float:
    """Parse one finite float, the entry's value or ``text`` taken from it;
    nan and +-inf are rejected like any bad number."""
    if text is None:
        text = entry[0]
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ScenarioError(
            f"'{key}' must be {kind}, got '{text}'", path, entry[1], _column(entry[2])
        )
    return number


def _as_int(section: _Section, key: str, path, default: int | None = None) -> int | None:
    entry = section.entries.pop(key, None)
    if entry is None:
        return default
    value, line, line_text = entry
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(
            f"'{key}' must be an integer, got '{value}'", path, line, _column(line_text)
        ) from None


def _as_vector(section: _Section, key: str, path, default):
    entry = section.entries.pop(key, None)
    if entry is None:
        return default
    value, line, line_text = entry
    parts = value.split()
    if len(parts) != 3:
        raise ScenarioError(f"'{key}' must be three numbers", path, line, _column(line_text))
    return tuple(_finite(key, entry, "three finite numbers", path, p) for p in parts)


def _reject_leftovers(section: _Section, path) -> None:
    for key, (_, line, line_text) in section.entries.items():
        raise ScenarioError(
            f"unknown key '{key}' in [{section.name or 'top level'}]",
            path, line, _column(line_text),
        )


def _capacitance(self_inductance: float, w: float) -> float | None:
    """The coil's tuning capacitance at w, or None where no capacitor tunes
    it: that coil stays untuned, and parse_scenario_text reports why only
    once the rest of the system has passed validation, where
    SystemConfig.tuned would."""
    try:
        return tune_capacitor(self_inductance, w)
    except ValidationError:
        return None


def _parse_coil(section: _Section, label: str, path, w: float, shared: dict):
    """Returns (CoilElectrical tuned to w where it can be, CoilGeometry or None).

    ``shared`` maps each (r, l) given electrically so far to its coil: equal
    coils, such as a system's identical receivers, are one object, validated
    and tuned once."""
    entries = section.entries
    has_electrical = "r" in entries or "l" in entries
    has_geometry = not _GEOMETRY_KEYS.isdisjoint(entries)
    if has_electrical and has_geometry:
        raise ScenarioError(
            f"{label}: give either electrical (r, l) or geometry keys, not both",
            path, section.line,
        )
    if not has_electrical and not has_geometry:
        raise ScenarioError(
            f"{label}: needs electrical (r, l) or geometry keys", path, section.line
        )
    if has_electrical:
        r, l = _floats(section, ("r", "l"), path)
        coil = shared.get((r, l))
        if coil is None:
            try:
                coil = shared[r, l] = CoilElectrical(r, l, _capacitance(l, w))
            except ValidationError as exc:
                raise ScenarioError(f"{label}: {exc}", path, section.line) from exc
        return coil, None
    inner, outer = _floats(section, ("inner_radius", "outer_radius"), path)
    geom_kwargs = dict(
        inner_radius=inner,
        outer_radius=outer,
        turns=_as_int(section, "turns", path, default=-1),
        wire_resistivity=_floats(section, ("resistivity",), path)[0],
        center=_as_vector(section, "center", path, (0.0, 0.0, 0.0)),
        normal=_as_vector(section, "normal", path, (0.0, 0.0, 1.0)),
    )
    if geom_kwargs["turns"] == -1:
        raise ScenarioError(f"{label}: is missing 'turns'", path, section.line)
    try:
        geom = CoilGeometry(**geom_kwargs)
        coil = derive_coil_electrical(geom)
    except (ValidationError, ArithmeticError) as exc:
        raise _geometry_error(label, exc, path, section.line) from exc
    c = _capacitance(coil.self_inductance, w)
    if c is not None:
        coil = CoilElectrical(coil.resistance, coil.self_inductance, c)
    return coil, geom


def _geometry_error(label: str, exc: Exception, path, line: int, col: int | None = None):
    """The ScenarioError for coil geometry the model rejects, or whose
    derived values leave the float range (an overflowing power, a huge
    turn count)."""
    reason = exc if isinstance(exc, ValidationError) else "geometry is out of float range"
    return ScenarioError(f"{label}: {reason}", path, line, col)


# the [options] keys in the order they are read, each with its parser
_OPTIONS = (("dx", _as_float), ("itr_max", _as_int), ("dp_stop", _as_float),
            ("tau_total", _as_float), ("grid_points", _as_int))


def parse_scenario_text(text: str, path="<string>") -> tuple[SystemConfig, ScenarioOptions]:
    """Parse scenario text into a tuned SystemConfig and run options.

    The system is validated once, with its capacitors already sized at w;
    a coil that no capacitor tunes is reported after every other check,
    as validating the untuned system and then tuning it would."""
    sections = _tokenize(text, path)

    top = sections[0]
    if "version" in top.entries:
        value, line, line_text = top.entries.pop("version")
        if value != "1":
            raise ScenarioError(f"unsupported version '{value}'", path, line, _column(line_text))
    _reject_leftovers(top, path)

    by_name: dict[str, _Section] = {}
    receivers: dict[int, _Section] = {}
    for section in sections[1:]:
        name = section.name
        if name.startswith("receiver"):
            parts = name.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ScenarioError(f"bad receiver section '[{name}]'", path, section.line)
            idx = int(parts[1])
            if idx in receivers:
                raise ScenarioError(f"duplicate section '[{name}]'", path, section.line)
            receivers[idx] = section
        elif name in ("source", "transmitter", "options"):
            if name in by_name:
                raise ScenarioError(f"duplicate section '[{name}]'", path, section.line)
            by_name[name] = section
        else:
            raise ScenarioError(f"unknown section '[{name}]'", path, section.line)

    for required in ("source", "transmitter"):
        if required not in by_name:
            raise ScenarioError(f"missing [{required}] section", path)
    if not receivers:
        raise ScenarioError("at least one [receiver k] section is required", path)
    n = len(receivers)
    if sorted(receivers) != list(range(1, n + 1)):
        raise ScenarioError(
            f"receiver sections must be numbered 1..{n} without gaps", path
        )

    source = by_name["source"]
    (v_mag,) = _floats(source, ("v_tx",), path)
    phase = _as_float(source, "phase", path, default=0.0)
    (w,) = _floats(source, ("w",), path)
    _reject_leftovers(source, path)
    if not v_mag > 0.0:
        raise ScenarioError("v_tx must be > 0", path, source.line)
    v_tx = cmath.rect(v_mag, phase) if phase else complex(v_mag)

    shared = {}
    tx_section = by_name["transmitter"]
    tx_coil, tx_geom = _parse_coil(tx_section, "transmitter", path, w, shared)
    _reject_leftovers(tx_section, path)

    coils = []
    h_values = []
    x_lo = []
    x_hi = []
    p_req = []
    x_nominal = []
    for idx in range(1, n + 1):
        section = receivers[idx]
        label = f"receiver {idx}"
        h_entry = section.entries.pop("h", None)
        coil, geom = _parse_coil(section, label, path, w, shared)
        if h_entry is None:
            raise ScenarioError(f"{label}: is missing 'h'", path, section.line)
        if h_entry[0] == "derive":
            _, h_line, h_line_text = h_entry
            if geom is None:
                raise ScenarioError(f"{label}: h = derive needs receiver geometry",
                                    path, h_line, _column(h_line_text))
            if tx_geom is None:
                raise ScenarioError(f"{label}: h = derive needs transmitter geometry",
                                    path, h_line, _column(h_line_text))
            try:
                h = mutual_inductance(tx_geom, geom)
            except (ValidationError, ArithmeticError) as exc:
                raise _geometry_error(label, exc, path, h_line, _column(h_line_text)) from exc
        else:
            h = _finite("h", h_entry, "a finite number or 'derive'", path)
        lo, hi, req = _floats(section, ("x_lo", "x_hi", "p_req"), path)
        nominal = _as_float(section, "x", path)
        _reject_leftovers(section, path)
        if not 0.0 < lo <= hi:
            raise ScenarioError(
                f"{label}: bounds must satisfy 0 < x_lo <= x_hi", path, section.line
            )
        if nominal is None:
            nominal = (lo * hi) ** 0.5
        if not lo <= nominal <= hi:
            raise ScenarioError(
                f"{label}: nominal x must lie within [x_lo, x_hi]", path, section.line
            )
        coils.append(coil)
        h_values.append(h)
        x_lo.append(lo)
        x_hi.append(hi)
        p_req.append(req)
        x_nominal.append(nominal)

    # only the options the text sets: ScenarioOptions holds the defaults
    given = {}
    options_section = by_name.get("options")
    if options_section is not None:
        for key, parse in _OPTIONS:
            if key in options_section.entries:
                given[key] = parse(options_section, key, path)
        _reject_leftovers(options_section, path)
        if given.get("grid_points") == 0:
            given["grid_points"] = None
    opts = ScenarioOptions(x_nominal=tuple(x_nominal), **given)

    try:
        config = SystemConfig(
            v_tx=v_tx,
            w=w,
            transmitter=tx_coil,
            receivers=tuple(coils),
            h=tuple(h_values),
            x_lo=tuple(x_lo),
            x_hi=tuple(x_hi),
            p_req=tuple(p_req),
        )
        for coil in (tx_coil, *coils):
            if coil.tuning_capacitance is None:
                tune_capacitor(coil.self_inductance, w)  # raises why it stayed untuned
    except ValidationError as exc:
        raise ScenarioError(str(exc), path) from exc
    return config, opts


def _path_text(path) -> str:
    """``str(Path(path))``, the path a parsed file's messages name. A str
    with no empty and no '.' component already is that text, so no Path is
    built for it: that cost more than the file's read."""
    if (type(path) is str and os.name != "nt" and path not in ("", ".")
            and "//" not in path and "/./" not in path
            and not path.startswith("./") and not path.endswith(("/", "/."))):
        return path
    return str(Path(path))


def parse_scenario(path) -> tuple[SystemConfig, ScenarioOptions]:
    """Parse a scenario file. A path that exists is read as given; one
    that does not is looked up in the bundled set only when it is a bare
    name, with no suffix and no '/'. A path the file system cannot look
    up, such as one with a name too long for it, does not exist. The file
    must be UTF-8 text; a byte-order mark at its start is skipped."""
    resolved = _path_text(path)
    if not os.path.exists(resolved):  # Path.exists raises on such a path before 3.12
        bare = Path(resolved).suffix == "" and "/" not in str(path)
        resolved = bundled_scenario_path(str(path)) if bare else None
        if resolved is None:
            raise ScenarioError("scenario file not found", path)
    try:
        with open(resolved, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path) from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        offset = len(data) - len(exc.object) + exc.start  # exc.object skips a BOM
        raise ScenarioError(
            f"not UTF-8 text: byte 0x{data[offset]:02x} at offset {offset}", path
        ) from None
    return parse_scenario_text(text, path=str(resolved))


def bundled_scenario_path(name: str) -> Path | None:
    """Path of a scenario shipped with the package, or None."""
    candidate = Path(__file__).with_name("scenarios") / f"{name}.scn"
    try:
        return candidate if candidate.is_file() else None
    except OSError:  # such as a name too long for the file system
        return None


def serialize_scenario(config: SystemConfig, options: ScenarioOptions) -> str:
    """Render a SystemConfig (electrical form) plus options as scenario text."""
    lines = ["version = 1", ""]
    lines.append("[source]")
    lines.append(f"v_tx = {abs(config.v_tx)!r}")
    phase = cmath.phase(config.v_tx)
    lines.append(f"phase = {phase!r}")
    lines.append(f"w = {config.w!r}")
    lines.append("")
    lines.append("[transmitter]")
    lines.append(f"r = {config.transmitter.resistance!r}")
    lines.append(f"l = {config.transmitter.self_inductance!r}")
    for k in range(config.n_receivers):
        coil = config.receivers[k]
        lines.append("")
        lines.append(f"[receiver {k + 1}]")
        lines.append(f"r = {coil.resistance!r}")
        lines.append(f"l = {coil.self_inductance!r}")
        lines.append(f"h = {config.h[k]!r}")
        lines.append(f"x_lo = {config.x_lo[k]!r}")
        lines.append(f"x_hi = {config.x_hi[k]!r}")
        lines.append(f"p_req = {config.p_req[k]!r}")
        lines.append(f"x = {options.x_nominal[k]!r}")
    lines.append("")
    lines.append("[options]")
    lines.append(f"dx = {options.dx!r}")
    lines.append(f"itr_max = {options.itr_max}")
    lines.append(f"dp_stop = {options.dp_stop!r}")
    lines.append(f"tau_total = {options.tau_total!r}")
    if options.grid_points is not None:
        lines.append(f"grid_points = {options.grid_points}")
    lines.append("")
    return "\n".join(lines)
