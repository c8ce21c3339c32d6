"""The line-by-line scenario parser, kept as the reference for
``mrcwpt.scenario.parse_scenario_text``.

This is the parser as it was before it tokenized each line in one pass
and validated the system once: every line is split, stripped three times
and searched for its key, every entry carries its column, the system is
validated untuned and then again by ``SystemConfig.tuned``. The tests
require the current parser to return an equal ``(config, options)`` or
raise a ``ScenarioError`` with the identical text, line and column.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from mrcwpt.circuit import SystemConfig
from mrcwpt.coils import CoilElectrical, CoilGeometry, derive_coil_electrical, mutual_inductance
from mrcwpt.errors import ScenarioError, ValidationError
from mrcwpt.scenario import ScenarioOptions

_ELECTRICAL_KEYS = {"r", "l"}
_GEOMETRY_KEYS = {"inner_radius", "outer_radius", "turns", "resistivity"}
_GEOMETRY_OPT = {"center", "normal"}


@dataclass
class _Section:
    name: str
    line: int
    entries: dict = field(default_factory=dict)  # key -> (value, line, column)


def _tokenize(text: str, path) -> list[_Section]:
    sections: list[_Section] = [_Section(name="", line=0)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError(
                    "unterminated section header", path, lineno, line.index("[") + 1
                )
            name = stripped[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", path, lineno, 1)
            sections.append(_Section(name=name, line=lineno))
            continue
        if "=" not in line:
            raise ScenarioError(
                "expected 'key = value'", path, lineno, len(line) - len(line.lstrip()) + 1
            )
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        if not key:
            raise ScenarioError("missing key before '='", path, lineno, 1)
        if not value:
            raise ScenarioError(
                f"missing value for '{key}'", path, lineno, line.index("=") + 2
            )
        section = sections[-1]
        if key in section.entries:
            raise ScenarioError(
                f"duplicate key '{key}'", path, lineno, line.index(key) + 1
            )
        section.entries[key] = (value, lineno, line.index(key) + 1)
    return sections


def _as_float(section: _Section, key: str, path, required: bool = True,
              default: float | None = None) -> float | None:
    if key not in section.entries:
        if required:
            raise ScenarioError(
                f"[{section.name}] is missing '{key}'", path, section.line
            )
        return default
    value, line, col = section.entries.pop(key)
    return _finite(key, value, "a finite number", path, line, col)


def _finite(key: str, text: str, kind: str, path, line: int, col: int) -> float:
    """Parse one finite float; nan and +-inf are rejected like any bad number."""
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ScenarioError(f"'{key}' must be {kind}, got '{text}'", path, line, col)
    return number


def _as_int(section: _Section, key: str, path, default: int | None = None) -> int | None:
    if key not in section.entries:
        return default
    value, line, col = section.entries.pop(key)
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(
            f"'{key}' must be an integer, got '{value}'", path, line, col
        ) from None


def _as_vector(section: _Section, key: str, path, default):
    if key not in section.entries:
        return default
    value, line, col = section.entries.pop(key)
    parts = value.split()
    if len(parts) != 3:
        raise ScenarioError(f"'{key}' must be three numbers", path, line, col)
    return tuple(_finite(key, p, "three finite numbers", path, line, col) for p in parts)


def _reject_leftovers(section: _Section, path) -> None:
    for key, (_, line, col) in section.entries.items():
        raise ScenarioError(
            f"unknown key '{key}' in [{section.name or 'top level'}]", path, line, col
        )


def _parse_coil(section: _Section, label: str, path):
    """Returns (CoilElectrical or None, CoilGeometry or None)."""
    keys = set(section.entries)
    has_electrical = bool(keys & _ELECTRICAL_KEYS)
    has_geometry = bool(keys & (_GEOMETRY_KEYS | _GEOMETRY_OPT))
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
        r = _as_float(section, "r", path)
        l = _as_float(section, "l", path)
        try:
            return CoilElectrical(resistance=r, self_inductance=l), None
        except ValidationError as exc:
            raise ScenarioError(f"{label}: {exc}", path, section.line) from exc
    geom_kwargs = dict(
        inner_radius=_as_float(section, "inner_radius", path),
        outer_radius=_as_float(section, "outer_radius", path),
        turns=_as_int(section, "turns", path, default=-1),
        wire_resistivity=_as_float(section, "resistivity", path),
        center=_as_vector(section, "center", path, (0.0, 0.0, 0.0)),
        normal=_as_vector(section, "normal", path, (0.0, 0.0, 1.0)),
    )
    if geom_kwargs["turns"] == -1:
        raise ScenarioError(f"{label}: is missing 'turns'", path, section.line)
    try:
        geom = CoilGeometry(**geom_kwargs)
        return derive_coil_electrical(geom), geom
    except (ValidationError, ArithmeticError) as exc:
        raise _geometry_error(label, exc, path, section.line) from exc


def _geometry_error(label: str, exc: Exception, path, line: int, col: int | None = None):
    """The ScenarioError for coil geometry the model rejects, or whose
    derived values leave the float range (an overflowing power, a huge
    turn count)."""
    reason = exc if isinstance(exc, ValidationError) else "geometry is out of float range"
    return ScenarioError(f"{label}: {reason}", path, line, col)


def parse_scenario_text(text: str, path="<string>") -> tuple[SystemConfig, ScenarioOptions]:
    """Parse scenario text into a tuned SystemConfig and run options."""
    sections = _tokenize(text, path)

    top = sections[0]
    if "version" in top.entries:
        value, line, col = top.entries.pop("version")
        if value != "1":
            raise ScenarioError(f"unsupported version '{value}'", path, line, col)
    _reject_leftovers(top, path)

    by_name: dict[str, _Section] = {}
    receivers: dict[int, _Section] = {}
    for section in sections[1:]:
        if section.name.startswith("receiver"):
            parts = section.name.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ScenarioError(
                    f"bad receiver section '[{section.name}]'", path, section.line
                )
            idx = int(parts[1])
            if idx in receivers:
                raise ScenarioError(
                    f"duplicate section '[{section.name}]'", path, section.line
                )
            receivers[idx] = section
        elif section.name in ("source", "transmitter", "options"):
            if section.name in by_name:
                raise ScenarioError(
                    f"duplicate section '[{section.name}]'", path, section.line
                )
            by_name[section.name] = section
        else:
            raise ScenarioError(
                f"unknown section '[{section.name}]'", path, section.line
            )

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
    v_mag = _as_float(source, "v_tx", path)
    phase = _as_float(source, "phase", path, required=False, default=0.0)
    w = _as_float(source, "w", path)
    _reject_leftovers(source, path)
    if not v_mag > 0.0:
        raise ScenarioError("v_tx must be > 0", path, source.line)
    v_tx = cmath.rect(v_mag, phase) if phase else complex(v_mag)

    tx_section = by_name["transmitter"]
    tx_coil, tx_geom = _parse_coil(tx_section, "transmitter", path)
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
        coil, geom = _parse_coil(section, label, path)
        if h_entry is None:
            raise ScenarioError(f"{label}: is missing 'h'", path, section.line)
        h_raw, h_line, h_col = h_entry
        if h_raw == "derive":
            if geom is None:
                raise ScenarioError(
                    f"{label}: h = derive needs receiver geometry", path, h_line, h_col
                )
            if tx_geom is None:
                raise ScenarioError(
                    f"{label}: h = derive needs transmitter geometry", path, h_line, h_col
                )
            try:
                h = mutual_inductance(tx_geom, geom)
            except (ValidationError, ArithmeticError) as exc:
                raise _geometry_error(label, exc, path, h_line, h_col) from exc
        else:
            h = _finite("h", h_raw, "a finite number or 'derive'", path, h_line, h_col)
        lo = _as_float(section, "x_lo", path)
        hi = _as_float(section, "x_hi", path)
        req = _as_float(section, "p_req", path)
        nominal = _as_float(section, "x", path, required=False)
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
        for key, parse in (("dx", _as_float), ("itr_max", _as_int), ("dp_stop", _as_float),
                           ("tau_total", _as_float), ("grid_points", _as_int)):
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
        ).tuned()
    except ValidationError as exc:
        raise ScenarioError(str(exc), path) from exc
    return config, opts
