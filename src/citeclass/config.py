"""Run configuration: defaults, flat key=value config files, CLI overrides.

Precedence: built-in defaults < config file < command-line flags.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from .citer import ThresholdPolicy
from .corpus import ParseError, ValidationError, read_lines
from .flow import LEVELS
from .netgraph import FORMATS, VARIANTS, LayoutParams

# the fields a flag or config key may only set to one of these values
FIELD_CHOICES = {"level": LEVELS, "format": FORMATS, "variant": VARIANTS}
# the knobs RunConfig passes on take their defaults from these
_POLICY, _LAYOUT = ThresholdPolicy(), LayoutParams()


@dataclass(slots=True)
class RunConfig:
    scheme: str | None = None
    journals: str | None = None
    documents: str | None = None
    out: str = "out"
    year_min: int | None = None
    year_max: int | None = None
    theta: float = _POLICY.theta
    max_categories: int = _POLICY.max_categories
    min_references: int = _POLICY.min_references
    citation_window: int | None = None
    citer_window: int | None = None
    bin_width: float = 100000.0
    min_link_area: float = 100000.0
    min_link_category: float = 40000.0
    edge_epsilon: float = 1e-6
    drop_last_year: bool = True
    p10: float = 0.10
    p1: float = 0.01
    level: str = "area"
    format: str = "json"
    iterations: int = _LAYOUT.iterations
    step: float = _LAYOUT.step
    variant: str = _LAYOUT.variant
    seed: int = _LAYOUT.seed

    def __post_init__(self):
        """Check every knob before any stage starts work."""
        errors = []
        if self.year_min is not None and self.year_max is not None and self.year_min > self.year_max:
            errors.append(f"year_min {self.year_min} exceeds year_max {self.year_max}")
        if not (0.0 < self.bin_width < math.inf):
            errors.append(f"bin_width must be finite and > 0, got {self.bin_width}")
        for key in ("min_link_area", "min_link_category", "edge_epsilon"):
            if not (0.0 <= (v := getattr(self, key)) < math.inf):
                errors.append(f"{key} must be finite and >= 0, got {v}")
        for key in ("citer_window", "citation_window"):
            if (v := getattr(self, key)) is not None and v < 0:
                errors.append(f"{key} must be >= 0, got {v}")
        for key in ("p10", "p1"):
            if not (0.0 < (v := getattr(self, key)) <= 1.0):
                errors.append(f"{key} must be in (0, 1], got {v}")
        for key in ("level", "format"):  # LayoutParams checks variant
            if (v := getattr(self, key)) not in FIELD_CHOICES[key]:
                errors.append(f"unknown {key} {v!r}")
        for make in (self.threshold_policy, self.layout_params):
            try:
                make()
            except ValidationError as e:
                errors.extend(e.errors)
        if errors:
            raise ValidationError(errors)

    def threshold_policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.theta, self.max_categories, self.min_references)

    def layout_params(self) -> LayoutParams:
        return LayoutParams(self.iterations, self.step, self.seed, self.variant)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored. A key
    set on two lines is malformed."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {line_no}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in line_of:
            raise ParseError(f"{path}: line {line_no}: key {key!r} is already set on line {line_of[key]}")
        out[key], line_of[key] = value, line_no
    return out


_BOOL_WORDS = {"true": True, "1": True, "false": False, "0": False}
# Config fields are annotated with one of these types, alone or as "T | None".
FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda raw: _BOOL_WORDS[raw.lower()]}


def coerce_value(raw: str, annotation: str, key: str) -> Any:
    """Convert a config-file string to the type a field is annotated with."""
    kind, _, optional = annotation.partition(" | ")
    parse = FIELD_PARSERS[kind]
    if optional == "None" and raw.lower() in ("none", ""):
        return None
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ParseError(f"config key {key!r}: cannot parse {raw!r}") from None


def field_types(cls: type) -> dict[str, Any]:
    return {f.name: f.type for f in dataclasses.fields(cls)}


def build_config(cls: type, file_map: dict[str, str], overrides: dict[str, Any]):
    """Layer a config file and command-line overrides over the defaults of a
    config dataclass (RunConfig or SynParams), which checks the result.
    Keys the class does not know, and None overrides, are ignored."""
    types = field_types(cls)
    values = {key: coerce_value(raw, types[key], key) for key, raw in file_map.items() if key in types}
    values.update((key, v) for key, v in overrides.items() if key in types and v is not None)
    return cls(**values)
