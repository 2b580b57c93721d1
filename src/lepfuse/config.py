"""CLI configuration: a flat key=value file format plus the merged settings object.

The file format is deliberately primitive so any tooling can emit it: one
``key = value`` pair per line, blank lines and ``#`` comment lines ignored.
Command-line flags override file values, which override the defaults.
Every default is read from the library dataclasses (FusionConfig,
FilterParams, NaturalnessPriors), and the ``CliConfig`` field list is the
one table that the file parser and the ``fuse`` flags are derived from.
"""

from dataclasses import dataclass, field, fields
from typing import Optional

from .filters import FilterParams
from .fusion import FusionConfig
from .metrics import NaturalnessPriors
from .image import Rect
from .zoom import ZoomSpec


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


RectTuple = tuple[int, int, int, int]


def parse_rect(raw: str) -> RectTuple:
    """Parse "x,y,width,height" into a tuple of four integers."""
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValueError(f"rect needs four comma-separated integers x,y,w,h, got {raw!r}")
    try:
        x, y, w, h = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"rect components must be integers, got {raw!r}") from None
    return x, y, w, h


_FUSION = FusionConfig()
_PRIORS = NaturalnessPriors()


def _fuse_flag(default):
    """A CliConfig field that ``lepfuse fuse`` also accepts as a --flag."""
    return field(default=default, metadata={"fuse_flag": True})


@dataclass
class CliConfig:
    """Every tunable the CLI accepts, with library defaults filled in."""

    avg_filter_size: int = _fuse_flag(_FUSION.avg_filter_size)
    saliency_radius: int = _fuse_flag(_FUSION.saliency_radius)
    saliency_sigma: float = _fuse_flag(_FUSION.saliency_sigma)
    base_radius: int = _fuse_flag(_FUSION.base_params.radius)
    base_alpha: float = _fuse_flag(_FUSION.base_params.alpha)
    base_beta: float = _fuse_flag(_FUSION.base_params.beta)
    detail_radius: int = _fuse_flag(_FUSION.detail_params.radius)
    detail_alpha: float = _fuse_flag(_FUSION.detail_params.alpha)
    detail_beta: float = _fuse_flag(_FUSION.detail_params.beta)
    weight_floor: float = _fuse_flag(_FUSION.weight_floor)
    rect: Optional[RectTuple] = None
    scale: float = 1.0
    output_dir: Optional[str] = None
    dump_intermediates: bool = False
    nat_mean_prior: float = _PRIORS.mean_prior
    nat_mean_tol: float = _PRIORS.mean_tol
    nat_std_prior: float = _PRIORS.std_prior
    nat_std_tol: float = _PRIORS.std_tol

    def _build(self, cls, prefix: str = "", **given):
        # Instance of a library dataclass whose remaining fields are read
        # from this config's fields named <prefix><field name>.
        read = {f.name: getattr(self, prefix + f.name) for f in fields(cls) if f.name not in given}
        return cls(**given, **read)

    def fusion_config(self) -> FusionConfig:
        """Materialize (and thereby validate) the fusion pipeline settings."""
        return self._build(
            FusionConfig,
            base_params=self._build(FilterParams, "base_"),
            detail_params=self._build(FilterParams, "detail_"),
        )

    def naturalness_priors(self) -> NaturalnessPriors:
        return self._build(NaturalnessPriors, "nat_")

    def zoom_spec(self) -> ZoomSpec:
        if self.rect is None:
            raise ValueError("no crop rectangle configured; pass --rect x,y,w,h")
        x, y, w, h = self.rect
        return ZoomSpec(region=Rect(x0=x, y0=y, width=w, height=h), scale=self.scale)

    def items(self) -> list[tuple[str, object]]:
        """(key, value) pairs in declaration order, for --verbose output."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


# int and float fields parse with their own type.
_PARSE_AS = {bool: _parse_bool, Optional[str]: str, Optional[RectTuple]: parse_rect}
_PARSERS = {f.name: _PARSE_AS.get(f.type, f.type) for f in fields(CliConfig)}
# The names of the fields that are fuse flags.
FUSE_FLAGS = tuple(f.name for f in fields(CliConfig) if "fuse_flag" in f.metadata)


def parse_config_text(text: str) -> dict:
    """Parse key=value lines into typed values; unknown keys are errors."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not a key=value pair: {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        try:
            values[key] = parser(raw_value.strip())
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {err}") from None
    return values


def apply_values(config: CliConfig, values: dict) -> CliConfig:
    """Overwrite config fields from a parsed key→value mapping."""
    for key, value in values.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        setattr(config, key, value)
    return config
