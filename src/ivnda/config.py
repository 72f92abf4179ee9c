"""Pipeline configuration.

All tunables live in small dataclasses grouped by stage and can be loaded
from / dumped to an INI file (section per stage, ``key = value`` pairs).
Unknown keys are rejected so that typos fail loudly instead of silently
running with defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import FormatError, read_text


@dataclass
class SadConfig:
    """Energy + zero-crossing speech activity detection parameters."""

    floor_db: float = -70.0          # frames below this are never speech
    low_percentile: float = 10.0     # background level estimate
    high_percentile: float = 95.0    # speech level estimate
    energy_fraction: float = 0.3     # threshold position between the two
    min_spread_db: float = 10.0      # below this the recording is homogeneous
    zcr_threshold: float = 0.25      # zero-crossing rate for fricative rescue
    zcr_margin_db: float = 6.0       # energy slack allowed for the rescue
    smooth_frames: int = 5           # majority-vote window length (odd)


@dataclass
class FrontendConfig:
    """MFCC extraction and feature post-processing parameters."""

    num_ceps: int = 13               # cepstra per frame, including c0
    num_filters: int = 24            # mel filterbank channels
    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0
    preemphasis: float = 0.97
    log_floor: float = 1e-10         # filterbank energy floor before log
    include_deltas: bool = True      # append first and second differences
    delta_context: int = 2           # regression half-window (2 -> 5 frames)
    apply_cms: bool = True           # cepstral mean subtraction over speech
    sad: SadConfig = field(default_factory=SadConfig)


@dataclass
class UbmConfig:
    """Universal background model training / posterior settings."""

    num_components: int = 2048       # must be a power of two
    top_n: int = 10                  # posteriors kept per frame
    iters_per_level: int = 5         # EM iterations after each binary split
    variance_floor_scale: float = 1e-3


@dataclass
class TvConfig:
    """Total-variability subspace settings."""

    rank: int = 500
    iters: int = 15
    seed: int = 0
    reestimate_sigma: bool = False


@dataclass
class DaConfig:
    """Discriminant-analysis projection settings."""

    method: str = "nda"              # "nda" or "lda"
    k: int = 10                      # neighbours for local means
    alpha: float = 2.0               # boundary-weight exponent
    dim: int = 250                   # output dimensionality
    all_pairs: bool = False          # pairwise instead of one-vs-rest


@dataclass
class PldaConfig:
    """Gaussian PLDA backend settings."""

    iters: int = 20


@dataclass
class RunConfig:
    """Cross-cutting run settings."""

    workers: int = 1


@dataclass
class PipelineConfig:
    """Complete configuration for the pipeline, one field per stage."""

    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    ubm: UbmConfig = field(default_factory=UbmConfig)
    tv: TvConfig = field(default_factory=TvConfig)
    da: DaConfig = field(default_factory=DaConfig)
    plda: PldaConfig = field(default_factory=PldaConfig)
    run: RunConfig = field(default_factory=RunConfig)


def _sections(cfg: PipelineConfig) -> dict:
    """INI section name -> the config object it sets, in file order."""
    return {"frontend": cfg.frontend, "sad": cfg.frontend.sad, "ubm": cfg.ubm, "tv": cfg.tv,
            "da": cfg.da, "plda": cfg.plda, "run": cfg.run}


# The parser's typed getter per settable field type.  Field types are strings
# because of `from __future__ import annotations`; nested configs have their
# own section.
_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean", "str": "get"}


def _scalar_fields(obj) -> dict[str, str]:
    return {f.name: f.type for f in fields(obj) if f.type in _GETTERS}


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline configuration from an INI file.

    Missing sections/keys keep their defaults; unknown ones raise
    :class:`FormatError`.  Values are literal: ``%`` is not interpolated.
    """
    # No section header holds a newline: `[DEFAULT]` is an ordinary, unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(read_text(path))
    except configparser.Error as exc:
        raise FormatError(f"config {path}: {exc}") from exc
    cfg = PipelineConfig()
    sections = _sections(cfg)
    for section in parser.sections():
        if section not in sections:
            raise FormatError(f"config {path}: unknown section [{section}]")
        types = _scalar_fields(sections[section])
        for key, raw in parser.items(section):
            if key not in types:
                raise FormatError(f"config [{section}]: unknown key {key!r}")
            try:
                value = getattr(parser, _GETTERS[types[key]])(section, key)
            except ValueError as exc:
                raise FormatError(
                    f"config [{section}] {key}: cannot parse {raw!r} as {types[key]}"
                ) from exc
            setattr(sections[section], key, value)
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    """Render a configuration as INI text (inverse of :func:`load_config`)."""
    lines: list[str] = []
    for section, obj in _sections(cfg).items():
        lines.append(f"[{section}]")
        for key in _scalar_fields(obj):
            value = getattr(obj, key)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def default_config_text() -> str:
    """INI text for the default configuration."""
    return dump_config(PipelineConfig())
