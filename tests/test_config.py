import dataclasses

import pytest

from ivnda.config import (
    DaConfig,
    PipelineConfig,
    default_config_text,
    dump_config,
    load_config,
)
from ivnda.errors import FormatError


def test_defaults_round_trip(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(default_config_text())
    assert load_config(path) == PipelineConfig()


def test_dump_load_preserves_overrides(tmp_path):
    cfg = PipelineConfig()
    cfg.da = DaConfig(method="lda", k=7, alpha=1.5, dim=16, all_pairs=True)
    cfg.ubm.num_components = 64
    cfg.frontend.sad.floor_db = -55.0
    cfg.frontend.include_deltas = False
    path = tmp_path / "pipeline.cfg"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg


def test_partial_file_keeps_other_defaults(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("[tv]\nrank = 32\n")
    cfg = load_config(path)
    assert cfg.tv.rank == 32
    assert cfg.tv.iters == PipelineConfig().tv.iters
    assert cfg.ubm == PipelineConfig().ubm


@pytest.mark.parametrize(
    "text",
    [
        "[tv]\nranks = 32\n",            # unknown key
        "[subspace]\nrank = 32\n",       # unknown section
        "[frontend]\nsad = yes\n",       # nested config is not a scalar key
        "[tv]\nrank = many\n",           # unparseable int
        "[frontend]\ninclude_deltas = maybe\n",  # unparseable bool
        "[ubm]\nposterior_file = post.txt\n",   # removed: use --posteriors
        "[run]\nseed = 3\n",                    # removed: use train-tv --seed
        "[frontend]\nfmllr_dir = x\n",          # removed: use the manifest's fMLLR column
        "[frontend]\nnum_ceps = %(x)s\n",      # literal text, not an interpolation
    ],
)
def test_bad_config_rejected(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    with pytest.raises(FormatError):
        load_config(path)


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nrank = 32\n", "[DEFAULT]\nrank = 32\n[tv]\niters = 3\n[da]\nk = 4\n"],
)
def test_default_section_is_an_unknown_section(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    with pytest.raises(FormatError, match=r"unknown section \[DEFAULT\]"):
        load_config(path)


def test_percent_sign_is_literal(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("[da]\nmethod = n%da\n")
    assert load_config(path).da.method == "n%da"


def test_unparseable_value_names_section_key_and_type(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("[sad]\nsmooth_frames = 5.5\n")
    with pytest.raises(FormatError) as exc:
        load_config(path)
    assert str(exc.value) == "config [sad] smooth_frames: cannot parse '5.5' as int"


@pytest.mark.parametrize(
    "raw,expected",
    [("true", True), ("1", True), ("on", True), ("false", False), ("0", False)],
)
def test_bool_spellings(tmp_path, raw, expected):
    path = tmp_path / "pipeline.cfg"
    path.write_text(f"[frontend]\napply_cms = {raw}\n")
    assert load_config(path).frontend.apply_cms is expected


def test_defaults_text_mentions_every_section():
    text = default_config_text()
    for section in ("frontend", "sad", "ubm", "tv", "da", "plda", "run"):
        assert f"[{section}]" in text


def test_configs_are_plain_dataclasses():
    # stage fingerprints serialise configs with dataclasses.asdict
    blob = dataclasses.asdict(PipelineConfig())
    assert blob["frontend"]["sad"]["smooth_frames"] == 5
