"""Artifact serialisation: model files, archives, manifests, trials, scores.

Every binary artifact starts with a uniform header:

    magic (4 bytes) | version u32 | fingerprint u64 | meta_len u32 | meta JSON

followed by the format-specific payload (all integers u32, all floating
point IEEE 754, little-endian).  The fingerprint is a 64-bit hash of the
producing stage's configuration subset plus the fingerprints of its
upstream artifacts, so stages can reject mixed-provenance inputs without
re-reading them.  The meta JSON (canonical key order, no timestamps)
records the stage name, the config subset, and upstream fingerprints;
reruns with identical inputs produce byte-identical files.

A file ends where its payload ends: a reader rejects a truncated file and
a file with bytes after the payload (two archives concatenated, say) with
``FormatError``.

Formats:

* ``IVFA``  one recording's features: T, D, frame_shift_ms f32, frames f32
  row-major, T mask bytes.  A feature *archive* is a directory holding one
  ``<recording_id>.ivfa`` per recording.
* ``IVGM``  diagonal GMM: G, D, weights/means/variances f64.
* ``IVBW``  stats archive: count; per record id, G, D, n f64[G], f f64[G*D].
* ``IVTV``  subspace model: G, D, R, sigma f64[G*D], T f64[(G*D)*R].
* ``IVIV``  i-vector archive: count, R; per record id, w f64[R].
* ``IVDA``  projection: R, M, method tag, k, alpha f64, basis f64[R*M],
  eigenvalues f64[M].
* ``IVNZ``  normaliser: M, mean f64[M], whitener f64[M*M].
* ``IVPL``  PLDA model: M, mu f64[M], B f64[M*M], W f64[M*M].
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .backend import Normalizer, PldaModel
from .da import Projection
from .errors import FormatError, KeyMismatchError
from .frontend import FeatureMatrix
from .stats import BwStats
from .tv import IVector, TvModel
from .ubm import DiagonalGmm

FORMAT_VERSION = 1

_METHOD_TAGS = {"lda": 0, "nda": 1}
_METHOD_NAMES = {v: k for k, v in _METHOD_TAGS.items()}


def fingerprint(stage: str, config: dict, upstream: dict[str, int] | None = None) -> int:
    """64-bit provenance hash of a stage's config subset and upstream hashes."""
    payload = json.dumps(
        {"stage": stage, "config": config, "upstream": upstream or {}},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see partial files."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write(
    path: str | Path, magic: bytes, fp: int, meta: dict, *parts: bytes | np.ndarray
) -> None:
    """Write the uniform header and then `parts`; arrays are written as f64."""
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    header = struct.pack("<4sIQI", magic, FORMAT_VERSION, fp, len(meta_bytes))
    payload = (
        p if isinstance(p, bytes) else np.ascontiguousarray(p, dtype="<f8").tobytes()
        for p in parts
    )
    atomic_write_bytes(path, b"".join((header, meta_bytes, *payload)))


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


class _Fields:
    """The payload of an open artifact, read field by field in file order."""

    def __init__(self, fh: BinaryIO, path: Path):
        self._fh = fh
        self.path = path

    def raw(self, n: int) -> bytes:
        data = self._fh.read(n)
        if len(data) != n:
            raise FormatError(f"{self.path}: truncated file")
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = struct.unpack("<I", self.raw(4))
        try:
            return self.raw(n).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: record id is not UTF-8 ({exc})") from exc

    def f64(self, *shape: int) -> np.ndarray:
        data = self.raw(8 * math.prod(shape))
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


@contextlib.contextmanager
def _reading(path: str | Path, magic: bytes) -> Iterator[tuple[_Fields, int, dict]]:
    """Check the header of the `magic` artifact at `path`, then yield its
    payload fields, fingerprint and metadata.  The block must read the
    payload up to the end of the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        fields = _Fields(fh, path)
        got_magic, version, fp, meta_len = fields.unpack("<4sIQI")
        if got_magic != magic:
            raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        try:
            meta = json.loads(fields.raw(meta_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt metadata block") from exc
        yield fields, fp, meta
        if fh.read(1):
            raise FormatError(f"{path}: unexpected bytes after the payload")


# --- features -------------------------------------------------------------


def feature_path(directory: str | Path, recording_id: str) -> Path:
    return Path(directory) / f"{recording_id}.ivfa"


def write_feature_record(
    path: str | Path, features: FeatureMatrix, fp: int, meta: dict
) -> None:
    t, d = features.frames.shape
    frames = np.ascontiguousarray(features.frames, dtype="<f4").tobytes()
    mask = features.speech_mask.astype(np.uint8).tobytes()
    _write(path, b"IVFA", fp, meta, struct.pack("<IIf", t, d, features.frame_shift_ms),
           frames, mask)


def read_feature_record(path: str | Path) -> tuple[FeatureMatrix, int, dict]:
    with _reading(path, b"IVFA") as (fields, fp, meta):
        t, d, shift = fields.unpack("<IIf")
        frames = np.frombuffer(fields.raw(4 * t * d), dtype="<f4").reshape(t, d)
        mask = np.frombuffer(fields.raw(t), dtype=np.uint8)
        if np.any(mask > 1):
            raise FormatError(f"{fields.path}: mask bytes must be 0 or 1")
    features = FeatureMatrix(
        frames=frames.astype(np.float64), frame_shift_ms=float(shift),
        speech_mask=mask.astype(bool),
    )
    return features, fp, meta


# --- GMM ------------------------------------------------------------------


def write_gmm(path: str | Path, gmm: DiagonalGmm, fp: int, meta: dict) -> None:
    _write(path, b"IVGM", fp, meta, struct.pack("<II", gmm.num_components, gmm.dim),
           gmm.weights, gmm.means, gmm.variances)


def read_gmm(path: str | Path) -> tuple[DiagonalGmm, int, dict]:
    with _reading(path, b"IVGM") as (fields, fp, meta):
        g, d = fields.unpack("<II")
        weights, means, variances = fields.f64(g), fields.f64(g, d), fields.f64(g, d)
    return DiagonalGmm(weights=weights, means=means, variances=variances), fp, meta


# --- stats ----------------------------------------------------------------


def write_stats_archive(
    path: str | Path, stats: Sequence[BwStats], fp: int, meta: dict
) -> None:
    parts: list[bytes | np.ndarray] = [struct.pack("<I", len(stats))]
    for s in stats:
        if s.centered:
            raise ValueError(
                f"recording {s.recording_id!r}: archives store raw statistics only"
            )
        parts += [_pack_str(s.recording_id), struct.pack("<II", s.num_components, s.dim),
                  s.n, s.f]
    _write(path, b"IVBW", fp, meta, *parts)


def read_stats_archive(path: str | Path) -> tuple[list[BwStats], int, dict]:
    out = []
    with _reading(path, b"IVBW") as (fields, fp, meta):
        (count,) = fields.unpack("<I")
        for _ in range(count):
            rec_id = fields.text()
            g, d = fields.unpack("<II")
            n, f = fields.f64(g), fields.f64(g, d)
            out.append(BwStats(n=n, f=f, recording_id=rec_id, centered=False))
    return out, fp, meta


# --- TV model -------------------------------------------------------------


def write_tv_model(path: str | Path, model: TvModel, fp: int, meta: dict) -> None:
    g, d = model.sigma.shape
    _write(path, b"IVTV", fp, meta, struct.pack("<III", g, d, model.rank),
           model.sigma, model.t_matrix)


def read_tv_model(path: str | Path) -> tuple[TvModel, int, dict]:
    with _reading(path, b"IVTV") as (fields, fp, meta):
        g, d, r = fields.unpack("<III")
        sigma, t_matrix = fields.f64(g, d), fields.f64(g * d, r)
    return TvModel(t_matrix=t_matrix, sigma=sigma, rank=r), fp, meta


# --- i-vectors ------------------------------------------------------------


def write_ivector_archive(
    path: str | Path, ivectors: Sequence[IVector], fp: int, meta: dict
) -> None:
    rank = ivectors[0].rank if ivectors else 0
    parts: list[bytes | np.ndarray] = [struct.pack("<II", len(ivectors), rank)]
    for iv in ivectors:
        if iv.rank != rank:
            raise ValueError("all i-vectors in an archive must share a rank")
        parts += [_pack_str(iv.recording_id), iv.w]
    _write(path, b"IVIV", fp, meta, *parts)


def read_ivector_archive(path: str | Path) -> tuple[list[IVector], int, dict]:
    out = []
    with _reading(path, b"IVIV") as (fields, fp, meta):
        count, rank = fields.unpack("<II")
        for _ in range(count):
            rec_id = fields.text()
            out.append(IVector(w=fields.f64(rank), recording_id=rec_id))
    return out, fp, meta


# --- projection -----------------------------------------------------------


def write_projection(path: str | Path, proj: Projection, fp: int, meta: dict) -> None:
    if proj.method not in _METHOD_TAGS:
        raise ValueError(f"projection method must be lda or nda, got {proj.method!r}")
    dims = struct.pack(
        "<IIIId",
        proj.input_dim,
        proj.output_dim,
        _METHOD_TAGS[proj.method],
        proj.k,
        proj.alpha,
    )
    _write(path, b"IVDA", fp, meta, dims, proj.basis, proj.eigenvalues)


def read_projection(path: str | Path) -> tuple[Projection, int, dict]:
    with _reading(path, b"IVDA") as (fields, fp, meta):
        r, m, tag, k, alpha = fields.unpack("<IIIId")
        if tag not in _METHOD_NAMES:
            raise FormatError(f"{fields.path}: unknown projection method tag {tag}")
        basis, eigenvalues = fields.f64(r, m), fields.f64(m)
    proj = Projection(
        basis=basis,
        eigenvalues=eigenvalues,
        method=_METHOD_NAMES[tag],
        k=k,
        alpha=alpha,
    )
    return proj, fp, meta


# --- normaliser -----------------------------------------------------------


def write_normalizer(path: str | Path, nz: Normalizer, fp: int, meta: dict) -> None:
    _write(path, b"IVNZ", fp, meta, struct.pack("<I", nz.dim), nz.mean, nz.whitener)


def read_normalizer(path: str | Path) -> tuple[Normalizer, int, dict]:
    with _reading(path, b"IVNZ") as (fields, fp, meta):
        (m,) = fields.unpack("<I")
        mean, whitener = fields.f64(m), fields.f64(m, m)
    return Normalizer(mean=mean, whitener=whitener), fp, meta


# --- PLDA -----------------------------------------------------------------


def write_plda(path: str | Path, model: PldaModel, fp: int, meta: dict) -> None:
    _write(path, b"IVPL", fp, meta, struct.pack("<I", model.dim),
           model.mu, model.b_cov, model.w_cov)


def read_plda(path: str | Path) -> tuple[PldaModel, int, dict]:
    with _reading(path, b"IVPL") as (fields, fp, meta):
        (m,) = fields.unpack("<I")
        mu, b_cov, w_cov = fields.f64(m), fields.f64(m, m), fields.f64(m, m)
    return PldaModel(mu=mu, b_cov=b_cov, w_cov=w_cov), fp, meta


# --- text formats ---------------------------------------------------------


@dataclass
class ManifestEntry:
    """One recording in a manifest.

    Columns: recording_id, audio path, then optional speaker label, fMLLR
    transform path and speech-mask override path ("-" for absent).
    """

    recording_id: str
    audio_path: str
    speaker: str = ""
    fmllr_path: str = ""
    sad_path: str = ""


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    entries = []
    seen: set[str] = set()
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2 or len(parts) > 5:
            raise FormatError(
                f"{path}:{line_no}: expected 2-5 columns, got {len(parts)}"
            )
        parts += ["-"] * (5 - len(parts))
        rec_id = parts[0]
        if rec_id in seen:
            raise FormatError(f"{path}:{line_no}: duplicate recording id {rec_id!r}")
        seen.add(rec_id)
        entries.append(
            ManifestEntry(
                recording_id=rec_id,
                audio_path="" if parts[1] == "-" else parts[1],
                speaker="" if parts[2] == "-" else parts[2],
                fmllr_path="" if parts[3] == "-" else parts[3],
                sad_path="" if parts[4] == "-" else parts[4],
            )
        )
    return entries


def write_manifest(path: str | Path, entries: Iterable[ManifestEntry]) -> None:
    lines = []
    for e in entries:
        cols = [
            e.recording_id,
            e.audio_path or "-",
            e.speaker or "-",
            e.fmllr_path or "-",
            e.sad_path or "-",
        ]
        while len(cols) > 2 and cols[-1] == "-":
            cols.pop()
        lines.append(" ".join(cols))
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


# Inclusive code-point ranges that str.split() treats as whitespace, and
# the ones that str.splitlines() treats as line breaks (all whitespace too).
_SPACE_RANGES = (
    (0x09, 0x0D), (0x1C, 0x20), (0x85, 0x85), (0xA0, 0xA0), (0x1680, 0x1680),
    (0x2000, 0x200A), (0x2028, 0x2029), (0x202F, 0x202F), (0x205F, 0x205F),
    (0x3000, 0x3000),
)
_BREAK_RANGES = ((0x0A, 0x0D), (0x1C, 0x1E), (0x85, 0x85), (0x2028, 0x2029))


def _in_ranges(codes: np.ndarray, ranges: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Where the unsigned `codes` fall in one of the inclusive `ranges`."""
    top = codes.max(initial=0)
    mask = np.zeros(codes.shape, dtype=bool)
    for lo, hi in ranges:
        if lo <= top:
            mask |= (codes - lo) <= hi - lo  # below `lo` wraps around
    return mask


@dataclass(eq=False)
class Trials:
    """A trial list in columns: row i is the trial (enroll[i], test[i]).

    ``values`` is one more column: float64 scores (a score file), bool
    targets (a key), or None (a bare trial list).
    """

    enroll: list[str]
    test: list[str]
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.enroll)
        if len(self.test) != n or (self.values is not None and len(self.values) != n):
            raise ValueError("trial columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.enroll)

    def take(self, rows: np.ndarray) -> Trials:
        """The trials at `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        order = rows.tolist()
        return Trials(
            [self.enroll[i] for i in order],
            [self.test[i] for i in order],
            None if self.values is None else self.values[rows],
        )

    def locate(self, other: Trials) -> np.ndarray:
        """Row in this list of each trial of `other`; -1 where it is absent."""
        if not len(self):
            return np.full(len(other), -1, dtype=np.int64)
        pairs = _Pairs(self)
        codes = pairs.codes(other)
        pos = np.minimum(np.searchsorted(pairs.sorted, codes), len(self) - 1)
        return np.where(pairs.sorted[pos] == codes, pairs.order[pos], -1)


def _vocabulary(ids: list[str]) -> dict[str, int]:
    return {s: i for i, s in enumerate(dict.fromkeys(ids))}


def _codes(ids: list[str], vocabulary: dict[str, int]) -> np.ndarray:
    """Code of each id in `vocabulary`, -1 for an id not in it."""
    return np.fromiter(
        map(vocabulary.get, ids, repeat(-1)), dtype=np.int64, count=len(ids)
    )


class _Pairs:
    """The (enroll, test) pairs of a trial list as sorted int64 codes."""

    def __init__(self, trials: Trials):
        self.enroll = _vocabulary(trials.enroll)
        self.test = _vocabulary(trials.test)
        codes = self.codes(trials)
        self.order = np.argsort(codes, kind="stable")
        self.sorted = codes[self.order]

    def codes(self, trials: Trials) -> np.ndarray:
        """enroll code * #test ids + test code; -1 where either id is unknown."""
        e = _codes(trials.enroll, self.enroll)
        t = _codes(trials.test, self.test)
        return np.where((e < 0) | (t < 0), -1, e * len(self.test) + t)


def _parse_scores(tokens: list[str]) -> tuple[np.ndarray | None, int]:
    # numpy parses str objects with float()'s grammar, without the float objects.
    try:
        return np.array(tokens, dtype=np.float64), -1
    except ValueError:
        for row, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                return None, row
        raise


_LABELS = ("nontarget", "target")


def _parse_labels(tokens: list[str]) -> tuple[np.ndarray, int]:
    targets = np.fromiter(map("target".__eq__, tokens), dtype=bool, count=len(tokens))
    if set(tokens).issubset(_LABELS):
        return targets, -1
    return targets, next(i for i, t in enumerate(tokens) if t not in _LABELS)


_SCAN_CHUNK = 1 << 20  # code points per block of the token scan


def _scan(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start of each token, whether it starts with ``#``, and each line break.

    Works on blocks of ``_SCAN_CHUNK`` code points (one byte each for ASCII
    text, four otherwise), so the scan adds O(tokens) int64 positions and
    O(_SCAN_CHUNK) working memory to the text.
    """
    starts, hashes, breaks = [np.zeros(0, np.intp)], [np.zeros(0, bool)], [np.zeros(0, np.intp)]
    after_space = True
    for lo in range(0, len(text), _SCAN_CHUNK):
        piece = text[lo:lo + _SCAN_CHUNK]
        codes = (
            np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
            if piece.isascii()
            else np.frombuffer(piece.encode("utf-32-le"), dtype=np.uint32)
        )
        space = _in_ranges(codes, _SPACE_RANGES)
        begins = ~space
        begins[1:] &= space[:-1]
        begins[0] &= after_space
        at = np.flatnonzero(begins)
        starts.append(at + lo)
        hashes.append(codes[at] == ord("#"))
        breaks.append(np.flatnonzero(_in_ranges(codes, _BREAK_RANGES)) + lo)
        after_space = bool(space[-1])
    return np.concatenate(starts), np.concatenate(hashes), np.concatenate(breaks)


def _columns(
    path: str | Path,
    ncols: int,
    expected: str,
    parse: Callable[[list[str]], tuple[np.ndarray | None, int]] | None = None,
    rejected: str = "",
) -> Trials:
    """Read a trial table of `ncols` whitespace-separated columns per line.

    Blank lines and lines whose first token starts with ``#`` are skipped.
    The text is tokenised once with ``str.split()``; the line of each token
    comes from array code over the text's code points, with the whitespace
    and line-break sets of ``str.split()`` and ``str.splitlines()``, so that
    a bad line is named as a line-by-line reader would name it.  `parse`
    converts the third column and returns the values and the first rejected
    row (-1 if none), which raises with the message `rejected`.  Errors
    come in file order; a trial listed twice is rejected last.
    """
    text = Path(path).read_text()
    starts, hashes, breaks = _scan(text)
    # Tokens per line; a line ends at each break and at the end of the text.
    per_line = np.diff(np.searchsorted(starts, breaks), prepend=0, append=len(starts))
    nonblank = np.flatnonzero(per_line)
    counts = per_line[nonblank]
    keep = ~hashes[np.cumsum(per_line)[nonblank] - counts]
    lines = nonblank + 1
    del starts, hashes, breaks, per_line

    bad = np.flatnonzero(keep & (counts != ncols))
    if bad.size:
        keep[bad[0]:] = False
    tokens = text.split()
    del text
    if not keep.all():
        tokens = list(compress(tokens, np.repeat(keep, counts).tolist()))
    columns = [tokens[i::ncols] for i in range(ncols)]
    del tokens
    row_lines = lines[keep]

    values = None
    if parse is not None:
        values, row = parse(columns[2])
        if row >= 0:
            raise FormatError(f"{path}:{row_lines[row]}: {rejected}")
    if bad.size:
        raise FormatError(f"{path}:{lines[bad[0]]}: {expected}")
    trials = Trials(columns[0], columns[1], values)
    pairs = _Pairs(trials)
    same = np.flatnonzero(pairs.sorted[1:] == pairs.sorted[:-1])
    if same.size:
        # The stable sort lists equal pairs in file order, so the repeat
        # with the lowest row is the first one in the file.
        j = same[np.argmin(pairs.order[same + 1])]
        row, earlier = pairs.order[j + 1], pairs.order[j]
        raise FormatError(
            f"{path}:{row_lines[row]}: duplicate trial ({trials.enroll[row]}, "
            f"{trials.test[row]}), first listed on line {row_lines[earlier]}"
        )
    return trials


def _write_rows(path: str | Path, row_format: str, *columns: Iterable) -> None:
    """One `row_format` line per row, as one %-format over all the rows.

    The first column must be a list; the others may be any iterables.
    """
    cells = tuple(chain.from_iterable(zip(*columns)))
    atomic_write_text(path, (row_format * len(columns[0])) % cells)


def read_trials(path: str | Path) -> Trials:
    return _columns(path, 2, "expected 'enroll_id test_id'")


def write_trials(path: str | Path, trials: Trials) -> None:
    _write_rows(path, "%s %s\n", trials.enroll, trials.test)


def read_key(path: str | Path) -> Trials:
    """A key: `values` holds True for target trials."""
    expected = "expected 'enroll_id test_id target|nontarget'"
    return _columns(path, 3, expected, _parse_labels, expected)


def write_key(path: str | Path, key: Trials) -> None:
    labels = map(_LABELS.__getitem__, key.values.tolist())
    _write_rows(path, "%s %s %s\n", key.enroll, key.test, labels)


def read_scores(path: str | Path) -> Trials:
    return _columns(
        path, 3, "expected 'enroll_id test_id score'", _parse_scores, "non-numeric score"
    )


def write_scores(path: str | Path, scores: Trials) -> None:
    """Scores printed with ``%.17g``, which reads back to the same double."""
    _write_rows(path, "%s %s %.17g\n", scores.enroll, scores.test, scores.values.tolist())


def match_scores_to_key(scores: Trials, key: Trials) -> tuple[np.ndarray, np.ndarray]:
    """Align a score list with a key; every scored trial must be in the key."""
    rows = key.locate(scores)
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        i = missing[0]
        raise KeyMismatchError(
            f"trial ({scores.enroll[i]}, {scores.test[i]}) is scored but missing "
            f"from the key"
        )
    return np.asarray(scores.values, dtype=np.float64), key.values[rows]
