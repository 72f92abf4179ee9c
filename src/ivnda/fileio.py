"""Artifact serialisation: model files, archives, manifests, trials, scores.

Every binary artifact starts with a uniform header:

    magic (4 bytes) | version u32 | fingerprint u64 | meta_len u32 | meta JSON

followed by the format-specific payload (all integers u32, all floating
point IEEE 754, little-endian).  The fingerprint is a 64-bit hash of the
producing stage's configuration subset plus the fingerprints of its
upstream artifacts, so stages can reject mixed-provenance inputs without
re-reading them.  The meta JSON (canonical key order, no timestamps)
records the stage name, the config subset, and upstream fingerprints;
reruns with identical inputs produce byte-identical files.  This JSON is
the one record of the settings that made an artifact (a projection's
method, k and alpha; a feature record's frame shift): each ``read_*``
returns it, and the payload holds only data.

A file ends where its payload ends: a reader rejects a truncated file and
a file with bytes after the payload (two archives concatenated, say) with
``FormatError``.

Every writer writes ``<name>.tmp`` and renames it to ``<name>`` when done,
so a reader never sees a partial file; a write that fails removes the
``.tmp`` file and leaves ``<name>`` as it was.  Binary writes stream: the
header and then each part go to the file as they come, each array straight
from its buffer, so a write holds no copy of the artifact.  A statistics
archive is written from any iterable of records, each one as it comes, so
its writer holds one record at a time.

A statistics archive is also read lazily: :class:`StatsArchive` scans the
record headers once when opened, rejecting a corrupt file then, and reads
each record, or each chunk of records straight into the caller's rows,
when asked.  So reading holds one chunk, not the archive.

Formats:

* ``IVFA``  one recording's features: T, D, frames f32 row-major, T mask
  bytes.  A record reads back with float32 frames, at half the bytes of
  float64; the UBM code widens them a chunk at a time.
  A feature *archive* is a directory holding one ``<recording_id>.ivfa``
  per recording.
* ``IVGM``  diagonal GMM: G, D, weights/means/variances f64.
* ``IVBW``  stats archive: count; per record id, G, D, n f64[G], f f64[G*D].
* ``IVTV``  subspace model: G, D, R, sigma f64[G*D], T f64[(G*D)*R].
* ``IVIV``  i-vector archive: count N, R; per record id, w f64[R].  It is
  read and written as (ids, vectors), the i-vectors one (N, R) array.
* ``IVDA``  projection: R, M, basis f64[R*M], eigenvalues f64[M].
* ``IVNZ``  normaliser: M, mean f64[M], whitener f64[M*M].
* ``IVPL``  PLDA model: M, mu f64[M], B f64[M*M], W f64[M*M].

Trial lists, keys and score files are text, held as :class:`Trials`.  They
are read in blocks of ``_SCAN_CHUNK`` characters and written in blocks of
``_WRITE_ROWS`` rows.  A list read keeps, per trial, its two int32 codes and
its value (16 bytes for scores, 9 for a key, 8 for a bare list), plus one
vocabulary per id column.  While a list is read, the reader also holds
each row's int64 line number and, for the duplicate check, its int64 pair
code (16 bytes more per trial), plus O(block).
:meth:`Trials.locate` holds the sorted pair codes and rows of the list it
searches (16 bytes per trial) and an int64 row per trial of the other list,
which it walks in blocks of ``_LOCATE_ROWS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .backend import Normalizer, PldaModel
from .da import Projection
from .errors import DataError, FormatError, KeyMismatchError, read_text
from .frontend import FeatureMatrix
from .stats import BwStats, check_shape
from .tv import TvModel
from .ubm import DiagonalGmm

FORMAT_VERSION = 1


def fingerprint(stage: str, config: dict, upstream: dict[str, int] | None = None) -> int:
    """64-bit provenance hash of a stage's config subset and upstream hashes."""
    payload = json.dumps(
        {"stage": stage, "config": config, "upstream": upstream or {}},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str) -> Iterator[IO]:
    """Open ``<path>.tmp`` in `mode` for the block to write, then rename it
    to `path`, so readers never see a partial file.  If the block raises,
    the temporary file is removed and `path` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see partial files."""
    with _replacing(path, "wb") as fh:
        fh.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    with _replacing(path, "w") as fh:
        fh.write(text)


def atomic_text_writer(path: str | Path) -> contextlib.AbstractContextManager[TextIO]:
    """A text file to write in a ``with`` block; it replaces `path` when the
    block ends, so readers never see a partial file (see `_replacing`)."""
    return _replacing(path, "w")


def _header_bytes(magic: bytes, fp: int, meta: dict) -> bytes:
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<4sIQI", magic, FORMAT_VERSION, fp, len(meta_bytes)) + meta_bytes


def _write(
    path: str | Path,
    magic: bytes,
    fp: int,
    meta: dict,
    parts: Iterable[bytes | np.ndarray],
) -> None:
    """Write the uniform header and then each of `parts` as it comes; arrays
    are written as f64, each straight from its buffer."""
    with _replacing(path, "wb") as fh:
        fh.write(_header_bytes(magic, fp, meta))
        for p in parts:
            fh.write(p if isinstance(p, bytes) else np.ascontiguousarray(p, dtype="<f8"))


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


class _Fields:
    """The payload of an open artifact, read field by field in file order."""

    def __init__(self, fh: BinaryIO, path: Path):
        self._fh = fh
        self.path = path
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()  # bytes not yet read

    def raw(self, n: int) -> bytes:
        # Checked before `read` allocates n bytes from a corrupt size field.
        if n > self.left or len(data := self._fh.read(n)) != n:
            raise FormatError(f"{self.path}: truncated file")
        self.left -= n
        return data

    def skip(self, n: int) -> None:
        self.require(n)
        self._fh.seek(n, os.SEEK_CUR)
        self.left -= n

    def require(self, n: int) -> None:
        """A truncated file unless `n` more bytes are left (checked before allocating)."""
        if n > self.left:
            raise FormatError(f"{self.path}: truncated file")

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


def _header(fh: BinaryIO, path: Path, magic: bytes) -> tuple[_Fields, int, dict]:
    """Check the header of the `magic` artifact open in `fh`; its payload
    fields, fingerprint and metadata."""
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
    return fields, fp, meta


def _trailing_bytes(path: Path) -> FormatError:
    return FormatError(f"{path}: unexpected bytes after the payload")


@contextlib.contextmanager
def _reading(path: str | Path, magic: bytes) -> Iterator[tuple[_Fields, int, dict]]:
    """Check the header of the `magic` artifact at `path`, then yield its
    payload fields, fingerprint and metadata.  The block must read the
    payload up to the end of the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        yield _header(fh, path, magic)
        if fh.read(1):
            raise _trailing_bytes(path)


# --- features -------------------------------------------------------------


def feature_path(directory: str | Path, recording_id: str) -> Path:
    return Path(directory) / f"{recording_id}.ivfa"


def write_feature_record(
    path: str | Path, features: FeatureMatrix, fp: int, meta: dict
) -> None:
    t, d = features.frames.shape
    frames = np.ascontiguousarray(features.frames, dtype="<f4").tobytes()
    mask = features.speech_mask.astype(np.uint8).tobytes()
    _write(path, b"IVFA", fp, meta, (struct.pack("<II", t, d), frames, mask))


def read_feature_record(path: str | Path) -> tuple[FeatureMatrix, int, dict]:
    with _reading(path, b"IVFA") as (fields, fp, meta):
        t, d = fields.unpack("<II")
        frames = np.frombuffer(fields.raw(4 * t * d), dtype="<f4").reshape(t, d).copy()
        mask = np.frombuffer(fields.raw(t), dtype=np.uint8)
        if np.any(mask > 1):
            raise FormatError(f"{fields.path}: mask bytes must be 0 or 1")
    return FeatureMatrix(frames=frames, speech_mask=mask.astype(bool)), fp, meta


# --- GMM ------------------------------------------------------------------


def write_gmm(path: str | Path, gmm: DiagonalGmm, fp: int, meta: dict) -> None:
    _write(path, b"IVGM", fp, meta, (struct.pack("<II", gmm.num_components, gmm.dim),
           gmm.weights, gmm.means, gmm.variances))


def read_gmm(path: str | Path) -> tuple[DiagonalGmm, int, dict]:
    with _reading(path, b"IVGM") as (fields, fp, meta):
        g, d = fields.unpack("<II")
        weights, means, variances = fields.f64(g), fields.f64(g, d), fields.f64(g, d)
    return DiagonalGmm(weights=weights, means=means, variances=variances), fp, meta


# --- stats ----------------------------------------------------------------


def write_stats_archive(
    path: str | Path,
    stats: Iterable[BwStats],
    fp: int,
    meta: dict,
    count: int | None = None,
) -> None:
    """Write `stats` as an ``IVBW`` archive, each record as it comes.

    `count` is the number of records, needed when `stats` has no length.
    """
    if count is None:
        count = len(stats)  # type: ignore[arg-type]

    def parts() -> Iterator[bytes | np.ndarray]:
        yield struct.pack("<I", count)
        given = 0
        for given, s in enumerate(stats, start=1):
            if given > count:
                break
            yield _pack_str(s.recording_id)
            yield struct.pack("<II", s.num_components, s.dim)
            yield s.n
            yield s.f
        if given != count:
            raise ValueError(f"{path}: the records given are not the {count} announced")

    _write(path, b"IVBW", fp, meta, parts())


def read_stats_archive(path: str | Path) -> tuple[list[BwStats], int, dict]:
    """Every record of an archive, read at once; see :class:`StatsArchive`
    for one chunk at a time."""
    with StatsArchive(path) as archive:
        return list(archive), archive.fingerprint, archive.meta


class StatsArchive(Sequence[BwStats]):
    """An ``IVBW`` archive opened for reading, one record per access.

    Opening scans the record headers once into an offset table and rejects a
    corrupt file (bad magic or version, a truncated record, bytes after the
    last one) with the same ``FormatError`` as the other readers, before any
    record is read.  ``archive[i]`` then reads record i, and
    :meth:`read_into` reads consecutive records into rows of the caller's
    arrays, one positioned read per record, so the archive holds its offset
    table and record ids, not its statistics.  It can be walked any number
    of times.  Use it as a context manager, or call :meth:`close`, to close
    the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._scan()
        except BaseException:
            self._fh.close()
            raise

    def _scan(self) -> None:
        fields, self.fingerprint, self.meta = _header(self._fh, self.path, b"IVBW")
        (count,) = fields.unpack("<I")
        self.recording_ids: list[str] = []
        self._shapes: list[tuple[int, int]] = []
        self._offsets: list[int] = []  # where each record's n starts
        for _ in range(count):
            self.recording_ids.append(fields.text())
            g, d = fields.unpack("<II")
            self._shapes.append((g, d))
            self._offsets.append(self._fh.tell())
            fields.skip(8 * g * (d + 1))
        if fields.left:
            raise _trailing_bytes(self.path)

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, i: int) -> BwStats:  # type: ignore[override]
        g, d = self._shapes[i]
        n, f = np.empty(g), np.empty((g, d))
        self._read(self._offsets[i], n, f)
        return BwStats(n=n, f=f, recording_id=self.recording_ids[i])

    def __iter__(self) -> Iterator[BwStats]:
        return map(self.__getitem__, range(len(self)))

    def read_into(self, start: int, stop: int, n: np.ndarray, f: np.ndarray) -> list[str]:
        """Read records `start`..`stop` - 1 into the first rows of `n` (C, G)
        and `f` (C, G, D); their recording ids.  A record of another (G, D)
        is a ``ShapeError`` naming it, raised before any row is read."""
        ids = self.recording_ids[start:stop]
        for rec_id, shape in zip(ids, self._shapes[start:stop]):
            check_shape(rec_id, shape, f.shape[1:])
        for row, offset in enumerate(self._offsets[start:stop]):
            self._read(offset, n[row], f[row])
        return ids

    def _read(self, offset: int, n: np.ndarray, f: np.ndarray) -> None:
        """One record's n and f, stored from `offset` on, into `n` and `f`."""
        if os.preadv(self._fh.fileno(), [n, f], offset) != n.nbytes + f.nbytes:
            raise FormatError(f"{self.path}: truncated file")
        if sys.byteorder == "big":  # the format is little-endian
            n.byteswap(inplace=True)
            f.byteswap(inplace=True)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> StatsArchive:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- TV model -------------------------------------------------------------


def write_tv_model(path: str | Path, model: TvModel, fp: int, meta: dict) -> None:
    g, d = model.sigma.shape
    _write(path, b"IVTV", fp, meta, (struct.pack("<III", g, d, model.rank),
           model.sigma, model.t_matrix))


def read_tv_model(path: str | Path) -> tuple[TvModel, int, dict]:
    with _reading(path, b"IVTV") as (fields, fp, meta):
        g, d, r = fields.unpack("<III")
        sigma, t_matrix = fields.f64(g, d), fields.f64(g * d, r)
    return TvModel(t_matrix=t_matrix, sigma=sigma), fp, meta


# --- i-vectors ------------------------------------------------------------


def write_ivector_archive(
    path: str | Path, ivectors: tuple[Sequence[str], np.ndarray], fp: int, meta: dict
) -> None:
    """Write i-vectors given as (ids, vectors): row i of the (N, R)
    `vectors` is the i-vector of recording ``ids[i]``."""
    ids, vectors = ivectors
    if vectors.ndim != 2 or len(vectors) != len(ids):
        raise ValueError(f"{path}: i-vectors of shape {vectors.shape} are not one row per id")
    parts: list[bytes | np.ndarray] = [struct.pack("<II", *vectors.shape)]
    for rec_id, w in zip(ids, vectors):
        parts += [_pack_str(rec_id), w]
    _write(path, b"IVIV", fp, meta, parts)


def read_ivector_archive(path: str | Path) -> tuple[tuple[list[str], np.ndarray], int, dict]:
    """((ids, vectors), fingerprint, metadata), with the i-vectors as the
    rows of one (N, R) array."""
    with _reading(path, b"IVIV") as (fields, fp, meta):
        count, rank = fields.unpack("<II")
        fields.require(count * (4 + 8 * rank))
        ids, vectors = [], np.empty((count, rank))
        for row in vectors:
            ids.append(fields.text())
            row[:] = np.frombuffer(fields.raw(8 * rank), dtype="<f8")
    return (ids, vectors), fp, meta


# --- projection -----------------------------------------------------------


def write_projection(path: str | Path, proj: Projection, fp: int, meta: dict) -> None:
    dims = struct.pack("<II", proj.input_dim, proj.output_dim)
    _write(path, b"IVDA", fp, meta, (dims, proj.basis, proj.eigenvalues))


def read_projection(path: str | Path) -> tuple[Projection, int, dict]:
    with _reading(path, b"IVDA") as (fields, fp, meta):
        r, m = fields.unpack("<II")
        basis, eigenvalues = fields.f64(r, m), fields.f64(m)
    return Projection(basis=basis, eigenvalues=eigenvalues), fp, meta


# --- normaliser -----------------------------------------------------------


def write_normalizer(path: str | Path, nz: Normalizer, fp: int, meta: dict) -> None:
    _write(path, b"IVNZ", fp, meta, (struct.pack("<I", nz.dim), nz.mean, nz.whitener))


def read_normalizer(path: str | Path) -> tuple[Normalizer, int, dict]:
    with _reading(path, b"IVNZ") as (fields, fp, meta):
        (m,) = fields.unpack("<I")
        mean, whitener = fields.f64(m), fields.f64(m, m)
    return Normalizer(mean=mean, whitener=whitener), fp, meta


# --- PLDA -----------------------------------------------------------------


def write_plda(path: str | Path, model: PldaModel, fp: int, meta: dict) -> None:
    _write(path, b"IVPL", fp, meta, (struct.pack("<I", model.dim),
           model.mu, model.b_cov, model.w_cov))


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
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
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


class Trials:
    """A trial list in columns: row i is the trial (enroll[i], test[i]).

    Each id column is interned: ``enroll_codes`` and ``test_codes`` are
    int32 codes into ``enroll_vocab`` and ``test_vocab``, which list each
    id once, in first-appearance order (a list made by :meth:`take` keeps
    its parent's vocabularies).  ``values`` is one more column: float64
    scores (a score file), bool targets (a key), or None (a bare trial
    list).  The id columns are fixed once built; ``enroll`` and ``test``
    return them as lists of ids.
    """

    def __init__(
        self, enroll: Sequence[str], test: Sequence[str], values: np.ndarray | None = None
    ):
        enroll_index: dict[str, int] = {}
        test_index: dict[str, int] = {}
        enroll_codes = _intern(enroll, enroll_index)
        test_codes = _intern(test, test_index)
        self._set(list(enroll_index), enroll_codes, list(test_index), test_codes, values)

    @classmethod
    def from_codes(
        cls,
        enroll_vocab: Sequence[str],
        enroll_codes: np.ndarray,
        test_vocab: Sequence[str],
        test_codes: np.ndarray,
        values: np.ndarray | None = None,
    ) -> Trials:
        """Row i is (enroll_vocab[enroll_codes[i]], test_vocab[test_codes[i]])."""
        for vocab, codes in ((enroll_vocab, enroll_codes), (test_vocab, test_codes)):
            if len(set(vocab)) != len(vocab):
                raise ValueError("a trial vocabulary lists an id twice")
            codes = np.asarray(codes)
            if codes.size and (codes.min() < 0 or codes.max() >= len(vocab)):
                raise ValueError("trial codes must index their vocabulary")
        trials = cls.__new__(cls)
        trials._set(enroll_vocab, enroll_codes, test_vocab, test_codes, values)
        return trials

    def _set(self, enroll_vocab, enroll_codes, test_vocab, test_codes, values) -> None:
        self.enroll_vocab, self.test_vocab = list(enroll_vocab), list(test_vocab)
        self.enroll_codes = np.asarray(enroll_codes, dtype=np.int32)
        self.test_codes = np.asarray(test_codes, dtype=np.int32)
        n = len(self.enroll_codes)
        if len(self.test_codes) != n or (values is not None and len(values) != n):
            raise ValueError("trial columns must have equal lengths")
        self.values = values

    def __len__(self) -> int:
        return len(self.enroll_codes)

    @property
    def enroll(self) -> list[str]:
        return list(map(self.enroll_vocab.__getitem__, self.enroll_codes.tolist()))

    @property
    def test(self) -> list[str]:
        return list(map(self.test_vocab.__getitem__, self.test_codes.tolist()))

    def ids(self, row: int) -> tuple[str, str]:
        """The (enroll, test) ids of trial `row`."""
        return self.enroll_vocab[self.enroll_codes[row]], self.test_vocab[self.test_codes[row]]

    def take(self, rows: np.ndarray) -> Trials:
        """The trials at `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Trials.from_codes(
            self.enroll_vocab, self.enroll_codes[rows], self.test_vocab, self.test_codes[rows],
            None if self.values is None else self.values[rows],
        )

    def _pair_codes(self) -> np.ndarray:
        """Each trial's pair code, enroll code * len(test_vocab) + test code,
        as int64."""
        codes = self.enroll_codes.astype(np.int64)
        codes *= len(self.test_vocab)
        codes += self.test_codes
        return codes

    def _sorted_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows in a stable sort by pair code, and their pair codes."""
        pairs = self._pair_codes()
        order = np.argsort(pairs, kind="stable")
        pairs.sort()  # as pairs[order], without a second copy
        return order, pairs

    def locate(self, other: Trials) -> np.ndarray:
        """Row in this list of each trial of `other`; -1 where it is absent.

        This list's pair codes are sorted once (16 bytes per trial while the
        call lasts); `other` is looked up ``_LOCATE_ROWS`` trials at a time,
        so beyond the int64 result its working memory is O(block).
        """
        if not len(self):
            return np.full(len(other), -1, dtype=np.int64)
        order, pairs = self._sorted_pairs()
        rows = np.empty(len(other), dtype=np.int64)
        enroll = _recode(other.enroll_vocab, self.enroll_vocab)
        test = _recode(other.test_vocab, self.test_vocab)
        for lo in range(0, len(other), _LOCATE_ROWS):
            block = slice(lo, lo + _LOCATE_ROWS)
            e, t = enroll[other.enroll_codes[block]], test[other.test_codes[block]]
            codes = np.where((e < 0) | (t < 0), -1, e * len(self.test_vocab) + t)
            pos = np.minimum(np.searchsorted(pairs, codes), len(self) - 1)
            rows[block] = np.where(pairs[pos] == codes, order[pos], -1)
        return rows


_LOCATE_ROWS = 1 << 14  # trials of the other list looked up per block by `locate`


def _intern(ids: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """The int32 code of each of `ids` in `index`; new ids get the next codes."""
    try:  # most blocks of a long list bring no new id
        return np.fromiter(map(index.__getitem__, ids), dtype=np.int32, count=len(ids))
    except KeyError:
        for s in dict.fromkeys(ids):
            index.setdefault(s, len(index))
        return np.fromiter(map(index.__getitem__, ids), dtype=np.int32, count=len(ids))


def _recode(ids: list[str], vocab: list[str]) -> np.ndarray:
    """The int64 code in `vocab` of each of `ids`; -1 for an id not in it."""
    index = {s: i for i, s in enumerate(vocab)}
    return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))


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


_SCAN_CHUNK = 1 << 16  # code points read per block of a trial table


def _blocks(fh: TextIO) -> Iterator[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """The text of `fh` in blocks, each with the start of each token, whether
    it starts with ``#``, and the position of each line break.

    A block is the text read since the last line break of the previous
    block up to the last line break of the latest ``_SCAN_CHUNK`` code
    points read (the last block ends where the text does), so no line is
    split between blocks.  The scan is array code over code points: each
    read is scanned once for line breaks and each block once for
    whitespace, so a line longer than a read costs no rescan.
    """
    texts: list[str] = []  # read since the last line break
    codes: list[np.ndarray] = []
    while True:
        chunk = fh.read(_SCAN_CHUNK)
        chunk_codes = (  # one byte per code point for ASCII text, four otherwise
            np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
            if chunk.isascii()
            else np.frombuffer(chunk.encode("utf-32-le"), dtype=np.uint32)
        )
        breaks = np.flatnonzero(_in_ranges(chunk_codes, _BREAK_RANGES))
        if chunk and not breaks.size:  # no line ends in this read yet
            texts.append(chunk)
            codes.append(chunk_codes)
            continue
        end = int(breaks[-1]) + 1 if chunk else 0
        texts.append(chunk[:end])
        codes.append(chunk_codes[:end])
        block = "".join(texts)
        if not block:
            return
        block_codes = np.concatenate(codes)
        space = _in_ranges(block_codes, _SPACE_RANGES)
        begins = ~space
        begins[1:] &= space[:-1]  # a block starts a line, so after a break
        starts = np.flatnonzero(begins)
        yield block, starts, block_codes[starts] == ord("#"), breaks + (len(block) - end)
        if not chunk:
            return
        texts, codes = [chunk[end:]], [chunk_codes[end:]]


class _Column:
    """A 1-D array built block by block in one buffer, which grows by half
    when full; resizing lets the allocator grow it in place, so the blocks
    are not kept apart until the end."""

    def __init__(self, dtype: np.dtype):
        self._data = np.empty(1 << 12, dtype)
        self._size = 0

    def append(self, block: np.ndarray) -> None:
        end = self._size + len(block)
        if end > len(self._data):
            # No view of the buffer outlives a call, so nothing refers to it.
            self._data.resize(max(end, len(self._data) * 3 // 2), refcheck=False)
        self._data[self._size:end] = block
        self._size = end

    def array(self) -> np.ndarray:
        """The column as one array of its length; the buffer is handed over."""
        data, self._data = self._data, np.empty(0, self._data.dtype)
        data.resize(self._size, refcheck=False)
        return data


def _columns(
    path: str | Path,
    ncols: int,
    expected: str,
    parse: Callable[[list[str]], tuple[np.ndarray | None, int]] | None = None,
    rejected: str = "",
) -> Trials:
    """Read a trial table of `ncols` whitespace-separated columns per line.

    Blank lines and lines whose first token starts with ``#`` are skipped.
    The text is read in blocks that end at a line end (see `_blocks`).  Each
    block is tokenised with ``str.split()``; the line of each token comes
    from the scan, with the whitespace and line-break sets of
    ``str.split()`` and ``str.splitlines()``, so that a bad line is named as
    a line-by-line reader would name it.  A block's ids are interned and
    `parse` converts its third column, returning the values and the first
    rejected row (-1 if none), which raises with the message `rejected`.
    Errors come in file order; a trial listed twice is rejected last.
    """
    indexes: tuple[dict[str, int], ...] = ({}, {})
    codes = _Column(np.int32), _Column(np.int32)
    values = None if parse is None else _Column(parse([])[0].dtype)
    row_lines = _Column(np.int64)
    first_line = 1
    try:
        with open(path) as fh:  # decoded as Path.read_text() decodes
            try:
                for block, starts, hashes, breaks in _blocks(fh):
                    # Tokens per line; a line ends at each break and at the
                    # end of the block.
                    per_line = np.diff(
                        np.searchsorted(starts, breaks), prepend=0, append=len(starts)
                    )
                    nonblank = np.flatnonzero(per_line)
                    counts = per_line[nonblank]
                    keep = ~hashes[np.cumsum(per_line)[nonblank] - counts]
                    lines = nonblank + first_line
                    first_line += len(breaks)

                    bad = np.flatnonzero(keep & (counts != ncols))
                    if bad.size:
                        keep[bad[0]:] = False
                    tokens = block.split()
                    if not keep.all():
                        tokens = list(compress(tokens, np.repeat(keep, counts).tolist()))
                    rows = lines[keep]
                    row_lines.append(rows)
                    if values is not None:
                        block_values, row = parse(tokens[2::ncols])
                        if row >= 0:
                            raise FormatError(f"{path}:{rows[row]}: {rejected}")
                        values.append(block_values)
                    if bad.size:
                        raise FormatError(f"{path}:{lines[bad[0]]}: {expected}")
                    for col in (0, 1):
                        codes[col].append(_intern(tokens[col::ncols], indexes[col]))
            except FormatError:
                # An undecodable byte anywhere in the file still comes first,
                # as it did when the whole text was decoded before parsing.
                while fh.read(_SCAN_CHUNK):
                    pass
                raise
    except UnicodeDecodeError:
        read_text(path)  # raises with the position in the whole file
        raise

    trials = Trials.from_codes(
        list(indexes[0]), codes[0].array(), list(indexes[1]), codes[1].array(),
        None if values is None else values.array(),
    )
    pairs = trials._pair_codes()
    pairs.sort()
    if (pairs[1:] == pairs[:-1]).any():
        # A stable sort lists equal pairs in file order, so the repeat with
        # the lowest row is the first one in the file.
        order, pairs = trials._sorted_pairs()
        same = np.flatnonzero(pairs[1:] == pairs[:-1])
        j = same[np.argmin(order[same + 1])]
        row, earlier = order[j + 1], order[j]
        lines = row_lines.array()
        enroll, test = trials.ids(row)
        raise FormatError(
            f"{path}:{lines[row]}: duplicate trial ({enroll}, {test}), "
            f"first listed on line {lines[earlier]}"
        )
    return trials


_WRITE_ROWS = 1 << 15  # rows formatted per block of a written trial table


def _write_rows(
    path: str | Path,
    row_format: str,
    trials: Trials,
    cells: Callable[[np.ndarray], Iterable] | None = None,
    column: str = "",
) -> None:
    """One `row_format` line per trial: its ids, then the cell that `cells`
    makes of its value, if given; the values are the `column` column, which
    the trials must have.

    Rows are formatted and written ``_WRITE_ROWS`` at a time to a temporary
    file, which then replaces `path` (see `_replacing`).
    """
    if cells is not None and trials.values is None:
        raise ValueError(f"{path}: the trials have no {column} column to write")
    enroll = np.array(trials.enroll_vocab, dtype=object)
    test = np.array(trials.test_vocab, dtype=object)
    with _replacing(path, "w") as fh:
        for lo in range(0, len(trials), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            columns = [enroll[trials.enroll_codes[rows]], test[trials.test_codes[rows]]]
            if cells is not None:
                columns.append(cells(trials.values[rows]))
            block = tuple(chain.from_iterable(zip(*columns)))
            fh.write((row_format * len(columns[0])) % block)


def read_trials(path: str | Path) -> Trials:
    return _columns(path, 2, "expected 'enroll_id test_id'")


def write_trials(path: str | Path, trials: Trials) -> None:
    _write_rows(path, "%s %s\n", trials)


def read_key(path: str | Path) -> Trials:
    """A key: `values` holds True for target trials."""
    expected = "expected 'enroll_id test_id target|nontarget'"
    return _columns(path, 3, expected, _parse_labels, expected)


def write_key(path: str | Path, key: Trials) -> None:
    _write_rows(
        path, "%s %s %s\n", key, lambda t: map(_LABELS.__getitem__, t.tolist()), "target"
    )


def read_scores(path: str | Path) -> Trials:
    return _columns(
        path, 3, "expected 'enroll_id test_id score'", _parse_scores, "non-numeric score"
    )


def write_scores(path: str | Path, scores: Trials) -> None:
    """Scores printed with ``%.17g``, which reads back to the same double."""
    _write_rows(path, "%s %s %.17g\n", scores, np.ndarray.tolist, "score")


def match_scores_to_key(
    scores: Trials, key: Trials, source: str | Path = "scores"
) -> tuple[np.ndarray, np.ndarray]:
    """Align a score list, read from `source`, with a key; every scored
    trial must have a finite score and be in the key."""
    bad = np.flatnonzero(~np.isfinite(scores.values))
    if bad.size:
        enroll, test = scores.ids(bad[0])
        raise DataError(
            f"{source}: trial ({enroll}, {test}) has a non-finite score "
            f"{float(scores.values[bad[0]])}"
        )
    rows = key.locate(scores)
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        enroll, test = scores.ids(missing[0])
        raise KeyMismatchError(
            f"trial ({enroll}, {test}) is scored but missing from the key"
        )
    return np.asarray(scores.values, dtype=np.float64), key.values[rows]
