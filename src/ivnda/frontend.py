"""Acoustic frontend.

WAV decoding, MFCC extraction with appended delta/delta-delta coefficients,
energy/zero-crossing speech activity detection, cepstral mean subtraction
over speech frames, and application of externally estimated affine feature
transforms.

Frame geometry is shared by every stage: a frame ``t`` covers samples
``[t * shift, t * shift + frame_len)``, and a signal of ``n`` samples yields
``(n - frame_len) // shift + 1`` frames (no padding at either end).
:func:`check_config` rejects a configuration whose geometry cannot hold at
both supported rates before any recording is read.

Frames are strided views of the signal (``sliding_window_view(x,
frame_len)[::shift]``), never a (frames x frame_len) index gather; the
Hamming window, the mel filterbank and the truncated DCT-II basis are built
once per (rate, frame_len, num_filters, num_ceps) and kept read-only, so
the cepstra are one matrix product with the basis.  The detector takes its
energies from the same view and its zero-crossing rates from the sorted
positions of the sign flips in the signal, two binary searches per frame.
Every output is bit for bit what the per-frame formulas give.

A recording's large temporaries (the pre-emphasised signal, the windowed
frames zero-padded to the FFT length, the complex spectrum, its power and
the squared frames) are written into a
:class:`WorkBuffers` object, which a caller may pass to
:func:`compute_mfcc` and :func:`detect_speech` to reuse them from one
recording to the next.  Allocated afresh for every recording, they exceed
glibc's mmap threshold and are mapped and faulted in each time, about 800
minor page faults per 4 s recording.  ``extract-features`` keeps one set
per worker thread, about 5.0 MB for a 4 s 8 kHz recording (9.9 MB at
16 kHz; the set grows with the longest recording seen), and drops them
when the stage returns.  No returned array shares memory with a buffer.
"""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import FrontendConfig, SadConfig
from .errors import (
    AlignmentError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
    MatrixError,
    NoSpeechError,
    ShapeError,
    UnsupportedFormatError,
    read_text,
)

SUPPORTED_RATES = (8000, 16000)
PCM_SCALE = 32768.0  # int16 full scale; +32767 maps to 32767/32768


@dataclass
class AudioSignal:
    """Mono PCM audio as float64 samples in [-1, 1)."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        if self.sample_rate_hz not in SUPPORTED_RATES:
            raise UnsupportedFormatError(
                f"unsupported sample rate {self.sample_rate_hz} Hz "
                f"(expected one of {SUPPORTED_RATES})"
            )
        if self.samples.size == 0:
            raise EmptyInputError("empty audio signal")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def frame_array(frames) -> np.ndarray:
    """`frames` as an array, float32 kept at the precision it was stored in
    and any other type as float64."""
    frames = np.asarray(frames)
    return frames if frames.dtype == np.float32 else frames.astype(np.float64, copy=False)


@dataclass
class FeatureMatrix:
    """A (num_frames, dim) matrix of frame features plus a speech mask.

    All frames are kept; non-speech frames are flagged rather than dropped so
    that frame indices stay aligned with the audio timeline.  Frames are
    float64, or float32 as read from an ``.ivfa`` record (see
    :func:`frame_array`); every computation on them is in float64.  The
    frontend settings that made them (frame shift and the rest) are recorded
    in the header metadata of their ``.ivfa`` record, not here.
    """

    frames: np.ndarray
    speech_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.frames = frame_array(self.frames)
        if self.frames.ndim != 2:
            raise ShapeError("feature matrix must be 2-D")
        if self.speech_mask is None:
            self.speech_mask = np.ones(self.frames.shape[0], dtype=bool)
        self.speech_mask = np.asarray(self.speech_mask, dtype=bool)
        if self.speech_mask.shape != (self.frames.shape[0],):
            raise AlignmentError(
                f"speech mask length {self.speech_mask.shape} does not match "
                f"{self.frames.shape[0]} frames"
            )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def speech_frames(self) -> np.ndarray:
        """Rows of `frames` where the mask is true."""
        return self.frames[self.speech_mask]


@dataclass
class FmllrTransform:
    """Affine feature-space transform o' = A o + b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ShapeError("fMLLR A must be square")
        if self.b.shape != (self.a.shape[0],):
            raise ShapeError("fMLLR b must match A's dimension")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise MatrixError("fMLLR A and b must be finite")
        sign, logdet = np.linalg.slogdet(self.a)
        if sign == 0 or not np.isfinite(logdet) or np.linalg.cond(self.a) > 1e12:
            raise MatrixError("fMLLR A is singular or numerically non-invertible")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def read_wav(path: str | Path) -> AudioSignal:
    """Decode a 16-bit mono PCM WAV file.

    Raises :class:`FormatError` for files that are not RIFF/WAVE at all and
    :class:`UnsupportedFormatError` for valid WAVs in an encoding we do not
    accept (non-PCM, stereo, not 16-bit, unsupported rate).
    """
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            n = wav.getnframes()
            raw = wav.readframes(n)
    except wave.Error as exc:
        msg = str(exc)
        if "unknown format" in msg:
            raise UnsupportedFormatError(f"{path}: non-PCM WAV ({msg})") from exc
        raise FormatError(f"{path}: not a WAV file ({msg})") from exc
    except EOFError as exc:
        raise FormatError(f"{path}: truncated WAV file") from exc
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate not in SUPPORTED_RATES:
        raise UnsupportedFormatError(f"{path}: unsupported sample rate {rate} Hz")
    samples = np.divide(np.frombuffer(raw, dtype="<i2"), PCM_SCALE, dtype=np.float64)
    if samples.size == 0:
        raise EmptyInputError(f"{path}: WAV contains no samples")
    return AudioSignal(samples=samples, sample_rate_hz=rate)


def write_wav(path: str | Path, signal: AudioSignal) -> None:
    """Write a mono 16-bit PCM WAV (used by the synthetic-corpus generator)."""
    pcm = np.clip(np.round(signal.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(signal.sample_rate_hz)
        wav.writeframes(pcm.tobytes())


def frame_geometry(sample_rate_hz: int, cfg: FrontendConfig) -> tuple[int, int]:
    """(frame_len, frame_shift) in samples for this sample rate."""
    frame_len = int(round(cfg.frame_len_ms * sample_rate_hz / 1000.0))
    shift = int(round(cfg.frame_shift_ms * sample_rate_hz / 1000.0))
    return frame_len, shift


class WorkBuffers:
    """Work arrays that :func:`compute_mfcc` and :func:`detect_speech` reuse
    across calls.

    Each array grows to the largest size asked for under its key and is
    never shrunk.  One object serves one thread at a time: a call
    overwrites what the previous one left.
    """

    def __init__(self) -> None:
        self._arrays: dict[Hashable, np.ndarray] = {}

    def array(self, key: Hashable, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous `shape` view of the buffer `key`.  A new or grown
        buffer is zero; after that it holds whatever the last user left.  A
        key always has one dtype."""
        size = math.prod(shape)
        buf = self._arrays.get(key)
        if buf is None or buf.size < size:
            buf = self._arrays[key] = np.zeros(size, dtype)
        return buf[:size].reshape(shape)


def _frames(x: np.ndarray, frame_len: int, shift: int) -> np.ndarray:
    """Read-only (frames, frame_len) strided view of `x`; nothing is copied."""
    return sliding_window_view(x, frame_len)[::shift]


def check_config(cfg: FrontendConfig) -> None:
    """Reject settings that would fail, or silently corrupt, every recording.

    Raises :class:`FormatError` naming the offending key.  The frame
    geometry is checked at every supported rate: each frame must hold at
    least two samples (the zero-crossing rate divides by ``frame_len -
    1``) and fit the FFT, and the shift must be at least one sample.
    """

    def reject(key: str, why: str, section: str = "frontend") -> FormatError:
        return FormatError(f"config [{section}] {key}: {why}")

    for rate in SUPPORTED_RATES:
        frame_len, shift = frame_geometry(rate, cfg)
        if frame_len < 2:
            raise reject("frame_len_ms", f"{cfg.frame_len_ms} ms is {frame_len} "
                         f"sample(s) at {rate} Hz; a frame needs at least 2")
        if frame_len > fft_size(rate):
            raise reject("frame_len_ms", f"{cfg.frame_len_ms} ms is {frame_len} samples "
                         f"at {rate} Hz, longer than the {fft_size(rate)}-point FFT")
        if shift < 1:
            raise reject("frame_shift_ms", f"{cfg.frame_shift_ms} ms is {shift} samples "
                         f"at {rate} Hz; the shift needs at least 1")
    if cfg.num_filters < 1:
        raise reject("num_filters", f"{cfg.num_filters} must be at least 1")
    if not 1 <= cfg.num_ceps <= cfg.num_filters:
        raise reject("num_ceps", f"{cfg.num_ceps} must be between 1 and "
                     f"num_filters ({cfg.num_filters})")
    if cfg.include_deltas and cfg.delta_context < 1:
        raise reject("delta_context", f"{cfg.delta_context} must be at least 1 "
                     "when include_deltas is set")
    if cfg.sad.smooth_frames > 1 and cfg.sad.smooth_frames % 2 == 0:
        raise reject("smooth_frames", f"{cfg.sad.smooth_frames} is even; the majority "
                     "vote needs an odd window (1 turns it off)", section="sad")


def fft_size(sample_rate_hz: int) -> int:
    """FFT length: 512 points at 8 kHz, 1024 at 16 kHz."""
    return 512 if sample_rate_hz == 8000 else 1024


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, nfft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank, shape (num_filters, nfft // 2 + 1).

    Filter centres are spaced uniformly on the mel scale between 0 Hz and
    Nyquist; triangles are evaluated at the continuous bin frequencies.
    """
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), num_filters + 2))
    freqs = np.arange(nfft // 2 + 1) * (sample_rate_hz / nfft)
    bank = np.zeros((num_filters, freqs.size))
    for j in range(num_filters):
        left, center, right = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        up = (freqs - left) / (center - left)
        down = (right - freqs) / (right - center)
        bank[j] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


def dct_basis(num_filters: int, num_ceps: int) -> np.ndarray:
    """First `num_ceps` columns of the orthonormal DCT-II matrix, shape
    (num_filters, num_ceps): ``x @ basis`` is the DCT-II of each row of `x`
    with ``norm="ortho"``, truncated to `num_ceps` coefficients."""
    n = np.arange(num_filters)[:, None]
    k = np.arange(num_ceps)[None, :]
    basis = np.cos(np.pi * k * (2 * n + 1) / (2 * num_filters)) * math.sqrt(2.0 / num_filters)
    basis[:, 0] = math.sqrt(1.0 / num_filters)
    return basis


@functools.lru_cache(maxsize=None)
def _mfcc_constants(
    sample_rate_hz: int, frame_len: int, num_filters: int, num_ceps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Hamming window, mel filterbank and DCT basis for one frame
    geometry."""
    constants = (
        np.hamming(frame_len),
        mel_filterbank(num_filters, fft_size(sample_rate_hz), sample_rate_hz),
        dct_basis(num_filters, num_ceps),
    )
    for array in constants:
        array.flags.writeable = False
    return constants


def compute_mfcc(
    signal: AudioSignal, cfg: FrontendConfig, *, buffers: WorkBuffers | None = None
) -> FeatureMatrix:
    """MFCCs with c0 as coefficient 0.

    Pipeline per frame: pre-emphasis (applied to the whole signal first),
    Hamming window, power spectrum, mel filterbank, floored log, the first
    `num_ceps` coefficients of the orthonormal DCT-II (one product with the
    cached :func:`dct_basis`).  The temporaries are
    written into `buffers` (fresh ones when it is None).
    """
    sr = signal.sample_rate_hz
    frame_len, shift = frame_geometry(sr, cfg)
    x = signal.samples
    if x.size < frame_len:
        raise EmptyInputError(
            f"signal of {x.size} samples is shorter than one frame ({frame_len})"
        )
    if buffers is None:
        buffers = WorkBuffers()
    window, bank, basis = _mfcc_constants(sr, frame_len, cfg.num_filters, cfg.num_ceps)
    nfft = fft_size(sr)
    emphasized = buffers.array("signal", x.shape)
    emphasized[0] = x[0]
    np.multiply(x[:-1], cfg.preemphasis, out=emphasized[1:])
    np.subtract(x[1:], emphasized[1:], out=emphasized[1:])
    view = _frames(emphasized, frame_len, shift)
    # Only the first frame_len columns are ever written under this key, so
    # the rest stay zero: the frames are zero-padded to the FFT length once
    # per buffer, not by the FFT for every row of every recording.
    padded = buffers.array(("padded", frame_len, nfft), (view.shape[0], nfft))
    np.multiply(view, window, out=padded[:, :frame_len])
    spectrum = np.fft.rfft(
        padded, axis=1,
        out=buffers.array("spectrum", (view.shape[0], nfft // 2 + 1), np.complex128),
    )
    power = np.abs(spectrum, out=buffers.array("power", spectrum.shape))
    np.square(power, out=power)
    energies = power @ bank.T
    log_energies = np.log(np.maximum(energies, cfg.log_floor))
    return FeatureMatrix(frames=log_energies @ basis)


def append_deltas(features: FeatureMatrix, context: int = 2) -> FeatureMatrix:
    """Append first- and second-order regression coefficients.

    The delta at frame ``t`` is the least-squares slope of each coefficient
    over frames ``t - context .. t + context`` (edges replicated by a
    clipped-index gather), i.e.
    ``sum_j j * (x[t+j] - x[t-j]) / (2 * sum_j j^2)``.  Delta-deltas apply
    the same operator to the deltas.  Output dim is three times the input.
    """
    if context < 1:
        raise ValueError("delta context must be >= 1")
    window = 2 * context + 1
    if features.num_frames < window:
        raise InsufficientDataError(
            f"need at least {window} frames for delta regression, "
            f"got {features.num_frames}"
        )

    t = features.num_frames
    edge = np.clip(np.arange(-context, t + context), 0, t - 1)
    norm = 2.0 * sum(j * j for j in range(1, context + 1))

    def regress(x: np.ndarray) -> np.ndarray:
        padded = x[edge]
        return sum(
            j * (padded[context + j : context + j + t] - padded[context - j : context - j + t])
            for j in range(1, context + 1)
        ) / norm

    frames = np.asarray(features.frames, dtype=np.float64)
    delta = regress(frames)
    delta2 = regress(delta)
    stacked = np.concatenate([frames, delta, delta2], axis=1)
    return FeatureMatrix(frames=stacked, speech_mask=features.speech_mask.copy())


def _energy_and_zcr(
    x: np.ndarray, frame_len: int, shift: int, buffers: WorkBuffers | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame log energy (dB re. full scale) and zero-crossing rate.

    The energy is the mean square of each frame of the strided view.  The
    zero-crossing rate counts sign flips between neighbouring samples of a
    frame (zero counts as positive), divided by ``frame_len - 1``.  The
    flips of the whole signal are found once; a frame's count is the number
    of flip positions in its range, by binary search.  The counts are
    integers, so the rate is exact.
    """
    if buffers is None:
        buffers = WorkBuffers()
    view = _frames(x, frame_len, shift)
    mean_square = np.mean(np.square(view, out=buffers.array("squares", view.shape)), axis=1)
    negative = x < 0
    flips = np.flatnonzero(negative[1:] != negative[:-1])
    starts = np.arange(mean_square.size) * shift
    counts = np.searchsorted(flips, starts + frame_len - 1) - np.searchsorted(flips, starts)
    zcr = counts / (frame_len - 1)
    return 10.0 * np.log10(mean_square + 1e-12), zcr


def smooth_mask(mask: np.ndarray, window: int) -> np.ndarray:
    """Majority vote over a sliding window (edges replicated by a
    clipped-index gather).  `window` must be odd when it exceeds one.

    With the default 5-frame window this fills isolated 1–2 frame dropouts
    inside speech, keeps silence gaps of 3+ frames, and removes isolated
    1–2 frame blips.
    """
    if window <= 1 or mask.size == 0:
        return mask.copy()
    half = window // 2
    edge = np.clip(np.arange(-half, mask.size + half), 0, mask.size - 1)
    padded = mask[edge].astype(np.int32)
    kernel = np.ones(window, dtype=np.int32)
    votes = np.convolve(padded, kernel, mode="valid")
    return votes * 2 > window


def detect_speech(
    signal: AudioSignal, cfg: FrontendConfig, *, buffers: WorkBuffers | None = None
) -> np.ndarray:
    """Boolean speech mask on the MFCC frame grid.

    Frames are scored by log energy (dB re. full scale) and zero-crossing
    rate.  The energy threshold adapts to the recording: it sits
    ``energy_fraction`` of the way between the low and high energy
    percentiles.  High-ZCR frames get `zcr_margin_db` of energy slack so
    weak fricatives survive.  A majority vote over `smooth_frames` frames
    removes isolated blips and fills short dropouts.  A recording whose
    energy spread is below `min_spread_db` is treated as homogeneous:
    everything above the absolute floor is speech.  The temporaries are
    written into `buffers` (fresh ones when it is None).
    """
    sad: SadConfig = cfg.sad
    frame_len, shift = frame_geometry(signal.sample_rate_hz, cfg)
    if signal.samples.size < frame_len:
        return np.zeros(0, dtype=bool)
    energy_db, zcr = _energy_and_zcr(signal.samples, frame_len, shift, buffers)

    above_floor = energy_db > sad.floor_db
    if not above_floor.any():
        return np.zeros(energy_db.size, dtype=bool)

    low, high = np.percentile(energy_db, [sad.low_percentile, sad.high_percentile])
    spread = high - low
    if spread < sad.min_spread_db:
        raw = above_floor.copy()
    else:
        threshold = low + sad.energy_fraction * spread
        loud = energy_db > threshold
        rescue = (energy_db > threshold - sad.zcr_margin_db) & (zcr >= sad.zcr_threshold)
        raw = (loud | rescue) & above_floor
    return smooth_mask(raw, sad.smooth_frames)


def apply_cms(features: FeatureMatrix) -> FeatureMatrix:
    """Subtract the mean of the speech frames from the speech frames.

    Non-speech rows are left untouched (they are excluded downstream anyway).
    Applying the operation twice changes nothing.
    """
    if not features.speech_mask.any():
        raise NoSpeechError("cannot compute cepstral mean: no speech frames")
    out = features.frames.astype(np.float64)
    mean = out[features.speech_mask].mean(axis=0)
    out[features.speech_mask] -= mean
    return FeatureMatrix(frames=out, speech_mask=features.speech_mask.copy())


def apply_fmllr(features: FeatureMatrix, transform: FmllrTransform) -> FeatureMatrix:
    """Apply the affine transform o' = A o + b to every frame."""
    if transform.dim != features.dim:
        raise ShapeError(
            f"fMLLR dimension {transform.dim} does not match feature dim {features.dim}"
        )
    out = features.frames @ transform.a.T + transform.b
    return FeatureMatrix(frames=out, speech_mask=features.speech_mask.copy())


def _numbered_lines(path: str | Path) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, stripped, with their 1-based
    line numbers in the file."""
    return [
        (i, line.strip())
        for i, line in enumerate(read_text(path).splitlines(), start=1)
        if line.strip()
    ]


def load_fmllr(path: str | Path) -> FmllrTransform:
    """Read an affine transform from a text file.

    Line 1 is the dimension D; the next D lines hold D+1 whitespace-separated
    finite reals, one row of [A | b] each.
    """
    lines = _numbered_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty fMLLR file")
    try:
        dim = int(lines[0][1])
    except ValueError as exc:
        raise FormatError(f"{path}: first line must be the dimension") from exc
    if dim <= 0 or len(lines) != dim + 1:
        raise FormatError(
            f"{path}: expected {max(dim, 0) + 1} lines for dimension {dim}, "
            f"got {len(lines)}"
        )
    rows = []
    for i, line in lines[1:]:
        parts = line.split()
        if len(parts) != dim + 1:
            raise FormatError(f"{path}:{i}: expected {dim + 1} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"{path}:{i}: non-numeric value") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise FormatError(f"{path}:{i}: non-finite value")
    matrix = np.asarray(rows)
    return FmllrTransform(a=matrix[:, :dim], b=matrix[:, dim])


def load_sad_mask(
    path: str | Path,
    count: int,
    sample_rate_hz: int,
    cfg: FrontendConfig,
) -> np.ndarray:
    """Read an externally supplied speech mask for a recording.

    Two formats are accepted and auto-detected per file:

    * one ``0``/``1`` per line, exactly `count` lines (frame mask);
    * ``start end`` seconds per line (speech segments); a frame is speech
      when its centre falls inside a segment.  An ``inf`` end runs to the
      end of the recording; a ``nan`` bound is rejected.
    """
    lines = _numbered_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty speech-mask file")
    first = lines[0][1].split()
    if len(first) == 2:
        segments = []
        for i, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{path}:{i}: expected 'start end'")
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{i}: non-numeric segment bound") from exc
            if math.isnan(start) or math.isnan(end):
                raise FormatError(f"{path}:{i}: segment bound is not a number")
            if end <= start:
                raise FormatError(f"{path}:{i}: segment end must exceed start")
            segments.append((start, end))
        frame_len, shift = frame_geometry(sample_rate_hz, cfg)
        centers = (np.arange(count) * shift + frame_len / 2.0) / sample_rate_hz
        mask = np.zeros(count, dtype=bool)
        for start, end in segments:
            mask |= (centers >= start) & (centers < end)
        return mask
    if len(first) == 1:
        if len(lines) != count:
            raise AlignmentError(
                f"{path}: mask has {len(lines)} lines but the recording has "
                f"{count} frames"
            )
        mask = np.zeros(count, dtype=bool)
        for frame, (i, line) in enumerate(lines):
            if line not in ("0", "1"):
                raise FormatError(f"{path}:{i}: mask entries must be 0 or 1")
            mask[frame] = line == "1"
        return mask
    raise FormatError(f"{path}: unrecognised speech-mask format")
