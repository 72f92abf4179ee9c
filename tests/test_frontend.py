import math
import struct
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivnda.config import FrontendConfig, SadConfig
from ivnda.errors import (
    AlignmentError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
    MatrixError,
    NoSpeechError,
    ShapeError,
    UnsupportedFormatError,
)
from ivnda.frontend import (
    PCM_SCALE,
    SUPPORTED_RATES,
    AudioSignal,
    FeatureMatrix,
    WorkBuffers,
    _energy_and_zcr,
    _mfcc_constants,
    append_deltas,
    apply_cms,
    apply_fmllr,
    check_config,
    compute_mfcc,
    detect_speech,
    fft_size,
    frame_geometry,
    hz_to_mel,
    load_fmllr,
    load_sad_mask,
    mel_filterbank,
    mel_to_hz,
    read_wav,
    smooth_mask,
    write_wav,
)

from helpers import (
    reference_deltas,
    reference_detect_speech,
    reference_energy_zcr,
    reference_mfcc,
    reference_smooth_mask,
)

# --- independent oracle ----------------------------------------------------
# Naive per-frame reimplementation of the documented MFCC algorithm using
# explicit loops and textbook formulas; shares no code with the module.


def oracle_mfcc(samples: np.ndarray, sample_rate: int, cfg: FrontendConfig):
    frame_len = int(round(cfg.frame_len_ms * sample_rate / 1000.0))
    shift = int(round(cfg.frame_shift_ms * sample_rate / 1000.0))
    nfft = 512 if sample_rate == 8000 else 1024
    nbins = nfft // 2 + 1

    emphasized = [samples[0]]
    for i in range(1, len(samples)):
        emphasized.append(samples[i] - cfg.preemphasis * samples[i - 1])
    emphasized = np.asarray(emphasized)

    window = np.array(
        [
            0.54 - 0.46 * math.cos(2.0 * math.pi * n / (frame_len - 1))
            for n in range(frame_len)
        ]
    )

    # triangular filters evaluated at the continuous bin frequencies
    nyquist_mel = 2595.0 * math.log10(1.0 + (sample_rate / 2.0) / 700.0)
    edges = [
        700.0 * (10.0 ** ((nyquist_mel * j / (cfg.num_filters + 1)) / 2595.0) - 1.0)
        for j in range(cfg.num_filters + 2)
    ]
    bank = np.zeros((cfg.num_filters, nbins))
    for j in range(cfg.num_filters):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        for b in range(nbins):
            f = b * sample_rate / nfft
            if lo <= f <= mid:
                bank[j, b] = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                bank[j, b] = (hi - f) / (hi - mid)

    count = (len(samples) - frame_len) // shift + 1
    out = np.zeros((count, cfg.num_ceps))
    for t in range(count):
        frame = emphasized[t * shift : t * shift + frame_len] * window
        spectrum = np.zeros(nbins)
        for k in range(nbins):
            re = im = 0.0
            for n in range(frame_len):
                angle = -2.0 * math.pi * k * n / nfft
                re += frame[n] * math.cos(angle)
                im += frame[n] * math.sin(angle)
            spectrum[k] = re * re + im * im
        mel_energy = bank @ spectrum
        logs = np.log(np.maximum(mel_energy, cfg.log_floor))
        for k in range(cfg.num_ceps):
            total = sum(
                logs[n] * math.cos(math.pi * k * (2 * n + 1) / (2 * cfg.num_filters))
                for n in range(cfg.num_filters)
            )
            scale = (
                math.sqrt(1.0 / cfg.num_filters)
                if k == 0
                else math.sqrt(2.0 / cfg.num_filters)
            )
            out[t, k] = scale * total
    return out


def write_pcm16(path, samples_int16, sample_rate):
    """Write a WAV directly (independent of the module's writer)."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(struct.pack(f"<{len(samples_int16)}h", *samples_int16))


# --- WAV reading -----------------------------------------------------------


def test_read_wav_full_scale_sine(tmp_path):
    sr = 8000
    t = np.arange(sr)
    pcm = np.round(32767 * np.sin(2 * np.pi * 440 * t / sr)).astype(np.int64)
    write_pcm16(tmp_path / "tone.wav", [int(v) for v in pcm], sr)
    signal = read_wav(tmp_path / "tone.wav")
    assert signal.sample_rate_hz == sr
    assert signal.samples.dtype == np.float64
    assert signal.samples.max() == pytest.approx(0.999969482421875, abs=0)
    assert signal.samples.min() >= -1.0


def test_read_wav_matches_scipy(tmp_path, rng):
    from scipy.io import wavfile

    pcm = rng.integers(-30000, 30000, size=1600, dtype=np.int16)
    write_pcm16(tmp_path / "x.wav", [int(v) for v in pcm], 16000)
    ours = read_wav(tmp_path / "x.wav")
    sr, theirs = wavfile.read(tmp_path / "x.wav")
    assert sr == 16000
    np.testing.assert_array_equal(ours.samples, theirs.astype(np.float64) / 32768.0)


def test_wav_round_trip(tmp_path, rng):
    samples = rng.uniform(-0.9, 0.9, size=4000)
    write_wav(tmp_path / "r.wav", AudioSignal(samples=samples, sample_rate_hz=8000))
    back = read_wav(tmp_path / "r.wav")
    # one round of 16-bit quantisation
    np.testing.assert_allclose(back.samples, samples, atol=1.0 / 32768.0)


def test_read_wav_rejects_stereo(tmp_path):
    with wave.open(str(tmp_path / "st.wav"), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00" * 200)
    with pytest.raises(UnsupportedFormatError):
        read_wav(tmp_path / "st.wav")


def test_read_wav_rejects_unknown_rate(tmp_path):
    write_pcm16(tmp_path / "odd.wav", [0] * 500, 11025)
    with pytest.raises(UnsupportedFormatError):
        read_wav(tmp_path / "odd.wav")


def test_read_wav_rejects_garbage(tmp_path):
    (tmp_path / "bad.wav").write_bytes(b"not a wav file at all")
    with pytest.raises(FormatError):
        read_wav(tmp_path / "bad.wav")


# --- geometry and mel scale ------------------------------------------------


@pytest.mark.parametrize(
    "sr,expected_len,expected_shift", [(8000, 200, 80), (16000, 400, 160)]
)
def test_frame_geometry(sr, expected_len, expected_shift):
    cfg = FrontendConfig()
    assert frame_geometry(sr, cfg) == (expected_len, expected_shift)


@pytest.mark.parametrize("sr", [8000, 16000])
def test_one_second_yields_98_frames(sr):
    signal = AudioSignal(samples=np.full(sr, 0.1), sample_rate_hz=sr)
    assert compute_mfcc(signal, FrontendConfig()).num_frames == 98
    assert detect_speech(signal, FrontendConfig()).size == 98


def test_fft_sizes():
    assert fft_size(8000) == 512
    assert fft_size(16000) == 1024


def test_mel_scale_frozen_values():
    assert hz_to_mel(0.0) == 0.0
    assert hz_to_mel(1000.0) == pytest.approx(999.9855371396244, rel=1e-12)
    assert hz_to_mel(8000.0) == pytest.approx(2840.023046708319, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=8000.0))
def test_mel_scale_round_trip(freq):
    assert mel_to_hz(hz_to_mel(freq)) == pytest.approx(freq, abs=1e-6)


def test_mel_scale_monotone():
    freqs = np.linspace(0, 8000, 500)
    mels = hz_to_mel(freqs)
    assert np.all(np.diff(mels) > 0)


@pytest.mark.parametrize("sr,nfft", [(8000, 512), (16000, 1024)])
def test_filterbank_shape_and_support(sr, nfft):
    bank = mel_filterbank(24, nfft, sr)
    assert bank.shape == (24, nfft // 2 + 1)
    assert np.all(bank >= 0.0)
    assert np.all(bank <= 1.0 + 1e-12)
    # every filter has mass, and band centres step up in frequency
    assert np.all(bank.sum(axis=1) > 0)
    peak_bins = bank.argmax(axis=1)
    assert np.all(np.diff(peak_bins) > 0)


# --- MFCC vs oracle --------------------------------------------------------


@pytest.mark.parametrize("sr", [8000, 16000])
def test_mfcc_matches_naive_oracle(sr, rng):
    samples = rng.uniform(-0.5, 0.5, size=int(0.06 * sr) + 37)
    signal = AudioSignal(samples=samples, sample_rate_hz=sr)
    cfg = FrontendConfig()
    got = compute_mfcc(signal, cfg)
    want = oracle_mfcc(samples, sr, cfg)
    assert got.frames.shape == want.shape == (got.num_frames, 13)
    np.testing.assert_allclose(got.frames, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("num_filters,num_ceps", [(24, 13), (24, 24), (40, 20), (23, 1)])
def test_cached_dct_basis_matches_scipy_dct(rng, num_filters, num_ceps):
    """The basis compute_mfcc multiplies by is scipy's orthonormal DCT-II,
    truncated to num_ceps coefficients, and cannot be written to."""
    from scipy.fft import dct

    basis = _mfcc_constants(8000, 200, num_filters, num_ceps)[2]
    assert basis.shape == (num_filters, num_ceps)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    log_energies = rng.uniform(-25.0, 10.0, size=(50, num_filters))
    want = dct(log_energies, type=2, norm="ortho", axis=1)[:, :num_ceps]
    scale = np.abs(want).max()
    np.testing.assert_allclose(log_energies @ basis, want, rtol=0, atol=1e-13 * scale)


def test_mfcc_flooring_handles_silence():
    signal = AudioSignal(samples=np.zeros(1600), sample_rate_hz=8000)
    feats = compute_mfcc(signal, FrontendConfig())
    assert np.isfinite(feats.frames).all()
    # all filterbank outputs hit the floor, so c0 is fully determined
    expected_c0 = math.sqrt(24) * math.log(1e-10)
    np.testing.assert_allclose(feats.frames[:, 0], expected_c0, rtol=1e-12)
    np.testing.assert_allclose(feats.frames[:, 1:], 0.0, atol=1e-9)


def test_mfcc_too_short_signal():
    with pytest.raises(EmptyInputError):
        compute_mfcc(
            AudioSignal(samples=np.zeros(100), sample_rate_hz=8000),
            FrontendConfig(),
        )


def test_mfcc_is_deterministic(rng):
    samples = rng.uniform(-0.5, 0.5, size=2000)
    signal = AudioSignal(samples=samples, sample_rate_hz=8000)
    a = compute_mfcc(signal, FrontendConfig())
    b = compute_mfcc(signal, FrontendConfig())
    np.testing.assert_array_equal(a.frames, b.frames)


# --- strided frontend against the gather references, bit for bit ----------


def _reference_case(sr: int, case: str) -> np.ndarray:
    """Test signals on the int16 grid (as read from WAV), so exact zeros
    occur; "one-frame" is exactly one frame long."""
    rng = np.random.default_rng(sr)
    frame_len, _ = frame_geometry(sr, FrontendConfig())
    if case == "bursts":
        x = _bursty_signal(sr).samples + rng.normal(0.0, 1e-3, int(2.7 * sr))
    elif case == "zeros":
        x = rng.normal(0.0, 1e-4, sr)
    else:
        x = rng.normal(0.0, 1e-4, frame_len)
    x = np.round(x * PCM_SCALE) / PCM_SCALE
    assert (x == 0.0).any()
    return x


@pytest.mark.parametrize("case", ["bursts", "zeros", "one-frame"])
@pytest.mark.parametrize("sr", SUPPORTED_RATES)
def test_frontend_matches_gather_references_bit_for_bit(sr, case):
    cfg = FrontendConfig()
    signal = AudioSignal(samples=_reference_case(sr, case), sample_rate_hz=sr)
    frame_len, shift = frame_geometry(sr, cfg)

    mfcc = compute_mfcc(signal, cfg)
    assert mfcc.frames.tobytes() == reference_mfcc(signal, cfg).tobytes()
    energy, zcr = _energy_and_zcr(signal.samples, frame_len, shift)
    ref_energy, ref_zcr = reference_energy_zcr(signal.samples, frame_len, shift)
    assert energy.tobytes() == ref_energy.tobytes()
    assert zcr.tobytes() == ref_zcr.tobytes()
    mask = detect_speech(signal, cfg)
    assert mask.tobytes() == reference_detect_speech(signal, cfg).tobytes()
    if case == "bursts":
        assert mask.any() and not mask.all()
    if case == "one-frame":
        assert mfcc.num_frames == 1
    else:
        deltas = append_deltas(mfcc, cfg.delta_context)
        want = reference_deltas(mfcc.frames, cfg.delta_context)
        assert deltas.frames.tobytes() == want.tobytes()


def test_reused_buffers_match_fresh_ones_and_references_bit_for_bit():
    """One buffer set through long, short and long recordings, then a
    change of rate and back: each result equals a fresh call's and the
    gather references'."""
    cfg = FrontendConfig()
    buffers = WorkBuffers()
    for sr, case in [(8000, "bursts"), (8000, "one-frame"), (8000, "bursts"),
                     (16000, "bursts"), (16000, "zeros"), (8000, "zeros")]:
        signal = AudioSignal(samples=_reference_case(sr, case), sample_rate_hz=sr)
        mfcc = compute_mfcc(signal, cfg, buffers=buffers).frames.tobytes()
        assert mfcc == compute_mfcc(signal, cfg).frames.tobytes()
        assert mfcc == reference_mfcc(signal, cfg).tobytes()
        mask = detect_speech(signal, cfg, buffers=buffers).tobytes()
        assert mask == detect_speech(signal, cfg).tobytes()
        assert mask == reference_detect_speech(signal, cfg).tobytes()


def test_results_share_no_memory_with_the_buffers():
    """A recording's features and mask survive the next recording computed
    in the same buffers."""
    cfg = FrontendConfig()
    buffers = WorkBuffers()
    first = AudioSignal(samples=_reference_case(8000, "bursts"), sample_rate_hz=8000)
    mfcc = compute_mfcc(first, cfg, buffers=buffers)
    mask = detect_speech(first, cfg, buffers=buffers)
    kept = mfcc.frames.tobytes(), mask.tobytes()
    second = AudioSignal(samples=_reference_case(8000, "zeros")[::-1].copy(), sample_rate_hz=8000)
    compute_mfcc(second, cfg, buffers=buffers)
    detect_speech(second, cfg, buffers=buffers)
    assert (mfcc.frames.tobytes(), mask.tobytes()) == kept
    for buf in buffers._arrays.values():
        assert not np.shares_memory(buf, mfcc.frames)
        assert not np.shares_memory(buf, mask)


@pytest.mark.parametrize("context", [1, 2, 3])
def test_deltas_match_padded_reference_bit_for_bit(rng, context):
    for t in (2 * context + 1, 2 * context + 2, 40):
        frames = rng.normal(size=(t, 5))
        frames[t // 2] = frames[t // 2 - 1]  # exact zero differences
        got = append_deltas(FeatureMatrix(frames=frames), context)
        assert got.frames.tobytes() == reference_deltas(frames, context).tobytes()


@pytest.mark.parametrize("window", [3, 5, 7])
def test_smooth_mask_matches_padded_reference(rng, window):
    for size in (1, 2, window, 50):
        mask = rng.random(size) < 0.5
        np.testing.assert_array_equal(
            smooth_mask(mask, window), reference_smooth_mask(mask, window)
        )


def test_check_config_accepts_the_defaults():
    check_config(FrontendConfig())


@pytest.mark.parametrize(
    "changes,key",
    [
        ({"frame_len_ms": 64.0}, None),  # 512 samples at 8 kHz, 1024 at 16 kHz
        ({"frame_len_ms": 64.1}, "frame_len_ms"),  # one sample past both FFTs
        ({"frame_len_ms": 0.15}, "frame_len_ms"),  # 1 sample at 8 kHz, 2 at 16 kHz
        ({"frame_shift_ms": 0.05}, "frame_shift_ms"),  # 0 at 8 kHz, 1 at 16 kHz
        ({"num_ceps": 24}, None),
        ({"num_ceps": 0}, "num_ceps"),
        ({"num_filters": 0, "num_ceps": 0}, "num_filters"),
        ({"delta_context": 0, "include_deltas": False}, None),
        ({"sad": SadConfig(smooth_frames=1)}, None),
        ({"sad": SadConfig(smooth_frames=2)}, "smooth_frames"),
    ],
)
def test_check_config_frame_geometry_at_both_rates(changes, key):
    cfg = FrontendConfig(**changes)
    if key is None:
        check_config(cfg)
    else:
        with pytest.raises(FormatError, match=key):
            check_config(cfg)


# --- deltas ----------------------------------------------------------------


def test_deltas_triple_dimension(rng):
    feats = FeatureMatrix(frames=rng.normal(size=(40, 13)))
    out = append_deltas(feats, context=2)
    assert out.frames.shape == (40, 39)
    np.testing.assert_array_equal(out.frames[:, :13], feats.frames)


def test_delta_of_linear_ramp_is_slope():
    t = np.arange(30, dtype=np.float64)
    slope = np.array([0.7, -1.2, 3.0])
    frames = t[:, None] * slope[None, :] + 5.0
    out = append_deltas(
        FeatureMatrix(frames=frames), context=2
    )
    dim = 3
    deltas = out.frames[:, dim : 2 * dim]
    delta2 = out.frames[:, 2 * dim :]
    # interior frames see an exact linear window -> slope recovered exactly
    for i in range(2, 28):
        np.testing.assert_allclose(deltas[i], slope, rtol=1e-12)
    np.testing.assert_allclose(delta2[4:-4], 0.0, atol=1e-12)


def test_delta_matches_direct_regression(rng):
    frames = rng.normal(size=(25, 4))
    out = append_deltas(
        FeatureMatrix(frames=frames), context=2
    )
    denom = 2.0 * (1 + 4)
    for t in range(25):
        acc = np.zeros(4)
        for j in (1, 2):
            hi = frames[min(t + j, 24)]
            lo = frames[max(t - j, 0)]
            acc += j * (hi - lo)
        np.testing.assert_allclose(out.frames[t, 4:8], acc / denom, rtol=1e-12)


def test_deltas_need_five_frames():
    with pytest.raises(InsufficientDataError):
        append_deltas(
            FeatureMatrix(frames=np.zeros((4, 3))), context=2
        )


def test_deltas_preserve_mask(rng):
    mask = np.array([True, False, True, True, False, True, True, True])
    feats = FeatureMatrix(frames=rng.normal(size=(8, 3)), speech_mask=mask)
    out = append_deltas(feats, context=2)
    np.testing.assert_array_equal(out.speech_mask, mask)


# --- speech detection ------------------------------------------------------


def _bursty_signal(sr=8000, burst=(0.5, 1.0, 1.7, 2.2), level=0.3):
    """level-amplitude 300 Hz tone bursts over near-silence."""
    duration = 2.7
    n = int(duration * sr)
    t = np.arange(n) / sr
    x = np.zeros(n)
    for start, end in zip(burst[::2], burst[1::2]):
        seg = (t >= start) & (t < end)
        x[seg] = level * np.sin(2 * np.pi * 300 * t[seg])
    return AudioSignal(samples=x, sample_rate_hz=sr)


def test_detect_speech_silence_is_all_false():
    signal = AudioSignal(samples=np.zeros(8000), sample_rate_hz=8000)
    mask = detect_speech(signal, FrontendConfig())
    assert mask.dtype == bool
    assert not mask.any()


def test_detect_speech_finds_bursts():
    cfg = FrontendConfig()
    signal = _bursty_signal()
    mask = detect_speech(signal, cfg)
    frame_len, shift = frame_geometry(signal.sample_rate_hz, cfg)
    centers = (np.arange(mask.size) * shift + frame_len / 2.0) / 8000.0
    in_burst = ((centers > 0.55) & (centers < 0.95)) | (
        (centers > 1.75) & (centers < 2.15)
    )
    deep_silence = ((centers > 0.05) & (centers < 0.45)) | (
        (centers > 1.1) & (centers < 1.6)
    )
    assert mask[in_burst].all()
    assert not mask[deep_silence].any()


def test_detect_speech_homogeneous_recording_is_all_speech():
    sr = 8000
    t = np.arange(2 * sr) / sr
    signal = AudioSignal(
        samples=0.2 * np.sin(2 * np.pi * 250 * t), sample_rate_hz=sr
    )
    mask = detect_speech(signal, FrontendConfig())
    assert mask.all()


def _rescue_signal():
    """A quiet white-noise (high ZCR) segment just below the energy threshold.

    Levels: bed -65 dB, noise segment (1.0-1.5 s) -52 dB, tone -9 dB; the
    adaptive threshold lands near -48 dB, so the segment only survives via
    the 6 dB zero-crossing rescue.
    """
    sr = 8000
    gen = np.random.default_rng(99)
    n = 3 * sr
    t = np.arange(n) / sr
    x = gen.normal(0.0, 10 ** (-65 / 20), size=n)
    tone = (t >= 2.0) & (t < 3.0)
    x[tone] = 0.5 * np.sin(2 * np.pi * 200 * t[tone])
    noise = (t >= 1.0) & (t < 1.5)
    x[noise] = gen.normal(0.0, 10 ** (-52 / 20), size=noise.sum())
    return AudioSignal(samples=x, sample_rate_hz=sr)


def test_detect_speech_zcr_rescue():
    # the noise segment is kept with the default margin, dropped when the
    # margin is zero
    signal = _rescue_signal()
    sr = signal.sample_rate_hz
    cfg = FrontendConfig()
    with_rescue = detect_speech(signal, cfg)
    cfg_no = FrontendConfig(sad=SadConfig(zcr_margin_db=0.0))
    without = detect_speech(signal, cfg_no)

    frame_len, shift = frame_geometry(sr, cfg)
    centers = (np.arange(with_rescue.size) * shift + frame_len / 2.0) / sr
    noise_interior = (centers > 1.1) & (centers < 1.4)
    assert with_rescue[noise_interior].all()
    assert not without[noise_interior].any()


def test_detect_speech_frame_at_the_floor_is_not_speech():
    # A DC signal gives every frame one energy; with the floor set to it,
    # no frame is above the floor.
    sr = 8000
    signal = AudioSignal(samples=np.full(sr, 0.1), sample_rate_hz=sr)
    frame_len, shift = frame_geometry(sr, FrontendConfig())
    energy, _ = _energy_and_zcr(signal.samples, frame_len, shift)
    assert np.unique(energy).size == 1
    cfg = FrontendConfig(sad=SadConfig(floor_db=float(energy[0])))
    mask = detect_speech(signal, cfg)
    assert mask.size == energy.size and not mask.any()


def test_detect_speech_rescues_a_frame_at_the_zcr_threshold():
    # The quiet noise frames of _rescue_signal survive only by the
    # zero-crossing rescue; a threshold equal to one frame's own rate keeps it.
    signal = _rescue_signal()
    frame_len, shift = frame_geometry(signal.sample_rate_hz, FrontendConfig())
    _, zcr = _energy_and_zcr(signal.samples, frame_len, shift)
    unsmoothed = dict(smooth_frames=1)
    rescued = detect_speech(signal, FrontendConfig(sad=SadConfig(**unsmoothed)))
    loud = detect_speech(signal, FrontendConfig(sad=SadConfig(zcr_margin_db=0.0, **unsmoothed)))
    quiet = np.flatnonzero(rescued & ~loud)
    assert quiet.size > 0
    i = quiet[np.argmax(zcr[quiet])]
    at_threshold = SadConfig(zcr_threshold=float(zcr[i]), **unsmoothed)
    assert detect_speech(signal, FrontendConfig(sad=at_threshold))[i]


@pytest.mark.parametrize(
    "before,after",
    [
        ([1, 1, 0, 1, 1], [1, 1, 1, 1, 1]),          # short dropout filled
        ([0, 0, 1, 0, 0], [0, 0, 0, 0, 0]),          # isolated blip removed
        ([1, 1, 1, 0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0, 1, 1, 1]),  # gap kept
        ([1, 1, 0, 0, 1, 1], [1, 1, 1, 1, 1, 1]),    # 2-frame gap filled
    ],
)
def test_smooth_mask_majority_vote(before, after):
    got = smooth_mask(np.array(before, dtype=bool), 5)
    np.testing.assert_array_equal(got, np.array(after, dtype=bool))


def test_smooth_mask_window_one_is_identity(rng):
    mask = rng.random(20) > 0.5
    np.testing.assert_array_equal(smooth_mask(mask, 1), mask)


# --- CMS -------------------------------------------------------------------


def test_cms_zeroes_speech_mean(rng):
    mask = np.concatenate([np.ones(30, bool), np.zeros(10, bool)])
    feats = FeatureMatrix(
        frames=rng.normal(2.0, 1.0, size=(40, 13)),
        speech_mask=mask,
    )
    out = apply_cms(feats)
    np.testing.assert_allclose(
        out.frames[mask].mean(axis=0), 0.0, atol=1e-12
    )
    np.testing.assert_array_equal(out.frames[~mask], feats.frames[~mask])


def test_cms_is_idempotent(rng):
    feats = FeatureMatrix(frames=rng.normal(1.0, 2.0, size=(25, 6)))
    once = apply_cms(feats)
    twice = apply_cms(once)
    np.testing.assert_allclose(twice.frames, once.frames, atol=1e-12)


def test_cms_requires_speech(rng):
    feats = FeatureMatrix(
        frames=rng.normal(size=(10, 3)),
        speech_mask=np.zeros(10, dtype=bool),
    )
    with pytest.raises(NoSpeechError):
        apply_cms(feats)


# --- fMLLR -----------------------------------------------------------------


def test_fmllr_applies_affine_map(rng):
    from ivnda.frontend import FmllrTransform

    a = rng.normal(size=(5, 5)) + 3 * np.eye(5)
    b = rng.normal(size=5)
    feats = FeatureMatrix(frames=rng.normal(size=(12, 5)))
    out = apply_fmllr(feats, FmllrTransform(a=a, b=b))
    want = feats.frames @ a.T + b
    np.testing.assert_allclose(out.frames, want, rtol=1e-12)


def test_fmllr_dim_mismatch(rng):
    from ivnda.frontend import FmllrTransform

    tr = FmllrTransform(a=np.eye(4), b=np.zeros(4))
    feats = FeatureMatrix(frames=rng.normal(size=(6, 5)))
    with pytest.raises(ShapeError):
        apply_fmllr(feats, tr)


def test_fmllr_singular_matrix_rejected():
    from ivnda.frontend import FmllrTransform

    with pytest.raises(MatrixError):
        FmllrTransform(a=np.zeros((3, 3)), b=np.zeros(3))


@pytest.mark.parametrize("where", ["a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fmllr_non_finite_entries_rejected_without_a_warning(where, bad):
    """Checked before the determinant, which would warn on an infinite A
    and then call it singular."""
    from ivnda.frontend import FmllrTransform

    a, b = np.eye(3), np.zeros(3)
    (a[1] if where == "a" else b)[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixError, match="must be finite"):
            FmllrTransform(a=a, b=b)


def test_load_fmllr_round_trip(tmp_path, rng):
    a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    b = rng.normal(size=3)
    lines = ["3"]
    for i in range(3):
        lines.append(" ".join(f"{v:.17g}" for v in [*a[i], b[i]]))
    path = tmp_path / "t.fmllr"
    path.write_text("\n".join(lines) + "\n")
    tr = load_fmllr(path)
    np.testing.assert_allclose(tr.a, a, rtol=1e-15)
    np.testing.assert_allclose(tr.b, b, rtol=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "",                           # empty
        "x\n1 0 1\n",                 # bad dimension line
        "2\n1 0 0\n",                 # missing row
        "2\n1 0 0\n0 1\n",            # short row
        "2\n1 0 0\n0 one 0\n",        # non-numeric
        "2\n1 0 nan\n0 1 0\n",        # NaN offset
        "2\n1 0 0\n0 1 -inf\n",       # infinite offset
        "2\ninf 0 0\n0 1 0\n",        # infinite entry of A
    ],
)
def test_load_fmllr_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.fmllr"
    path.write_text(text)
    with pytest.raises(FormatError):
        load_fmllr(path)


# --- external speech masks -------------------------------------------------


def test_sad_mask_binary_format(tmp_path):
    path = tmp_path / "m.sad"
    path.write_text("1\n0\n1\n1\n0\n")
    mask = load_sad_mask(path, 5, 8000, FrontendConfig())
    np.testing.assert_array_equal(mask, [True, False, True, True, False])


def test_sad_mask_binary_count_mismatch(tmp_path):
    path = tmp_path / "m.sad"
    path.write_text("1\n0\n1\n")
    with pytest.raises(AlignmentError):
        load_sad_mask(path, 5, 8000, FrontendConfig())


def test_sad_mask_infinite_end_runs_to_the_last_frame(tmp_path):
    cfg = FrontendConfig()
    path = tmp_path / "m.sad"
    path.write_text("0.10 inf\n")
    count = 60
    mask = load_sad_mask(path, count, 8000, cfg)
    frame_len, shift = frame_geometry(8000, cfg)
    centers = (np.arange(count) * shift + frame_len / 2.0) / 8000.0
    np.testing.assert_array_equal(mask, centers >= 0.10)
    assert mask[-1] and not mask[0]


def test_sad_mask_segments_select_frame_centers(tmp_path):
    cfg = FrontendConfig()
    path = tmp_path / "m.sad"
    path.write_text("0.10 0.30\n0.50 0.60\n")
    count = 60
    mask = load_sad_mask(path, count, 8000, cfg)
    frame_len, shift = frame_geometry(8000, cfg)
    centers = (np.arange(count) * shift + frame_len / 2.0) / 8000.0
    want = ((centers >= 0.10) & (centers < 0.30)) | (
        (centers >= 0.50) & (centers < 0.60)
    )
    np.testing.assert_array_equal(mask, want)
    assert mask.any() and not mask.all()


@pytest.mark.parametrize(
    "text",
    [
        "",                  # empty file
        "0.5 0.2\n",         # end before start
        "0.1 0.2 0.3\n",     # three columns
        "2\n1\n",            # binary but bad symbol
        "0.1 nan\n",         # NaN end
        "nan 0.2\n",         # NaN start
        "0.1 0.2\nnan nan\n",  # NaN segment after a good one
    ],
)
def test_sad_mask_rejects_malformed(tmp_path, text):
    path = tmp_path / "m.sad"
    path.write_text(text)
    with pytest.raises((FormatError, AlignmentError)):
        load_sad_mask(path, 2, 8000, FrontendConfig())


@pytest.mark.parametrize(
    "load, text, where",
    [
        ("mask", "0.1 0.2\n\n\n0.5 0.2\n", ":4: segment end must exceed start"),
        ("mask", "1\n\n0\n\n2\n", ":5: mask entries must be 0 or 1"),
        ("fmllr", "2\n\n1 0 0\n\n0 one 0\n", ":5: non-numeric value"),
        ("mask", "0.1 0.2\n\n0.5 nan\n", ":3: segment bound is not a number"),
        ("fmllr", "2\n\n1 0 0\n0 1 nan\n", ":4: non-finite value"),
    ],
    ids=["segments", "frames", "fmllr", "nan-segment", "nan-fmllr"],
)
def test_text_errors_count_blank_lines(tmp_path, load, text, where):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        if load == "mask":
            load_sad_mask(path, 3, 8000, FrontendConfig())
        else:
            load_fmllr(path)
    assert str(exc.value) == f"{path}{where}"


# --- feature matrix container ---------------------------------------------


def test_speech_frames_filters_rows(rng):
    mask = np.array([True, False, True])
    feats = FeatureMatrix(frames=rng.normal(size=(3, 2)), speech_mask=mask)
    np.testing.assert_array_equal(feats.speech_frames(), feats.frames[[0, 2]])


def test_feature_matrix_keeps_float32_and_widens_everything_else(rng):
    assert FeatureMatrix(np.ones((3, 2), np.float32)).frames.dtype == np.float32
    for dtype in (np.float16, np.int32, np.float64):
        frames = FeatureMatrix(np.ones((3, 2), dtype)).frames
        assert frames.dtype == np.float64


def test_transforms_of_float32_frames_are_float64(rng):
    """Deltas, CMS and fMLLR of a float32 record (as read from ``.ivfa``)
    compute in float64, bit for bit as on the widened frames."""
    from ivnda.frontend import FmllrTransform

    mask = rng.random(40) < 0.7
    single = FeatureMatrix(rng.normal(size=(40, 4)).astype(np.float32), mask)
    double = FeatureMatrix(single.frames.astype(np.float64), mask)
    transform = FmllrTransform(a=np.eye(4) + 0.1 * rng.normal(size=(4, 4)), b=rng.normal(size=4))
    for apply in (lambda f: append_deltas(f, 2), apply_cms, lambda f: apply_fmllr(f, transform)):
        got, want = apply(single).frames, apply(double).frames
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_feature_matrix_rejects_mismatched_mask(rng):
    with pytest.raises(AlignmentError):
        FeatureMatrix(
            frames=rng.normal(size=(4, 2)),
            speech_mask=np.ones(3, dtype=bool),
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=5, max_value=60), st.integers(min_value=1, max_value=8))
def test_delta_dimension_property(t, d):
    gen = np.random.default_rng(t * 100 + d)
    feats = FeatureMatrix(frames=gen.normal(size=(t, d)))
    out = append_deltas(feats, context=2)
    assert out.frames.shape == (t, 3 * d)
