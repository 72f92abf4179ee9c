"""Workload definitions: corpus synthesis, recipe stages and accuracy ceilings.

Every workload runs the recipe through ``ivnda.cli.main``, one call per
stage, the way ``scripts/run_synthetic_pipeline.py`` does.  Stage argument
lists use three placeholders that a repetition fills in: ``{corpus}`` (the
synthesised inputs, read only), ``{out}`` (this repetition's artifacts) and
``{seed}`` (the workload seed).
"""

from __future__ import annotations

from dataclasses import dataclass

TRAIN, EVAL = "train", "eval"
# One worker thread and one BLAS thread for every stage: no stage runs more
# compute threads than the 2 cores of the reference box, and spans never
# overlap, so per-layer self times add up to the recipe time.
WORKERS = 1
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: list[str]
    config: str                       # INI text written next to the corpus
    stages: list[tuple[str, list[str]]]  # (phase, argv)
    eer_ceiling_pct: float
    expected_trials: int
    sizes: dict


def _ivectors(split: str, inputs: str = "{out}") -> list[str]:
    """Extract i-vectors for `split` from statistics and UBM under `inputs`."""
    return [
        "extract-ivectors", "--stats", f"{inputs}/{split}.ivbw", "--ubm", f"{inputs}/ubm.ivgm",
        "--tv", "{out}/tv.ivtv", "--out", f"{{out}}/{split}.iviv",
    ]


def _backend(da: list[str], ivectors: str) -> tuple[list, list]:
    """Shared DA/PLDA training and score/evaluate stages."""
    train = [
        (TRAIN, ["train-da", "--ivectors", f"{ivectors}/train.iviv",
                 "--manifest", "{corpus}/train.manifest", "--out", "{out}/proj.ivda", *da]),
        (TRAIN, ["train-plda", "--ivectors", f"{ivectors}/train.iviv",
                 "--manifest", "{corpus}/train.manifest", "--projection", "{out}/proj.ivda",
                 "--out", "{out}/plda.ivpl", "--normalizer-out", "{out}/norm.ivnz"]),
    ]
    evaluate = [
        (EVAL, ["score", "--enroll", f"{ivectors}/enroll.iviv", "--test", f"{ivectors}/test.iviv",
                "--trials", "{corpus}/trials.txt", "--projection", "{out}/proj.ivda",
                "--normalizer", "{out}/norm.ivnz", "--plda", "{out}/plda.ivpl",
                "--out", "{out}/scores.txt"]),
        (EVAL, ["evaluate", "--scores", "{out}/scores.txt", "--key", "{corpus}/key.txt"]),
    ]
    return train, evaluate


def stats_tv(s: dict) -> Workload:
    """Planted-subspace statistics: TV EM dominates the run."""
    train_tail, evaluate = _backend(
        ["--method", "nda", "--k", "9", "--alpha", "2.0", "--dim", str(s["da_dim"])], "{out}"
    )
    tv_stats = [
        (TRAIN, ["train-tv", "--stats", "{corpus}/train.ivbw", "--ubm", "{corpus}/ubm.ivgm",
                 "--out", "{out}/tv.ivtv", "--rank", str(s["rank"]), "--iters", str(s["tv_iters"]),
                 "--seed", "{seed}"]),
    ]
    return Workload(
        name="stats-tv",
        why="synthetic statistics, G=128 R=64: TV EM and i-vector extraction dominate",
        synth=["synth", "--mode", "stats", "--bimodal", "--seed", "{seed}", "--out-dir", "{corpus}",
               "--train-speakers", str(s["train_speakers"]), "--train-sessions", str(s["train_sessions"]),
               "--eval-speakers", str(s["eval_speakers"]), "--eval-sessions", str(s["eval_sessions"]),
               "--components", str(s["components"]), "--dim", str(s["dim"]), "--rank", str(s["rank"]),
               "--channel-std", "0.8"],
        config="",
        stages=[*tv_stats, (TRAIN, _ivectors("train", "{corpus}")), *train_tail,
                (EVAL, _ivectors("enroll", "{corpus}")), (EVAL, _ivectors("test", "{corpus}")),
                *evaluate],
        eer_ceiling_pct=s["eer_ceiling_pct"],
        expected_trials=s["eval_speakers"] ** 2 * (s["eval_sessions"] - 1),
        sizes=s,
    )


def audio_front(s: dict) -> Workload:
    """Waveforms through MFCC/SAD, UBM EM, alignment and statistics."""
    cfg = ["--config", "{corpus}/bench.ini"]
    workers = ["--workers", str(WORKERS)]

    def features(split: str) -> list[str]:
        return ["extract-features", "--manifest", f"{{corpus}}/{split}.manifest",
                "--out-dir", "{out}/feats", *cfg, *workers]

    def stats(split: str) -> list[str]:
        return ["accumulate-stats", "--features", "{out}/feats", "--manifest",
                f"{{corpus}}/{split}.manifest", "--ubm", "{out}/ubm.ivgm",
                "--out", f"{{out}}/{split}.ivbw", *cfg, *workers]

    train_tail, evaluate = _backend(cfg, "{out}")
    return Workload(
        name="audio-front",
        why="4 s waveforms, G=64: frontend, UBM EM and per-recording alignment dominate",
        synth=["synth", "--mode", "audio", "--seed", "{seed}", "--out-dir", "{corpus}",
               "--train-speakers", str(s["train_speakers"]), "--train-sessions", str(s["train_sessions"]),
               "--eval-speakers", str(s["eval_speakers"]), "--eval-sessions", str(s["eval_sessions"]),
               "--contaminate", "0"],
        config=(
            f"[ubm]\nnum_components = {s['components']}\ntop_n = 10\niters_per_level = 5\n"
            f"[tv]\nrank = {s['rank']}\niters = 5\n"
            f"[da]\nmethod = lda\ndim = {s['da_dim']}\n"
        ),
        stages=[
            (TRAIN, features("train")),
            (TRAIN, ["train-ubm", "--features", "{out}/feats", "--manifest", "{corpus}/train.manifest",
                     "--out", "{out}/ubm.ivgm", *cfg]),
            (TRAIN, stats("train")),
            (TRAIN, ["train-tv", "--stats", "{out}/train.ivbw", "--ubm", "{out}/ubm.ivgm",
                     "--out", "{out}/tv.ivtv", "--seed", "{seed}", *cfg]),
            (TRAIN, _ivectors("train")),
            *train_tail,
            (EVAL, features("enroll")),
            (EVAL, features("test")),
            (EVAL, stats("enroll")),
            (EVAL, stats("test")),
            (EVAL, _ivectors("enroll")),
            (EVAL, _ivectors("test")),
            *evaluate,
        ],
        eer_ceiling_pct=s["eer_ceiling_pct"],
        expected_trials=s["eval_speakers"] ** 2 * s["eval_sessions"],
        sizes=s,
    )


def ivec_backend(s: dict) -> Workload:
    """Direct i-vectors: NDA, PLDA, a full scoring grid and its text files."""
    train, evaluate = _backend(
        ["--method", "nda", "--k", "10", "--alpha", "2.0", "--dim", str(s["da_dim"])], "{corpus}"
    )
    return Workload(
        name="ivec-backend",
        why="dim-48 i-vectors and a full enroll x test grid: NDA, PLDA, scoring, metrics and trial text I/O",
        synth=["synth", "--mode", "ivectors", "--seed", "{seed}", "--out-dir", "{corpus}",
               "--train-speakers", str(s["train_speakers"]), "--train-sessions", str(s["train_sessions"]),
               "--eval-speakers", str(s["eval_speakers"]), "--eval-sessions", str(s["eval_sessions"]),
               "--dim", str(s["dim"])],
        config="",
        stages=[*train, *evaluate],
        eer_ceiling_pct=s["eer_ceiling_pct"],
        expected_trials=s["eval_speakers"] ** 2 * (s["eval_sessions"] - 1),
        sizes=s,
    )


# Full-size corpora, chosen so one repetition takes about 5-8 s on a 2-core
# x86 box, and tiny ones for the harness self-test, whose small training
# sets give a higher EER and so a looser ceiling.
SIZES = {
    "stats-tv": (
        stats_tv,
        dict(train_speakers=60, train_sessions=10, eval_speakers=100, eval_sessions=8,
             components=128, dim=20, rank=64, tv_iters=5, da_dim=32, eer_ceiling_pct=5.0),
        dict(train_speakers=12, train_sessions=12, eval_speakers=10, eval_sessions=3,
             components=16, dim=6, rank=8, tv_iters=3, da_dim=6, eer_ceiling_pct=30.0),
    ),
    "audio-front": (
        audio_front,
        dict(train_speakers=28, train_sessions=6, eval_speakers=50, eval_sessions=5,
             components=64, rank=16, da_dim=15, eer_ceiling_pct=5.0),
        dict(train_speakers=6, train_sessions=4, eval_speakers=4, eval_sessions=2,
             components=8, rank=4, da_dim=4, eer_ceiling_pct=30.0),
    ),
    "ivec-backend": (
        ivec_backend,
        dict(train_speakers=300, train_sessions=12, eval_speakers=300, eval_sessions=5,
             dim=48, da_dim=20, eer_ceiling_pct=2.0),
        dict(train_speakers=20, train_sessions=12, eval_speakers=20, eval_sessions=3,
             dim=12, da_dim=6, eer_ceiling_pct=30.0),
    ),
}


def get(name: str, tiny: bool = False) -> Workload:
    build, full, small = SIZES[name]
    return build(small if tiny else full)
