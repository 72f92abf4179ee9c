"""Spans around the public functions of each ivnda module, from outside it.

`instrument` replaces module attributes (``ivnda.tv.train_tv`` and so on)
with wrappers that record a span per call.  ``pipeline.py`` and ``cli.py``
reach these functions through their modules, so every call made by a stage
is seen without changing a source file.  Spans are kept in memory and
written out when the repetition ends.

The EM trainers (UBM, TV, PLDA) also receive an ``on_iteration`` callback
when the caller passed none; it records each log-likelihood so the run can
check that EM never decreases it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# layer -> functions wrapped in ivnda.<layer>.  Private helpers are reached
# through these, so their time lands in the caller's span.
LAYER_FUNCTIONS = {
    "frontend": ["read_wav", "compute_mfcc", "append_deltas", "detect_speech",
                 "load_sad_mask", "apply_cms", "apply_fmllr"],
    "ubm": ["train_gmm", "gmm_posteriors", "train_supervised_gaussians",
            "load_external_posteriors"],
    "stats": ["accumulate_bw", "center_stats"],
    "tv": ["train_tv", "extract_ivector", "extract_ivectors"],
    "da": ["compute_lda", "compute_nda", "within_class_scatter", "lda_between_scatter",
           "nda_between_scatter", "compute_projection", "project"],
    "backend": ["fit_normalizer", "normalize", "normalize_rows", "train_plda",
                "plda_score", "score_pairs"],
    "metrics": ["compute_eer", "compute_min_dcf", "det_csv", "det_svg"],
    "fileio": ["read_feature_record", "write_feature_record", "read_gmm", "write_gmm",
               "read_stats_archive", "write_stats_archive", "read_tv_model", "write_tv_model",
               "read_ivector_archive", "write_ivector_archive", "read_projection",
               "write_projection", "read_normalizer", "write_normalizer", "read_plda",
               "write_plda", "read_manifest", "write_manifest", "read_trials", "write_trials",
               "read_key", "write_key", "read_scores", "write_scores", "match_scores_to_key",
               "atomic_write_bytes", "atomic_write_text"],
}
LAYERS = list(LAYER_FUNCTIONS)
TEXT_FUNCTIONS = {"read_manifest", "write_manifest", "read_trials", "write_trials", "read_key",
                  "write_key", "read_scores", "write_scores", "match_scores_to_key"}
STAGE_COMMANDS = ["extract-features", "train-ubm", "accumulate-stats", "train-tv",
                  "extract-ivectors", "train-da", "train-plda", "score", "evaluate"]


class Tracer:
    """In-memory span recorder for one repetition (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.loglik: dict[tuple, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._em_calls = 0
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        rec = {"run": self.run_id, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "layer": layer,
               "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def em_hook(self, trainer: str, frames: int = 0):
        """on_iteration callback recording log-likelihoods (and UBM work)."""
        self._em_calls += 1
        call = self._em_calls
        if trainer == "ubm":
            def hook(num_components, _i, _gmm, ll):
                self.loglik[(trainer, call, num_components)].append(float(ll))
                self.counts["ubm.em_frame_comp_iters"] += frames * num_components
        else:
            def hook(_it, _model, ll):
                self.loglik[(trainer, call)].append(float(ll))
                self.counts[f"{trainer}.em_iters"] += 1
        return hook

    def loglik_steps(self, rel_tol: float = 1e-9) -> tuple[int, int]:
        """(steps checked, steps where the log-likelihood decreased)."""
        checked = decreased = 0
        for seq in self.loglik.values():
            for prev, cur in zip(seq, seq[1:]):
                checked += 1
                if cur < prev - rel_tol * max(1.0, abs(prev)):
                    decreased += 1
        return checked, decreased


def _count(tracer: Tracer, name: str, args: dict, out) -> None:
    """Work counts recorded at the layer boundary, from arguments and results."""
    c = tracer.counts
    if name == "read_wav":
        c["frontend.audio_s"] += out.duration_s
    elif name == "compute_mfcc":
        c["frontend.frames"] += out.num_frames
    elif name == "detect_speech":
        c["frontend.speech_frames"] += int(out.sum())
    elif name == "gmm_posteriors":
        c["ubm.align_frames"] += out.num_frames
    elif name == "accumulate_bw":
        c["stats.posterior_entries"] += args["posteriors"].values.size
    elif name == "train_tv":
        c["tv.sessions"] += len(args["stats"])
    elif name == "extract_ivectors":
        c["tv.extract_sessions"] += len(out)
    elif name == "extract_ivector":
        c["tv.extract_sessions"] += 1
    elif name in ("compute_lda", "compute_nda"):
        c["da.vectors"] += args["data"].num_vectors
    elif name == "score_pairs":
        c["backend.trials"] += len(args["enroll_idx"])
    elif name == "plda_score":
        c["backend.trials"] += 1
    elif name in ("compute_eer", "compute_min_dcf"):
        c["metrics.trials"] += args["trials"].num_trials
    elif name in ("read_manifest", "read_trials", "read_key", "read_scores"):
        c["fileio.text_lines"] += len(out)
    elif name == "atomic_write_text":
        c["fileio.text_lines"] += args["text"].count("\n")
        c["fileio.bytes_written"] += len(args["text"].encode())
    elif name == "atomic_write_bytes":
        c["fileio.bytes_written"] += len(args["data"])


def _wrap(tracer: Tracer, layer: str, fn):
    name = fn.__name__
    sig = inspect.signature(fn)
    trainer = {"ubm": "ubm", "tv": "tv", "backend": "plda"}.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        if "on_iteration" in sig.parameters and bound.arguments.get("on_iteration") is None:
            frames = 0
            if layer == "ubm":
                frames = sum(int(f.speech_mask.sum()) for f in bound.arguments["features"])
            bound.arguments["on_iteration"] = tracer.em_hook(trainer, frames)
        with tracer.span(f"{layer}.{name}", layer):
            out = fn(*bound.args, **bound.kwargs)
        _count(tracer, name, bound.arguments, out)
        return out

    return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every listed function of every layer module, for this process."""
    for layer, names in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"ivnda.{layer}")
        for name in names:
            setattr(module, name, _wrap(tracer, layer, getattr(module, name)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy/self seconds, work rates and stage times of one repetition."""
    spans = tracer.spans
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d

    def outermost(i: int) -> bool:
        """No ancestor of span i belongs to the same layer."""
        layer, p = spans[i]["layer"], spans[i]["parent"]
        while p is not None:
            if spans[p]["layer"] == layer:
                return False
            p = spans[p]["parent"]
        return True

    busy, self_s, by_name = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        self_s[s["layer"]] += dur[i] - child[i]
        if outermost(i):
            busy[s["layer"]] += dur[i]
            by_name[s["name"]] += dur[i]

    c = tracer.counts

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def total(layer: str, names) -> float:
        return sum(by_name[f"{layer}.{n}"] for n in names)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["frontend.audio_s_per_s"] = rate(c["frontend.audio_s"], busy["frontend"])
    m["frontend.frames"] = c["frontend.frames"]
    m["frontend.speech_frac"] = rate(c["frontend.speech_frames"], c["frontend.frames"])

    m["ubm.train_s"] = by_name["ubm.train_gmm"]
    m["ubm.em_frame_comp_iters"] = c["ubm.em_frame_comp_iters"]
    m["ubm.align_s"] = by_name["ubm.gmm_posteriors"]
    m["ubm.align_frames_per_s"] = rate(c["ubm.align_frames"], m["ubm.align_s"])

    m["stats.accumulate_s"] = by_name["stats.accumulate_bw"]
    m["stats.posterior_entries_per_s"] = rate(c["stats.posterior_entries"], m["stats.accumulate_s"])
    m["stats.center_s"] = by_name["stats.center_stats"]

    m["tv.train_s"] = by_name["tv.train_tv"]
    m["tv.iter_s"] = rate(m["tv.train_s"], c["tv.em_iters"])
    m["tv.session_iters_per_s"] = rate(
        c["tv.sessions"] * c["tv.em_iters"], m["tv.train_s"]
    )
    m["tv.extract_s"] = total("tv", ["extract_ivector", "extract_ivectors"])
    m["tv.extract_sessions_per_s"] = rate(c["tv.extract_sessions"], m["tv.extract_s"])

    # The scatter and projection spans are children of the fit span, so
    # their durations are summed over all spans rather than outermost ones.
    every = Counter()
    for s, d in zip(spans, dur):
        every[s["name"]] += d
    m["da.fit_s"] = total("da", ["compute_lda", "compute_nda"])
    m["da.within_class_scatter_s"] = every["da.within_class_scatter"]
    m["da.between_scatter_s"] = every["da.nda_between_scatter"] + every["da.lda_between_scatter"]
    m["da.compute_projection_s"] = every["da.compute_projection"]
    m["da.vectors_per_s"] = rate(c["da.vectors"], m["da.fit_s"])
    m["da.project_s"] = by_name["da.project"]

    m["backend.plda_train_s"] = by_name["backend.train_plda"]
    m["backend.normalize_s"] = total("backend", ["fit_normalizer", "normalize", "normalize_rows"])
    m["backend.score_s"] = total("backend", ["score_pairs", "plda_score"])
    m["backend.trials_per_s"] = rate(c["backend.trials"], m["backend.score_s"])

    m["metrics.eer_s"] = by_name["metrics.compute_eer"]
    m["metrics.min_dcf_s"] = by_name["metrics.compute_min_dcf"]
    m["metrics.trials_per_s"] = rate(c["metrics.trials"], m["metrics.eer_s"] + m["metrics.min_dcf_s"])

    reads = [n for n in LAYER_FUNCTIONS["fileio"] if n.startswith("read_")]
    writes = [n for n in LAYER_FUNCTIONS["fileio"] if n.startswith(("write_", "atomic_write_"))]
    m["fileio.read_s"] = total("fileio", reads)
    m["fileio.write_s"] = total("fileio", writes)
    m["fileio.text_s"] = total("fileio", TEXT_FUNCTIONS)
    m["fileio.text_lines_per_s"] = rate(c["fileio.text_lines"], m["fileio.text_s"])
    m["fileio.bytes_written"] = c["fileio.bytes_written"]

    m["pipeline.self_s"] = self_s["pipeline"]
    for cmd in STAGE_COMMANDS:
        m[f"stage.{cmd}_s"] = by_name[f"stage.{cmd}"]
    checked, decreased = tracer.loglik_steps()
    m["em.loglik_steps"] = checked
    m["em.loglik_decreases"] = decreased
    m["trace.spans"] = len(spans)
    m["trace.recipe_s"] = sum(d for s, d in zip(spans, dur) if s["parent"] is None)
    return {k: float(v) for k, v in m.items()}
