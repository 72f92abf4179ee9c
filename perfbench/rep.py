"""One set-up or one recipe repetition, run in a fresh process by run.py.

Usage: python3 perfbench/rep.py SPEC.json

SPEC names the checkout root, the mode (``setup`` or ``recipe``), the
argument lists to pass to ``ivnda.cli.main`` and the file to write the
result to.  Times are wall-clock seconds around each ``main`` call; peak RSS
is this process's ``ru_maxrss``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import tracing

EER_LINE = re.compile(r"^eer: ([0-9.eE+-]+)%", re.M)
DCF_LINE = re.compile(r"^min_dcf\[(\w+)\]: ([0-9.eE+-]+)", re.M)
TRIALS_LINE = re.compile(r"^trials: (\d+) ", re.M)
RECORDING_ERROR = re.compile(r"^error: \S+: ", re.M)


def _call(main, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, keyed by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def parse_evaluate(text: str) -> dict:
    """EER, minDCF and trial count from the report `ivnda evaluate` prints."""
    found = {}
    if m := EER_LINE.search(text):
        found["eer_pct"] = float(m.group(1))
    for name, value in DCF_LINE.findall(text):
        found[f"min_dcf_{name}"] = float(value)
    if m := TRIALS_LINE.search(text):
        found["trials"] = int(m.group(1))
    return found


def run_setup(main, spec: dict) -> dict:
    start = time.perf_counter()
    code, _, _, err = _call(main, spec["synth"])
    if spec["config"]:
        (Path(spec["corpus"]) / "bench.ini").write_text(spec["config"])
    return {"code": code, "setup_s": time.perf_counter() - start, "stderr": err}


def run_recipe(main, spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"])
        tracing.instrument(tracer)
    stages, evaluation = [], {}
    for phase, argv in spec["stages"]:
        command = argv[0]
        if tracer is None:
            code, seconds, out, err = _call(main, argv)
        else:
            with tracer.span(f"stage.{command}", "pipeline"):
                code, seconds, out, err = _call(main, argv)
        stages.append({"command": command, "phase": phase, "code": code, "seconds": seconds,
                       "recording_errors": len(RECORDING_ERROR.findall(err)),
                       "peak_rss_mb": _peak_rss_mb(), "stderr": err[-2000:]})
        if command == "evaluate":
            evaluation = parse_evaluate(out)
        if code != 0:
            break
    result = {
        "stages": stages,
        "evaluation": evaluation,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": digests(Path(spec["out"])),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        with open(spec["spans"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from ivnda import cli

    cli._configure_logging()  # bind log output to the real stderr before redirecting
    runner = run_setup if spec["mode"] == "setup" else run_recipe
    result = runner(cli.main, spec)
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "python": sys.version.split()[0]}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
