"""One benchmark process: set up, time or trace ``run_pipeline`` on a config.

Run as ``python worker.py MODE CONFIG [SECONDS MIN_RUNS]`` with the
package source on ``PYTHONPATH``; prints one JSON object on stdout.

* ``setup``: time ``import smallarea``, ``RunConfig.from_file`` and the
  load stage, in this fresh process.
* ``measure``: call ``run_pipeline`` until SECONDS have passed and at least
  MIN_RUNS calls were made; time each call and hash its report files.
* ``trace``: a first call, a call with the package's public functions
  rebound to span recorders, and an untraced reference call.  Spans are
  kept in memory and written to ``spans.json`` beside the config.

Only the standard library is imported before the timed import.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

# (module, attribute, span name): the calls run_pipeline makes into each
# layer, rebound where the caller looks them up.  A name a later version
# of the package no longer has is reported as absent.
TRACED = (
    ("smallarea.pipeline", "load_area_csv", "pipeline.load_area_csv"),
    ("smallarea.pipeline", "read_edge_list", "similarity.read_edge_list"),
    ("smallarea.pipeline", "load_adjacency", "similarity.load_adjacency"),
    ("smallarea.pipeline", "build_omega", "similarity.build_omega"),
    ("smallarea.pipeline", "gibbs_fit", "fay_herriot.gibbs_fit"),
    ("smallarea.pipeline", "cross_validate", "selection.cross_validate"),
    ("smallarea.selection", "loo_solution", "selection.loo_solution"),
    ("smallarea.pipeline", "smoothed_estimate", "estimators.smoothed_estimate"),
    ("smallarea.pipeline", "benchmarked_estimate", "estimators.benchmarked_estimate"),
    ("smallarea.pipeline", "benchmarked_estimate_single", "estimators.benchmarked_estimate_single"),
    ("smallarea.pipeline", "bootstrap_mse", "bootstrap.bootstrap_mse"),
    ("smallarea.pipeline", "write_report", "pipeline.write_report"),
)

# The load stage as a user's run performs it, for set-up timing.
LOAD_STAGE = (
    ("smallarea.pipeline", "load_area_csv"),
    ("smallarea.similarity", "read_edge_list"),
    ("smallarea.similarity", "load_adjacency"),
    ("smallarea.similarity", "build_omega"),
)


def _report_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup(config_path: str) -> dict:
    start = time.perf_counter()
    import smallarea  # the import is part of what is timed
    from smallarea.pipeline import RunConfig

    config = RunConfig.from_file(config_path)
    load = {name: getattr(importlib.import_module(module), name, None) for module, name in LOAD_STAGE}
    absent = [f"{module}.{name}" for module, name in LOAD_STAGE if load[name] is None]
    if not absent:
        data = load["load_area_csv"](config.area_csv, config.schema)
        edges = load["read_edge_list"](config.edge_list)
        load["build_omega"](load["load_adjacency"](edges, data.labels))
    return {
        "setup_s": time.perf_counter() - start,
        "absent": absent,
        "module": smallarea.__file__,
    }


def _run_once(run_pipeline, config, out: Path) -> dict:
    """Time one call; hash the report it wrote, or record why it raised."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    error = None
    try:
        run_pipeline(config)
    except Exception as exc:  # a failed run is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"run_s": elapsed, "hashes": {} if error else _report_hashes(out), "error": error}


def measure(config_path: str, seconds: float, min_runs: int) -> dict:
    import smallarea
    from smallarea.pipeline import RunConfig, run_pipeline

    config = RunConfig.from_file(config_path)
    runs = []
    start = time.perf_counter()
    while len(runs) < min_runs or time.perf_counter() - start < seconds:
        runs.append(_run_once(run_pipeline, config, Path(config.output_dir)))
    return {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": smallarea.__file__,
    }


class Tracer:
    """Span recorder: each span has a name, start, end and parent id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, wrap_callables: str | None = None):
        """Return ``fn`` recording a span per call.  With ``wrap_callables``,
        callables passed to ``fn`` are traced too, under that span name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_callables:
                args = [self.wrap(wrap_callables, a) if callable(a) else a for a in args]
                kwargs = {k: self.wrap(wrap_callables, v) if callable(v) else v for k, v in kwargs.items()}
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            span["attrs"] = _span_attrs(name, args, kwargs, result)
            return result

        return traced


def _span_attrs(name: str, args, kwargs, result) -> dict:
    """Work counts read from a call's arguments and result, where present."""
    attrs = {}
    if name == "fay_herriot.gibbs_fit":
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        attrs["n_iter"] = getattr(config, "n_iter", None)
        ess = getattr(result, "ess", None)
        attrs["min_ess"] = None if ess is None else float(min(ess))
        draws = getattr(result, "theta_draws", None)
        attrs["draw_bytes"] = getattr(draws, "nbytes", None)
    elif name == "selection.cross_validate":
        attrs["grid_points"] = len(getattr(result, "grid", ()))
        attrs["failed_areas"] = sum(len(f) for f in getattr(result, "failed_areas", ()))
    elif name.startswith("estimators."):
        theta = kwargs.get("theta_bayes", args[0] if args else ())
        attrs["m"] = len(theta)
    elif name == "bootstrap.bootstrap_mse":
        attrs["failed"] = len(getattr(result, "failed", ()))
    return attrs


def trace(config_path: str) -> dict:
    import smallarea
    from smallarea.pipeline import RunConfig, run_pipeline

    config = RunConfig.from_file(config_path)
    out = Path(config.output_dir)
    # The first call in a process pays one-time costs (BLAS thread start-up
    # on large matrices), so the traced call and its untraced reference
    # both come after it.
    runs = [_run_once(run_pipeline, config, out)]

    tracer = Tracer()
    originals, absent = [], []
    for module, attr, name in TRACED:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            absent.append(f"{module}.{attr}")
            continue
        originals.append((mod, attr, fn))
        wrap_callables = "bootstrap.replicate" if name == "bootstrap.bootstrap_mse" else None
        setattr(mod, attr, tracer.wrap(name, fn, wrap_callables))
    try:
        runs.append(_run_once(tracer.wrap("pipeline.run_pipeline", run_pipeline), config, out))
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
    spans_path = Path(config_path).parent / "spans.json"
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")

    cpu_before = _cpu_s()
    runs.append(_run_once(run_pipeline, config, out))
    cpu_s = _cpu_s() - cpu_before
    return {
        "runs": runs,
        "untraced_s": runs[2]["run_s"],
        "cpu_s": cpu_s,
        "absent": absent,
        "spans_path": str(spans_path),
        "module": smallarea.__file__,
    }


def main(argv: list[str]) -> int:
    mode, config_path = argv[0], argv[1]
    if mode == "setup":
        result = setup(config_path)
    elif mode == "measure":
        result = measure(config_path, float(argv[2]), int(argv[3]))
    elif mode == "trace":
        result = trace(config_path)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
