"""In-memory spans around the calls into each oddmsim layer.

Spans are recorded from outside the package: each traced function is
replaced, for the duration of a run, by a wrapper in the namespace its caller
looks it up in (``harness`` for the per-frame pipeline, ``detectors`` for the
engine's sweeps, ``analysis`` for the state evolution). The layer of a span
is the module that defines the wrapped function.
"""

import functools
import json
import statistics
from time import perf_counter

import numpy as np

# caller namespace -> names looked up there
TRACED = {
    "harness": (
        "sample_channel",
        "apply_channel",
        "dd_to_time",
        "time_to_dd",
        "embed_pilot",
        "estimate_channel",
        "run_detector",
    ),
    "detectors": ("run_iteration", "init_estimates"),
    "analysis": (
        "state_evolution",
        "sinr_soft_profile",
        "sinr_mrc_profile",
        "channel_moments",
    ),
}

MRC_COMBINES = ("mrc", "hard_scalar")


class Tracer:
    """Span recorder. A span is one call: name, unit, parent, start, end."""

    def __init__(self):
        self.spans = []
        self.unit = None  # (item, point index) of the point being run
        self.own_s = 0.0  # time the tracer itself spent outside traced calls
        self._open = []

    def call(self, name, fn, args, kwargs, before=None, after=None):
        t_enter = perf_counter()
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "unit": self.unit,
            "name": name,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        token = before(span, args, kwargs) if before else None
        span["t0"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["t1"] = perf_counter()
            if after:
                after(span, token)
            self._open.pop()
            self.own_s += (span["t0"] - t_enter) + (perf_counter() - span["t1"])

    def wrap(self, fn, before=None, after=None):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return wrapper

    def write(self, path):
        origin = self.spans[0]["t0"] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                row = dict(s, t0=s["t0"] - origin, t1=s["t1"] - origin)
                fh.write(json.dumps(row) + "\n")


def _sweep_before(span, args, kwargs):
    state = args[0]
    combine = args[1] if len(args) > 1 else kwargs["combine"]
    rows = int(np.count_nonzero(~state.frozen_rows))
    span["attrs"].update(
        combine=combine, rows=rows, solves=rows * state.est.params.n_doppler
    )
    return state, state.shat.copy()


def _sweep_after(span, token):
    state, before = token
    span["attrs"]["changed"] = not np.array_equal(before, state.shat)


def _soft_profile_before(span, args, kwargs):
    span["attrs"]["solves"] = int(args[0].params.frame_len)


HOOKS = {
    "run_iteration": (_sweep_before, _sweep_after),
    "sinr_soft_profile": (_soft_profile_before, None),
}


def install(tracer, modules):
    """Wrap every traced name; returns the originals for ``restore``."""
    saved = []
    for mod_name, names in TRACED.items():
        mod = modules[mod_name]
        for name in names:
            fn = getattr(mod, name)
            saved.append((mod, name, fn))
            setattr(mod, name, tracer.wrap(fn, *HOOKS.get(name, (None, None))))
    return saved


def restore(saved):
    for mod, name, fn in reversed(saved):
        setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def _dur(span):
    return span["t1"] - span["t0"]


def layer_metrics(spans, rounds, units_per_point):
    """Per-layer figures from one run's spans.

    Times and work counts are per round (one pass over the workload's points),
    so they do not depend on how many rounds fit in the run. Each point is
    ``units_per_point`` frames (or traces).
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(_dur(s) for s in by_name.get(name, ()))

    def per_round(x):
        return x / rounds

    sweeps = by_name.get("detectors.run_iteration", [])
    mrc = [s for s in sweeps if s["attrs"]["combine"] in MRC_COMBINES]
    mmse = [s for s in sweeps if s["attrs"]["combine"] == "mmse"]
    rows_mrc = sum(s["attrs"]["rows"] for s in mrc)
    rows_mmse = sum(s["attrs"]["rows"] for s in mmse)
    t_mrc = sum(_dur(s) for s in mrc)
    t_mmse = sum(_dur(s) for s in mmse)
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def useful_and_converged(det_spans):
        """(changed sweeps / sweeps, mean last-changing sweep per frame)."""
        n_sweeps = n_changed = 0
        converged = []
        for det in det_spans:
            flags = [
                c["attrs"]["changed"]
                for c in children.get(det["id"], ())
                if c["name"] == "detectors.run_iteration"
            ]
            n_sweeps += len(flags)
            n_changed += sum(flags)
            converged.append(max((i + 1 for i, f in enumerate(flags) if f), default=0))
        ratio = n_changed / n_sweeps if n_sweeps else 0.0
        return ratio, (statistics.fmean(converged) if converged else 0.0)

    points = [s for s in spans if s["parent"] is None]
    unit_walls = [_dur(s) / units_per_point for s in points]
    self_s = sum(
        _dur(p) - sum(_dur(c) for c in children.get(p["id"], ())) for p in points
    )
    run_det = by_name.get("detectors.run_detector", [])
    out = {
        "harness.self_s": per_round(self_s),
        "harness.frame_s_p50": statistics.median(unit_walls) if points else 0.0,
        "harness.frame_s_max": max(unit_walls, default=0.0),
        "channel.sample_channel_s": per_round(total("channel.sample_channel")),
        "channel.apply_channel_s": per_round(total("channel.apply_channel")),
        "pilot.embed_pilot_s": per_round(total("pilot.embed_pilot")),
        "pilot.estimate_channel_s": per_round(total("pilot.estimate_channel")),
        "modem.busy_s": per_round(total("modem.dd_to_time") + total("modem.time_to_dd")),
        "detectors.run_detector_s": per_round(total("detectors.run_detector")),
        "detectors.init_s": per_round(total("detectors.init_estimates")),
        "detectors.sweep_mrc_s": per_round(t_mrc),
        "detectors.sweep_mmse_s": per_round(t_mmse),
        "detectors.row_us_mrc": 1e6 * t_mrc / rows_mrc if rows_mrc else 0.0,
        "detectors.row_us_mmse": 1e6 * t_mmse / rows_mmse if rows_mmse else 0.0,
        "detectors.sweeps": per_round(len(sweeps)),
        "detectors.rows": per_round(rows_mrc + rows_mmse),
        "detectors.mmse_solves": per_round(sum(s["attrs"]["solves"] for s in mmse)),
        "analysis.state_evolution_s": per_round(total("analysis.state_evolution")),
        "analysis.sinr_soft_profile_s": per_round(total("analysis.sinr_soft_profile")),
        "analysis.soft_filter_solves": per_round(
            sum(s["attrs"]["solves"] for s in by_name.get("analysis.sinr_soft_profile", ()))
        ),
        "analysis.sinr_mrc_profile_s": per_round(total("analysis.sinr_mrc_profile")),
        "analysis.channel_moments_s": per_round(total("analysis.channel_moments")),
    }
    ratio, conv = useful_and_converged(run_det)
    out["detectors.useful_sweep_ratio"] = ratio
    out["detectors.converged_sweep_mean"] = conv
    return out
