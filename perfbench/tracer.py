"""Spans and counts at the module boundaries of `lucassq`, for the traced run.

`Tracer.install()` replaces the public functions of each layer module (and
the few methods and private steps the per-layer metrics name) by timing
wrappers, in every `lucassq` module that holds the function by name, so
`add_points` is traced whether `curves`, `padic` or `heights` calls it.  A
function that no longer exists is simply not wrapped, and the metrics that
need it go unreported.

Each call opens a frame on one stack.  On return the wrapper adds its
duration to the parent frame, so a label's self time is its duration minus
the time its traced children cover.  Inclusive time and calls are counted
only for the outermost call of a label, so recursion is not counted twice.
Spans (id, parent, label, start, end) are kept in memory and written out
when the run ends, except for the leaf labels in `AGGREGATE_ONLY`, which are
called millions of times and are kept as totals only.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("exact", "lucas", "fields", "curves", "padic", "heights", "jsonio", "cli")

# label -> (module, owner attribute path); the owner is a class for methods.
EXTRA = {
    "fields.mul": ("fields", "FieldElement.__mul__", "FieldElement.__rmul__"),
    "fields.inv": ("fields", "FieldElement.inv"),
    "exact.poly_mul": ("exact", "Poly.__mul__", "Poly.__rmul__", "Poly.mul_truncated"),
    "padic._scan_condition_points": ("padic", "_scan_condition_points"),
    "heights._search_box": ("heights", "_search_box"),
}

# Cheap leaves called millions of times (one per census term): totals only.
AGGREGATE_ONLY = {"exact.perfect_square_root", "exact.is_perfect_square",
                  "padic.fraction_mod"}

# Labels whose span name carries the curve of the call.
BY_CURVE = {"padic.rank1_driver": "padic.driver",
            "padic.rank2_driver": "padic.driver",
            "heights.certify_generators": "heights.certify_generators"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _hook_scan(tracer, args, kwargs, result):
    n_max = _arg(args, kwargs, 1, "n_max")
    tracer.count("lucas.terms", max(0, n_max - 1))
    tracer.count("lucas.hits", len(result))


def _hook_bound(tracer, args, kwargs, result):
    tracer.bound_c[_arg(args, kwargs, 0, "curve_id")] = float(result[0])


def _hook_height(tracer, args, kwargs, result):
    """Doublings that canonical_height's tol and the curve's C imply."""
    curve, pt = args[0], args[1]
    c = tracer.bound_c.get(curve.id)
    if pt.at_infinity or c is None:
        return
    tol = _arg(args, kwargs, 2, "tol", 1e-6)
    m = 0
    while c / (2 * 4 ** m) >= tol:
        m += 1
    tracer.count("heights.doublings", m)


def _hook_box(tracer, args, kwargs, result):
    tracer.count("heights.box_survivors", len(result))


HOOKS = {"lucas.square_term_indices": _hook_scan,
         "heights.height_diff_bound": _hook_bound,
         "heights.canonical_height": _hook_height,
         "heights._search_box": _hook_box}


class Tracer:
    def __init__(self):
        self.stack = []        # open frames: [child_time, span_id]
        self.depth = {}        # label -> open calls of that label
        self.stats = {}        # label -> [outermost calls, inclusive s, self s]
        self.counts = {}
        self.spans = []        # (id, parent id, label, start, end)
        self.installed = []
        self.bound_c = {}
        self._ids = 0

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, label):
        tracer = self
        keyed = BY_CURVE.get(label)
        hook = HOOKS.get(label)
        spans = None if label in AGGREGATE_ONLY else self.spans
        stack, depth, stats = self.stack, self.depth, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{keyed}.{args[0].id}" if keyed else label
            parent = stack[-1] if stack else None
            tracer._ids += 1
            frame = [0.0, tracer._ids]
            stack.append(frame)
            d = depth.get(name, 0)
            depth[name] = d + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] = d
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[2] += dur - frame[0]
                if d == 0:
                    st[0] += 1
                    st[1] += dur
                if spans is not None:
                    spans.append((frame[1], parent[1] if parent else 0,
                                  name, t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function that exists, in every lucassq module
        and class that refers to it."""
        originals = {}     # id(function) -> (function, label)
        for layer in LAYERS:
            mod = sys.modules.get(f"lucassq.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                fn = getattr(obj, "__wrapped__", obj)
                if (name.startswith("_") or not callable(obj)
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                originals[id(obj)] = (obj, f"{layer}.{name}")
        for label, (layer, *paths) in EXTRA.items():
            mod = sys.modules.get(f"lucassq.{layer}")
            for path in paths:
                owner, _, attr = path.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                obj = getattr(holder, attr, None) if holder is not None else None
                if obj is not None:
                    originals[id(obj)] = (obj, label)
        wrappers = {key: self.wrap(obj, label)
                    for key, (obj, label) in originals.items()}
        holders = [m for n, m in list(sys.modules.items())
                   if n == "lucassq" or n.startswith("lucassq.")]
        holders += [v for m in holders for v in vars(m).values()
                    if inspect.isclass(v) and v.__module__.startswith("lucassq")]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(holder, name, w)
        self.installed = sorted({label for _, label in originals.values()})

    def report(self) -> dict:
        return {"stats": self.stats, "counts": self.counts,
                "installed": self.installed}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- per-layer metrics from one traced process ---------------------------------

EMPTY = {"stats": {}, "counts": {}, "installed": []}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(report, extra_counts) -> dict:
    """name -> value for every per-layer metric whose functions are traced,
    from one traced process's report.  `extra_counts` holds the figures
    read from its certificate."""
    stats, counts = report["stats"], report["counts"]
    installed = set(report["installed"])

    def has(*labels):
        return all(lb in installed for lb in labels)

    def calls(label):
        return stats.get(label, [0, 0.0, 0.0])[0]

    def incl(label):
        return stats.get(label, [0, 0.0, 0.0])[1]

    def self_of(prefix):
        return sum(st[2] for lb, st in stats.items() if lb.startswith(prefix))

    out = {}

    def put(name, value, *labels):
        if has(*labels):
            out[name] = value

    for short, label in (("mul", "fields.mul"), ("inv", "fields.inv")):
        put(f"fields.{short}_calls", calls(label), label)
        put(f"fields.{short}_s", incl(label), label)
        put(f"fields.{short}_us", 1e6 * _ratio(incl(label), calls(label)), label)
    put("curves.add_points_calls", calls("curves.add_points"), "curves.add_points")
    put("curves.add_points_s", incl("curves.add_points"), "curves.add_points")
    put("curves.scalar_mul_calls", calls("curves.scalar_mul"), "curves.scalar_mul")
    put("curves.recover_ab_s", incl("curves.recover_ab"), "curves.recover_ab")
    put("exact.poly_mul_calls", calls("exact.poly_mul"), "exact.poly_mul")
    put("exact.poly_mul_s", incl("exact.poly_mul"), "exact.poly_mul")
    put("exact.resultant_s", incl("exact.resultant"), "exact.resultant")
    put("exact.square_checks", calls("exact.perfect_square_root"),
        "exact.perfect_square_root")
    put("exact.square_check_s", incl("exact.perfect_square_root"),
        "exact.perfect_square_root")

    scan = "lucas.square_term_indices"
    put("lucas.pairs", calls(scan), scan)
    put("lucas.terms", counts.get("lucas.terms", 0), scan)
    put("lucas.hits", counts.get("lucas.hits", 0), scan)
    put("lucas.scan_s", incl(scan), scan)
    put("lucas.hit_yield", _ratio(counts.get("lucas.hits", 0),
                                  calls("exact.perfect_square_root")),
        scan, "exact.perfect_square_root")

    drivers = ("padic.rank1_driver", "padic.rank2_driver")
    for i in range(1, 13):
        put(f"padic.driver_s.E{i}", incl(f"padic.driver.E{i}"), *drivers)
    put("padic.driver_self_s", self_of("padic.driver."), *drivers)
    for name, label in (("scan_s", "padic._scan_condition_points"),
                        ("derive_formal_series_s", "padic.derive_formal_series"),
                        ("padic_log_s", "padic.padic_log"),
                        ("z_linear_combo_s", "padic.z_linear_combo"),
                        ("beta_x_series_s", "padic.beta_x_series"),
                        ("inverse_beta_x_series_s", "padic.inverse_beta_x_series"),
                        ("theta_components_s", "padic.theta_components"),
                        ("reduction_order_s", "padic.reduction_order")):
        put(f"padic.{name}", incl(label), label)
    put("padic.skolem_s", incl("padic.build_skolem_system") + incl("padic.skolem_check"),
        "padic.build_skolem_system", "padic.skolem_check")
    for name in ("padic.cosets", "padic.cosets_excluded_mod3",
                 "padic.cosets_excluded_mod9", "padic.cosets_strassman",
                 "padic.cosets_skolem", "padic.precision_escalations",
                 "padic.survivors"):
        out[name] = extra_counts.get(name, 0)
    out["padic.cheap_exclusion_ratio"] = _ratio(
        extra_counts.get("padic.cosets_excluded_mod3", 0)
        + extra_counts.get("padic.cosets_excluded_mod9", 0),
        extra_counts.get("padic.cosets", 0))

    cert = "heights.certify_generators"
    put("heights.certify_s.E10", incl(f"{cert}.E10"), cert)
    put("heights.height_diff_bound_s", incl("heights.height_diff_bound"),
        "heights.height_diff_bound")
    for short in ("epsilon_archimedean", "epsilon_nonarchimedean", "canonical_height"):
        label = f"heights.{short}"
        put(f"heights.{short}_calls", calls(label), label)
        put(f"heights.{short}_s", incl(label), label)
    put("heights.doublings", counts.get("heights.doublings", 0),
        "heights.canonical_height", "heights.height_diff_bound")
    put("heights.halving_s", incl("heights.halving_candidates"),
        "heights.halving_candidates")
    box = "heights._search_box"
    put("heights.box_s", incl(box), box)
    out["heights.box_candidates"] = extra_counts.get("heights.box_candidates", 0)
    put("heights.candidates_per_s",
        _ratio(extra_counts.get("heights.box_candidates", 0), incl(box)), box)
    put("heights.lift_calls", calls("heights.lift_x_to_point"), "heights.lift_x_to_point")
    put("heights.box_survivors", counts.get("heights.box_survivors", 0), box)

    put("jsonio.dump_s", incl("jsonio.dump"), "jsonio.dump")
    out["jsonio.certificate_kib"] = extra_counts.get("jsonio.certificate_kib", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(f"{layer}.")
    return out
