"""Span tracing of levylab's public functions, installed from outside.

The tracer replaces each target function by a timing wrapper in every
``levylab`` namespace that binds it (a module that did ``from .x import f``
holds its own reference), and puts the originals back on ``uninstall``.
Nothing inside the package changes.

Each call becomes a span (name, start, end, parent span); self time is the
span's duration minus the time covered by its direct child spans.  Spans
stay in memory and are written once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

#: module -> public functions to wrap; "Class.method" patches the class.
TARGETS = {
    "stable_random": ("sample_standard_stable", "poisson_weights_matrix"),
    "matrix_model": ("build_levy_matrix", "eigendecompose", "resolvent_diagonal"),
    "localization": ("interval_stats",),
    "experiments": ("run_transition_sweep", "run_local_law", "emit"),
    "cli": ("main",),
    "fixed_point": ("eval_F", "eval_G", "solve_gamma_star", "solve_tilde_gamma",
                    "s_p", "radial_integral_rotated", "spectral_density",
                    "population_dynamics"),
    "halfplane": ("HomogeneousFn.__call__", "HomogeneousFn.values_at_angle"),
    "quadrature": ("tanh_sinh", "gauss_jacobi_left", "log_power_rule",
                   "cached_roots_jacobi"),
    "kernel_spectrum": ("kernel_k", "kernel_row_integrals", "assemble_P",
                        "assemble_H", "fredholm_det"),
}

#: full eigendecomposition flop count per n^3 (Golub & Van Loan, symmetric
#: QR with accumulated vectors); a count computed from n, not measured
EIGH_FLOPS_PER_N3 = 9.0


class Tracer:
    """Collects spans and per-function counters while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._last_sd = None

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return self._ids[name]

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        if not self.active:
            return fn(*args, **kwargs)
        name_id = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name_id, 0.0, 0.0, parent))
        self._stack.append(index)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            child = self._child.pop()
            duration = t1 - t0
            if self._child:
                self._child[-1] += duration
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - child
            self.spans[index] = (name_id, t0, t1, parent)
        self._count(name, args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    # -- work counters at the same boundaries ---------------------------

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _count(self, name, args, kwargs, result) -> None:
        if name == "stable_random.sample_standard_stable":
            self._add("draws", 1 if result is None or isinstance(result, float)
                      else len(result))
        elif name == "matrix_model.eigendecompose":
            self._add("eigh_flops", EIGH_FLOPS_PER_N3 * float(result.n) ** 3)
        elif name == "localization.interval_stats":
            sd = args[0] if args else kwargs["sd"]
            self._add("window_vectors_used", result.count)
            if sd is not self._last_sd:
                self._add("vectors_computed", sd.eigenvectors.shape[1])
                self._last_sd = sd
        elif name == "experiments.emit":
            self._add("emit_bytes", sum(Path(p).stat().st_size for p in result))
        elif name == "fixed_point.solve_gamma_star":
            self._add("solve_iterations", result.iterations)
        elif name == "fixed_point.population_dynamics":
            self._add("slot_updates", result.size * result.iterations)
        elif name == "kernel_spectrum.assemble_P":
            self._add("kernel_entries", result.matrix.shape[0] ** 2)

    # -- output ----------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        t_origin = min((s[1] for s in self.spans), default=0.0)
        doc = dict(header)
        doc["names"] = self.names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[n, round(a - t_origin, 9), round(b - t_origin, 9), p]
                        for n, a, b, p in self.spans]
        path.write_text(json.dumps(doc, separators=(",", ":")))


class Patches:
    """The (namespace, attribute, original) triples a tracer installed."""

    def __init__(self):
        self.entries: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.entries):
            setattr(owner, attr, original)
        self.entries.clear()


def _levylab_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "levylab" or name.startswith("levylab."))]


def targets():
    """Yield (metric name, owner, attribute) for every target function."""
    for mod_name, funcs in TARGETS.items():
        module = importlib.import_module(f"levylab.{mod_name}")
        for func in funcs:
            if "." in func:
                cls_name, meth = func.split(".")
                yield f"{mod_name}.{func}", getattr(module, cls_name), meth
            else:
                yield f"{mod_name}.{func}", module, func


def install(tracer: Tracer) -> Patches:
    """Wrap every target in every levylab namespace that binds it."""
    patches = Patches()
    namespaces = _levylab_namespaces()
    for name, owner, attr in targets():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original))
            patches.entries.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    patches.entries.append((ns, key, original))
    return patches


def unrestored(patches_seen: list[tuple[object, str, object]]) -> list[str]:
    """Bindings that are not their original object (empty when all restored)."""
    bad = []
    for owner, attr, original in patches_seen:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if current is not original:
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return bad


def layer_metrics(tracer: Tracer, roots_info: tuple[int, int], rounds: int) -> dict:
    """Per-layer metrics per traced round, in the units BENCHMARK.json names.

    ``roots_info`` is the (hits, misses) change of
    ``quadrature.cached_roots_jacobi.cache_info()`` over the traced rounds.
    """
    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])

    def per_round(x):
        return x / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    out = {}
    for name, _, _ in targets():
        calls, _, self_s = stat(name)
        out[f"{name}.calls"] = (per_round(calls), "count")
        out[f"{name}.self_s"] = (per_round(self_s), "s")
    sss = stat("stable_random.sample_standard_stable")
    out["stable_random.sample_standard_stable.draws_per_s"] = (
        ratio(c.get("draws", 0.0), sss[2]), "1/s")
    out["matrix_model.eigendecompose.gflop_computed"] = (
        per_round(c.get("eigh_flops", 0.0)) / 1e9, "Gflop")
    out["localization.interval_stats.vectors_used_ratio"] = (
        ratio(c.get("window_vectors_used", 0.0), c.get("vectors_computed", 0.0)), "ratio")
    out["experiments.emit.bytes"] = (per_round(c.get("emit_bytes", 0.0)), "B")
    ef = stat("fixed_point.eval_F")
    out["fixed_point.eval_F.per_call_s"] = (ratio(ef[1], ef[0]), "s")
    out["fixed_point.solve_gamma_star.iterations"] = (
        per_round(c.get("solve_iterations", 0.0)), "count")
    pd = stat("fixed_point.population_dynamics")
    out["fixed_point.population_dynamics.slot_updates_per_s"] = (
        ratio(c.get("slot_updates", 0.0), pd[1]), "1/s")
    hits, misses = roots_info
    out["quadrature.cached_roots_jacobi.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    kk = stat("kernel_spectrum.kernel_k")
    out["kernel_spectrum.kernel_k.calls_per_entry"] = (
        ratio(kk[0], c.get("kernel_entries", 0.0)), "ratio")
    return out
