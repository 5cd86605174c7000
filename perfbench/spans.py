"""In-memory span tracing of qdemazure, installed from outside the package.

A Tracer replaces chosen public functions, the verify suites and the
LaurentScalar arithmetic methods by timing wrappers.  A function is wrapped at
every module attribute that holds it, which are the names its callers use
(``qdemazure.words.demazure``, ``qdemazure.verify.xi_oracle``, ...).  Each span
is added to its name's totals and to the child time of the span that caused
it, so self time is a span's duration minus what its child spans cover.  The
spans are kept in memory as per-name totals and caller -> callee edges, and
``summary()`` writes them out when the run ends.  ``uninstall()`` restores
every binding it replaced.  Names that a version of the package lacks are
skipped, so the tracer keeps working while the package changes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer (the module name) -> public functions traced in it
FUNCTIONS: dict[str, tuple[str, ...]] = {
    "laurent": ("exact_div", "qnum", "qfact", "qbinom", "rho", "rho_prime"),
    "polyring": ("demazure", "s_action", "sigma", "tau", "drop_x123_multiples"),
    "words": ("xi_oracle", "xi_recursive", "build_word", "base_case"),
    "closed_formula": ("xi_formula", "xi_standard", "factors_standard", "xi_klen", "xi_bzero"),
    "magic": (
        "magic", "term", "magic_genfun", "magic_genfun_for3", "magic_recursion_sides",
        "magic_symmetry_check", "chu_vandermonde_special", "telescope_sides",
    ),
    "rou": (
        "specialize", "cyclotomic_poly", "xi_rou_formula", "xi_rou_corollary",
        "xi_rou_specialized", "rou_lemma_suite",
    ),
    "verify": ("run_suite",),
    "cli": ("main", "build_parser"),
}

# (layer, class) -> {method attribute: span name within the layer}
METHODS: dict[tuple[str, str], dict[str, str]] = {
    ("laurent", "LaurentScalar"): {
        "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
        "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow", "bar": "bar",
    },
    ("report", "Recorder"): {"eq": "eq", "ok": "ok", "report": "report"},
    ("report", "VerifyReport"): {"to_dict": "to_dict", "to_json": "to_json", "render_text": "render_text"},
}


def _term_count(x: object) -> int:
    if isinstance(x, int):
        return 1 if x else 0
    return len(x.coefficients())


def _count_mul(tracer: Tracer, args: tuple, result: object) -> None:
    if result is not NotImplemented:
        tracer.counters["laurent.mul.term_products"] += _term_count(args[0]) * _term_count(args[1])


def _count_demazure(tracer: Tracer, args: tuple, result: object) -> None:
    terms = len(result.terms())
    tracer.counters["polyring.demazure.terms_out"] += terms
    peak = tracer.counters["polyring.demazure.peak_terms"]
    tracer.counters["polyring.demazure.peak_terms"] = max(peak, terms)


# span name -> hook called with (tracer, args, result) after the span ends
HOOKS = {"laurent.mul": _count_mul, "polyring.demazure": _count_demazure}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (caller, callee) -> calls, total_s
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child time]
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stats, edges, stack = self.stats[name], self.edges, self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                edge = edges[(stack[-1][0] if stack else None, name)]
                edge[0] += 1
                edge[1] += dt
            if hook is not None:
                hook(self, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _patch_everywhere(self, modules: list, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import qdemazure.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qdemazure" or n.startswith("qdemazure.")]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"qdemazure.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is not None:
                    self._patch_everywhere(modules, original, self._wrap(f"{layer}.{fname}", original))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"qdemazure.{layer}"], cls_name, None)
            for attr, span_name in methods.items():
                if cls is not None and attr in vars(cls):
                    original = vars(cls)[attr]
                    setattr(cls, attr, self._wrap(f"{layer}.{span_name}", original))
                    self._undo.append((cls, attr, original))
        suites = sys.modules["qdemazure.verify"].SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self._wrap(f"verify.{suite}", fn)
            self._undo.append((suites, suite, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-name totals, per-layer self time, caller -> callee edges and counters."""
        layers: dict[str, float] = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            layers[name.split(".", 1)[0]] += self_s
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in sorted(self.stats.items())},
            "layers_self_s": dict(sorted(layers.items())),
            "edges": [[caller, callee, c, t] for (caller, callee), (c, t) in
                      sorted(self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counters": dict(sorted(self.counters.items())),
        }
