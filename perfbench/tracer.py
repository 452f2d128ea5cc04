"""Per-layer tracing from outside the program.

The layers are the hermlat modules.  A traced run wraps the calls one module
makes into another: every public module-level function, every private one
that another module imports by name (``_arrange_first_block``, ``_gram_of``),
and the class methods other modules call, dunder methods included.  Each
binding of a wrapped function is patched, in the defining module and in
every module that imported it, so no call slips past through an old name.

The scalar kernels (``localfield``, ``etale``) see millions of calls, so
their calls are aggregated into counts and times per calling layer.  Calls
into the coarser layers also record one span each, with the id of the
enclosing span and of the benchmark operation they belong to.  Self time is
a span's duration minus the time of the wrapped spans nested in it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import time

PACKAGE = "hermlat"
LAYERS = ("localfield", "etale", "linalg", "lattice", "classify",
          "isometries", "factorize", "oracle", "specfile")
KERNEL_LAYERS = ("localfield", "etale")

# Methods wrapped although only their own module calls them: a metric
# counts them.
EXTRA_METHODS = {("localfield", "FieldElement", "_invert"),
                 ("factorize", "_Driver", "emit")}
# Dunders that are presentation, not work.
SKIP_DUNDERS = {"__repr__", "__str__", "__hash__"}
# Calls whose integer argument at this position is summed.
ARG_SUMS = {"etale:EtaleAlgebra.uniformizer_pow": 1}
# Calls whose non-None results are counted.
HIT_COUNTS = {"isometries:eichler_to_symmetries"}

WRAPPED = "__perfbench_wrapped__"
SPAN_FIELDS = ("id", "parent", "op", "layer", "name", "start", "end")


def _modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _cross_module_attrs(modules):
    """Attribute names each module's source uses, as {layer: set}."""
    out = {}
    for layer, mod in modules.items():
        tree = ast.parse(inspect.getsource(mod))
        out[layer] = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
    return out


def _imported_names(modules):
    """Private names some module binds from another layer's module."""
    names = set()
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            home = getattr(obj, "__module__", None)
            if inspect.isfunction(obj) and home != mod.__name__ and \
                    home and home.startswith(PACKAGE + "."):
                names.add((home.rsplit(".", 1)[1], name))
    return names


def targets(modules):
    """What a traced run wraps: a list of (layer, owner, attribute, qualname),
    owner being the defining module or class."""
    used = _cross_module_attrs(modules)
    imported = _imported_names(modules)
    out = []
    for layer, mod in modules.items():
        used_elsewhere = set().union(*(attrs for other, attrs in used.items() if other != layer))
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if not name.startswith("_") or (layer, name) in imported:
                    out.append((layer, mod, name, name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    func = member.__func__ if isinstance(member, (staticmethod, classmethod)) \
                        else member
                    if not inspect.isfunction(func):
                        continue
                    dunder = attr.startswith("__") and attr.endswith("__")
                    if dunder:
                        wanted = attr not in SKIP_DUNDERS
                    elif attr.startswith("_"):
                        wanted = attr in used_elsewhere or (layer, name, attr) in EXTRA_METHODS
                    else:
                        wanted = True
                    if wanted:
                        out.append((layer, obj, attr, f"{name}.{attr}"))
    return out


class Tracer:
    """Installs wrappers, accumulates counts, times and spans, and restores
    every binding on ``uninstall``.  Use as a context manager."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.modules = _modules()
        self.phase = "setup"
        self.op = None
        # stack frames: [layer, nested wrapped time, id of enclosing span]
        self._stack = []
        self._patches = []
        self._next_span = 0
        # (phase, layer, qualname, calling layer) -> [calls, total, self, argsum, hits]
        self.agg = {}
        # (span id, parent span id, op, layer, qualname, start, end)
        self.spans = []

    # -- installation -------------------------------------------------------

    def install(self):
        for layer, owner, attr, qualname in targets(self.modules):
            original = vars(owner)[attr]
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self._wrap(layer, qualname, original.__func__))
            else:
                wrapped = self._wrap(layer, qualname, original)
            if inspect.ismodule(owner):
                # every module that bound this function by name
                for mod in self.modules.values():
                    for name, obj in list(vars(mod).items()):
                        if obj is original:
                            self._patch(mod, name, original, wrapped)
            else:
                self._patch(owner, attr, original, wrapped)
        return self

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        tracer = self
        clock = self.clock
        stack = self._stack
        agg = self.agg
        spans = self.spans
        kernel = layer in KERNEL_LAYERS
        argpos = ARG_SUMS.get(f"{layer}:{qualname}")
        count_hits = f"{layer}:{qualname}" in HIT_COUNTS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if kernel:
                span_id = parent[2] if parent else None
            else:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                caller = "bench"
                if parent is not None:
                    parent[1] += dur
                    caller = parent[0]
                key = (tracer.phase, layer, qualname, caller)
                acc = agg.get(key)
                if acc is None:
                    acc = agg[key] = [0, 0.0, 0.0, 0, 0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
                if argpos is not None and len(args) > argpos:
                    acc[3] += args[argpos]
                if count_hits and result is not None:
                    acc[4] += 1
                if not kernel:
                    spans.append((span_id, parent[2] if parent else None, tracer.op,
                                  layer, qualname, t0, t1))

        setattr(wrapper, WRAPPED, True)
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self, phases):
        """{(layer, qualname): [calls, total, self, argsum, hits]} summed over
        the given phases and over callers."""
        out = {}
        for (phase, layer, qualname, _), acc in self.agg.items():
            if phase in phases:
                cur = out.setdefault((layer, qualname), [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(acc):
                    cur[i] += v
        return out

    def layer_self(self, phases):
        """Self time per layer over the given phases."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), acc in self.totals(phases).items():
            out[layer] += acc[2]
        return out

    def write(self, path):
        """Spans as JSON arrays of SPAN_FIELDS, then the call aggregates per
        calling layer, as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "span_fields", "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (phase, layer, name, caller), acc in sorted(self.agg.items()):
                fh.write(json.dumps({"record": "calls", "phase": phase, "layer": layer,
                                     "name": name, "caller": caller, "calls": acc[0],
                                     "total_s": acc[1], "self_s": acc[2]}) + "\n")


def wrapped_bindings():
    """Names under which a wrapper is still reachable; empty after uninstall."""
    left = []
    for layer, mod in _modules().items():
        for name, obj in vars(mod).items():
            if getattr(obj, WRAPPED, False):
                left.append(f"{layer}.{name}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, WRAPPED, False):
                        left.append(f"{layer}.{name}.{attr}")
    return left


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

FE, AE = "FieldElement", "AlgElement"
# what each metric should move, and on which workloads
F50 = "factor_s_p50, factor_per_s"
F90 = "factor_s_p90"
D50 = "decide_s_p50, decide_s_iqm"
CATALOG = "unramified, ramified"
ALL = "unramified, ramified, tower"
TOWER_FLAT = "unramified, ramified; tower flat for an nbasis == 1 path"

# name -> (unit, better, denominator, how, functions, moves, on).
#   denominator: "op" (every traced operation), "factor" or "decide" (that
#     kind only), "input" (generated factorization inputs) or None (a total
#     over the run, or a per-call mean);
#   how: "calls", "argsum", "self" (self time of the layer), "incl"
#     (inclusive time of outermost calls), "us" (mean inclusive microseconds
#     per call), "hits" (share of calls returning a result), "setup" and
#     "inputs" (inclusive time in that phase), or "overhead".
LAYER_METRICS = {
    "localfield.mul_calls": ("1/op", "lower", "op", "calls",
                             (f"{FE}.__mul__", f"{FE}.__rmul__"), F50, TOWER_FLAT),
    "localfield.addsub_calls": ("1/op", "lower", "op", "calls",
                                (f"{FE}.__add__", f"{FE}.__radd__", f"{FE}.__sub__",
                                 f"{FE}.__rsub__"), F50, CATALOG),
    "localfield.elements_built": ("1/op", "lower", "op", "calls", (f"{FE}.__init__",),
                                  F50, CATALOG),
    "localfield.invert_calls": ("1/op", "lower", "op", "calls", (f"{FE}._invert",),
                                F50, CATALOG),
    "localfield.mul_us": ("us", "lower", None, "us", (f"{FE}.__mul__", f"{FE}.__rmul__"),
                          F50, CATALOG),
    "localfield.self_s": ("s/op", "lower", "op", "self", ("localfield",), F50, TOWER_FLAT),
    "etale.mul_calls": ("1/op", "lower", "op", "calls", (f"{AE}.__mul__", f"{AE}.__rmul__"),
                        F50, "ramified"),
    "etale.elements_built": ("1/op", "lower", "op", "calls", (f"{AE}.__init__",),
                             F50, "ramified"),
    "etale.mul_us": ("us", "lower", None, "us", (f"{AE}.__mul__", f"{AE}.__rmul__"),
                     F50, "ramified"),
    "etale.self_s": ("s/op", "lower", "op", "self", ("etale",), F50, "ramified"),
    "etale.uniformizer_pow_calls": ("1/op", "lower", "op", "calls",
                                    ("EtaleAlgebra.uniformizer_pow",), F90, "tower"),
    "etale.uniformizer_pow_k_sum": ("1/op", "lower", "op", "argsum",
                                    ("EtaleAlgebra.uniformizer_pow",), F90, "tower"),
    "etale.u0_s": ("s", "lower", None, "setup", ("EtaleAlgebra.u0",),
                   "setup_s, " + D50, "tower; unramified flat"),
    "etale.norm_class_calls": ("1/op", "lower", "op", "calls", ("EtaleAlgebra.norm_class",),
                               "setup_s, " + D50, "tower; unramified flat"),
    "lattice.inner_calls": ("1/op", "lower", "op", "calls", ("HermitianLattice.inner",),
                            F90, "ramified"),
    "lattice.inner_us": ("us", "lower", None, "us", ("HermitianLattice.inner",),
                         F90, "ramified"),
    "lattice.gram_of_calls": ("1/op", "lower", "op", "calls", ("_gram_of",), F90, "ramified"),
    "classify.arrange_first_block_calls": ("1/op", "lower", "op", "calls",
                                           ("_arrange_first_block",), F90, "ramified"),
    "classify.arrange_first_block_s": ("s/op", "lower", "op", "incl",
                                       ("_arrange_first_block",), F90, "ramified"),
    "lattice.jordan_split_calls": ("1/op", "lower", "op", "calls",
                                   ("HermitianLattice.jordan_split",), D50, ALL),
    "lattice.jordan_split_s": ("s/op", "lower", "op", "incl",
                               ("HermitianLattice.jordan_split",), D50, ALL),
    "classify.isometry_conditions_s": ("s/op", "lower", "decide", "incl",
                                       ("isometry_conditions",), D50, ALL),
    "classify.isotropy_refine_calls": ("1/op", "lower", "factor", "calls",
                                       ("isotropy_refine",), F90 + ", factor_per_s",
                                       "tower; small on the catalog workloads"),
    "classify.isotropy_refine_s": ("s/op", "lower", "factor", "incl", ("isotropy_refine",),
                                   F90 + ", factor_per_s",
                                   "tower; small on the catalog workloads"),
    "linalg.mat_mul_calls": ("1/op", "lower", "op", "calls", ("mat_mul",), F50, "ramified"),
    "linalg.mat_det_calls": ("1/op", "lower", "op", "calls", ("mat_det",), F50, "ramified"),
    "linalg.self_s": ("s/op", "lower", "op", "self", ("linalg",), F50, "ramified"),
    "isometries.in_unitary_group_calls": ("1/op", "lower", "factor", "calls",
                                          ("in_unitary_group",), F50, CATALOG),
    "isometries.in_unitary_group_s": ("s/op", "lower", "factor", "incl",
                                      ("in_unitary_group",), F50, CATALOG),
    "isometries.matrix_of_calls": ("1/op", "lower", "factor", "calls", ("matrix_of",),
                                   F50, CATALOG),
    "isometries.eichler_to_symmetries_calls": ("1/op", "lower", "factor", "calls",
                                               ("eichler_to_symmetries",),
                                               F50 + ", symmetries_only_frac", "ramified"),
    "isometries.eichler_to_symmetries_s": ("s/op", "lower", "factor", "incl",
                                           ("eichler_to_symmetries",),
                                           F50 + ", symmetries_only_frac", "ramified"),
    "isometries.eichler_rewrite_ratio": ("ratio", "higher", None, "hits",
                                         ("eichler_to_symmetries",),
                                         F50 + ", symmetries_only_frac", "ramified"),
    "factorize.factor_unitary_self_s": ("s/op", "lower", "factor", "self", ("factorize",),
                                        F50 + ", factors_per_op", ALL),
    "factorize.verify_s": ("s/op", "lower", "factor", "incl", ("verify_factorization",),
                           F50 + ", factors_per_op", ALL),
    "factorize.generators_emitted": ("1/op", "lower", "factor", "calls", ("_Driver.emit",),
                                     F50 + ", factors_per_op", ALL),
    "oracle.random_generators_s": ("s/op", "lower", "input", "inputs",
                                   ("random_symmetry", "random_eichler"),
                                   "none (input generation)", ALL),
    "specfile.parse_s": ("s", "lower", None, "setup", ("parse_lattice",), "setup_s", CATALOG),
    "trace.overhead_frac": ("ratio", "lower", None, "overhead", (), "n/a", ALL),
}


def _outermost_incl(spans, names, ops, info=None):
    """Inclusive time of the spans named in `names` that have no ancestor of
    the same name, over the spans of the given op ids.  `info` maps span id
    to (parent id, name) and is built from `spans` when not given."""
    info = info or {s[0]: (s[1], s[4]) for s in spans}
    total = 0.0
    for sid, parent, op, _, name, t0, t1 in spans:
        if name not in names or op not in ops:
            continue
        while parent is not None and info[parent][1] != name:
            parent = info[parent][0]
        if parent is None:
            total += t1 - t0
    return total


def layer_metrics(tracer, counts, overhead):
    """{name: value} for every LAYER_METRICS entry.  `counts` maps
    "op"/"factor"/"decide"/"input" to the number of such operations in the
    traced loop (inputs: generated factorization inputs); `overhead` is the
    traced loop time over the untraced one, minus one."""
    loop = tracer.totals(("loop",))
    setup = tracer.totals(("setup",))
    inputs = tracer.totals(("inputs",))
    self_loop = tracer.layer_self(("loop",))
    loop_ops = {op for op in {s[2] for s in tracer.spans} if isinstance(op, int)}
    info = {s[0]: (s[1], s[4]) for s in tracer.spans}

    def pick(table, names, field):
        return sum(acc[field] for (_, q), acc in table.items() if q in names)

    out = {}
    for name, (_, _, per, how, funcs, _, _) in LAYER_METRICS.items():
        if how == "calls":
            value = pick(loop, funcs, 0)
        elif how == "argsum":
            value = pick(loop, funcs, 3)
        elif how == "self":
            value = self_loop[funcs[0]]
        elif how == "incl":
            value = _outermost_incl(tracer.spans, funcs, loop_ops, info)
        elif how == "us":
            calls = pick(loop, funcs, 0)
            value = 1e6 * pick(loop, funcs, 1) / calls if calls else 0.0
        elif how == "hits":
            calls = pick(loop, funcs, 0)
            value = pick(loop, funcs, 4) / calls if calls else 0.0
        elif how == "setup":
            value = pick(setup, funcs, 1)
        elif how == "inputs":
            value = pick(inputs, funcs, 1)
        else:
            value = overhead
        if per is not None:
            value = value / counts[per] if counts[per] else 0.0
        out[name] = value
    return out
