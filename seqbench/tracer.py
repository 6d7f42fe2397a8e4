"""Layer spans recorded from outside the program.

The tracer replaces the public functions of each ``krec`` module with
wrappers that record one span per call: name, parent span, start and end.
``from .x import f`` binds ``f`` in every importing module, so a function is
replaced under every name that refers to it in any loaded ``krec`` module,
and in the generator table the driver looks generators up in.  Spans are kept
in memory; self times are computed once the traced run ends.

A layer's self time is its span minus the spans of its direct children, so
the self times of all spans under a root add up to the root's duration.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> {public function name: span name}; a function's span name is the
# layer it belongs to, refined where the layer has more than one metric
SPAN_NAMES = {
    "krec.sparse": {"csr_matvec": "sparse.matvec"},
    "krec.matrices": {
        "gen_neumann2d": "matrices.generate",
        "gen_advdiff2d": "matrices.generate",
        "gen_hpd": "matrices.generate",
        "gen_twocluster": "matrices.generate",
        "perturb_sparsity_gaussian": "matrices.perturb",
    },
    "krec.arnoldi": {"arnoldi_build": "arnoldi", "arnoldi_extend": "arnoldi"},
    "krec.sketch": {
        "sketch_apply": "sketch.apply",
        "sketch_av_from_arnoldi": "sketch.sav",
        "sketch_new": "sketch.other",
        "sketch_dense": "sketch.other",
        "estimate_epsilon": "sketch.other",
    },
    "krec.linalg": {
        "qr_econ": "linalg.qr",
        "svd_econ": "linalg.svd",
        "eig_dense": "linalg.eig",
        "partial_schur_closest_to_origin": "linalg.schur",
        "lu_solve": "linalg.lu",
    },
    "krec.matfun": {"matfun": "matfun", "matfun_apply": "matfun"},
    "krec.approximants": {
        name: "approximants" for name in (
            "fom_closed", "rfom_step", "sfom_whitened", "srfom_stab", "srfom_step",
            "gmres_type_closed", "sgmres_type", "sgmres_type_stab")
    },
    "krec.recycle": {
        "update_orthonormal": "recycle.update",
        "update_sketched": "recycle.update",
        "update_sketched_stab": "recycle.update",
        "update_inexact": "recycle.update",
        "srr_matrix": "recycle.other",
        "propagate_AU": "recycle.other",
    },
    "krec.errest": {
        name: "errest" for name in (
            "estimate_diff", "estimate_diff_lower", "pad_coeffs", "epsilon_policy")
    },
    "krec.driver": {"run_sequence": "driver", "load_matrix": "driver"},
}
CSR_BUILD = "sparse.csr_build"  # CSRMatrix.__init__: validation and the scipy view


class Tracer:
    """Records spans of wrapped calls and counts attributed to the open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # [name, parent index or -1, start, end]
        self.counts = Counter()    # (span name, counter) -> amount
        self.max_dim = Counter()   # span name -> largest matrix order seen
        self._open = []            # indices of the spans currently open
        self._restore = []         # (namespace, key, original) to undo install

    def span(self, name, fn, observe=None):
        """Wrap fn so that each call records a span called name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(self, name, args)
            parent = self._open[-1] if self._open else -1
            record = [name, parent, self.clock(), None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = self.clock()
                self._open.pop()

        return wrapper

    def count(self, counter, amount):
        """Attribute amount of counter to the innermost open span."""
        name = self.spans[self._open[-1]][0] if self._open else "untraced"
        self.counts[name, counter] += amount

    def install(self, extra=()):
        """Wrap every function named in SPAN_NAMES under every name bound to it.

        ``extra`` holds (object, attribute, span name) triples for methods of
        the benchmark's own objects, such as its substitute oracle.
        """
        from krec.counters import Counters
        from krec.matrices import GENERATORS
        from krec.sparse import CSRMatrix

        wrappers = {}
        for modname, names in SPAN_NAMES.items():
            for fname, span_name in names.items():
                original = getattr(importlib.import_module(modname), fname)
                observe = _observe_order if span_name == "matfun" else None
                wrappers[id(original)] = (original, self.span(span_name, original, observe))

        def wrapper_of(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        modules = [m for n, m in sys.modules.items() if n == "krec" or n.startswith("krec.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if (wrapper := wrapper_of(value)) is not None:
                    self._set(module, key, wrapper)
        for key, value in list(GENERATORS.items()):
            if (wrapper := wrapper_of(value)) is not None:
                self._restore.append((GENERATORS, key, value))
                GENERATORS[key] = wrapper
        self._set(CSRMatrix, "__init__", self.span(CSR_BUILD, CSRMatrix.__init__))
        add_inner_products = Counters.add_inner_products

        def counted(counters, n=1):
            self.count("inner_products", n)
            return add_inner_products(counters, n)

        self._set(Counters, "add_inner_products", counted)
        for obj, attr, span_name in extra:
            self._set(obj, attr, self.span(span_name, getattr(obj, attr)))

    def uninstall(self):
        """Put every replaced name back, in reverse order of replacement."""
        while self._restore:
            namespace, key, original = self._restore.pop()
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _observe_order(tracer, name, args):
    # matfun(f, H) and matfun_apply(f, H, c): H is the projected matrix
    tracer.max_dim[name] = max(tracer.max_dim[name], int(args[1].shape[0]))


def self_times(spans):
    """Per-name self time and call count of closed spans.

    Each span's self time is its duration minus the durations of the spans
    whose parent it is.
    """
    child_time = defaultdict(float)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own = defaultdict(float)
    calls = Counter()
    for index, (name, parent, start, end) in enumerate(spans):
        own[name] += (end - start) - child_time[index]
        calls[name] += 1
    return own, calls
