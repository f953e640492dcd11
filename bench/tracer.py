"""Per-module tracing of modmacd, installed from outside the package.

``Tracer.install()`` wraps every public function of the traced modules and
the ExactPolynomial / RationalFunction operators, then rebinds each wrapper
in every ``modmacd`` namespace that bound the original (``from .x import y``
copies the name).  Nothing under ``src/`` changes.

Each wrapped call is a span at a module boundary.  Closing a span adds its
duration minus its children's durations to the name's self time, so self
times and call counts come from the same boundaries as the spans.  Calls in
the modules that carry the most calls (exactalg, qseries, combinat and the
chi exponents) aggregate into counters only; a span per call there would
cost more than the work it measures.  Spans of the other modules are kept in
memory as (name, start, end, parent) and written out when the pass ends.
"""

import functools
import importlib
import inspect
import sys
import time

MODULES = ("exactalg", "qseries", "combinat", "phi", "lattice", "symoracle",
           "modmac")
COUNTER_ONLY = ("exactalg", "qseries", "combinat")

# function name -> metric name inside its module, where they differ
RENAMES = {
    "phi": {"phi_series": "series", "phi_finite": "finite",
            "phi_positive": "positive", "phi_normalized": "normalized",
            "phi_prime": "prime", "phi_prime_series": "prime_series",
            "phi_at_one": "at_one"},
    "combinat": {"enumerate_nu_families": "nu_families",
                 "enumerate_flags": "flags"},
    "lattice": {"chi_exponent": "chi", "chi_prime_exponent": "chi"},
}
OPERATORS = {
    "ExactPolynomial": {"__mul__": "mul", "__rmul__": "mul",
                        "__add__": "add", "__radd__": "add",
                        "substitute": "substitute"},
    "RationalFunction": {"__mul__": "rf_mul", "__rmul__": "rf_mul",
                         "__add__": "rf_add", "__radd__": "rf_add",
                         "__eq__": "rf_eq", "__truediv__": "rf_div",
                         "__rtruediv__": "rf_div"},
}
# rational-function work: exactalg self time under these frames is the
# share the factored-denominator item (ROADMAP 4) targets
RF_OPS = ("exactalg.rf_mul", "exactalg.rf_add", "exactalg.rf_eq",
          "exactalg.rf_div", "exactalg.ratfun_normalize", "exactalg.poly_gcd")
# the eight module-level memo dicts, read from outside at the end of a pass
CACHES = {"binom": ("qseries", "_BINOM_CACHE"),
          "binom_list": ("phi", "_BINOM_LIST_CACHE"),
          "phi": ("phi", "_PHI_CACHE"),
          "phi_eval": ("lattice", "_PHI_EVAL_CACHE"),
          "psi": ("symoracle", "_PSI_CACHE"),
          "pcoef": ("symoracle", "_PCOEF_CACHE"),
          "kostka": ("symoracle", "_KOSTKA_CACHE"),
          "transition": ("symoracle", "_TRANSITION_CACHE")}


class Tracer:
    def __init__(self):
        self.calls = {}      # name -> calls (generators: enumerations)
        self.items = {}      # generator name -> items yielded
        self.self_s = {}     # name -> seconds not covered by child spans
        self.term_pairs = 0  # sum of |a|*|b| over ExactPolynomial products
        self.positive_under_normalized = 0
        self.library_s = 0.0  # time inside outermost wrapped calls
        self.rf_self_s = 0.0  # exactalg self time under RF_OPS frames
        self._rf_depth = 0
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []     # open frames: [start, child seconds, name]
        self._open_spans = []

    # -- frames -------------------------------------------------------------

    def _close(self, frame, name, rf):
        dt = time.perf_counter() - frame[0]
        stack = self._stack
        stack.pop()
        own = dt - frame[1]
        self.self_s[name] += own
        if self._rf_depth and name.startswith("exactalg."):
            self.rf_self_s += own
        self._rf_depth -= rf
        if stack:
            stack[-1][1] += dt
        else:
            self.library_s += dt

    def _wrap(self, fn, name, spans, on_call=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, stack, clock = self.calls, self._stack, time.perf_counter
        rf = int(name in RF_OPS)

        if inspect.isgeneratorfunction(fn):
            self.items.setdefault(name, 0)

            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls[name] += 1
                while True:
                    frame = [clock(), 0.0, name]
                    stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, name, 0)
                    self.items[name] += 1
                    yield item

            return functools.wraps(fn)(generator)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            calls[name] += 1
            self._rf_depth += rf
            frame = [clock(), 0.0, name]
            stack.append(frame)
            if spans:
                span = [name, frame[0], None,
                        self._open_spans[-1] if self._open_spans else -1]
                self._open_spans.append(len(self.spans))
                self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, rf)
                if spans:
                    self._open_spans.pop()
                    span[2] = clock()

        return functools.wraps(fn)(wrapper)

    # -- hooks for the derived counters -------------------------------------

    def _count_pairs(self, args):
        a, b = args[0], args[1]
        self.term_pairs += len(a.terms) * (
            len(b.terms) if hasattr(b, "terms") else 1)

    def _note_positive(self, args):
        if any(f[2] == "phi.normalized" for f in self._stack):
            self.positive_under_normalized += 1

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Wrap and rebind; returns the traced modules by short name."""
        modules = {m: importlib.import_module(package.__name__ + "." + m)
                   for m in MODULES}
        replace = {}
        for short, mod in modules.items():
            spans = short not in COUNTER_ONLY
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                metric = RENAMES.get(short, {}).get(fname, fname)
                if fname == "partition_function_coeffs":
                    replace[fn] = self._wrap_by_formula(fn)
                    continue
                hook = self._note_positive if fname == "phi_positive" \
                    else None
                replace[fn] = self._wrap(
                    fn, "%s.%s" % (short, metric),
                    spans and metric != "chi", hook)
        exactalg = modules["exactalg"]
        for cls_name, ops in OPERATORS.items():
            cls = getattr(exactalg, cls_name)
            for attr, metric in ops.items():
                hook = self._count_pairs if (cls_name, metric) == \
                    ("ExactPolynomial", "mul") else None
                setattr(cls, attr, self._wrap(
                    vars(cls)[attr], "exactalg." + metric, False, hook))
        prefix = package.__name__ + "."
        bound = [mod for name, mod in list(sys.modules.items())
                 if name == package.__name__ or name.startswith(prefix)]
        for mod in bound:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    setattr(mod, attr, replace[val])
        return modules

    def _wrap_by_formula(self, fn):
        """partition_function_coeffs gets one name per formula x / z / hl."""
        wrapped = {f: self._wrap(fn, "lattice.partition_function." + f, True)
                   for f in ("x", "z", "hl")}

        @functools.wraps(fn)
        def dispatch(lam, N, formula="x"):
            return wrapped.get(formula, fn)(lam, N, formula=formula)

        return dispatch

    # -- results ------------------------------------------------------------

    def module_self(self):
        out = {m: 0.0 for m in MODULES}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out


def cache_sizes(modules):
    """Entries in each module-level memo dict; -1 if it is not found."""
    out = {}
    for key, (mod, attr) in CACHES.items():
        try:
            out[key] = len(getattr(modules[mod], attr))
        except (AttributeError, TypeError):
            out[key] = -1
    return out
