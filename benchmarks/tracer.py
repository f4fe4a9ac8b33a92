"""Outside-in tracing of nilgeo: per-span call counts, self and total times.

The tracer wraps every public module-level function of the traced modules,
plus the operator and method entry points listed in METHODS, and rebinds
every alias of each original: module globals (`from .connection import
curvature`), class attributes (`__rmul__ = __mul__`), and tuples and dicts
held in module globals (the suite registry).  `unwrapped_bindings` finds any
other holder of an original, so a new kind of alias fails the run instead
of going unseen.  No file of the program changes; `uninstall` puts every
original back.

A span's self time is its duration minus the durations of the wrapped
calls made inside it; its total time counts only the outermost call of a
recursive chain, so nested spans of one name are not counted twice.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import types

PACKAGE = "nilgeo"
LAYERS = (
    "weil",
    "matrices",
    "polynomials",
    "models",
    "microcalc",
    "sampling",
    "connection",
    "forms",
    "bianchi",
    "suites",
    "cli",
)

# span name -> (class, attribute) pairs in the layer the span name starts with
METHODS = {
    "weil.mul": (("WeilElement", "__mul__"),),
    "weil.add": (("WeilElement", "__add__"),),
    "weil.invert": (("WeilElement", "invert"),),
    "weil.scalar": (("WeilAlgebra", "scalar"),),
    "matrices.mul": (("Matrix", "__mul__"),),
    "matrices.inverse": (("Matrix", "inverse"),),
    "matrices.from_rational": (("Matrix", "from_rational"),),
    "polynomials.eval": (("PolyMatrix", "__call__"),),
    "models.check": (("GroupoidModel", "check"),),
    "connection.apply": (("SplittingConnection", "apply"), ("GaugeConnection", "apply")),
    "forms.eval": (("Form", "__call__"),),
}


class SpanStat:
    __slots__ = ("calls", "self_s", "total_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0


def _function_of(value):
    """The plain function a binding holds, unwrapping static/class methods."""
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__
    return value


def _package_modules() -> list[types.ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the traced modules of the imported program; one pass at a time.

    The two ratios are computed from the wrapped calls' arguments, before
    the span's clock starts; their cost is kept out of the caller's self
    time as well."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.inverse_identity_const = 0
        self._curvature_inputs: set = set()
        self._connections: dict[int, object] = {}  # keeps ids unique
        self._stack = [0.0]
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(orig) -> (orig, wrapper)
        self._undo: list[tuple] = []
        self.missing: list[str] = []  # traced names the program no longer has

    # -- ratio hooks ---------------------------------------------------------

    def _inverse_hook(self, args):
        const = args[0].constant_matrix()
        n = len(const)
        if all(const[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)):
            self.inverse_identity_const += 1

    def _curvature_hook(self, args):
        conn, cube = args[0], args[1]
        self._connections[id(conn)] = conn
        self._curvature_inputs.add((id(conn), cube))

    @property
    def curvature_distinct(self) -> int:
        return len(self._curvature_inputs)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span: str, fn):
        stat = self.stats.setdefault(span, SpanStat())
        stack = self._stack
        clock = time.perf_counter
        hook = {
            "matrices.inverse": self._inverse_hook,
            "connection.curvature": self._curvature_hook,
        }.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            if hook is not None:
                hook(args)
                t1 = clock()
                stack[-1] += t1 - t0
                t0 = t1
            outer = stat.active == 0
            stat.active += 1
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dur - child
                if outer:
                    stat.total_s += dur

        self._wrappers[id(fn)] = (fn, wrapper)

    def _targets(self):
        """(span name, original function) for everything the tracer wraps."""
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                self.missing.append(layer)
                continue
            for name, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not name.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    yield f"{layer}.{name}", value
        for span, members in METHODS.items():
            mod = sys.modules.get(f"{PACKAGE}.{span.split('.')[0]}")
            for cls_name, attr in members:
                cls = getattr(mod, cls_name, None)
                value = vars(cls).get(attr) if isinstance(cls, type) else None
                if value is None:
                    self.missing.append(f"{cls_name}.{attr}")
                    continue
                yield span, _function_of(value)

    def _swap(self, value):
        """The traced replacement for a bound value, or the value itself."""
        fn = _function_of(value)
        pair = self._wrappers.get(id(fn))
        if pair is not None and pair[0] is fn:
            return pair[1] if value is fn else type(value)(pair[1])
        if isinstance(value, tuple):
            swapped = tuple(self._swap(v) for v in value)
            if any(a is not b for a, b in zip(swapped, value)):
                return swapped
        return value

    def _rebind(self, holder, key, value, setter):
        new = self._swap(value)
        if new is not value:
            self._undo.append((setter, holder, key, value))
            setter(holder, key, new)

    def install(self) -> None:
        for span, fn in self._targets():
            if id(fn) not in self._wrappers:
                self._wrap(span, fn)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                self._rebind(mod, name, value, setattr)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        self._rebind(value, key, item, dict.__setitem__)
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, item in list(vars(value).items()):
                        self._rebind(value, attr, item, setattr)

    def uninstall(self) -> None:
        while self._undo:
            setter, holder, key, value = self._undo.pop()
            setter(holder, key, value)

    # -- the completeness self-test --------------------------------------------

    def unwrapped_bindings(self) -> list[str]:
        """Every live reference to a wrapped original, other than the
        tracer's own bookkeeping.  Found from the garbage collector's view
        of the heap, not by walking the places `install` rebinds, so an
        alias that `install` missed shows up here.  Earlier tracers must be
        unreachable, since their wrappers also hold the originals."""
        gc.collect()
        own = {id(self._wrappers), id(self._undo)}
        own.update(id(entry) for entry in self._undo)
        own.update(id(pair) for pair in self._wrappers.values())
        for _, wrapper in self._wrappers.values():
            own.add(id(wrapper.__dict__))
            own.update(id(cell) for cell in wrapper.__closure__ or ())
        replaced = {id(entry[3]) for entry in self._undo}
        found = []
        for orig, _ in list(self._wrappers.values()):
            refs = gc.get_referrers(orig)
            for ref in refs:
                if isinstance(ref, types.FrameType) or id(ref) in own:
                    continue
                if id(ref) in replaced:
                    # a replaced container (old registry tuple, staticmethod
                    # object) is fine only if nothing else still holds it
                    holders = [
                        r for r in gc.get_referrers(ref)
                        if not isinstance(r, types.FrameType)
                        and id(r) not in own and r is not refs
                    ]
                    if not holders:
                        continue
                    ref = holders[0]
                found.append(f"{orig.__module__}.{orig.__qualname__} held by "
                             f"{_describe(ref, orig)}")
        return found


def _describe(ref, target) -> str:
    if isinstance(ref, dict):
        keys = [k for k, v in ref.items() if v is target]
        owner = ref.get("__qualname__") or ref.get("__name__") or "dict"
        return f"{owner} namespace key {keys}"
    return type(ref).__name__
