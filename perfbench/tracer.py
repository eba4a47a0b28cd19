"""Outside-in tracer: times torfan's public functions by wrapping them.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
traced function in every ``torfan.*`` module namespace that binds it (the
package re-exports names and several modules import them directly, so
patching only the defining module would miss calls), and ``uninstall``
puts the originals back.  Spans are kept in memory as
``(id, name, start, end, parent, self_cpu)`` and summed into per-function
call counts and self times after the traced round; the work counters are
exact and must repeat from one traced round to the next.

Self time is the span's thread CPU time minus that of its child spans in
the same thread.  ``verify`` runs its cones on a thread pool, and two
threads under the interpreter lock each spend wall time waiting for the
other; CPU time keeps those waits out, so self times add up to the work
done.  On a single thread it equals wall time less time off the CPU.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from math import gcd
from time import perf_counter, thread_time

# Prefix of the stderr line on which a traced CLI child reports its summary.
TRACE_MARK = "perfbench-trace "

# (module, function): one span per call.  Private names are traced only if
# they exist, so later refactors may delete them without breaking the bench.
SPANS = (
    ("cones", "extremal_rays"),
    ("cones", "triangulate"),
    ("cones", "parallelepiped_points"),
    ("cones", "hilbert_basis"),
    ("cones", "is_irreducible"),
    ("profile", "profile"),
    ("profile", "profile_lattice_points"),
    ("refine", "refine_fan"),
    ("refine", "regular_refinement"),
    ("refine", "refinement_from_rays"),
    ("refine", "stellar_insert"),
    ("refine", "_build_report"),
    ("newton", "dual_newton_cones"),
    ("newton", "octant_solid_volume"),
    ("newton", "fan_consistency_report"),
    ("polyparse", "parse_polynomial"),
    ("valuation", "groebner_fan"),
    ("valuation", "tropical_variety"),
    ("valuation", "jet_equations"),
    ("catalog", "verify"),
    ("cli", "run"),
    ("cli", "validate_output"),
)

# Span names whose metric name differs from "<module>.<function>".
ALIASES = {"refine._build_report": "refine.report"}

# Counters that are exact and must repeat between traced rounds of one seed.
EXACT_COUNTERS = (
    "cones.lattice_index_sum",
    "cones.candidates",
    "cones.hilbert_elements",
    "cones.contains.calls",
    "refine.stellar_insertions",
    "refine.used_fallback",
    "profile.points",
)


def lattice_index(c) -> int:
    """|det| of a simplicial cone's generators in the lattice of its span."""
    gens = c.generators
    if len(gens) == 3:
        (a, b, d) = gens
        return abs(
            a[0] * (b[1] * d[2] - b[2] * d[1])
            - a[1] * (b[0] * d[2] - b[2] * d[0])
            + a[2] * (b[0] * d[1] - b[1] * d[0])
        )
    if len(gens) == 2:
        (a, b) = gens
        m = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        return gcd(gcd(abs(m[0]), abs(m[1])), abs(m[2]))
    return 1


def _count_parallelepiped(counters, args, result):
    (cone,) = args
    counters["cones.lattice_index_sum"] += lattice_index(cone)
    counters["cones.candidates"] += len(result)


def _count_hilbert(counters, args, result):
    counters["cones.hilbert_elements"] += len(result)


def _count_profile_points(counters, args, result):
    counters["profile.points"] += len(result)


def _count_stellar(counters, args, result):
    counters["refine.stellar_insertions"] += bool(result[1])


def _count_fallback(counters, args, result):
    counters["refine.used_fallback"] += bool(result.used_fallback)


HOOKS = {
    "cones.parallelepiped_points": _count_parallelepiped,
    "cones.hilbert_basis": _count_hilbert,
    "profile.profile_lattice_points": _count_profile_points,
    "refine.stellar_insert": _count_stellar,
    "refine.regular_refinement": _count_fallback,
}


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # [span id, CPU seconds of child spans]
        self.spans: list[tuple] = []
        self.counters = dict.fromkeys(EXACT_COUNTERS, 0)


class Tracer:
    """Records spans and counters while installed; one instance per process."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self._main = _ThreadState()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            if stack:
                parent = stack[-1][0]
            else:
                # A pool thread: its work was caused by the caller's open span.
                main = self._main.stack
                parent = main[-1][0] if main else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start, cpu = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                st.spans.append((frame[0], name, start, end, parent, cpu - frame[1]))
            if hook is not None:
                hook(st.counters, (*args, *kwargs.values()), result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function that exists; start a fresh recording."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._states = []
        self._local = threading.local()
        self._main = self._state()
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "torfan" or n.startswith("torfan.")) and m is not None
        ]
        for mod_name, fn_name in SPANS:
            mod = importlib.import_module(f"torfan.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, attr, value))
                        setattr(m, attr, wrapper)
        cone_cls = importlib.import_module("torfan.cones").Cone
        contains = cone_cls.__dict__["contains"]
        state = self._state

        @functools.wraps(contains)
        def counted_contains(cone, v):
            state().counters["cones.contains.calls"] += 1
            return contains(cone, v)

        self._patched.append((cone_cls, "contains", contains))
        setattr(cone_cls, "contains", counted_contains)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    def spans(self) -> list[tuple]:
        return sorted(s for st in self._states for s in st.spans)

    def summary(self) -> dict:
        """Per-span-name calls, self and total seconds, plus exact counters."""
        out: dict[str, dict] = {}
        for _, name, start, end, _, self_cpu in self.spans():
            row = out.setdefault(ALIASES.get(name, name), {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_cpu
            row["total_s"] += end - start
        counters = dict.fromkeys(EXACT_COUNTERS, 0)
        for st in self._states:
            for key, value in st.counters.items():
                counters[key] += value
        return {"spans": out, "counters": counters}

