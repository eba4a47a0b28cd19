"""Weight orders, initial forms, Groebner fan, tropical variety, jets.

For a hypersurface the Groebner fan is the normal fan of the Newton
polyhedron, so its cones are taken straight from the dual fan machinery
and only the labels (initial forms) are computed here.  The face walk
``_dual_faces`` is the one reader of every face of the dual fan: its
initial forms carry each compact face of the Newton polyhedron with all
its support points, and ``groebner_fan`` groups them.  Weights live in
the closed octant: the catalog cones use boundary rays such as (0,1,2),
so equivalence-class closures are restricted to w >= 0 rather than taken
over strictly positive weights.
"""

from __future__ import annotations

import sys
from math import comb, log10
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cones import Cone, Vec, dot
from .polyparse import Polynomial, _format_sum, _is_int

if TYPE_CHECKING:
    from .newton import Fan


def w_order(p: Polynomial, w: Sequence[int]) -> int:
    """Minimum of w . a over the support of p."""
    if len(p) == 0:
        raise ValueError("the zero polynomial has no w-order")
    return min(dot(w, e) for e in p.support())


def initial_form(p: Polynomial, w: Sequence[int]) -> Polynomial:
    """Sub-sum of the terms of p attaining the w-order, coefficients kept."""
    o = w_order(p, w)
    return p.restricted_to(e for e in p.support() if dot(w, e) == o)


class GroebnerCone(NamedTuple):
    """Closure of a weight equivalence class, with its shared initial form."""

    cone: Cone
    initial_form: Polynomial


def _dual_faces(p: Polynomial) -> list[tuple[tuple[Vec, ...], Polynomial, Cone | None]]:
    """Every face of the dual fan of NP(f), keyed by its sorted rays, with
    the initial form at the ray sum and, for a maximal cone, the cone.

    The initial form's support is every support point on the dual face of
    NP(f), not only its vertices: a vertex for a maximal cone, an edge for
    a wall and a facet for a ray, so the face has dimension 3 minus the
    number of rays.  The face is compact exactly when the ray sum is
    strictly positive.  The maximal cones are kept as built, a lower face
    is built by whoever reads it.
    """
    from . import newton

    faces: dict[tuple[Vec, ...], Cone | None] = {}
    for c, _ in newton.dual_newton_cones(p):
        faces[c.generators] = c
        for f in (*c.facets, *((g,) for g in c.generators)):
            faces.setdefault(f, None)
    return [
        (rays, initial_form(p, tuple(map(sum, zip(*rays)))), cone)
        for rays, cone in faces.items()
    ]


def groebner_fan(p: Polynomial) -> list[GroebnerCone]:
    """All octant-restricted Groebner cones of p.

    Weights are equivalent when they pick the same initial form, and a
    Groebner cone is the closure of one equivalence class.  The dual fan
    of the Newton polyhedron refines that partition: a face on the octant
    boundary can share its initial form with a larger cone (its dual
    Newton-polyhedron face is unbounded but meets the support in the same
    set), in which case it is part of the same class and is absorbed.
    Faces come from ``_dual_faces``: two faces of a fan meet in a face of
    both, so one lies in another exactly when its rays are a subset.  For
    a monomial every weight is equivalent and the whole octant is the
    single Groebner cone.
    """
    if len(p) == 0:
        raise ValueError("the zero polynomial has no Groebner fan")
    groups: dict[frozenset, list] = {}
    for rays, form, cone in _dual_faces(p):
        groups.setdefault(form.support(), []).append((frozenset(rays), rays, form, cone))
    out = [
        GroebnerCone(cone or Cone.from_generators(rays), form)
        for members in groups.values()
        for s, rays, form, cone in members
        if not any(s < t for t, *_ in members)
    ]
    return sorted(out, key=lambda g: (g.cone.dim, g.cone.generators))


def tropical_variety(p: Polynomial) -> Fan:
    """Subfan of Groebner cones whose initial form is not a monomial."""
    from .newton import Fan

    if len(p) < 2:
        raise ValueError("the tropical variety needs at least two terms")
    kept = [g for g in groebner_fan(p) if not g.initial_form.is_monomial()]
    return Fan.from_cones(
        [g.cone for g in kept], [str(g.initial_form) for g in kept]
    )


# jet systems: x(t) = x_0 + x_1 t + ... + x_m t^m and likewise for y, z;
# F_k is the t^k coefficient of f(x(t), y(t), z(t)).  Variables are
# ordered x0,y0,z0,x1,y1,z1,..., so x_j has index 3j, y_j 3j+1 and z_j
# 3j+2, and a jet monomial is the tuple of its nonzero (index, exponent)
# pairs, by index.

JetMonomial = tuple[tuple[int, int], ...]

# The most variables, and the most monomials, that a jet system may have.
# On a 2-CPU machine the slowest accepted input measured, `torfan jets
# x^100000000 --m 48` (918,220 monomials, coefficients of up to 400
# digits), took 12 s and 670 MB; `x+y+z` at m = 333,332 took 8 s.
JET_BOUND = 1_000_000


def _descending(term: tuple[JetMonomial, int]) -> tuple[int, ...]:
    # sort key, reversed: (-i1, e1, -i2, e2, ...) orders monomials like
    # their dense exponent tuples over the variables
    return tuple([v for i, e in term[0] for v in (-i, e)])


def _by_axis(pair: tuple[int, int]) -> tuple[int, int]:
    # factor order in print: x before y before z, then by series index
    return pair[0] % 3, pair[0]


class JetSystem(tuple):
    """Equations of the m-jet space of f = 0: the tuple F_0 .. F_m.

    Each equation is the tuple of its ``(monomial, coefficient)`` terms,
    largest first in the reverse lexicographic order of dense exponent
    tuples; a monomial is its sparse ``(index, exponent)`` pairs.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self) - 1

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"{name}{j}" for j in range(len(self)) for name in "xyz")

    @property
    def equations(self) -> tuple[tuple[tuple[JetMonomial, int], ...], ...]:
        return tuple(self)

    def equation_dicts(self) -> list[dict[tuple[int, ...], int]]:
        """F_0..F_m keyed by dense exponent tuples over ``variables``."""
        zero = [0] * (3 * len(self))

        def dense(monomial: JetMonomial) -> tuple[int, ...]:
            e = zero.copy()
            for i, k in monomial:
                e[i] = k
            return tuple(e)

        return [{dense(mono): c for mono, c in eq} for eq in self]

    def equation_strings(self) -> list[str]:
        names = self.variables
        return [
            _format_sum(
                ((((names[i], k) for i, k in sorted(mono, key=_by_axis)), c) for mono, c in eq),
                " + ",
                " - ",
            )
            for eq in self
        ]

    def to_obj(self) -> dict:
        return {
            "m": self.order,
            "variables": list(self.variables),
            "equations": self.equation_strings(),
        }


def _partition_counts(a: int, m: int) -> list[int]:
    """The partitions of k into at most a parts, for k = 0..m.

    They are the partitions into parts of size at most a.  Once the counts
    sum past JET_BOUND the rest are not added, so each is a lower bound.
    """
    counts = [1] + [0] * m
    for part in range(1, min(a, m) + 1):
        for k in range(part, m + 1):
            counts[k] += counts[k - part]
        if sum(counts) > JET_BOUND:
            break
    return counts


def _convolve(u: list[int], v: list[int]) -> list[int]:
    """(u*v)[k] for the k below both lengths, until the sum passes JET_BOUND."""
    out: list[int] = []
    total = 0
    for k in range(min(len(u), len(v))):
        out.append(sum(map(mul, u[: k + 1], reversed(v[: k + 1]))))
        total += out[-1]
        if total > JET_BOUND:
            break
    return out


def _jet_monomial_count(p: Polynomial, m: int) -> int:
    """The number of monomials of the order-m jets of p, or a lower bound
    on it above JET_BOUND.

    The jet monomials of x^a y^b z^c have x-, y- and z-degrees a, b and
    c, so distinct terms share none; at t-degree k a term has one monomial
    for each split k = k_x + k_y + k_z and choice of a partition of each
    part into at most that axis's exponent parts.
    """
    total = 0
    for exponent, _ in p:
        term = None
        for a in filter(None, exponent):
            counts = _partition_counts(a, m)
            term = counts if term is None else _convolve(term, counts)
        total += 1 if term is None else sum(term)
        if total > JET_BOUND:
            break
    return total


def _power_series(axis: int, a: int, m: int) -> list[list[tuple[JetMonomial, int]]]:
    """The terms of the t^k coefficient of (x_0 + x_1 t + ... + x_m t^m)^a,
    for k = 0..m, on one axis.

    A term takes beta_j >= 1 factors x_j t^j for a few j >= 1, with
    sum j*beta_j = k and s = sum beta_j <= a, and x_0 from the other a - s
    factors.  Its coefficient a!/((a - s)! prod beta_j!) is the product of
    C(a - s', beta_j) over its j in increasing order, s' the factors taken
    before j.  So the walk below visits each partition of each k <= m into
    at most a parts once, and nothing else.  It stays shallow once the
    count is bounded: a partition with d distinct parts has 2^d
    sub-partitions, all of them visited.
    """
    series: list[list[tuple[JetMonomial, int]]] = [[] for _ in range(m + 1)]

    def grow(tail: JetMonomial, k: int, s: int, coeff: int, first: int) -> None:
        series[k].append((((axis, a - s),) + tail if s < a else tail, coeff))
        if s < a:
            for j in range(first, m - k + 1):
                for b in range(1, min((m - k) // j, a - s) + 1):
                    grow(tail + ((3 * j + axis, b),), k + j * b, s + b, coeff * comb(a - s, b), j + 1)

    grow((), 0, 0, 1, 1)
    return series


def jet_equations(p: Polynomial, m: int) -> JetSystem:
    """Coefficients F_0..F_m of f along degree-m truncated coordinate series.

    Each term of p is the product of its axes' truncated powers, from the
    closed form of ``_power_series``, so the work follows the number of
    monomials in the answer.  More than JET_BOUND variables or monomials
    is refused with a ValueError, before any is built, and so is a
    coefficient past the interpreter's limit on the digits ``str()`` prints
    (``sys.get_int_max_str_digits()``, absent before Python 3.10.7, which
    has no limit), once it is built.
    """
    if not _is_int(m):
        raise ValueError(f"jet order {m!r} is not an int")
    if m < 0:
        raise ValueError("jet order must be non-negative")
    if 3 * (m + 1) > JET_BOUND:
        raise ValueError(
            f"order-{m} jets have {3 * (m + 1)} variables, more than the bound of {JET_BOUND}"
        )
    count = _jet_monomial_count(p, m)
    if count > JET_BOUND:
        raise ValueError(
            f"order-{m} jets have at least {count} monomials, more than the bound of {JET_BOUND}"
        )
    equations: list[list[tuple[JetMonomial, int]]] = [[] for _ in range(m + 1)]
    for exponent, coeff in p:
        prod = [[((), coeff)]]
        axes = [(axis, a) for axis, a in enumerate(exponent) if a]
        for axis, a in axes:
            series = _power_series(axis, a, m)
            out: list[list[tuple[JetMonomial, int]]] = [[] for _ in range(m + 1)]
            for d, terms in enumerate(prod):
                for e in range(m + 1 - d):
                    out[d + e] += [(t + u, c * w) for t, c in terms for u, w in series[e]]
            prod = out
        for eq, terms in zip(equations, prod):
            eq += terms if len(axes) < 2 else [(tuple(sorted(t)), c) for t, c in terms]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = max((abs(c) for eq in equations for _, c in eq), default=0)
    if limit and widest.bit_length() > 3 * limit and (digits := _digits(widest)) > limit:
        raise ValueError(
            f"order-{m} jets have a coefficient of {digits} digits,"
            f" more than the {limit}-digit limit for printing an integer"
        )
    return JetSystem(tuple(sorted(eq, key=_descending, reverse=True)) for eq in equations)


def _digits(n: int) -> int:
    """The decimal digits of an int n > 0, read without ``str(n)``, which
    refuses past the interpreter's limit; the float log is off by at most
    one near a power of ten."""
    k = int(log10(n)) + 1
    return k + (n >= 10**k) - (n < 10 ** (k - 1))
