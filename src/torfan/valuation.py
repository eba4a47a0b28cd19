"""Weight orders, initial forms, Groebner fan, tropical variety, jets.

For a hypersurface the Groebner fan is the normal fan of the Newton
polyhedron, so its cones are taken straight from the dual fan machinery
and only the labels (initial forms) are computed here.  Weights live in
the closed octant: the catalog cones use boundary rays such as (0,1,2),
so equivalence-class closures are restricted to w >= 0 rather than taken
over strictly positive weights.
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cones import Cone, Vec, dot
from .polyparse import Polynomial, _format_sum

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


def groebner_fan(p: Polynomial) -> list[GroebnerCone]:
    """All octant-restricted Groebner cones of p.

    Weights are equivalent when they pick the same initial form, and a
    Groebner cone is the closure of one equivalence class.  The dual fan
    of the Newton polyhedron refines that partition: a face on the octant
    boundary can share its initial form with a larger cone (its dual
    Newton-polyhedron face is unbounded but meets the support in the same
    set), in which case it is part of the same class and is absorbed.
    Faces are keyed by their sorted rays: two faces of a fan meet in a face
    of both, so one lies in another exactly when its rays are a subset.
    For a monomial every weight is equivalent and the whole octant is the
    single Groebner cone.
    """
    from .newton import dual_newton_cones

    if len(p) == 0:
        raise ValueError("the zero polynomial has no Groebner fan")
    # the maximal cones are kept as built, a lower face is built if kept
    faces: dict[tuple[Vec, ...], Cone | None] = {}
    for c, _ in dual_newton_cones(p):
        faces[c.generators] = c
        for f in (*c.facets, *((g,) for g in c.generators)):
            faces.setdefault(f, None)
    groups: dict[frozenset, list] = {}
    for rays in faces:
        form = initial_form(p, tuple(map(sum, zip(*rays))))
        groups.setdefault(form.support(), []).append((frozenset(rays), rays, form))
    out = [
        GroebnerCone(faces[rays] or Cone.from_generators(rays), form)
        for members in groups.values()
        for s, rays, form in members
        if not any(s < t for t, _, _ in members)
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
# F_i is the t^i coefficient of f(x(t), y(t), z(t)).  Variables are
# ordered x0,y0,z0,x1,y1,z1,... and a jet monomial is an exponent tuple
# over that list.  While the series are multiplied, each key carries the
# monomial's t-degree in front of its exponents.

JetTerm = tuple[int, ...]


def _truncated_mul(a: dict[JetTerm, int], b: dict[JetTerm, int], m: int) -> dict[JetTerm, int]:
    """Product of two jet series without the monomials of t-degree above m.

    Adding two keys adds the t-degrees in front along with the exponents.
    """
    out: dict[JetTerm, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea[0] + eb[0] <= m:
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
    return out


class JetSystem(tuple):
    """Equations of the m-jet space of f = 0: the tuple F_0 .. F_m."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self) - 1

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"{name}{j}" for j in range(len(self)) for name in "xyz")

    @property
    def equations(self) -> tuple[tuple[tuple[JetTerm, int], ...], ...]:
        return tuple(self)

    def equation_dicts(self) -> list[dict[JetTerm, int]]:
        return [dict(eq) for eq in self]

    def equation_strings(self) -> list[str]:
        # factors ordered x before y before z, then by series index
        names = self.variables
        order = [k for axis in range(3) for k in range(axis, len(names), 3)]
        return [
            _format_sum(
                ((((names[k], term[k]) for k in order), c) for term, c in eq),
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


def jet_equations(p: Polynomial, m: int) -> JetSystem:
    """Coefficients F_0..F_m of f along degree-m truncated coordinate series."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"jet order {m!r} is not an int")
    if m < 0:
        raise ValueError("jet order must be non-negative")
    one = (0,) * (3 * m + 4)
    # powers[axis][k] is the k-th power of that coordinate's series
    powers = []
    for axis in range(3):
        series = {
            (j,) + tuple(int(k == 3 * j + axis) for k in range(3 * m + 3)): 1
            for j in range(m + 1)
        }
        ladder = [{one: 1}]
        for _ in range(max(e[axis] for e, _ in p)):
            ladder.append(_truncated_mul(ladder[-1], series, m))
        powers.append(ladder)

    total: dict[JetTerm, int] = {}
    for exponent, coeff in p:
        prod = powers[0][exponent[0]]
        for axis in (1, 2):
            if exponent[axis]:
                prod = _truncated_mul(prod, powers[axis][exponent[axis]], m)
        for key, c in prod.items():
            total[key] = total.get(key, 0) + coeff * c

    equations: list[list[tuple[JetTerm, int]]] = [[] for _ in range(m + 1)]
    for key, c in sorted(total.items(), reverse=True):
        if c:
            equations[key[0]].append((key[1:], c))
    return JetSystem(map(tuple, equations))
