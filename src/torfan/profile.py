"""Profiles of lattice cones and their bounding hyperplanes.

The profile of a cone is the region between the origin and the convex hull
of the primitive generators: for a simplicial cone it is cut out by the
single functional taking value 1 on every generator, otherwise by the
facets of conv({0} ∪ generators) that miss the origin, read off the cone
over the lifted points (p, 1) by the supporting-hyperplane kernel of
``cones``.  Bounding functionals are oriented so that inside, ℓ ≤ 0.

Each functional is five ints, (a·x + b·y + c·z + d)/q in lowest terms, and
every decision reads the sign of the numerator; a ``Fraction`` is built
only to evaluate, print or level a point.

The profile's lattice points are read by one path: the half-open walk
(``cones._half_open_points``) of each simplex over an off-origin bounding
face, which is the cone itself when it is simplicial.  A height-one octant
cone reads its Hilbert basis instead, which holds the same points.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .cones import (
    Cone,
    Vec,
    ZERO,
    _half_open_points,
    _height_one,
    _l_form,
    _supporting_planes,
    dot,
    triangulate,
)


class AffineFunctional(NamedTuple):
    """(a·x + b·y + c·z + d)/q in lowest terms with q > 0, so equal
    functionals are equal records; build one with ``from_integers``."""

    a: int
    b: int
    c: int
    d: int = 0
    q: int = 1

    @classmethod
    def from_integers(cls, a: int, b: int, c: int, d: int = 0, q: int = 1) -> "AffineFunctional":
        if q == 0:
            raise ValueError("an affine functional needs a nonzero denominator")
        g = gcd(a, b, c, d, q) if q > 0 else -gcd(a, b, c, d, q)
        return cls(a // g, b // g, c // g, d // g, q // g)

    def __call__(self, v: Sequence) -> Fraction:
        a, b, c, d, q = self
        return Fraction(a * v[0] + b * v[1] + c * v[2] + d, q)

    def __str__(self) -> str:
        out = []
        # the constant d is printed when nonzero or when it is the only term
        for n, name in zip(self[:4], ("x", "y", "z", "")):
            if n == 0 and (name or out):
                continue
            mag = Fraction(abs(n), self.q)
            sign = "-" if n < 0 else ("+" if out else "")
            out.append(sign + (name if mag == 1 and name else f"{mag}{name}"))
        return "".join(out)


def facet_equation(bounding: AffineFunctional) -> str:
    """Hyperplane text of the primitive integer multiple of a·x + b·y + c·z + d
    whose first nonzero coefficient is positive, e.g. 8x-3y-3z+3."""
    parts = bounding[:4]
    g = gcd(*parts) or 1
    if next((n for n in parts if n), 0) < 0:
        g = -g
    return str(AffineFunctional(*(n // g for n in parts)))


class Profile(namedtuple("Profile", "cone bounding kind")):
    """The profile of ``cone``: the ``AffineFunctional``s ``bounding`` it,
    and ``kind``, "simplicial" or "convex-hull"."""

    @cached_property
    def _level_forms(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """(rows, L): the height of v over a bounding form a*x + b*y + c*z + d
        in integers is (a, b, c).v / -d, with d < 0 since 0 is inside; each
        row is (a, b, c) times L / -d, L the least common multiple of the -d."""
        big = lcm(*(-f.d for f in self.bounding))
        rows = tuple(
            (a * (big // -d), b * (big // -d), c * (big // -d)) for a, b, c, d, _ in self.bounding
        )
        return rows, big

    def _level_numerator(self, v: Sequence[int]) -> int:
        """``level(v)`` times the profile's fixed denominator: the same order,
        in integers on lattice points."""
        x, y, z = v
        return max(a * x + b * y + c * z for a, b, c in self._level_forms[0])

    def level(self, v: Sequence[int]) -> Fraction:
        """Height of v against the profile hull: 1 exactly on the hull.

        Agrees with the l-functional on simplicial cones and is defined
        without reference to any triangulation otherwise.
        """
        return Fraction(self._level_numerator(v), self._level_forms[1])


def l_functional(c: Cone) -> AffineFunctional:
    """The linear functional with value 1 on every generator (simplicial, 3-D),
    read from ``_l_form``."""
    if c.dim != 3 or not c.is_simplicial():
        raise ValueError("l functional requires a full-dimensional simplicial cone")
    u, q = _l_form(c)
    return AffineFunctional.from_integers(*u, 0, q)


def _hull_facets_off_origin(points: Sequence[Vec]) -> tuple[AffineFunctional, ...]:
    """Facets of conv(points) not through 0, oriented inside ≤ 0, for points
    whose hull is full-dimensional and holds 0: the facet normals n with
    n[3] != 0 of the cone over the (p, 1), since n·(x, 1) >= 0 inside.  The
    kernel's normals are primitive, so each is a form in lowest terms."""
    planes = _supporting_planes([(*q, 1) for q in points])
    return tuple(sorted(AffineFunctional(-a, -b, -c, -d) for a, b, c, d in planes if d))


def profile(c: Cone) -> Profile:
    """The profile of c: the cone's own ``c.profile``, computed on the first
    call for that cone object and then read."""
    return c.profile


def _profile(c: Cone) -> Profile:
    """The computation behind ``Cone.profile``."""
    if c.is_simplicial():
        u, q = _l_form(c)
        return Profile(c, (AffineFunctional.from_integers(*u, -q, q),), "simplicial")
    return Profile(c, _hull_facets_off_origin([ZERO, *c.generators]), "convex-hull")


def contains_point(p: Profile, v: Sequence[int]) -> bool:
    """v in the cone and on the inner side of every bounding form, whose
    sign is that of its numerator."""
    if not p.cone.contains(v):
        return False
    x, y, z = v
    return all(a * x + b * y + c * z + d <= 0 for a, b, c, d, _ in p.bounding)


def profile_lattice_points(p: Profile) -> list[Vec]:
    """Nonzero lattice points of the profile conv(0, generators), sorted.

    Every generator is a vertex of the hull, so the profile is the union of
    the simplices conv(0, g_1, ..., g_k) over a triangulation of the
    generators on each off-origin hull facet; a simplicial cone has one
    such facet, through all its generators, and is its own triangulation.
    A point u + sum n_i g_i of a simplex, with u = sum (q_i/D) g_i
    half-open and n_i >= 0, has l = (q_1 + q_2 + q_3)/D + sum n_i, so it is
    a generator or a nonzero u with q_1 + q_2 + q_3 <= D, and only those u
    are built.  On a height-one octant cone (``_height_one``) the profile
    is {v in c : l(v) <= 1}, and a nonzero lattice point of c has integral
    l >= 1, so its points are those of the polygon c ∩ {l = 1}, which the
    Hilbert basis ``c.hilbert`` already holds.
    """
    c = p.cone
    if c.in_octant() and _height_one(c) is not None:
        return list(c.hilbert)
    out: set[Vec] = set(c.generators)
    for a, b, e, d, _ in p.bounding:
        face = c if c.is_simplicial() else Cone.from_generators(
            [g for g in c.generators if dot((a, b, e), g) == -d]
        )
        for sigma in triangulate(face) if face.dim > 1 else ():
            big, walk, point = _half_open_points(sigma)
            out.update(point(q) for q in walk if 0 < sum(q) <= big)
    return sorted(out)
