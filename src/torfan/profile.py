"""Profiles of lattice cones and their bounding hyperplanes.

The profile of a cone is the region between the origin and the convex hull
of the primitive generators: for a simplicial cone it is cut out by the
single functional taking value 1 on every generator, otherwise by the
facets of conv({0} ∪ generators) that miss the origin, read off the cone
over the lifted points (p, 1) by the supporting-hyperplane kernel of
``cones``.  Bounding functionals are oriented so that inside, ℓ ≤ 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from .cones import (
    Cone,
    Vec,
    ZERO,
    _half_open_points,
    _l_form,
    _supporting_planes,
    triangulate,
)


class AffineFunctional(namedtuple("AffineFunctional", "coeffs constant", defaults=(Fraction(0),))):
    """a·x + b·y + c·z + d with exact rational coefficients: ``coeffs`` is
    (a, b, c) and ``constant`` is d, all ``Fraction``s.

    ``integer_form`` is (a', b', c', d', q): integers with q > 0, the least
    common denominator, such that the functional is (a'x + b'y + c'z + d')/q;
    it is computed once and kept in the instance ``__dict__``.
    """

    @classmethod
    def from_integers(cls, a: int, b: int, c: int, d: int = 0) -> "AffineFunctional":
        return cls((Fraction(a), Fraction(b), Fraction(c)), Fraction(d))

    @cached_property
    def integer_form(self) -> tuple[int, int, int, int, int]:
        parts = (*self.coeffs, self.constant)
        q = 1
        for p in parts:
            q = q * p.denominator // gcd(q, p.denominator)
        return (*(p.numerator * (q // p.denominator) for p in parts), q)

    def __call__(self, v: Sequence) -> Fraction:
        a, b, c, d, q = self.integer_form
        return Fraction(a * v[0] + b * v[1] + c * v[2] + d, q)

    def negated(self) -> "AffineFunctional":
        a, b, c = self.coeffs
        return AffineFunctional((-a, -b, -c), -self.constant)

    def integer_primitive(self) -> "AffineFunctional":
        """Smallest positive multiple with integer coefficients."""
        ints = self.integer_form[:4]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        if g > 1:
            ints = [x // g for x in ints]
        return AffineFunctional.from_integers(*ints)

    def __str__(self) -> str:
        out = []
        for coeff, name in zip(self.coeffs, "xyz"):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if out else "")
            mag = abs(coeff)
            body = name if mag == 1 else f"{mag}{name}"
            out.append(sign + body)
        if self.constant != 0 or not out:
            sign = "-" if self.constant < 0 else ("+" if out else "")
            out.append(sign + str(abs(self.constant)))
        return "".join(out)


def facet_equation(bounding: AffineFunctional) -> str:
    """Hyperplane text with the first nonzero coefficient positive, e.g. 8x-3y-3z+3."""
    f = bounding.integer_primitive()
    for part in (*f.coeffs, f.constant):
        if part > 0:
            return str(f)
        if part < 0:
            return str(f.negated())
    return str(f)


class Profile(namedtuple("Profile", "cone bounding kind")):
    """The profile of ``cone``: the ``AffineFunctional``s ``bounding`` it,
    and ``kind``, "simplicial" or "convex-hull"."""

    @cached_property
    def _level_forms(self) -> tuple[tuple[int, int, int, int], ...]:
        """(a, b, c, -d) for each bounding form a*x + b*y + c*z + d, in integers."""
        forms = (f.integer_form for f in self.bounding)
        return tuple((a, b, c, -d) for a, b, c, d, _ in forms)

    def level(self, v: Sequence[int]) -> Fraction:
        """Height of v against the profile hull: 1 exactly on the hull.

        Agrees with the l-functional on simplicial cones and is defined
        without reference to any triangulation otherwise.
        """
        x, y, z = v
        return max(
            Fraction(a * x + b * y + c * z, minus_d) for a, b, c, minus_d in self._level_forms
        )


def l_functional(c: Cone) -> AffineFunctional:
    """The linear functional with value 1 on every generator (simplicial, 3-D),
    read from ``_l_form``."""
    if c.dim != 3 or not c.is_simplicial():
        raise ValueError("l functional requires a full-dimensional simplicial cone")
    u, q = _l_form(c)
    return AffineFunctional(tuple(Fraction(x, q) for x in u))


def _hull_facets_off_origin(points: Sequence[Vec]) -> tuple[AffineFunctional, ...]:
    """Facets of conv(points) not through 0, oriented inside ≤ 0, for points
    whose hull is full-dimensional and holds 0: the facet normals n with
    n[3] != 0 of the cone over the (p, 1), since n·(x, 1) >= 0 inside."""
    planes = _supporting_planes([(*q, 1) for q in points])
    forms = [AffineFunctional.from_integers(-a, -b, -c, -d) for a, b, c, d in planes if d]
    return tuple(sorted(forms, key=lambda f: (f.coeffs, f.constant)))


def profile(c: Cone) -> Profile:
    """The profile of c: the cone's own ``c.profile``, computed on the first
    call for that cone object and then read."""
    return c.profile


def _profile(c: Cone) -> Profile:
    """The computation behind ``Cone.profile``."""
    if c.is_simplicial():
        u, q = _l_form(c)
        below_one = AffineFunctional(tuple(Fraction(x, q) for x in u), Fraction(-1))
        return Profile(c, (below_one,), "simplicial")
    return Profile(c, _hull_facets_off_origin([ZERO, *c.generators]), "convex-hull")


def contains_point(p: Profile, v: Sequence[int]) -> bool:
    return p.cone.contains(v) and all(f(v) <= 0 for f in p.bounding)


def profile_lattice_points(p: Profile) -> list[Vec]:
    """Nonzero lattice points of the profile conv(0, generators).

    A simplicial profile is the simplex conv(0, g_1, ..., g_k).  Its point
    u + sum n_i g_i, with u half-open and n_i >= 0, has l = sum(q)/D + sum n_i,
    so it is a generator or a nonzero u with q_1 + q_2 + q_3 <= D.  Otherwise
    every generator is a vertex of the hull, so the profile is the union of
    such simplices over a triangulation of the generators on each off-origin
    hull facet.
    """
    c = p.cone
    if c.is_simplicial():
        simplices: tuple[Cone, ...] = (c,) if c.dim > 1 else ()
    else:
        simplices = tuple(
            piece
            for f in p.bounding
            for piece in triangulate(
                Cone.from_generators([g for g in c.generators if f(g) == 0])
            )
        )
    out: set[Vec] = set(c.generators)
    for sigma in simplices:
        big, pairs = _half_open_points(sigma)
        out.update(u for u, q in pairs if 0 < sum(q) <= big)
    return sorted(out)
