import json
import random
import re
from fractions import Fraction
from functools import cmp_to_key

import pytest

from torfan import cli, refine
from torfan.cones import (
    Cone,
    _supporting_normals,
    dot,
    hilbert_basis,
    is_irreducible,
    primitive,
    triangulate,
)
from torfan.newton import dual_newton_cones
from torfan.polyparse import parse_polynomial
from torfan.profile import profile, profile_lattice_points
from torfan.refine import refine_fan, regular_refinement

from oracle import (
    brute_force_hilbert_planar,
    brute_force_hilbert_simplicial,
    det3,
    lattice_index,
    octant_slice_volume,
    random_simplicial_octant_cones,
    scan_hilbert_pieces,
    scan_ray_pieces,
    supporting_normals,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
OCTANT = Cone.from_generators([E1, E2, E3])

# the three maximal dual-fan cones of y^3 + x z^2 - x^4 and their Hilbert bases
ELL_CONES = [
    Cone.from_generators(g)
    for g in (
        [E1, E3, (3, 1, 0), (6, 8, 9)],
        [E2, (3, 1, 0), (6, 8, 9)],
        [E2, E3, (6, 8, 9)],
    )
]
ELL_HILBERT = [
    {E1, E3, (3, 1, 0), (6, 8, 9), (1, 1, 1), (3, 4, 5)},
    {E2, (3, 1, 0), (6, 8, 9), (1, 1, 0), (2, 1, 0), (1, 1, 1), (2, 3, 3)},
    {E2, E3, (6, 8, 9), (1, 2, 2), (2, 3, 3), (3, 4, 5)},
]

# x^7 z - x^2 y^2 - y^2 z (r=2, n=2): dual-fan cones and valuation vectors
B_CONES = [
    Cone.from_generators(g)
    for g in (
        [(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)],
        [(1, 0, 0), (1, 0, 2), (2, 7, 0), (2, 7, 4)],
        [(0, 1, 0), (0, 1, 2), (2, 7, 0), (2, 7, 4)],
    )
]
B_EV = (
    {(1, 0, z) for z in (1, 2)}
    | {(2, 7, z) for z in range(5)}
    | {(0, 1, 1), (0, 1, 2), (1, 4, 3)}
    | {(1, s, z) for s in range(1, 5) for z in range(3)}
)


def piece_triples(report):
    rays = report.result.rays
    return [tuple(rays[i] for i in fc.rays) for fc in report.result.cones]


def test_regular_cone_refines_to_itself():
    rep = regular_refinement(OCTANT)
    assert piece_triples(rep) == [OCTANT.generators]
    assert rep.certificates == (((0, 1, 2), 1),)
    assert rep.new_rays == ()
    assert rep.covering_ok and rep.face_fitting_ok


def test_elliptic_sigma3_rays_are_exactly_the_hilbert_basis():
    c = ELL_CONES[2]
    assert set(hilbert_basis(c).elements) == ELL_HILBERT[2]
    rep = regular_refinement(c)
    assert set(rep.result.rays) == ELL_HILBERT[2]
    assert rep.all_unimodular()
    assert not rep.used_fallback
    assert all(abs(det3(*t)) == 1 for t in piece_triples(rep))


def test_b_family_quad_cone_regular_refinement_unimodular():
    sigma2 = B_CONES[1]
    rep = regular_refinement(sigma2)
    assert rep.all_unimodular()
    assert not rep.used_fallback
    assert set(rep.result.rays) <= set(hilbert_basis(sigma2).elements)
    # volume conservation recomputed from scratch: both quad diagonals agree
    g = sigma2.generators
    split_a = octant_slice_volume([(g[0], g[1], g[3]), (g[0], g[3], g[2])])
    split_b = octant_slice_volume([(g[1], g[0], g[2]), (g[1], g[2], g[3])])
    assert split_a == split_b == octant_slice_volume(piece_triples(rep))


def test_b_family_sigma1_refinement_from_valuation_rays():
    sigma1 = B_CONES[0]
    rays = sorted(v for v in B_EV if sigma1.contains(v))
    rep = refine_fan([sigma1], rays)
    assert rep.all_unimodular()
    assert set(rep.result.rays) == set(rays) | set(sigma1.generators)
    assert all(abs(det3(*t)) == 1 for t in piece_triples(rep))


def test_b_family_all_cones_from_valuation_rays():
    rep = refine_fan(B_CONES, rays=sorted(B_EV))
    assert rep.all_unimodular()
    assert rep.covering_ok and rep.face_fitting_ok
    assert rep.all_rays_irreducible
    ext = {g for c in B_CONES for g in c.generators}
    assert set(rep.result.rays) == B_EV | ext


def test_refinement_from_rays_empty_is_identity():
    c = Cone.from_generators([E1, E2, (1, 1, 2)])
    rep = refine_fan([c], [])
    assert piece_triples(rep) == [c.generators]
    assert rep.new_rays == ()


def test_prescribed_extremal_ray_is_a_no_op():
    rep = refine_fan([OCTANT], [E2])
    assert piece_triples(rep) == [OCTANT.generators]


def test_insufficient_rays_reported_not_raised():
    c = ELL_CONES[2]
    rep = refine_fan([c], [(1, 2, 2)])
    dets = sorted(det for _, det in rep.certificates)
    # splitting <e2,e3,(6,8,9)> at (1,2,2) leaves the three simplices
    # obtained by replacing one generator; their determinants are fixed
    expected = sorted(
        abs(d)
        for d in (
            det3((1, 2, 2), E3, (6, 8, 9)),
            det3(E2, (1, 2, 2), (6, 8, 9)),
            det3(E2, E3, (1, 2, 2)),
        )
    )
    assert dets == expected
    assert not rep.all_unimodular()
    assert max(dets) > 1
    # each determinant belongs to the piece its ray indices name
    for idx, det in rep.certificates:
        assert det == abs(det3(*(rep.result.rays[i] for i in idx))), idx


# rays that int() coerced to (1, 1, 1) or (1, 0, 0), and rays without three coordinates
NON_INTEGER_RAYS = [
    (1.9, 1.2, 1.0),
    ("1", "1", "1"),
    (True, True, 1),
    (1.5, 0, 0),
    (1, 1),
    (1, 1, 1, 1),
    "111",
    7,
]


def non_integer_ray_message(ray):
    return re.escape(f"prescribed ray {ray!r} needs three int coordinates")


def test_refinement_from_rays_validation():
    with pytest.raises(ValueError):
        refine_fan([OCTANT], [(2, 4, 6)])
    with pytest.raises(ValueError):
        refine_fan([ELL_CONES[2]], [(1, 0, 0)])
    with pytest.raises(ValueError):
        refine_fan([OCTANT], [(1, 1, 1), (1, 1, 1)])
    for ray in NON_INTEGER_RAYS:
        with pytest.raises(ValueError, match=non_integer_ray_message(ray)):
            refine_fan([OCTANT], [ray])


def test_refinement_rays_octant_identity():
    rep = regular_refinement(OCTANT)
    assert set(rep.result.rays) == {E1, E2, E3}


def test_refinement_rays_elliptic_union():
    rep = refine_fan(ELL_CONES)
    assert rep.all_unimodular()
    assert not rep.used_fallback
    assert set(rep.result.rays) == set().union(*ELL_HILBERT)
    assert rep.covering_ok and rep.face_fitting_ok


def test_elliptic_per_cone_rays_match_hilbert():
    for c, expected in zip(ELL_CONES, ELL_HILBERT):
        rep = regular_refinement(c)
        assert set(rep.result.rays) == expected
        assert rep.all_unimodular()


def test_two_dimensional_face_refinement():
    face = Cone.from_generators([E1, E2])
    rep = refine_fan([face], [(1, 1, 0)])
    assert piece_triples(rep) == [(E2, (1, 1, 0)), (E1, (1, 1, 0))]
    assert rep.all_unimodular()
    assert dict(rep.irreducible)[(1, 1, 0)] is False
    assert not rep.all_rays_irreducible


def test_two_dimensional_regular_refinement_chain():
    wide = Cone.from_generators([(1, 0, 0), (1, 5, 0)])
    rep = regular_refinement(wide)
    assert set(rep.result.rays) == {(1, k, 0) for k in range(6)}
    assert rep.all_unimodular()
    for c in random_planar_cones(30, 6, seed=6):
        rep = regular_refinement(c)
        assert rep.all_unimodular() and rep.covering_ok and rep.face_fitting_ok


def random_planar_cones(count, max_entry, seed):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        vs = [tuple(rng.randint(0, max_entry) for _ in range(3)) for _ in range(2)]
        if (0, 0, 0) not in vs and cross(*vs) != (0, 0, 0):
            cones.append(Cone.from_generators(vs))
    return cones


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def chain_pairs(a, b, rays):
    """Sorted generator pairs of the chain that cuts <a, b> at the rays,
    which run from a to b in the order of the sign of p x q on a x b."""
    n = cross(a, b)

    def order(p, q):
        s = sum(x * y for x, y in zip(cross(p, q), n))
        return (s < 0) - (s > 0)

    chain = [a, *sorted(rays, key=cmp_to_key(order)), b]
    return sorted(tuple(sorted(pair)) for pair in zip(chain, chain[1:]))


def test_planar_refinements_are_the_chain_through_their_rays():
    rng = random.Random(20261018)
    for c in random_planar_cones(30, 6, seed=5):
        a, b = c.generators
        inner = [h for h in brute_force_hilbert_planar(a, b) if h not in (a, b)]
        assert sorted(piece_triples(regular_refinement(c))) == chain_pairs(a, b, inner)
        chosen = [h for h in inner if rng.random() < 0.5]
        rep = refine_fan([c], chosen)
        assert sorted(piece_triples(rep)) == chain_pairs(a, b, chosen)


def test_planar_cones_never_take_the_fallback():
    # consecutive Hilbert elements of a planar cone span a unimodular cone,
    # so every non-regular planar piece holds a basis element: the planar
    # clause of the fallback's proof covers a case that never runs
    cones = [c for c in random_planar_cones(500, 30, seed=5) if c.multiplicity > 1]
    assert len(cones) >= 100
    for c in cones:
        rep = refine_fan([c])
        assert not rep.used_fallback, c
        assert rep.all_unimodular() and rep.all_rays_irreducible, c


def test_refinement_from_no_rays_triangulates_a_non_simplicial_cone():
    for c in (ELL_CONES[0], *B_CONES):
        rep = refine_fan([c], [])
        pieces = triangulate(c)
        assert sorted(piece_triples(rep)) == [p.generators for p in pieces]


def test_one_dimensional_identity():
    ray = Cone.from_generators([(2, 3, 5)])
    rep = regular_refinement(ray)
    assert piece_triples(rep) == [((2, 3, 5),)]
    assert rep.certificates == (((0,), 1),)


def test_tiling_certificate_refuses_planar_and_ray_pieces_that_do_not_tile():
    def certified(source, pieces):
        rep = refine._build_report([source], pieces, False)
        return rep.covering_ok and rep.face_fitting_ok

    ray = Cone.from_generators([(2, 3, 5)])
    assert certified(ray, [ray])
    assert not certified(ray, [])
    assert not certified(ray, [ray, ray])
    assert not certified(ray, [Cone.from_generators([(2, 3, 4)])])
    split = 0
    for c in random_planar_cones(400, 9, seed=20261019):
        pieces = refine._hilbert_pieces(c)[0]
        assert certified(c, pieces), c
        if len(pieces) == 1:
            continue
        split += 1
        for k, p in enumerate(pieces):
            assert not certified(c, pieces[:k] + pieces[k + 1:]), (c, "dropped", p)
            assert not certified(c, [*pieces, p]), (c, "duplicated", p)
            for g in set(p.generators) & set(c.generators):
                # the end piece (v, g) stretched to a ray w past g
                (v,) = set(p.generators) - {g}
                w = primitive(tuple((sum(v) + 1) * x - y for x, y in zip(g, v)))
                past = Cone.from_generators([v, w])
                assert not certified(c, [past if q is p else q for q in pieces]), (c, p)
    assert split > 100


def test_minimality_reads_the_report_irreducibility_table():
    face = Cone.from_generators([E1, E2])
    reports = [
        refine_fan(ELL_CONES),
        refine_fan(B_CONES),
        *map(regular_refinement, ELL_CONES + B_CONES),
        refine_fan([face], [(1, 1, 0)]),
    ]
    for rep in reports:
        recount = []
        for ray in rep.result.rays:
            owners = [s for s in rep.source if s.contains(ray)]
            recount.append((ray, bool(owners) and all(is_irreducible(s, ray) for s in owners)))
        assert rep.irreducible == tuple(recount)
        assert rep.all_rays_irreducible == all(ok for _, ok in recount)
    assert not reports[-1].all_rays_irreducible


def test_vector_entry_points_refuse_non_integer_coordinates():
    # each of these was read through int(), so 0.5 became 0 and 1.9 became 1
    for v in [*NON_INTEGER_RAYS, (0.5, 0, 0), (0.4, 0, 0), (1.9, 0.2, 0), (Fraction(1, 2), 0, 0)]:
        message = re.escape(f"{v!r} needs three int coordinates")
        with pytest.raises(ValueError, match="generator " + message):
            Cone.from_generators([v, E2, E3])
        with pytest.raises(ValueError, match="generator " + message):
            Cone.from_generators([v, E2])
    for v in [(2.5, 5, 0), (2.0, 4, 0), (Fraction(5, 2), 5, 0)]:
        with pytest.raises(ValueError, match="vector " + re.escape(f"{v!r} needs three int")):
            primitive(v)


def test_elliptic_fan_rays_are_all_irreducible():
    rep = refine_fan(ELL_CONES)
    assert rep.all_unimodular()
    assert rep.all_rays_irreducible


# refine_fan checks the prescribed rays before the insertion loop
# (_ray_pieces) sees them, so these cases go through refine_fan


def test_ray_pieces_skip_outside_and_existing_rays():
    # a generator as a prescribed ray is accepted and inserts nothing; a ray
    # outside the fan is refused
    c = Cone.from_generators([E1, E2, (1, 1, 3)])
    for cone, ray in ((OCTANT, E1), (c, (1, 1, 3))):
        rep = refine_fan([cone], [ray])
        assert piece_triples(rep) == [cone.generators] and rep.new_rays == ()
    with pytest.raises(ValueError, match=r"prescribed ray \(-1, 1, 1\) lies in no cone"):
        refine_fan([OCTANT], [(-1, 1, 1)])


def test_ray_pieces_refuse_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector has no primitive representative"):
        refine_fan([OCTANT], [(0, 0, 0)])


def test_ray_pieces_at_a_multiple_of_a_generator_change_nothing():
    # the multiple is refused as non-primitive; the primitive ray itself
    # changes nothing where it is a generator and splits the octant in three
    c = Cone.from_generators([E1, E2, (1, 1, 3)])
    for cone in (c, OCTANT):
        with pytest.raises(ValueError, match=r"\(2, 2, 6\) is not primitive"):
            refine_fan([cone], [(2, 2, 6)])
    assert piece_triples(refine_fan([c], [(1, 1, 3)])) == [c.generators]
    assert len(refine_fan([OCTANT], [(1, 1, 3)]).result.cones) == 3


def test_hilbert_pieces_raise_instead_of_looping_on_a_stuck_insertion(monkeypatch):
    pulled = Cone.pulled
    monkeypatch.setattr(
        Cone, "pulled", lambda self, v: (self,) if self.is_simplicial() else pulled(self, v)
    )
    # a stuck split of a non-regular simplex, then of a non-simplicial cone
    with pytest.raises(RuntimeError, match="unsplit"):
        regular_refinement(ELL_CONES[2])
    with pytest.raises(RuntimeError, match="unsplit"):
        regular_refinement(B_CONES[0])


def test_refinement_pieces_equal_the_general_constructor():
    rng = random.Random(12)
    cones = [Cone.from_generators(g) for g in random_simplicial_octant_cones(25, 6, seed=11)]
    while len(cones) < 50:
        c = Cone.from_generators(
            [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(rng.randint(4, 6))]
        )
        if c.dim == 3:
            cones.append(c)
    for c in cones + ELL_CONES + B_CONES:
        pulled = [p for v in c.hilbert.elements for p in c.pulled(v)]
        for p in [*refine._hilbert_pieces(c)[0], *triangulate(c), *pulled]:
            assert p == Cone.from_generators(p.generators), p
            assert tuple(zip(p.facet_normals, p.facets)) == tuple(
                (n, tuple(g for g in p.generators if dot(n, g) == 0))
                for n in sorted(_supporting_normals(p.generators))
            ), p
        # pulled at any of its points, the cone keeps its volume
        volume = octant_slice_volume([p.generators for p in triangulate(c)])
        for v in c.hilbert.elements:
            assert octant_slice_volume([p.generators for p in c.pulled(v)]) == volume, v


def test_report_json_shape():
    rep = regular_refinement(ELL_CONES[2])
    obj = rep.to_obj()
    assert obj["regular"] is True
    assert all(set(c) == {"cone", "det"} for c in obj["certificates"])
    assert obj["covering_ok"] and obj["face_fitting_ok"]


def test_random_cones_refine_regular_and_conserve_volume():
    for gens in random_simplicial_octant_cones(30, 5, seed=20260815):
        c = Cone.from_generators(gens)
        if c.dim != 3:
            continue
        rep = regular_refinement(c)
        assert rep.all_unimodular()
        assert rep.covering_ok and rep.face_fitting_ok
        assert octant_slice_volume([c.generators]) == octant_slice_volume(
            piece_triples(rep)
        )
        if not rep.used_fallback:
            assert set(rep.result.rays) <= set(hilbert_basis(c).elements)


def test_random_cones_every_new_ray_irreducible():
    for gens in random_simplicial_octant_cones(12, 4, seed=7):
        c = Cone.from_generators(gens)
        if c.dim != 3:
            continue
        rep = regular_refinement(c)
        if rep.used_fallback:
            continue
        for ray in rep.new_rays:
            assert is_irreducible(c, ray)


def test_regular_refinement_reuses_the_cone_basis(hilbert_calls):
    rng = random.Random(20261018)
    plain = fallback = 0
    while plain < 20:
        k = rng.randint(3, 5)
        vs = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(k)]
        if (0, 0, 0) in vs:
            continue
        c = Cone.from_generators(vs)
        basis = c.hilbert
        hilbert_calls.clear()
        rep = regular_refinement(c)
        assert c.hilbert is basis
        # the fallback reads a piece's minima (cones._piece_minima), not
        # Cone.hilbert, so no piece gets a cached basis of its own
        assert hilbert_calls == [], c
        fallback += rep.used_fallback
        plain += not rep.used_fallback
    assert fallback == 15


def _cramer_level(gens, h) -> Fraction:
    """The sum of the coordinates of h in the frame of three rays gens, by
    Cramer's rule."""
    d = det3(*gens)
    return sum(
        Fraction(det3(*(h if j == i else g for j, g in enumerate(gens))), d)
        for i in range(3)
    )


def test_fallback_point_is_the_least_level_hilbert_element(monkeypatch):
    # The split points, recorded at the pulls: a split at a point outside
    # the source basis is a fallback, and the first piece pulled at it is
    # the piece tau it splits.  Each must be the (l, h)-least non-generator
    # of an independently computed Hilbert basis of tau.
    pulls = []
    original = Cone.pulled

    def recorded(self, v):
        pulls.append((self, v))
        return original(self, v)

    monkeypatch.setattr(Cone, "pulled", recorded)
    checked = fallback_cones = 0
    for gens in random_simplicial_octant_cones(40, 9, seed=20261019):
        c = Cone.from_generators(gens)
        pulls.clear()
        _, used_fallback = refine._hilbert_pieces(c)
        split_at = {}
        for piece, v in pulls:
            split_at.setdefault(v, piece)
        fallbacks = [(tau, v) for v, tau in split_at.items() if v not in c.hilbert]
        assert used_fallback == bool(fallbacks), c
        fallback_cones += used_fallback
        for tau, v in fallbacks:
            basis = brute_force_hilbert_simplicial(*tau.generators)
            level, expected = min(
                (_cramer_level(tau.generators, h), h) for h in basis if h not in tau.generators
            )
            assert level <= Fraction(3, 2), tau
            assert v == expected, tau
            checked += 1
    assert (fallback_cones, checked) == (18, 166)


def test_brieskorn_101_103_107_is_regular_but_takes_the_fallback(capsys):
    # README's finding: the fan certifies, yet some of its rays are
    # reducible in their source cone, so resolve exits 1
    cones = [c for c, _ in dual_newton_cones(parse_polynomial("x^101+y^103+z^107"))]
    rep = refine_fan(cones)
    assert len(rep.result.rays) == 355
    assert rep.used_fallback
    assert rep.all_unimodular() and rep.covering_ok and rep.face_fitting_ok
    reducible = [v for v, ok in rep.irreducible if not ok]
    assert len(reducible) == 128
    # the independent witness: (83,80,77) = (1,0,0) + (82,80,77) in one source
    source = Cone.from_generators([E2, E1, (11021, 10807, 10403)])
    assert source in cones and (83, 80, 77) in reducible
    assert source.contains((82, 80, 77)) and not is_irreducible(source, (83, 80, 77))
    assert cli.run(["resolve", "x^101+y^103+z^107"]) == 1
    assert json.loads(capsys.readouterr().out)["refinement"] == rep.to_obj()


def test_extended_brieskorn_rung_resolves_with_sound_cones():
    # determinant 31*37*41 on each dual-fan cone: far past what a
    # bounding-box search over the cone can reach in test time
    cones = [c for c, _ in dual_newton_cones(parse_polynomial("x^31+y^37+z^41"))]
    assert len(cones) == 3
    rep = refine_fan(cones)
    assert rep.all_unimodular()
    assert rep.covering_ok and rep.face_fitting_ok
    for c in cones:
        normals = supporting_normals(c.generators)
        inside = lambda v: all(sum(a * b for a, b in zip(n, v)) >= 0 for n in normals)
        basis = hilbert_basis(c).elements
        assert set(c.generators) <= set(basis)
        assert all(inside(h) for h in basis)
        prof = profile(c)
        points = profile_lattice_points(prof)
        assert set(c.generators) <= set(points)
        assert all(inside(v) and all(f(v) <= 0 for f in prof.bounding) for v in points)


def test_refine_fan_takes_one_cone_of_any_dimension_but_not_mixed_dimensions():
    planar = Cone.from_generators([(1, 0, 0), (1, 5, 0)])
    ray = Cone.from_generators([(2, 3, 5)])
    for c in (planar, ray):
        assert refine_fan([c]).to_obj() == regular_refinement(c).to_obj()
    inner = [(1, k, 0) for k in range(1, 5)]
    assert sorted(piece_triples(refine_fan([planar]))) == chain_pairs(E1, (1, 5, 0), inner)
    rep = refine_fan([planar], [(1, 2, 0), E1])
    assert sorted(piece_triples(rep)) == chain_pairs(E1, (1, 5, 0), [(1, 2, 0)])
    assert piece_triples(refine_fan([ray], [(2, 3, 5)])) == [((2, 3, 5),)]
    with pytest.raises(ValueError, match="one cone or 3-dimensional cones"):
        refine_fan([OCTANT, ray], rays=[])
    with pytest.raises(ValueError, match="3-dimensional cones"):
        refine_fan([planar, OCTANT])
    with pytest.raises(ValueError, match="3-dimensional cones"):
        refine_fan([planar, planar])


def test_refine_fan_refuses_an_empty_list_of_cones():
    # no cones is no fan: a regular, tiled report for it would be vacuous
    for rays in (None, [], [(1, 1, 1)]):
        with pytest.raises(ValueError, match="refine_fan needs at least one cone"):
            refine_fan([], rays)


@pytest.mark.parametrize("cones", [[OCTANT], ELL_CONES], ids=["octant", "elliptic"])
@pytest.mark.parametrize(
    "rays, message",
    [
        ([(2, 2, 2), (-1, 2, 3)], r"prescribed ray \(-1, 2, 3\) lies in no cone of the fan"),
        ([(1, 1, 1), (2, 2, 2), (1, 1, 1)], r"prescribed ray \(2, 2, 2\) is not primitive"),
        ([(1, 1, 1), (1, 1, 1), (2, 2, 2)], r"duplicate prescribed ray \(1, 1, 1\)"),
        ([(0, 0, 0)], "zero vector has no primitive representative"),
        ([(-1, 2, 3), (1.5, 1, 1)], r"prescribed ray \(1\.5, 1, 1\) needs three int coordinates"),
    ],
    ids=["in-no-cone", "not-primitive", "duplicate", "zero", "not-ints"],
)
def test_prescribed_rays_are_checked_in_a_fixed_order(cones, rays, message):
    # all rays are three ints, then all lie in some cone, then one by one
    # each is primitive and listed once
    with pytest.raises(ValueError, match=f"^{message}$"):
        refine_fan(cones, rays)


def test_refine_fan_refuses_a_ray_in_no_cone():
    with pytest.raises(ValueError, match=r"prescribed ray \(-1, 2, 3\) lies in no cone"):
        refine_fan([OCTANT], rays=[(-1, 2, 3)])
    with pytest.raises(ValueError, match="lies in no cone"):
        refine_fan(ELL_CONES, rays=[(1, 1, 1), (0, -1, 0)])
    # a ray without three int coordinates is refused before any containment
    # test, even after a ray that lies in no cone
    for ray in NON_INTEGER_RAYS:
        with pytest.raises(ValueError, match=non_integer_ray_message(ray)):
            refine_fan([OCTANT], rays=[ray])
        with pytest.raises(ValueError, match=non_integer_ray_message(ray)):
            refine_fan([OCTANT], rays=[(1, 1, 1), (-1, 0, 0), ray])


@pytest.fixture
def report_calls(monkeypatch):
    """Count report builds."""
    import torfan.refine

    original = torfan.refine._build_report
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(torfan.refine, "_build_report", counted)
    return calls


def test_refine_fan_builds_one_report(report_calls):
    refine_fan(ELL_CONES)
    assert len(report_calls) == 1
    report_calls.clear()
    refine_fan(B_CONES, rays=sorted(B_EV))
    assert len(report_calls) == 1


def piece_dets(report):
    """Sorted (generators, |det|) of every piece, read from the certificates."""
    rays = report.result.rays
    return sorted((tuple(rays[i] for i in idx), det) for idx, det in report.certificates)


def assert_pieces_join(rep, per_cone):
    """The fan report has exactly the per-cone pieces, with their |det|."""
    assert sorted(piece_triples(rep)) == sorted(t for r in per_cone for t in piece_triples(r))
    assert piece_dets(rep) == sorted(pd for r in per_cone for pd in piece_dets(r))


def test_refine_fan_pieces_and_fallback_join_the_cones():
    for cones in (ELL_CONES, B_CONES):
        per_cone = [regular_refinement(c) for c in cones]
        assert all(r.all_unimodular() for r in per_cone)
        rep = refine_fan(cones)
        assert_pieces_join(rep, per_cone)
        assert rep.used_fallback == any(r.used_fallback for r in per_cone)
    # prescribed rays: each cone gets the rays it contains
    rays = sorted(B_EV)
    per_cone = [refine_fan([c], [v for v in rays if c.contains(v)]) for c in B_CONES]
    rep = refine_fan(B_CONES, rays=rays)
    assert_pieces_join(rep, per_cone)
    assert not rep.used_fallback
    # Each cone is refined on its own, so any list of cones will do here:
    # pair a cone that needs the fallback with one that does not.
    fallback, plain = None, None
    for gens in random_simplicial_octant_cones(40, 7, seed=20261103):
        c = Cone.from_generators(gens)
        if regular_refinement(c).used_fallback:
            fallback = fallback or c
        else:
            plain = plain or c
    for cones in ([plain, fallback], [fallback, plain], [plain]):
        per_cone = [regular_refinement(c) for c in cones]
        rep = refine_fan(cones)
        assert_pieces_join(rep, per_cone)
        assert rep.used_fallback == any(r.used_fallback for r in per_cone)


@pytest.fixture(scope="module")
def scan_cases():
    """Seeded octant cones with 3-5 rays and entries 0..9 and 0..15, planar
    cones and the multiplicity-191 simplex; the dual cones of two Brieskorn
    fans; and ``scan_hilbert_pieces`` of each of those cones."""
    rng = random.Random(20261020)
    cones = []
    for top, count in ((9, 40), (15, 12)):
        while count:
            vs = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(rng.randint(3, 5))]
            if (0, 0, 0) not in vs and (c := Cone.from_generators(vs)).dim == 3:
                cones.append(c)
                count -= 1
    cones += random_planar_cones(40, 12, seed=20261021)
    cones.append(Cone.from_generators([(0, 7, 5), (1, 6, 0), (6, 2, 3)]))
    fans = [
        [c for c, _ in dual_newton_cones(parse_polynomial(f))]
        for f in ("x^2+y^3+z^5", "x^101+y^103+z^107")
    ]
    scanned = {
        c: scan_hilbert_pieces(c.generators, c.hilbert.elements)
        for c in [*cones, *(c for fan in fans for c in fan)]
    }
    return cones, fans, scanned


def scanned_report(cones, parts):
    pieces = [Cone.from_generators(p) for ps, _, _ in parts for p in ps]
    return refine._build_report(cones, pieces, any(fallback for _, fallback, _ in parts))


def test_refinements_match_the_scan_oracle(scan_cases):
    cones, fans, scanned = scan_cases
    rng = random.Random(20261022)
    for c in cones:
        rep = regular_refinement(c)
        assert rep.to_obj() == scanned_report([c], [scanned[c]]).to_obj(), c
        assert rep.used_fallback == scanned[c][1], c
        rays = [h for h in c.hilbert.elements if h not in c.generators and rng.random() < 0.3]
        pieces = scan_ray_pieces(c.generators, rays)
        expected = refine._build_report([c], [Cone.from_generators(p) for p in pieces], False)
        assert refine_fan([c], rays).to_obj() == expected.to_obj(), (c, rays)
    for fan in fans:
        rep = refine_fan(fan)
        expected = scanned_report(fan, [scanned[c] for c in fan])
        assert rep.to_obj() == expected.to_obj()
        assert rep.used_fallback == expected.used_fallback
    assert sum(scanned[c][1] for c in cones) > 40


def test_the_hilbert_loop_pulls_what_a_scan_pulls_and_never_a_unimodular_piece(
    scan_cases, monkeypatch
):
    """Each split pulls tau and the other owner of the facet that holds the
    new ray, and never looks at unimodular pieces (``_hilbert_pieces``):
    the pieces a scan of every piece pulls are never unimodular, and the
    loop pulls exactly those."""
    _, _, scanned = scan_cases
    pulled = []
    original = Cone.pulled

    def recorded(self, v):
        pulled.append(self.generators)
        return original(self, v)

    monkeypatch.setattr(Cone, "pulled", recorded)
    for c, (_, _, expected) in scanned.items():
        pulled.clear()
        refine._hilbert_pieces(c)
        assert sorted(pulled) == sorted(expected), c
        assert all(len(p) > 3 or lattice_index(p) > 1 for p in expected), c
