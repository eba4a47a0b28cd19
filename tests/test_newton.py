"""Newton polyhedra and dual fans on small cubic/quartic equations."""

import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torfan import cli, refine
from torfan.cones import Cone, dot, triangulate
from torfan.newton import (
    Fan,
    dual_newton_cones,
    fan_consistency_report,
    octant_solid_volume,
)
from torfan.polyparse import Polynomial, parse_polynomial
from torfan.valuation import _dual_faces, w_order

from oracle import brute_newton_polyhedron, octant_tiling_defects, ray_sum

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

ELLIPTIC = parse_polynomial("y^3+x*z^2-x^4")
B22 = parse_polynomial("x^7*z-x^2*y^2-y^2*z")


def ray_sets(cones):
    return {frozenset(c.generators) for c, _ in cones}


def compact_walk_faces(poly):
    """The face walk's compact faces of NP(f): (dimension, rays, support
    of the initial form) for each face below the maximal cones whose ray
    sum is strictly positive."""
    return [
        (3 - len(rays), rays, form.support())
        for rays, form, _ in _dual_faces(poly)
        if len(rays) < 3 and min(map(sum, zip(*rays))) > 0
    ]


def walked_polyhedron(poly):
    """(vertices, facets, compact faces) of NP(f) in the layout of
    ``brute_newton_polyhedron``, read off the dual fan: the vertices from
    the maximal cones, the facets (w, o) from the walk's one-ray faces, and
    the compact faces from the walk, restricted to the vertices."""
    vertices = tuple(s for _, s in dual_newton_cones(poly))
    facets = sorted((rays[0], w_order(poly, rays[0])) for rays, _, _ in _dual_faces(poly) if len(rays) == 1)
    compact = sorted(
        ((tuple(v for v in vertices if v in on), dim) for dim, _, on in compact_walk_faces(poly)),
        key=lambda t: (t[1], t[0]),
    )
    return vertices, tuple(facets), tuple(compact)


def test_elliptic_maximal_cones():
    cones = dual_newton_cones(ELLIPTIC)
    assert ray_sets(cones) == {
        frozenset({E1, E3, (3, 1, 0), (6, 8, 9)}),
        frozenset({E2, (3, 1, 0), (6, 8, 9)}),
        frozenset({E2, E3, (6, 8, 9)}),
    }
    # each maximal cone is tagged with the support vertex it selects
    assert [v for _, v in cones] == [(0, 3, 0), (1, 0, 2), (4, 0, 0)]


def test_b22_maximal_cones():
    cones = dual_newton_cones(B22)
    assert ray_sets(cones) == {
        frozenset({E3, (1, 0, 2), (0, 1, 2), (2, 7, 4)}),
        frozenset({E1, (1, 0, 2), (2, 7, 0), (2, 7, 4)}),
        frozenset({E2, (0, 1, 2), (2, 7, 0), (2, 7, 4)}),
    }


def test_monomial_fan_is_octant():
    cones = dual_newton_cones(parse_polynomial("x*y*z"))
    assert len(cones) == 1
    cone, vertex = cones[0]
    assert set(cone.generators) == {E1, E2, E3}
    assert vertex == (1, 1, 1)


def test_newton_polyhedron_elliptic():
    vertices, facets, compact = walked_polyhedron(ELLIPTIC)
    assert vertices == ((0, 3, 0), (1, 0, 2), (4, 0, 0))
    assert facets == (
        ((0, 0, 1), 0),
        ((0, 1, 0), 0),
        ((1, 0, 0), 0),
        ((3, 1, 0), 3),
        ((6, 8, 9), 24),
    )
    assert compact == (
        (((0, 3, 0), (1, 0, 2)), 1),
        (((0, 3, 0), (4, 0, 0)), 1),
        (((1, 0, 2), (4, 0, 0)), 1),
        (((0, 3, 0), (1, 0, 2), (4, 0, 0)), 2),
    )


def test_newton_polyhedron_b22_compact_faces():
    vertices, facets, compact = walked_polyhedron(B22)
    assert vertices == ((0, 2, 1), (2, 2, 0), (7, 0, 1))
    assert ((2, 7, 4), 18) in facets
    assert (((0, 2, 1), (2, 2, 0), (7, 0, 1)), 2) in compact
    edges = {vs for vs, d in compact if d == 1}
    assert edges == {
        ((0, 2, 1), (2, 2, 0)),
        ((0, 2, 1), (7, 0, 1)),
        ((2, 2, 0), (7, 0, 1)),
    }


def test_duality_on_interior_samples():
    for poly in (ELLIPTIC, B22, parse_polynomial("x^2+y^3+z^5+x*y*z")):
        support = poly.support()
        for cone, vertex in dual_newton_cones(poly):
            w = ray_sum(cone.generators)
            assert dot(w, vertex) == min(dot(w, a) for a in support)


def test_fan_labels_and_lex_ray_order(capsys):
    assert cli.run(["dnp", "y^3+x*z^2-x^4"]) == 0
    fan = Fan.from_obj(json.loads(capsys.readouterr().out))
    assert fan.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (3, 1, 0), (6, 8, 9))
    assert list(fan.rays) == sorted(fan.rays)
    labels = {fc.label for fc in fan.cones}
    assert labels == {"vertex (0,3,0)", "vertex (1,0,2)", "vertex (4,0,0)"}


def test_fan_json_round_trip_and_determinism():
    pairs = dual_newton_cones(B22)
    fan = Fan.from_cones([c for c, _ in pairs], ["vertex (%d,%d,%d)" % v for _, v in pairs])
    text = json.dumps(fan.to_obj(), separators=(",", ":"), sort_keys=True)
    assert text == json.dumps(fan.to_obj(), separators=(",", ":"), sort_keys=True)
    again = Fan.from_json(text)
    assert again == fan
    obj = json.loads(text)
    assert set(obj) == {"rays", "cones"}
    assert all(set(c) <= {"rays", "label"} for c in obj["cones"])


def test_fan_json_rejects_bad_indices():
    try:
        Fan.from_obj({"rays": [[1, 0, 0]], "cones": [{"rays": [0, 1]}]})
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_fan_json_rejects_a_repeated_ray_or_ray_index():
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match=r"fan cone \[0, 0, 0, 1\] repeats a ray index"):
        Fan.from_obj({"rays": rays, "cones": [{"rays": [0, 0, 0, 1]}]})
    with pytest.raises(ValueError, match="fan rays must be distinct"):
        Fan.from_obj({"rays": [*rays, [0, 1, 0]], "cones": [{"rays": [0, 1, 2]}]})
    # a positive multiple of a ray is the same direction: (2, 0, 0) and
    # (1, 0, 0) would be drawn at one point
    with pytest.raises(ValueError, match="fan rays must be primitive"):
        Fan.from_obj({"rays": [*rays, [2, 0, 0]], "cones": [{"rays": [3, 1, 2]}]})
    fan = Fan.from_obj({"rays": rays, "cones": [{"rays": [0, 1, 2]}, {"rays": [2, 1]}]})
    assert fan.cones[1].rays == (2, 1)


def test_fan_consistency_and_covering():
    for poly in (ELLIPTIC, B22):
        cones = [c for c, _ in dual_newton_cones(poly)]
        report = fan_consistency_report(cones)
        assert report["covering_ok"]
        assert report["face_fitting_ok"]
        assert octant_solid_volume(cones) == Fraction(1, 6)


def test_octant_volume_of_planar_cones_and_rays_is_measured_in_their_span():
    wide = Cone.from_generators([E1, (1, 5, 0)])
    assert octant_solid_volume([Cone.from_generators([E1, E2])]) == Fraction(1, 2)
    assert octant_solid_volume([wide]) == Fraction(5, 12)
    assert octant_solid_volume(wide.pulled((1, 1, 0))) == Fraction(5, 12)
    assert octant_solid_volume([Cone.from_generators([E1, (0, 1, 1)])]) == Fraction(1, 4)
    assert octant_solid_volume([Cone.from_generators([(2, 3, 5)])]) == Fraction(1, 10)


@pytest.mark.parametrize("ray", [(1, -1, 0), (1, -2, 0)])
def test_octant_volume_refuses_a_ray_of_non_positive_coordinate_sum(ray):
    # (1,-1,0) used to divide by zero and (1,-2,0) to give a negative volume
    cone = Cone.from_generators([ray, E2, E3])
    pattern = rf"ray \({ray[0]}, {ray[1]}, 0\) has coordinate sum"
    with pytest.raises(ValueError, match=pattern):
        octant_solid_volume([cone])
    with pytest.raises(ValueError, match=pattern):
        fan_consistency_report([cone, OCTANT])


exponents = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)


def support_polynomial(support):
    return parse_polynomial(
        "+".join(
            "*".join(
                f"{v}^{e}" for v, e in zip("xyz", a) if e
            ) or "1"
            for a in sorted(support)
        )
    )


def face_key(face):
    dim, on = face
    return dim, sorted(on)


def support_on_compact_faces(support, brute):
    """Each compact face of the oracle's NP(f) as (dimension, every support
    point on it): the points on all the oracle facets through the face's
    vertices."""
    _, facets, compact = brute
    out = []
    for face, dim in compact:
        planes = [(w, o) for w, o in facets if all(dot(w, v) == o for v in face)]
        out.append((dim, frozenset(a for a in support if all(dot(w, a) == o for w, o in planes))))
    return sorted(out, key=face_key)


def assert_hull_matches_the_oracle(support):
    poly = support_polynomial(support)
    brute = brute_newton_polyhedron(support)
    assert walked_polyhedron(poly) == brute
    # the walk's compact faces carry every support point on them
    walked = [(dim, on) for dim, _, on in compact_walk_faces(poly)]
    assert sorted(walked, key=face_key) == support_on_compact_faces(support, brute)
    # each dual cone is spanned by the normals of the facets through its vertex
    _, facets, _ = brute
    for cone, s in dual_newton_cones(poly):
        assert cone.generators == tuple(sorted(w for w, o in facets if dot(w, s) == o))


HULL_SUPPORTS = {
    "constant 1": {(0, 0, 0)},
    "one monomial": {(2, 1, 3)},
    # NP(x) is the octant moved to (1, 0, 0): no compact face
    "single monomial x": {(1, 0, 0)},
    "dominated points": {(1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 2, 1), (0, 0, 5), (0, 1, 5)},
    "antichain x+y+z=4": {(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)},
    "coplanar antichain": {(4, 0, 0), (0, 4, 0), (2, 2, 0), (1, 3, 0), (0, 0, 2)},
    "collinear on an edge": {(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 0, 1)},
    "elliptic": {(0, 3, 0), (1, 0, 2), (4, 0, 0)},
    # 91 points on x+y+z = 12, three of them vertices of its one compact facet
    "homogeneous antichain": {(a, b, 12 - a - b) for a in range(13) for b in range(13 - a)},
}


@pytest.mark.parametrize("name", sorted(HULL_SUPPORTS))
def test_newton_polyhedron_matches_the_triple_oracle_on_edge_supports(name):
    assert_hull_matches_the_oracle(HULL_SUPPORTS[name])


@settings(max_examples=80, deadline=None)
@given(st.sets(exponents, min_size=1, max_size=10))
def test_newton_polyhedron_matches_the_triple_oracle(support):
    assert_hull_matches_the_oracle(support)


def seeded_supports_with_midpoints(count, seed=20261020):
    """Seeded supports of 2-6 points in [0, 6]^3, each with the lattice
    midpoints of its pairs added, so that edges and facets of NP(f) hold
    support points that are not vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        points = {tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(rng.randint(2, 6))}
        yield points | {
            tuple((x + y) // 2 for x, y in zip(a, b))
            for a in points for b in points
            if all((x + y) % 2 == 0 for x, y in zip(a, b))
        }


def test_the_walk_carries_every_support_point_on_a_compact_face():
    cubic = parse_polynomial("x^3+y^3+z^3+x*y*z")
    faces = compact_walk_faces(cubic)
    (two_face,) = [on for dim, _, on in faces if dim == 2]
    assert two_face == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
    assert (1, 1, 1) not in walked_polyhedron(cubic)[0]
    inside = 0
    for support in [cubic.support(), *seeded_supports_with_midpoints(60)]:
        assert_hull_matches_the_oracle(support)
        poly = support_polynomial(support)
        vertices = {s for _, s in dual_newton_cones(poly)}
        inside += sum(len(on - vertices) for _, _, on in compact_walk_faces(poly))
    # past the cubic's xyz, the sweep holds non-vertex points on compact
    # faces, or it shows nothing
    assert inside > 1


def dense_witness(k):
    """(1+x+y+z)^k - 1 + x^(k+3) + y^(k+4) + z^(k+5), expanded."""
    coeffs = {
        (a, b, c): comb(k, a) * comb(k - a, b) * comb(k - a - b, c)
        for a in range(k + 1) for b in range(k + 1 - a) for c in range(k + 1 - a - b)
    }
    del coeffs[(0, 0, 0)]
    for e in ((k + 3, 0, 0), (0, k + 4, 0), (0, 0, k + 5)):
        coeffs[e] = coeffs.get(e, 0) + 1
    return Polynomial.from_dict(coeffs)


def test_dense_witness_reads_three_cones_off_its_minimal_points(capsys):
    p = dense_witness(8)
    assert len(p.support()) == 167
    cones = dual_newton_cones(p)
    # only x, y and z lie above no other support point
    assert [(c.generators, s) for c, s in cones] == [
        ((E2, E1, (1, 1, 1)), E3),
        ((E3, E1, (1, 1, 1)), E2),
        ((E3, E2, (1, 1, 1)), E1),
    ]
    assert cli.run(["dnp", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["covering_ok"]


@settings(max_examples=25, deadline=None)
@given(st.sets(exponents, min_size=1, max_size=6))
def test_random_support_fan_invariants(support):
    poly = support_polynomial(support)
    cones = dual_newton_cones(poly)
    assert octant_solid_volume([c for c, _ in cones]) == Fraction(1, 6)
    report = fan_consistency_report([c for c, _ in cones])
    assert report["covering_ok"] and report["face_fitting_ok"]
    for cone, vertex in cones:
        w = ray_sum(cone.generators)
        assert dot(w, vertex) == min(dot(w, a) for a in poly.support())


# Not fans, each with its octant volume and face-fitting flag; the tiling
# certificate must flag each through the dnp report and the refinement
# report alike.
A = Cone.from_generators([E1, (1, 1, 0), E3])
OCTANT = Cone.from_generators([E1, E2, E3])
ELL_CONES = [c for c, _ in dual_newton_cones(ELLIPTIC)]
BROKEN_FANS = {
    # two copies of one cone: every facet has two owners on the same side
    "duplicate": ([A, A], [OCTANT], True, False),
    # one cone of a dual fan dropped: its neighbours' facets face nothing
    "gap": ([ELL_CONES[0], ELL_CONES[2]], ELL_CONES, False, False),
    # an extra cone inside the octant
    "overlap": (
        ELL_CONES + [Cone.from_generators([(1, 1, 1), (2, 1, 1), (1, 2, 1)])],
        ELL_CONES,
        False,
        False,
    ),
    # the facet <(1,1,0),e3> of the left cone meets two facets on the right
    "t-junction": (
        [
            Cone.from_generators([E1, (1, 1, 0), E3]),
            Cone.from_generators([(1, 1, 0), E2, (1, 1, 1)]),
            Cone.from_generators([E2, E3, (1, 1, 1)]),
        ],
        [OCTANT],
        True,
        False,
    ),
}


def refinement_flags(sources, cones):
    """covering_ok and face_fitting_ok of a refinement report of the
    sources whose pieces are the cones, triangulated."""
    pieces = [q for c in cones for q in triangulate(c)]
    rep = refine._build_report(sources, pieces, False)
    return rep.covering_ok, rep.face_fitting_ok


@pytest.mark.parametrize("case", sorted(BROKEN_FANS))
def test_broken_fans_fail_the_tiling_certificate(case):
    cones, sources, covering, fitting = BROKEN_FANS[case]
    report = fan_consistency_report(cones)
    assert (report["covering_ok"], report["face_fitting_ok"]) == (covering, fitting)
    assert refinement_flags(sources, cones) == (covering, fitting)
    # the sampling oracle sees the gap and the overlaps; the t-junction
    # covers every point once and only the facet incidences show it
    assert bool(octant_tiling_defects([c.generators for c in cones])) == (
        case != "t-junction"
    )


def test_a_piece_facet_across_two_source_facets_does_not_fit():
    # the octant as one piece of the octant split at (1,1,0): its facet
    # <e1,e2> lies on z = 0, but in neither source facet there
    B = Cone.from_generators([(1, 1, 0), E2, E3])
    assert refinement_flags([A, B], [OCTANT]) == (True, False)
    assert refinement_flags([A, B], [A, B]) == (True, True)


def test_refine_fan_of_a_doubled_cone_is_not_face_fitting():
    rep = refine.refine_fan([A, A])
    assert rep.all_unimodular()  # A is regular: two det-1 certificates
    assert rep.covering_ok and not rep.face_fitting_ok


def test_refine_fan_of_overlapping_sources_is_not_face_fitting():
    # a fourth source across a wall of the dual fan: every piece is
    # unimodular and the volumes agree, but the sources overlap
    inner = Cone.from_generators([(1, 1, 1), (2, 1, 1), (1, 2, 1)])
    rep = refine.refine_fan(ELL_CONES + [inner])
    assert rep.all_unimodular() and rep.covering_ok
    assert not rep.face_fitting_ok
    assert refine.refine_fan(ELL_CONES).face_fitting_ok


@pytest.mark.parametrize("a, b, disjoint", [
    (ELL_CONES[0], ELL_CONES[1], True),  # a wall between them
    (A, OCTANT, False),  # nested
    (A, A, False),
    (ELL_CONES[1], Cone.from_generators([(1, 1, 1), (2, 1, 1), (1, 2, 1)]), False),
    # only the origin in common
    (
        Cone.from_generators([E1, (2, 1, 0), (2, 0, 1)]),
        Cone.from_generators([E2, E3, (1, 2, 2)]),
        True,
    ),
])
def test_interiors_disjoint_agrees_with_the_sampling_oracle(a, b, disjoint):
    from torfan.newton import _interiors_disjoint

    assert _interiors_disjoint(a, b) == _interiors_disjoint(b, a) == disjoint
    # the box holds a point of each overlap here; it need not in general
    defects = octant_tiling_defects([a.generators, b.generators])
    assert any(kind == "overlap" for _, kind in defects) == (not disjoint)


def test_facet_incidence_keys_sorted_ray_pairs_with_inner_normals():
    from torfan.newton import _facet_incidence

    owners = _facet_incidence(ELL_CONES)
    assert sum(map(len, owners.values())) == sum(len(c.facets) for c in ELL_CONES)
    for (a, b), normals in owners.items():
        assert a < b
        for n in normals:
            assert dot(n, a) == dot(n, b) == 0
            # an inner normal: some cone with this facet lies on its side
            assert any(
                a in c.generators and b in c.generators
                and all(dot(n, g) >= 0 for g in c.generators)
                for c in ELL_CONES
            )
    walls = {face for face, normals in owners.items() if len(normals) == 2}
    assert walls == {(E2, (6, 8, 9)), (E3, (6, 8, 9)), ((3, 1, 0), (6, 8, 9))}


@settings(max_examples=40, deadline=None)
@given(st.sets(exponents, min_size=1, max_size=6), st.data())
def test_mutated_dual_fans_fail_the_certificate_as_the_oracle_sees(support, data):
    fan = [c for c, _ in dual_newton_cones(support_polynomial(support))]
    k = data.draw(st.integers(0, len(fan) - 1))
    kind = data.draw(st.sampled_from(["drop", "duplicate", "neighbour"]))
    mutant = list(fan)
    if kind == "drop":
        assume(len(fan) > 1)
        del mutant[k]
    elif kind == "duplicate":
        mutant.append(fan[k])
    else:
        # swap one ray of cone k for a ray of a cone it shares a facet with
        c = fan[k]
        rays = set(c.generators)
        swaps = [
            Cone.from_generators((rays - {old}) | {new})
            for d in fan
            if len(rays & set(d.generators)) >= 2
            for new in d.generators
            if new not in rays
            for old in c.generators
        ]
        swaps = [s for s in swaps if s.dim == 3 and s != c]
        assume(swaps)
        mutant[k] = data.draw(st.sampled_from(swaps))

    for cones, tiles in ((fan, True), (mutant, False)):
        report = fan_consistency_report(cones)
        dnp_ok = report["covering_ok"] and report["face_fitting_ok"]
        refine_ok = all(refinement_flags(fan, cones))
        defects = octant_tiling_defects([c.generators for c in cones])
        # a mutant covers the octant differently from the fan it came from,
        # so it is never a fan of the octant
        assert dnp_ok == refine_ok == tiles, (kind, cones)
        # read both ways: an ok certificate means the oracle finds no
        # defect, and a defect it finds means the certificate is not ok
        assert not (dnp_ok and defects), (kind, defects)
