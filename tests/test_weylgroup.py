"""Weyl group enumeration, signs, stabilizers, and coset transversals."""

from fractions import Fraction as F

import numpy as np
import pytest

from weylchar import build_root_system, exact_point
from weylchar.charcalc import cached_weyl_group, effective_subsystem
from weylchar.errors import CapacityError, DomainError
from weylchar.exactlin import vscale, vsum
from weylchar.asymptotics import alcove_stratum_points
from weylchar.weylgroup import (
    DEFAULT_WEYL_CAP,
    ElementKey,
    coset_transversal,
    fixes_torus_point,
    generate_weyl_group,
    reflect,
    stabilizer,
)
from weylchar.rootsys import weyl_order

from _helpers import (
    apply_matrix, random_rational_vector, reflection_matrix, rng_for, scan_stabilizer,
)


@pytest.mark.parametrize(
    "name,order",
    [("A1", 2), ("A2", 6), ("B2", 8), ("A3", 24), ("G2", 12),
     ("B3", 48), ("C3", 48), ("D3", 24), ("D4", 192), ("F4", 1152)],
)
def test_group_orders(name, order):
    rs = build_root_system(name)
    group = generate_weyl_group(rs)
    assert group.order == order == weyl_order(rs.spec)


def test_e6_order():
    group = generate_weyl_group(build_root_system("E6"))
    assert group.order == 51840


def test_e8_capacity_error_names_required_order():
    with pytest.raises(CapacityError) as err:
        generate_weyl_group(build_root_system("E8"))
    assert err.value.required == 696729600


def test_sign_equals_determinant_exhaustive_f4():
    group = generate_weyl_group(build_root_system("F4"))
    dets = np.rint(np.linalg.det(group.stack.astype(float))).astype(int)
    assert (dets == group.signs).all()


def test_sign_homomorphism_exhaustive_f4():
    group = generate_weyl_group(build_root_system("F4"))
    mats = group.stack.astype(np.int64)
    signs = group.signs.astype(np.int64)
    index = {m.tobytes(): i for i, m in enumerate(mats)}
    # sign(uv) = sign(u) sign(v) over all 1152^2 pairs, in vectorized chunks
    for i in range(group.order):
        prods = mats[i] @ mats  # (n, 4, 4)
        idx = np.array([index[p.tobytes()] for p in prods])
        assert (signs[idx] == signs[i] * signs).all()


def test_elements_permute_roots():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
        for w in group.stack.tolist():
            for r in rs.positive_roots:
                assert apply_matrix(w, r) in roots


def test_elements_preserve_gram_form():
    rng = rng_for("gram-preserve")
    for name in ("A2", "C3", "G2"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        for _ in range(5):
            x = random_rational_vector(rng, rs.ambient_dim)
            y = random_rational_vector(rng, rs.ambient_dim)
            for w in group.stack[rng.sample(range(group.order), 4)]:
                assert rs.inner(apply_matrix(w, x), apply_matrix(w, y)) == rs.inner(x, y)


def test_reflect_examples_from_su3():
    rs = build_root_system("A2")
    a1 = rs.simple_roots[0]
    # (a, a, b) is fixed by the reflection in alpha1
    assert reflect(rs, a1, (F(3), F(3), F(-6))) == (F(3), F(3), F(-6))
    assert reflect(rs, a1, a1) == tuple(-x for x in a1)
    # transposition of the first two coordinates
    assert reflect(rs, a1, (F(1), F(0), F(-1))) == (F(0), F(1), F(-1))


def test_reflect_is_involution_and_isometry():
    rng = rng_for("reflect-involution")
    for name in ("A3", "B3", "G2"):
        rs = build_root_system(name)
        for _ in range(10):
            a = rng.choice(rs.positive_roots)
            x = random_rational_vector(rng, rs.ambient_dim)
            y = reflect(rs, a, x)
            assert reflect(rs, a, y) == x
            assert rs.inner(y, y) == rs.inner(x, x)


def test_reflect_rejects_the_zero_vector():
    rs = build_root_system("A2")
    with pytest.raises(DomainError):
        reflect(rs, (F(0), F(0), F(0)), (F(1), F(0), F(-1)))


def test_stabilizer_su3_paper_example():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    w0 = stabilizer(rs, group, h0)
    assert w0.indices == scan_stabilizer(rs, group, h0)
    assert w0.order == 2
    s1 = reflection_matrix(rs, rs.simple_roots[0])
    assert [group.stack[i].tolist() for i in w0.indices] == [np.eye(3, dtype=int).tolist(), s1]


def test_stabilizer_regular_point_is_trivial():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    h = exact_point([F(1, 7), F(2, 7), F(-3, 7)])
    w0 = stabilizer(rs, group, h)
    assert w0.indices == scan_stabilizer(rs, group, h)
    assert w0.order == 1


def test_stabilizer_su5_stratum_is_s3_x_s2():
    rs = build_root_system("A4")
    group = generate_weyl_group(rs)
    h = exact_point([F(1, 7), F(1, 7), F(1, 7), F(-3, 14), F(-3, 14)])
    w0 = stabilizer(rs, group, h)
    assert w0.indices == scan_stabilizer(rs, group, h)
    assert w0.order == 12


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D3", "D4", "G2"]
)
def test_stabilizer_matches_component_weyl_orders_on_all_strata(name):
    rs = build_root_system(name)
    group = generate_weyl_group(rs)
    for st in alcove_stratum_points(rs):
        w0 = stabilizer(rs, group, st.point)
        assert w0.indices == scan_stabilizer(rs, group, st.point)
        split = rs.degenerate_split(st.point)
        sub = effective_subsystem(rs, split.deg)
        expected = 1
        for comp in sub.components:
            expected *= comp.weyl_order
        assert w0.order == expected


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_closure_stabilizer_equals_scan_off_the_alcove(name):
    # The closure is the stabilizer at every point of a simply connected
    # group (Steinberg), not only in the alcove: check it at Weyl images of
    # every stratum and at random points sum c_i alpha_i with denominators <= 6.
    rs = build_root_system(name)
    group = generate_weyl_group(rs)
    rng = rng_for(f"stabilizer-off-alcove-{name}")
    points = [
        exact_point(apply_matrix(group.stack[rng.randrange(1, group.order)], st.point.coords))
        for st in alcove_stratum_points(rs) for _ in range(3)
    ]
    for _ in range(30):
        coeffs = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rs.rank)]
        points.append(exact_point(vsum(
            (vscale(c, a) for c, a in zip(coeffs, rs.simple_roots)), rs.ambient_dim
        )))
    for h in points:
        assert stabilizer(rs, group, h).indices == scan_stabilizer(rs, group, h)


def test_identity_stabilizer_of_e6_closes_over_its_six_simple_roots():
    rs = build_root_system("E6")
    w0 = stabilizer(rs, cached_weyl_group(rs), exact_point([0] * 6))
    assert w0.roots == tuple(sorted(rs._simple_index)) and w0.order == 51840


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_stabilizer_roots_are_the_simple_roots_of_the_degenerate_subsystem(name):
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    for st in alcove_stratum_points(rs):
        w0 = stabilizer(rs, group, st.point)
        sub = effective_subsystem(rs, rs.degenerate_split(st.point).deg)
        assert len(w0.roots) == len(sub.simple_roots)
        assert {rs.positive_roots[i] for i in w0.roots} == set(sub.simple_roots)


@pytest.mark.parametrize("name", ["B3", "F4"])
def test_transversal_maps_every_degenerate_root_to_a_positive_root(name):
    # Dyer's test on the simple degenerate roots against the same test on all
    # of them, off the alcove, with positivity read from the root list.
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    rng = rng_for(f"transversal-positivity-{name}")
    positive = set(map(tuple, rs._pos_rows.tolist()))
    stack = group.stack.astype(np.int64)
    for st in alcove_stratum_points(rs):
        for _ in range(2):
            w = group.stack[rng.randrange(1, group.order)]
            h = exact_point(apply_matrix(w, st.point.coords))
            split = rs.degenerate_split(h)
            images = np.einsum("wij,dj->wdi", stack, rs._pos_rows[list(split.deg_index)])
            want = tuple(i for i, rows in enumerate(images.tolist())
                         if all(tuple(r) in positive for r in rows))
            w0 = stabilizer(rs, group, h, split=split)
            assert coset_transversal(group, w0).indices == want


def test_every_stabilizer_element_fixes_point():
    rs = build_root_system("B2")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 3), F(1, 3)])
    w0 = stabilizer(rs, group, h0)
    assert all(fixes_torus_point(rs, group.stack[i].tolist(), h0) for i in w0.indices)
    assert group.order % w0.order == 0


def test_coset_transversal_su3():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    w0 = stabilizer(rs, group, h0)
    trans = coset_transversal(group, w0)
    assert len(trans) == 3
    assert trans.indices[0] == 0


def test_coset_transversal_full_group_is_identity():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    w0 = stabilizer(rs, group, exact_point([0, 0, 0]))
    trans = coset_transversal(group, w0)
    assert len(trans) == 1 and trans.indices[0] == 0


def test_coset_transversal_partitions_group():
    rs = build_root_system("A3")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 5), F(1, 5), F(-1, 5), F(-1, 5)])
    w0 = stabilizer(rs, group, h0)
    trans = coset_transversal(group, w0)
    assert len(trans) * w0.order == group.order == 24
    stack = group.stack.astype(np.int64)
    products = stack[list(trans.indices)][:, None] @ stack[list(w0.indices)][None]
    assert len(np.unique(products.reshape(group.order, -1), axis=0)) == group.order


def test_conjugated_stabilizer_is_reflection_group_of_image_roots():
    # b W0 b^{-1} is the closure of the reflections in b(degenerate roots),
    # so b W0 = {c b : c in that closure}, on every coset of every stratum
    for name in ("A2", "A3", "B2", "G2", "B3"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        stack = group.stack.astype(np.int64)
        index = {m.tobytes(): i for i, m in enumerate(stack)}
        for st in alcove_stratum_points(rs):
            if st.central:
                continue
            split = rs.degenerate_split(st.point)
            w0 = stabilizer(rs, group, st.point)
            members = stack[list(w0.indices)]
            for b in coset_transversal(group, w0).indices:
                left = {index[m.tobytes()] for m in stack[b] @ members}
                gens = np.array([reflection_matrix(rs, apply_matrix(stack[b], a))
                                 for a in split.deg])
                closure = {stack[0].tobytes(): stack[0]}
                frontier = [stack[0]]
                while frontier:
                    for m in frontier.pop() @ gens:
                        if m.tobytes() not in closure:
                            closure[m.tobytes()] = m
                            frontier.append(m)
                right = {index[(c @ stack[b]).tobytes()] for c in closure.values()}
                assert left == right


def test_stabilizer_requires_exact_point():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    from weylchar.torus import float_point

    with pytest.raises(DomainError):
        stabilizer(rs, group, float_point([0.1, 0.1, -0.2]))


# ---------------------------------------------------------------------------
# element keys and the sorted-key index
# ---------------------------------------------------------------------------


def test_index_round_trips_every_element_of_f4_and_e6():
    for group in (generate_weyl_group(build_root_system("F4")),
                  cached_weyl_group(build_root_system("E6"))):
        assert group.indices_by_key(group.keys).tolist() == list(range(group.order))
        assert sorted(group.keys.tolist()) == np.unique(group.keys).tolist()  # injective


def test_non_member_keys_raise_domain_error():
    # the key of the zero vector lies inside the radix box but off the orbit W (2 rho)
    for name in ("A2", "B3"):
        rs = build_root_system(name)
        group = generate_weyl_group(rs)
        zero = np.zeros((1, rs.ambient_dim), dtype=np.int64)
        with pytest.raises(DomainError):
            group.indices_by_key(group.key.of_vectors(zero))


def test_keys_fit_every_group_within_the_default_cap():
    names = [f"{fam}{n}" for fam, top in (("A", 8), ("B", 7), ("C", 7), ("D", 7))
             for n in range(1 if fam == "A" else 2, top + 1)] + ["E6", "E7", "F4", "G2"]
    for name in names:
        rs = build_root_system(name)
        assert weyl_order(rs.spec) <= DEFAULT_WEYL_CAP
        assert 2 * ElementKey(rs).offset < 2**62


def test_key_overflow_is_a_capacity_error_before_any_enumeration():
    # A20: |W| = 21!, and the Cauchy-Schwarz bound of each of the 21
    # coordinates of W (2 rho) is 55, so its keys need more than 62 bits.
    # Nothing is enumerated.
    rs = build_root_system("A20")
    with pytest.raises(CapacityError, match="keys of A20"):
        ElementKey(rs)
    with pytest.raises(CapacityError, match="keys of A20"):
        generate_weyl_group(rs, cap=10**30)
