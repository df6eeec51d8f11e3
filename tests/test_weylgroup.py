"""Weyl group enumeration, signs, stabilizers, and coset transversals."""

import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

from weylchar import build_root_system, exact_point
from weylchar.charcalc import cached_weyl_group, effective_subsystem
from weylchar.errors import CapacityError, DomainError
from weylchar.exactlin import adjugate, common_denominator, vscale, vsub
from weylchar.asymptotics import alcove_stratum_points
from weylchar import weylgroup
from weylchar.weylgroup import (
    DEFAULT_WEYL_CAP,
    coset_transversal,
    generate_weyl_group,
    reflect,
    stabilizer,
)
from weylchar.rootsys import weyl_order

from _helpers import (
    apply_matrix, check_stabilizer, fixed_members, random_rational_vector,
    reflection_matrix, rng_for, scan_transversal, subsystem_simple_roots,
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
    assert "Weyl group of E8 has order 696729600, above the cap" in str(err.value)


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
    w0 = stabilizer(rs, rs.degenerate_split(h0))
    members = fixed_members(rs, group.stack, h0)
    check_stabilizer(rs, group, h0, w0, members)
    assert w0.order == 2
    assert [rs.positive_roots[i] for i in w0.roots] == [rs.simple_roots[0]]
    s1 = reflection_matrix(rs, rs.simple_roots[0])
    assert [group.stack[i].tolist() for i in members] == [np.eye(3, dtype=int).tolist(), s1]


def test_stabilizer_regular_point_is_trivial():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    h = exact_point([F(1, 7), F(2, 7), F(-3, 7)])
    w0 = stabilizer(rs, rs.degenerate_split(h))
    check_stabilizer(rs, group, h, w0, fixed_members(rs, group.stack, h))
    assert w0.order == 1 and w0.roots == ()


def test_stabilizer_su5_stratum_is_s3_x_s2():
    rs = build_root_system("A4")
    group = generate_weyl_group(rs)
    h = exact_point([F(1, 7), F(1, 7), F(1, 7), F(-3, 14), F(-3, 14)])
    w0 = stabilizer(rs, rs.degenerate_split(h))
    check_stabilizer(rs, group, h, w0, fixed_members(rs, group.stack, h))
    assert w0.order == 12


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D3", "D4", "G2"]
)
def test_stabilizer_matches_component_weyl_orders_on_all_strata(name):
    rs = build_root_system(name)
    group = generate_weyl_group(rs)
    for st in alcove_stratum_points(rs):
        w0 = stabilizer(rs, rs.degenerate_split(st.point))
        check_stabilizer(rs, group, st.point, w0, fixed_members(rs, group.stack, st.point))
        split = rs.degenerate_split(st.point)
        sub = effective_subsystem(rs, split.deg)
        assert w0.order == math.prod(weyl_order(c) for c in sub.components)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_closure_stabilizer_equals_scan_off_the_alcove(name):
    # The reflection group of the degenerate roots is the stabilizer at every
    # point of a simply connected group (Steinberg), not only in the alcove:
    # check it at Weyl images of every stratum and at random points
    # sum c_i alpha_i with denominators <= 6.
    rs = build_root_system(name)
    group = generate_weyl_group(rs)
    rng = rng_for(f"stabilizer-off-alcove-{name}")
    points = [
        exact_point(apply_matrix(group.stack[rng.randrange(1, group.order)], st.point.coords))
        for st in alcove_stratum_points(rs) for _ in range(3)
    ]
    for _ in range(30):
        coeffs = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rs.rank)]
        points.append(exact_point([sum(c * a[j] for c, a in zip(coeffs, rs.simple_roots))
                                   for j in range(rs.ambient_dim)]))
    for h in points:
        check_stabilizer(rs, group, h, stabilizer(rs, rs.degenerate_split(h)),
                         fixed_members(rs, group.stack, h))


def scan_stabilizer(rs, group, h0):
    """Indices of the elements of `group` fixing h0, one exact test per element.

    w fixes h0 iff x = (w h0 - h0) / 2 (coordinates in units of pi) lies in
    the coroot lattice: its coordinates c in the simple coroots, read off
    the coroots' Gram matrix G by c = G^-1 ((a_j^v | x))_j with the
    fraction-free `adjugate`, are integers and sum back to x.  No
    fundamental weight enters, unlike `fixed_members`.
    """
    coroots = [vscale(F(2) / rs.norm2(a), a) for a in rs.simple_roots]
    gram_int, den = common_denominator(
        [rs.inner(a, b) for a in coroots for b in coroots])
    k = rs.rank
    adj, det = adjugate([gram_int[i * k:(i + 1) * k] for i in range(k)])
    members = []
    for i, w in enumerate(group.stack.tolist()):
        x = vscale(F(1, 2), vsub(apply_matrix(w, h0.coords), h0.coords))
        b = [rs.inner(a, x) for a in coroots]
        c = [den * sum(g * y for g, y in zip(row, b)) / det for row in adj]
        back = tuple(sum(ci * a[j] for ci, a in zip(c, coroots)) for j in range(rs.ambient_dim))
        if back == x and all(ci.denominator == 1 for ci in c):
            members.append(i)
    return tuple(members)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_vectorized_fixed_point_test_equals_scan(name):
    # fixed_members, the integer test of the whole stack through the
    # fundamental weights, against a per-element scan in the coroot basis at
    # alcove strata and Weyl images of them.  Large groups take a sample.
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    rng = rng_for(f"fixed-members-{name}")
    strata = alcove_stratum_points(rs)
    if group.order > 100:
        strata = rng.sample(strata, 2 if group.order > 1000 else 8)
    points = [st.point for st in strata] + [
        exact_point(apply_matrix(group.stack[rng.randrange(1, group.order)], st.point.coords))
        for st in strata
    ]
    for h in points:
        assert fixed_members(rs, group.stack, h) == scan_stabilizer(rs, group, h)


def test_identity_stabilizer_of_e6_closes_over_its_six_simple_roots():
    rs = build_root_system("E6")
    w0 = stabilizer(rs, rs.degenerate_split(exact_point([0] * 6)))
    assert w0.roots == tuple(sorted(rs._simple_index)) and w0.order == 51840


def test_identity_stabilizer_order_is_the_weyl_order_without_enumeration():
    # The height product needs no element of W and no enumerated group, so
    # it reaches E8, whose arrays would not fit in memory.
    names = [f"{fam}{n}" for fam, top in (("A", 8), ("B", 8), ("C", 8), ("D", 8))
             for n in range(1 if fam == "A" else 2, top + 1)] + ["E6", "E7", "E8", "F4", "G2"]
    for name in names:
        rs = build_root_system(name)
        w0 = stabilizer(rs, rs.degenerate_split(exact_point([0] * rs.ambient_dim)))
        assert w0.order == weyl_order(rs.spec)
        assert w0.roots == tuple(sorted(rs._simple_index))


@pytest.mark.parametrize("name", ["E6", "F4"])
def test_stabilizer_checks_against_the_fixed_point_test(name):
    # every F4 stratum and every third E6 one, each with a Weyl image of it
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    rng = rng_for(f"stabilizer-fixed-members-{name}")
    for st in alcove_stratum_points(rs)[::3 if name == "E6" else 1]:
        w = group.stack[rng.randrange(group.order)]
        for h in (st.point, exact_point(apply_matrix(w, st.point.coords))):
            check_stabilizer(rs, group, h, stabilizer(rs, rs.degenerate_split(h)),
                             fixed_members(rs, group.stack, h))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_stabilizer_roots_are_the_simple_roots_of_the_degenerate_subsystem(name):
    rs = build_root_system(name)
    for st in alcove_stratum_points(rs):
        w0 = stabilizer(rs, rs.degenerate_split(st.point))
        assert {rs.positive_roots[i] for i in w0.roots} == set(
            subsystem_simple_roots(rs.degenerate_split(st.point).deg))


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
            w0 = stabilizer(rs, split)
            assert tuple(coset_transversal(group, w0).tolist()) == want


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6"]
)
def test_transversal_from_the_positivity_table_equals_the_stack_scan(name):
    # every alcove stratum and two Weyl images of each
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    rng = rng_for(f"transversal-table-{name}")
    for st in alcove_stratum_points(rs):
        images = [group.stack[rng.randrange(group.order)] for _ in range(2)]
        for h in [st.point] + [exact_point(apply_matrix(w, st.point.coords)) for w in images]:
            w0 = stabilizer(rs, rs.degenerate_split(h))
            assert tuple(coset_transversal(group, w0).tolist()) == scan_transversal(group, w0)


@pytest.mark.parametrize(
    "name, largest", [("A3", 3), ("B3", 5), ("G2", 18), ("F4", 32), ("E6", 22)]
)
def test_positivity_table_is_the_int8_image_of_two_rho(name, largest):
    # the rows the closure walked against w^T G 2 rho formed from the stack
    rs = build_root_system(name)
    group = cached_weyl_group(rs)
    table = group.positivity
    want = np.einsum("wkj,k->wj", group.stack.astype(np.int64), rs._two_rho_form)
    assert table.dtype == np.int8 and table.tolist() == want.tolist()
    assert int(np.abs(want).max()) == largest


def test_positivity_table_and_transversal_across_block_boundaries(monkeypatch):
    # blocks of 100 split F4's 1152 elements unevenly: the same table and
    # the same representatives as one block
    rs = build_root_system("F4")
    whole = cached_weyl_group(rs)
    splits = [rs.degenerate_split(st.point) for st in alcove_stratum_points(rs)]
    want = [coset_transversal(whole, stabilizer(rs, split)).tolist() for split in splits]
    assert len(set(map(len, want))) > 3
    monkeypatch.setattr(weylgroup, "TRANSVERSAL_BLOCK", 100)
    blocked = generate_weyl_group(rs)
    assert blocked.positivity.tolist() == whole.positivity.tolist()
    assert [coset_transversal(blocked, stabilizer(rs, split)).tolist()
            for split in splits] == want


def test_every_stabilizer_element_fixes_point():
    # The integer test against the definition in floats: w fixes h0 iff
    # e^{i(omega|w h0)} = e^{i(omega|h0)} for every fundamental weight omega.
    rs = build_root_system("B2")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 3), F(1, 3)])
    w0 = stabilizer(rs, rs.degenerate_split(h0))
    members = fixed_members(rs, group.stack, h0)
    omegas = [[float(x) for x in w] for w in rs.fundamental_weights()]
    gram = np.array([[float(g) for g in row] for row in rs.gram])
    h = np.array(h0.radians())
    phases = [np.exp(1j * np.array(omegas) @ gram @ (w @ h)) for w in group.stack]
    moved = [np.abs(p - phases[0]).max() for p in phases]
    assert [i for i, m in enumerate(moved) if m < 1e-9] == list(members)
    assert min(m for i, m in enumerate(moved) if i not in members) > 0.1
    check_stabilizer(rs, group, h0, w0, members)
    assert group.order % w0.order == 0


def test_coset_transversal_su3():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    w0 = stabilizer(rs, rs.degenerate_split(h0))
    trans = coset_transversal(group, w0)
    assert len(trans) == 3
    assert trans[0] == 0


def test_coset_transversal_full_group_is_identity():
    rs = build_root_system("A2")
    group = generate_weyl_group(rs)
    w0 = stabilizer(rs, rs.degenerate_split(exact_point([0, 0, 0])))
    trans = coset_transversal(group, w0)
    assert trans.tolist() == [0] and trans.dtype == np.intp


def test_coset_transversal_partitions_group():
    rs = build_root_system("A3")
    group = generate_weyl_group(rs)
    h0 = exact_point([F(1, 5), F(1, 5), F(-1, 5), F(-1, 5)])
    w0 = stabilizer(rs, rs.degenerate_split(h0))
    trans = coset_transversal(group, w0)
    assert len(trans) * w0.order == group.order == 24
    stack = group.stack.astype(np.int64)
    members = fixed_members(rs, group.stack, h0)
    products = stack[trans][:, None] @ stack[list(members)][None]
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
            w0 = stabilizer(rs, rs.degenerate_split(st.point))
            members = stack[list(fixed_members(rs, group.stack, st.point))]
            for b in coset_transversal(group, w0).tolist():
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
    from weylchar.torus import float_point

    with pytest.raises(DomainError):
        stabilizer(rs, rs.degenerate_split(float_point([0.1, 0.1, -0.2])))


# ---------------------------------------------------------------------------
# enumeration: pinned bits, completeness and capacity
# ---------------------------------------------------------------------------

#: sha256 of the stack, the signs and the positivity table, in enumeration
#: order: the bits every stack-reading path depends on.
DIGESTS = {
    "G2": ("b19f426aae2a8d4bdf5466e2ddcdec234efc5021615f0fd7bbf00afe4b96b208",
           "20fec9a0739f02ca623d493d5ba8511cdbbb5bcfbbcaa18b0dfc8c081416d3cc",
           "a5907e27987478fe0da804ee82eaaa68acc9fc9a61db1051e857eed77561d412"),
    "F4": ("d09f1b64e43ae34c2dba6542f8f4f8e398fea2105b99d2f3e37f6278172769d6",
           "2405cc40658b120c4ec8cb8b841da6890bf906a8f51c665fcd158c48a991c1d1",
           "c4fc87ca4e0e54fc7e63f7ef49bb1ce5252aa614fe0d1cdcb4b25cbb663997fe"),
    "B4": ("fcbee1917292709e8cd6e040e3d86e5ac639a2023e3476f4e6adc0d3ab913ed9",
           "e2f7258515d5e5e649bddc22d71d75871e9a3a56babd714b7bb3196451bca6fa",
           "b9d38a4813950a137aec353607e79f3c451d9866dc15f1389807ad4979989815"),
    "E6": ("3a06a642c216a79eb252e2d8b3d68e1781bf38a62eab4ce26c8a2f938a2fb938",
           "9a30ba845c3b2aafed483de0b560febceb48c75fce7c6eb13b8daedd6d40e841",
           "a09c78a0f60cad559ffe28df7622e26d8560e7d9ac2eae3ba821c8af1199260d"),
    "A8": ("b49173b2067393ec053c4ba9ba235833b911e543bf8577c74170006b774075fe",
           "9392a015eaa332461852fa4da880533b52d00a870736d673b6c07a560c0b999e",
           "5db76c73d3970805be8ac0f3ad47e8f1edb6d8d47ed765524a1e2c40a794aae4"),
    "B7": ("6004a2c8bfa52afbf92255de5dfa98082d0e134467341b5c1d7ba78dd6752290",
           "4a1d6553a38bf17125ee595596c5aa98205901ba987760434ca8782e77487fb5",
           "e67af730d6591e0a4d34ad0708f320c952b940b244364c103689a43a047b2061"),
    "D7": ("e4d8c5b1e95814a74f9b111d7bf85cb341e35ef467be8affbcad6fe460524e46",
           "0bd984bfe42817977340177c5e23e9d08d28800738ddb550210df176aaa78731",
           "d76a5dde02b37ed3df61603c0742fc941b579f7e9ded42027405c7d47f631983"),
    "E7": ("2621124e37828e57124b7f15d425ee1e4250caf1a6b35f84f0fed15a407ae800",
           "e595145ed7a4e665ea9cb8d6f9ea9e11b818e5ed79e8f574b18bebae83457284",
           "b38557bbbe67ac2e679ebfda0897d0e1512ea1e1e677d8f84f877386c8945157"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_enumeration_bits_are_pinned(name):
    group = generate_weyl_group(build_root_system(name))
    arrays = (group.stack, group.signs, group.positivity)
    assert all(a.dtype == np.int8 for a in arrays)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == DIGESTS[name]


#: The degrees of the basic invariants of each family (Humphreys, Reflection
#: Groups and Coxeter Groups, 3.7): |W| is their product, and the Poincare
#: polynomial sum_w t^l(w) is prod_i (1 + t + ... + t^(d_i - 1)).
DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
    "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18)}.get,
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def test_enumeration_is_every_element_once_by_length_within_the_default_cap():
    # Every group the default cap admits enumerates to its order, each
    # element once and in order of length, with the length counts of its
    # Poincare polynomial and the signs (-1)^length.  E7 rests on its
    # pinned digest instead, which fixes the same arrays.
    names = [f"{fam}{n}" for fam, top in (("A", 8), ("B", 7), ("C", 7), ("D", 7))
             for n in range(1 if fam == "A" else 2, top + 1)] + ["E6", "E7", "F4", "G2"]
    for name in names:
        rs = build_root_system(name)
        assert weyl_order(rs.spec) <= DEFAULT_WEYL_CAP
        if name == "E7":
            continue
        group = generate_weyl_group(rs)
        assert group.order == weyl_order(rs.spec)
        # l(w) = #{a > 0 : w a < 0}, and w a < 0 iff a . positivity[w] < 0
        length = np.concatenate([
            (block.astype(np.int64) @ rs._pos_rows.T < 0).sum(axis=1)
            for block in np.array_split(group.positivity, -(-group.order // 65536))
        ])
        assert (np.diff(length) >= 0).all()
        poincare = [1]
        for d in DEGREES[name[0]](int(name[1:])):
            poincare = np.convolve(poincare, np.ones(d, dtype=np.int64))
        assert np.bincount(length).tolist() == list(poincare)
        assert (group.signs == np.where(length % 2, -1, 1)).all()
        # one opaque n*n-byte item per matrix: sorting them is a memcmp sort
        items = group.stack.reshape(group.order, -1).view(np.dtype((np.void, rs.ambient_dim ** 2)))
        assert len(np.unique(items)) == group.order


def test_memory_guard_refuses_a20_before_any_enumeration(monkeypatch):
    # A20 has |W| = 21!: through generate_weyl_group the physical-memory
    # guard refuses it with no closure run.
    rs = build_root_system("A20")

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(weylgroup, "_closure", no_enumeration)
    with pytest.raises(CapacityError, match="physical memory"):
        generate_weyl_group(rs, cap=10**30)
