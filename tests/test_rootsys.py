"""Root system construction, exact geometry, and Dynkin combinatorics."""

import hashlib
import json
from fractions import Fraction as F

import numpy as np
import pytest

from weylchar import build_root_system, exact_point
from weylchar.errors import ConfigError, DomainError, StructureError
from weylchar.exactlin import (
    adjugate, common_denominator, solve, span_coefficients, vadd, vscale,
)
from weylchar.rootsys import RootSystemSpec, positive_root_count
from weylchar.weylgroup import reflect

from _helpers import random_rational_vector, rng_for

ALL_SPECS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
    "D2", "D3", "D4", "D5", "G2", "F4", "E6", "E7", "E8",
]


@pytest.mark.parametrize("name", ALL_SPECS)
def test_positive_root_counts_match_classification(name):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == positive_root_count(rs.spec)


@pytest.mark.parametrize("name", ALL_SPECS)
def test_simple_roots_realize_cartan_matrix(name):
    rs = build_root_system(name)
    for i, a in enumerate(rs.simple_roots):
        for j, b in enumerate(rs.simple_roots):
            assert 2 * rs.inner(a, b) / rs.inner(b, b) == rs.cartan_matrix[i][j]


@pytest.mark.parametrize("name", ALL_SPECS)
def test_weyl_vector_pairing_is_one_on_simple_roots(name):
    rs = build_root_system(name)
    for a in rs.simple_roots:
        assert 2 * rs.inner(rs.weyl_vector, a) == rs.inner(a, a)


@pytest.mark.parametrize("name", ALL_SPECS)
def test_weyl_vector_is_integral(name):
    rs = build_root_system(name)
    assert rs.is_dominant_integral(rs.weyl_vector)


@pytest.mark.parametrize("name", ALL_SPECS)
def test_positive_roots_are_nonneg_integer_combinations(name):
    rs = build_root_system(name)
    for r in rs.positive_roots:
        coeffs = rs.root_coeffs[r]
        assert all(c >= 0 for c in coeffs)
        v = rs.simple_roots[0]
        total = tuple(F(0) for _ in range(rs.ambient_dim))
        for c, s in zip(coeffs, rs.simple_roots):
            total = vadd(total, tuple(F(c) * x for x in s))
        assert total == r


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_generator_reflections_permute_roots(name):
    rs = build_root_system(name)
    for a in rs.simple_roots:
        for r in rs.positive_roots:
            assert rs.is_root(reflect(rs, a, r))


def test_rank_bounds_enforced():
    for fam, bad in [("A", 0), ("B", 1), ("C", 1), ("D", 1), ("E", 5), ("F", 3), ("G", 3)]:
        with pytest.raises(ConfigError):
            RootSystemSpec(fam, bad)
    with pytest.raises(ConfigError):
        build_root_system("H3")


def test_type_a_sum_zero_everywhere():
    for name in ("A1", "A2", "A4"):
        rs = build_root_system(name)
        for r in rs.positive_roots:
            assert sum(r) == 0
        assert sum(rs.weyl_vector) == 0
        for w in rs.fundamental_weights():
            assert sum(w) == 0


def test_inner_products_a2():
    # Trace form in the L basis: (1,-1,0).(1,-1,0) = 2 and (rho|alpha1) = 1.
    rs = build_root_system("A2")
    a1 = rs.simple_roots[0]
    assert rs.inner(a1, a1) == 2
    assert rs.inner(rs.weyl_vector, a1) == 1
    assert rs.weyl_vector == (F(1), F(0), F(-1))


def test_inner_symmetry_and_mismatch():
    rng = rng_for("inner-symmetry")
    for name in ("A2", "B3", "G2", "F4"):
        rs = build_root_system(name)
        for _ in range(10):
            x = random_rational_vector(rng, rs.ambient_dim)
            y = random_rational_vector(rng, rs.ambient_dim)
            assert rs.inner(x, y) == rs.inner(y, x)
    rs = build_root_system("A2")
    with pytest.raises(DomainError):
        rs.inner((F(1), F(0)), (F(0), F(1), F(0)))


def test_is_dominant_integral_examples():
    rs = build_root_system("A2")
    assert rs.is_dominant_integral((F(1), F(0), F(-1)))
    assert not rs.is_dominant_integral((F(1, 2), F(-1, 2), F(0)))
    assert rs.is_dominant_integral((F(0), F(0), F(0)))


def test_degenerate_split_examples():
    rs = build_root_system("A2")
    h0 = exact_point([F(1, 5), F(1, 5), F(-2, 5)])
    sp = rs.degenerate_split(h0)
    assert sp.deg == (rs.simple_roots[0],)
    assert len(sp.ndeg) == 2

    zero = exact_point([0, 0, 0])
    assert len(rs.degenerate_split(zero).deg) == len(rs.positive_roots)

    rs1 = build_root_system("A1")
    h = exact_point([F(1, 6), F(-1, 6)])  # theta = pi/3
    assert rs1.degenerate_split(h).deg == ()


def test_degenerate_split_honors_periodicity():
    # theta = 2*pi is singular even though (alpha|h) != 0
    rs = build_root_system("A1")
    h = exact_point([F(1), F(-1)])
    assert rs.degenerate_split(h).deg == (rs.simple_roots[0],)


def test_split_partitions_positive_roots():
    rng = rng_for("split-partition")
    for name in ("A3", "B3", "G2"):
        rs = build_root_system(name)
        for _ in range(5):
            coords = [F(rng.randint(-6, 6), 6) for _ in range(rs.ambient_dim)]
            if rs.spec.family == "A":
                coords[-1] = -sum(coords[:-1], F(0))
            sp = rs.degenerate_split(exact_point(coords))
            assert set(sp.deg) | set(sp.ndeg) == set(rs.positive_roots)
            assert not (set(sp.deg) & set(sp.ndeg))


def test_degenerate_split_floating_uses_snap_tolerance():
    import math

    from weylchar import float_point

    rs = build_root_system("A2")
    h = float_point([math.pi / 5, math.pi / 5 + 5e-10, -2 * math.pi / 5 - 5e-10])
    sp = rs.degenerate_split(h)
    assert sp.deg == (rs.simple_roots[0],)
    h2 = float_point([math.pi / 5, math.pi / 5 + 1e-6, -2 * math.pi / 5 - 1e-6])
    assert rs.degenerate_split(h2).deg == ()


def test_dynkin_path_line_and_self():
    rs = build_root_system("A3")
    assert rs.dynkin_path(0, 2) == [0, 1, 2]
    assert rs.dynkin_path(1, 1) == [1]


def test_dynkin_path_e6_branch_legs():
    # Bourbaki E6: chain 1-3-4-5-6 with 2 attached to 4; legs 1 and 6
    rs = build_root_system("E6")
    path = rs.dynkin_path(0, 5)
    assert path[0] == 0 and path[-1] == 5
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert rs.cartan_matrix[a][b] < 0


def test_dynkin_path_refuses_d2():
    rs = build_root_system("D2")
    with pytest.raises(StructureError):
        rs.dynkin_path(0, 1)


def test_chain_sum_root_examples():
    rs = build_root_system("A2")
    assert rs.chain_sum_root([0, 1]) == vadd(rs.simple_roots[0], rs.simple_roots[1])
    assert rs.chain_sum_root([1]) == rs.simple_roots[1]
    g2 = build_root_system("G2")
    assert g2.is_positive_root(g2.chain_sum_root([0, 1]))
    with pytest.raises(DomainError):
        build_root_system("A3").chain_sum_root([0, 2])  # not adjacent


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_all_dynkin_paths_sum_to_roots(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        for j in range(rs.rank):
            if i == j:
                continue
            chain = rs.dynkin_path(i, j)
            assert rs.is_positive_root(rs.chain_sum_root(chain))


def test_reflection_matrices_preserve_gram():
    for name in ("A2", "B2", "C3", "G2", "F4"):
        rs = build_root_system(name)
        for a in rs.simple_roots:
            n = rs.ambient_dim
            for i in range(n):
                ei = tuple(F(1) if t == i else F(0) for t in range(n))
                for j in range(n):
                    ej = tuple(F(1) if t == j else F(0) for t in range(n))
                    # reflect(a, e_k) is column k of the reflection matrix
                    assert rs.inner(reflect(rs, a, ei), reflect(rs, a, ej)) == rs.inner(ei, ej)


def test_json_serialization_golden_a2():
    rs = build_root_system("A2")
    doc = rs.to_json_dict()
    assert doc["family"] == "A" and doc["rank"] == 2
    assert doc["simple_roots"] == [["1", "-1", "0"], ["0", "1", "-1"]]
    assert ["1", "0", "-1"] in doc["positive_roots"]
    assert doc["cartan_matrix"] == [[2, -1], [-1, 2]]
    json.dumps(doc)  # must be serializable as-is


def test_highest_root_values():
    assert build_root_system("A2").highest_root == (F(1), F(0), F(-1))
    assert build_root_system("G2").highest_root == (F(2), F(3))
    assert build_root_system("B2").highest_root == (F(1), F(1))


ORDER_SPECS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(2, 9)]
    + ["E6", "E7", "F4", "G2"]
)


@pytest.mark.parametrize("name", ORDER_SPECS)
def test_positive_root_order_and_coefficients_match_normal_equations(name):
    # The reference: coefficients by one normal-equation solve per root, and
    # positive roots sorted by (height, coordinates).
    rs = build_root_system(name)
    coeffs = {r: span_coefficients(rs.simple_roots, rs.gram, r) for r in rs.positive_roots}
    assert list(rs.positive_roots) == sorted(rs.positive_roots,
                                             key=lambda r: (sum(coeffs[r]), r))
    assert rs.root_coeffs == {r: tuple(int(c) for c in coeffs[r]) for r in rs.positive_roots}
    for w, a in zip(rs.fundamental_coweights(), rs.simple_roots):
        assert [rs.inner(w, b) for b in rs.simple_roots] == [
            int(b == a) for b in rs.simple_roots]


# ---------------------------------------------------------------------------
# integer construction against Fraction references
# ---------------------------------------------------------------------------

#: sha256 of the concatenated `weylchar roots --group X` documents (JSON) for
#: X in ALL_SPECS order, as the Fraction construction produced them.
ROOTS_DOCS_SHA256 = "6adcf3672ac2036d1b0d11b8401471491bd6a46771ff0d230438bb8ecbc3e13f"


@pytest.mark.parametrize("name", ALL_SPECS)
def test_integer_root_data_matches_fraction_references(name):
    rs = build_root_system(name)
    simple, gram = rs.simple_roots, rs.gram
    vectors = [*simple, *rs.positive_roots, rs.weyl_vector,
               *rs.fundamental_weights(), *rs.fundamental_coweights(), *gram]
    assert all(type(x) is F and type(x.numerator) is int for v in vectors for x in v)
    coeffs = {r: span_coefficients(simple, gram, r) for r in rs.positive_roots}
    assert list(rs.positive_roots) == sorted(coeffs, key=lambda r: (sum(coeffs[r]), r))
    assert rs.root_coeffs == {r: tuple(int(c) for c in coeffs[r]) for r in rs.positive_roots}
    assert rs.weyl_vector == tuple(sum(xs, F(0)) / 2 for xs in zip(*rs.positive_roots))
    assert rs.cartan_matrix == tuple(
        tuple(2 * rs.inner(a, b) / rs.inner(b, b) for b in simple) for a in simple)
    for i, (w, cw) in enumerate(zip(rs.fundamental_weights(), rs.fundamental_coweights())):
        assert span_coefficients(simple, gram, w) is not None
        assert span_coefficients(simple, gram, cw) is not None
        assert [2 * rs.inner(w, a) / rs.inner(a, a) for a in simple] == [
            int(i == j) for j in range(rs.rank)]
        assert [rs.inner(cw, a) for a in simple] == [int(i == j) for j in range(rs.rank)]
    # the integer rows, each over its least common denominator
    assert rs._pos_rows.tolist() == [[int(x) for x in r] for r in rs.positive_roots]
    forms = [rs.gram_vec(a) for a in rs.positive_roots]
    assert (rs._pos_forms.ravel().tolist(), rs._pos_forms_den) == common_denominator(
        x for f in forms for x in f)
    # the coroot table: the integer rows 2 G a / (a|a) of every positive root
    coroots = [vscale(2 / rs.norm2(a), rs.gram_vec(a)) for a in rs.positive_roots]
    assert all(x.denominator == 1 for c in coroots for x in c)
    assert rs._coroot_rows.tolist() == [list(c) for c in coroots]
    gram_int, gram_den = common_denominator(x for row in gram for x in row)
    assert ([x for row in rs._gram_int for x in row], rs._gram_den) == (gram_int, gram_den)
    assert rs._simple_index == [rs.positive_roots.index(a) for a in simple]
    # the float forms keep the bits of float(Fraction)
    want = np.array([[float(x) for x in f] for f in forms])
    assert rs._pos_forms_float.dtype == want.dtype
    assert rs._pos_forms_float.tobytes() == want.tobytes()


def test_roots_documents_are_unchanged(capsys):
    from weylchar.cli import main

    docs = []
    for name in ALL_SPECS:
        assert main(["roots", "--group", name]) == 0
        docs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == ROOTS_DOCS_SHA256


def test_adjugate_matches_the_fraction_inverse():
    rng = rng_for("adjugate")
    for k in range(1, 9):
        for _ in range(5):
            b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            m = [[sum(b[i][t] * b[j][t] for t in range(k)) + (i == j) for j in range(k)]
                 for i in range(k)]  # B B^T + I: positive definite
            adj, det = adjugate(m)
            assert det > 0
            for j in range(k):
                col = solve(m, [F(int(i == j)) for i in range(k)])
                assert [F(adj[i][j], det) for i in range(k)] == col
    with pytest.raises(AssertionError):
        adjugate([[1, 2], [2, 1]])
