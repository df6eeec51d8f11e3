"""Root system construction, exact geometry, and Dynkin combinatorics."""

import hashlib
import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchar import build_root_system, exact_point
from weylchar.errors import CapacityError, ConfigError, DomainError, StructureError
from weylchar.exactlin import adjugate, common_denominator, mat_vec, vadd, vscale
from weylchar.rootsys import RootSystemSpec, positive_root_count, weyl_order
from weylchar.weylgroup import DEFAULT_WEYL_CAP, reflect

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
    roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
    for a in rs.simple_roots:
        assert {reflect(rs, a, r) for r in roots} == roots


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


def _check_coefficients_and_order(rs):
    """root_coeffs are each root's coefficients, and the roots sort by (height, coordinates).

    sum_i c_i alpha_i = alpha determines the c_i, since the simple roots
    are independent (construction inverts their Gram matrix).
    """
    coeffs = rs.root_coeffs
    assert sorted(coeffs) == sorted(rs.positive_roots)
    for r, c in coeffs.items():
        assert all(type(x) is int and x >= 0 for x in c)
        assert tuple(sum((x * a[j] for x, a in zip(c, rs.simple_roots)), F(0))
                     for j in range(rs.ambient_dim)) == r
    assert list(rs.positive_roots) == sorted(rs.positive_roots, key=lambda r: (sum(coeffs[r]), r))


@pytest.mark.parametrize("name", ORDER_SPECS)
def test_positive_root_order_and_coefficients_sum_to_each_root(name):
    rs = build_root_system(name)
    _check_coefficients_and_order(rs)
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
    _check_coefficients_and_order(rs)
    assert rs.weyl_vector == tuple(sum(xs, F(0)) / 2 for xs in zip(*rs.positive_roots))
    assert rs.cartan_matrix == tuple(
        tuple(2 * rs.inner(a, b) / rs.inner(b, b) for b in simple) for a in simple)
    for i, (w, cw) in enumerate(zip(rs.fundamental_weights(), rs.fundamental_coweights())):
        # in the span of the roots: the sum-zero hyperplane in type A, the
        # whole space otherwise, where the simple roots are a basis
        if rs.spec.family == "A":
            assert sum(w) == sum(cw) == 0
        else:
            assert rs.rank == rs.ambient_dim
        assert [2 * rs.inner(w, a) / rs.inner(a, a) for a in simple] == [
            int(i == j) for j in range(rs.rank)]
        assert [rs.inner(cw, a) for a in simple] == [int(i == j) for j in range(rs.rank)]
    # the integer rows, each over its least common denominator
    assert rs._pos_rows.tolist() == [[int(x) for x in r] for r in rs.positive_roots]
    forms = [mat_vec(rs.gram, a) for a in rs.positive_roots]
    assert (rs._pos_forms.ravel().tolist(), rs._pos_forms_den) == common_denominator(
        x for f in forms for x in f)
    # the coroot table: the integer rows 2 G a / (a|a) of every positive root
    coroots = [vscale(2 / rs.norm2(a), mat_vec(rs.gram, a)) for a in rs.positive_roots]
    assert all(x.denominator == 1 for c in coroots for x in c)
    assert rs._coroot_rows.tolist() == [list(c) for c in coroots]
    gram_int, gram_den = common_denominator(x for row in gram for x in row)
    assert ([x for row in rs._gram_int for x in row], rs._gram_den) == (gram_int, gram_den)
    assert rs._simple_index == [rs.positive_roots.index(a) for a in simple]
    # the float forms keep the bits of float(Fraction)
    want = np.array([[float(x) for x in f] for f in forms])
    assert rs._pos_forms_float.dtype == want.dtype
    assert rs._pos_forms_float.tobytes() == want.tobytes()


def _fraction_weight(rs, coeffs):
    """Sum a_i omega_i as a Fraction vector sum: the reference of weight_from_fundamental."""
    v = (F(0),) * rs.ambient_dim
    for c, w in zip(coeffs, rs.fundamental_weights()):
        v = vadd(v, vscale(c, w))
    return v


#: Every spec whose Weyl group the default cap admits, and E8.
CAPPED_SPECS = [f"{fam}{n}" for fam, ranks in (("A", range(1, 10)), ("B", range(2, 9)),
                                               ("C", range(2, 9)), ("D", range(2, 10)),
                                               ("E", (6, 7)), ("F", (4,)), ("G", (2,)))
                for n in ranks if weyl_order(RootSystemSpec(fam, n)) <= DEFAULT_WEYL_CAP]
_COEFFS = st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(CAPPED_SPECS + ["E8"]))
def test_weight_from_fundamental_equals_the_fraction_sum(data, name):
    rs = build_root_system(name)
    coeffs = data.draw(st.lists(_COEFFS, min_size=rs.rank, max_size=rs.rank))
    lam = rs.weight_from_fundamental(coeffs)
    assert type(lam) is tuple and all(type(x) is F for x in lam)
    assert lam == _fraction_weight(rs, coeffs)


def test_weight_from_fundamental_reads_any_rational_and_checks_the_rank():
    rs = build_root_system("G2")
    coeffs = (np.int64(3), "-5/7")
    assert rs.weight_from_fundamental(coeffs) == _fraction_weight(rs, (3, F(-5, 7)))
    assert rs.weight_from_fundamental((0, 0)) == (F(0), F(0))
    with pytest.raises(DomainError, match="expected 2 fundamental coordinates"):
        rs.weight_from_fundamental((1, 2, 3))


def test_exact_point_keeps_fraction_entries_and_converts_the_rest():
    entries = (F(1, 3), F(-2, 5), F(0))
    assert all(a is b for a, b in zip(exact_point(entries).coords, entries))
    h = exact_point((1, "2/3", 0.5, F(7)))
    assert h.coords == (F(1), F(2, 3), F(1, 2), F(7)) and h.exact
    assert all(type(x) is F for x in h.coords)
    with pytest.raises(ValueError):
        exact_point(("one",))


def test_root_system_past_physical_memory_refuses_before_any_allocation(monkeypatch):
    from weylchar import rootsys

    def no_tables(*args, **kwargs):
        raise AssertionError("root tables were allocated")

    monkeypatch.setattr(rootsys, "_classical_data", no_tables)
    monkeypatch.setattr(rootsys, "_exceptional_data", no_tables)
    with pytest.raises(CapacityError, match=r"A1000000 needs about 64000128000064000000 bytes "
                                            r"for its tables \(500001000000500000 root entries\)"):
        build_root_system("A1000000")
    # the bound is physical memory itself: A37 has 703 * 38 entries
    need = rootsys.BUILD_BYTES_PER_ENTRY * 703 * 38
    monkeypatch.setattr(rootsys, "physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match=f"needs about {need} bytes"):
        build_root_system("A37")


def test_roots_documents_are_unchanged(capsys):
    from weylchar.cli import main

    docs = []
    for name in ALL_SPECS:
        assert main(["roots", "--group", name]) == 0
        docs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == ROOTS_DOCS_SHA256


def test_adjugate_times_the_matrix_is_the_determinant():
    rng = rng_for("adjugate")
    for k in range(1, 9):
        for _ in range(5):
            b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            m = [[sum(b[i][t] * b[j][t] for t in range(k)) + (i == j) for j in range(k)]
                 for i in range(k)]  # B B^T + I: positive definite
            adj, det = adjugate(m)
            assert det > 0
            product = np.array(m, dtype=object) @ np.array(adj, dtype=object)
            assert product.tolist() == (det * np.eye(k, dtype=int)).tolist()
    with pytest.raises(AssertionError):
        adjugate([[1, 2], [2, 1]])
