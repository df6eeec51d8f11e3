"""Spectral moments of generator-averaging operators vs the Kesten-McKay law.

For a symmetric generator set S in the defining representation, the m-th
moment of the spectral measure of T = |S|^{-1} sum pi_lambda(g) is the
word sum |S|^{-m} sum chi_lambda(g_1...g_m)/d_lambda.  In the
high-dimension limit only words reducing to the identity survive, which
are counted by closed walks on the |S|-regular tree, i.e. the moments of
the Kesten-McKay law supported on [-2 sqrt(s-1)/s, 2 sqrt(s-1)/s].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charcalc import character, dim_irrep
from .errors import CapacityError, DomainError
from .rootsys import RootSystem
from .torus import float_point
from .utils import cquot, ordered_dot, pairwise_sum, physical_memory

#: moment_exact enumerates at most this many words; beyond it, sample.
WORD_CAP = 10**6

#: Words evaluated per stack: bounds the working memory of a moment at a few
#: MB (products, eigenphases, Weyl sums), however many words it sums.
WORD_CHUNK = 4096

#: Word products are re-unitarized (polar factor) after every this many letters.
UNITARIZE_EVERY = 16

_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class GeneratorSet:
    """Finite set of special-unitary matrices in the defining representation."""

    elements: tuple  # tuple of (N, N) complex ndarrays
    labels: tuple
    symmetric: bool
    free: str = "unknown"  # "asserted" for catalog entries; freeness is not verified

    def __post_init__(self):
        n = self.elements[0].shape[0]
        for g, label in zip(self.elements, self.labels, strict=True):
            if g.shape != (n, n):
                raise DomainError("generator matrices must share one dimension")
            if np.abs(g @ g.conj().T - np.eye(n)).max() > _UNITARY_TOL:
                raise DomainError(f"generator {label} is not unitary within {_UNITARY_TOL}")
            if abs(np.linalg.det(g) - 1) > _UNITARY_TOL:
                raise DomainError(f"generator {label} must have determinant 1")
        if self.symmetric:
            for label, j in zip(self.labels, inverse_table(self)):
                if j is None:
                    raise DomainError(
                        f"set marked symmetric but the inverse of {label} is missing"
                    )

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def generator_set(matrices, labels=None, symmetric=True, free="unknown") -> GeneratorSet:
    mats = tuple(np.asarray(m, dtype=complex) for m in matrices)
    if labels is None:
        labels = tuple(f"g{i}" for i in range(len(mats)))
    return GeneratorSet(mats, tuple(labels), symmetric, free)


def load_generator_set(path) -> GeneratorSet:
    """Read a generator set from JSON: matrices as [[[re, im], ...], ...]."""
    with open(path) as fh:
        doc = json.load(fh)
    mats = []
    for m in doc["matrices"]:
        mats.append(np.array([[complex(re, im) for re, im in row] for row in m]))
    return generator_set(
        mats,
        labels=tuple(doc.get("labels") or ()) or None,
        symmetric=bool(doc.get("symmetric", True)),
        free=doc.get("free", "unknown"),
    )


def catalog_su2_free_pair() -> GeneratorSet:
    """The shipped free symmetric pair: rotations by arccos(1/14) in SU(2).

    Two rotations by a common angle with rational cosine (denominator
    >= 3) about perpendicular axes generate a free group; freeness is
    asserted, not verified.  The set is {a, a^-1, b, b^-1} with a the
    z-axis rotation and b the x-axis rotation.
    """
    half = math.acos(1.0 / 14.0) / 2.0
    rz = np.array([[np.exp(1j * half), 0], [0, np.exp(-1j * half)]])
    rx = np.array(
        [[math.cos(half), 1j * math.sin(half)], [1j * math.sin(half), math.cos(half)]]
    )
    return GeneratorSet(
        (rz, rz.conj().T, rx, rx.conj().T),
        ("a", "A", "b", "B"),
        symmetric=True,
        free="asserted",
    )


# ---------------------------------------------------------------------------
# Conjugacy phases
# ---------------------------------------------------------------------------


def _sorted_desc(rows: np.ndarray) -> np.ndarray:
    """Each row sorted descending, equal entries kept in order (like sorted(reverse=True))."""
    return np.take_along_axis(rows, np.argsort(-rows, axis=1, kind="stable"), axis=1)


def conjugacy_phases(g):
    """Eigenphases of special-unitary matrices as floating torus points.

    Phases are taken in (-pi, pi], then whole multiples of 2*pi are moved
    between branches so the sum vanishes (det g = 1 makes the total an
    exact multiple of 2*pi); finally a common shift removes the float
    residue.  Sorted descending, the result is a Cartan representative of
    the conjugacy class.

    One (n, n) matrix gives a TorusPoint.  An (N, n, n) stack gives an
    (N, n) array of radians whose row i has the bits of
    conjugacy_phases(g[i]); every matrix must pass the unitarity and
    determinant checks, or DomainError is raised.
    """
    g = np.asarray(g, dtype=complex)
    stack = g[None] if g.ndim == 2 else g
    n = stack.shape[-1]
    gram = stack @ stack.conj().swapaxes(-1, -2)
    if (np.abs(gram - np.eye(n)).max(axis=(-2, -1)) > _UNITARY_TOL).any():
        raise DomainError("conjugacy_phases needs a unitary matrix")
    if (np.abs(np.linalg.det(stack) - 1) > _UNITARY_TOL).any():
        raise DomainError("conjugacy_phases needs determinant 1")
    phases = _sorted_desc(np.angle(np.linalg.eigvals(stack)))
    ones = np.ones(n)
    k = np.rint(ordered_dot(phases, ones) / (2 * math.pi)).astype(np.int64)
    # Move 2*pi quanta at the extremes; a *common* shift would multiply g by
    # a central element and change the character.
    for step in range(int(np.abs(k).max(initial=0))):
        phases[(k > step), 0] -= 2 * math.pi
        phases[(k < -step), -1] += 2 * math.pi
        phases = _sorted_desc(phases)
    residue = ordered_dot(phases, ones) / n
    out = _sorted_desc(phases - residue[:, None])
    return float_point(out[0]) if g.ndim == 2 else out


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def _unitarize(stack: np.ndarray) -> np.ndarray:
    """The polar (unitary) factor of every matrix of a stack.

    Long products drift off the unitary group; re-unitarizing keeps phase
    extraction accurate.
    """
    u, _, vh = np.linalg.svd(stack)
    return u @ vh


def _extend(gens: np.ndarray, stack: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Append letters start..stop-1 to every word of a stack, all s choices each.

    Row r of the input becomes rows r*s^k .. (r+1)*s^k - 1 of the output,
    so words stay in lexicographic order.  Products are taken one letter
    at a time, P_k = P_{k-1} @ g, re-unitarized after every
    UNITARIZE_EVERY-th letter, the same matmul sequence as a word built
    on its own.
    """
    n = stack.shape[-1]
    for i in range(start, stop):
        stack = (stack[:, None] @ gens[None]).reshape(-1, n, n)
        if (i + 1) % UNITARIZE_EVERY == 0:
            stack = _unitarize(stack)
    return stack


def _word_blocks(gens: GeneratorSet, m: int):
    """Products of all s^m words of length m, in lexicographic order.

    Yields stacks of at most max(WORD_CHUNK, s) words.  Each word shares
    the products of its prefixes with its neighbours: the head letters are
    walked depth first, one product per prefix, and the last t letters
    (s^t <= WORD_CHUNK) are expanded as one stack per head.
    """
    mats = np.stack(gens.elements)
    s = gens.size
    t = 1
    while t < m and s ** (t + 1) <= WORD_CHUNK:
        t += 1
    head = m - t

    def walk(prefix, depth):
        if depth == head:
            yield _extend(mats, prefix, head, m)
            return
        for j in range(s):
            yield from walk(_extend(mats[j:j + 1], prefix, depth, depth + 1), depth + 1)

    yield from walk(np.eye(gens.dim, dtype=complex)[None], 0)


def _char_ratios(rs: RootSystem, lam, words: np.ndarray, dim: int) -> np.ndarray:
    """chi_lambda(w) / dim for a stack of word products, as Python divides."""
    return cquot(character(rs, lam, conjugacy_phases(words)).value, dim)


def moment_exact(rs: RootSystem, lam, gens: GeneratorSet, m: int) -> float:
    """m-th spectral moment by full word enumeration (lexicographic order)."""
    lam = rs.validate_weight(lam)
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    if m == 0:
        return 1.0
    n_words = gens.size**m
    if n_words > WORD_CAP:
        raise CapacityError(
            f"{n_words} words exceed the cap {WORD_CAP}; use moment_sampled"
        )
    d = dim_irrep(rs, lam)
    terms = np.concatenate([_char_ratios(rs, lam, block, d)
                            for block in _word_blocks(gens, m)])
    total = pairwise_sum(terms) / n_words
    if gens.symmetric and abs(total.imag) >= 1e-8:
        raise AssertionError(
            f"imaginary residue {total.imag} too large for a symmetric set"
        )
    return total.real


def moment_sampled(
    rs: RootSystem, lam, gens: GeneratorSet, m: int, n_samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo moment over uniformly random words; returns (value, stderr).

    The stream is a counter-based Philox generator, so results are
    reproducible from the seed alone regardless of execution order: the
    words are the rows of rng.integers(0, s, size=(n_samples, m)) for
    rng = Generator(Philox(seed)), drawn WORD_CHUNK rows at a time.  Each
    block is multiplied letter by letter, with the same re-unitarization
    as moment_exact.  Only the real ratios outlive a block; with the
    squared deviations and the pairwise sums' partial sums they peak at
    about 24 * n_samples bytes, and a CapacityError is raised before any
    draw when that exceeds physical memory.
    """
    lam = rs.validate_weight(lam)
    if m < 0 or seed < 0:
        raise DomainError("moment order and seed must be nonnegative")
    if n_samples < 100:
        raise DomainError("need at least 100 samples")
    if m == 0:
        return 1.0, 0.0
    need, have = 24 * n_samples, physical_memory()
    if need > have:
        raise CapacityError(f"{n_samples} samples take about {need} bytes, above the "
                            f"{have} bytes of physical memory")
    d = dim_irrep(rs, lam)
    rng = np.random.Generator(np.random.Philox(seed))
    mats = np.stack(gens.elements)
    vals = np.empty(n_samples)
    for lo in range(0, n_samples, WORD_CHUNK):
        chunk = rng.integers(0, gens.size, size=(min(WORD_CHUNK, n_samples - lo), m))
        stack = np.repeat(np.eye(gens.dim, dtype=complex)[None], len(chunk), axis=0)
        for i in range(m):
            stack = stack @ mats[chunk[:, i]]
            if (i + 1) % UNITARIZE_EVERY == 0:
                stack = _unitarize(stack)
        vals[lo:lo + len(chunk)] = _char_ratios(rs, lam, stack, d).real
    mean = pairwise_sum(vals) / n_samples
    var = pairwise_sum((vals - mean) ** 2) / (n_samples - 1)
    return mean, math.sqrt(var / n_samples)


# ---------------------------------------------------------------------------
# Kesten-McKay reference
# ---------------------------------------------------------------------------


def km_moment(s: int, m: int) -> Fraction:
    """Exact m-th moment of the Kesten-McKay law with parameter s.

    Return probabilities of the simple random walk on the s-regular tree:
    from the root s edges lead outward, from anywhere else one edge leads
    back and s-1 lead outward.
    """
    if s < 2:
        raise DomainError("Kesten-McKay law needs s >= 2")
    if m < 0:
        raise DomainError("moment order must be nonnegative")
    counts = {0: 1}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for dist, c in counts.items():
            if dist == 0:
                nxt[1] = nxt.get(1, 0) + s * c
            else:
                nxt[dist - 1] = nxt.get(dist - 1, 0) + c
                nxt[dist + 1] = nxt.get(dist + 1, 0) + (s - 1) * c
        counts = nxt
    return Fraction(counts.get(0, 0), s**m)


def km_density(s: int):
    """The Kesten-McKay density on [-2 sqrt(s-1)/s, 2 sqrt(s-1)/s]."""
    r = delta_opt(s)

    def f(x):
        if abs(x) >= r:
            return 0.0
        return s * math.sqrt(r * r - x * x) / (2 * math.pi * (1 - x * x))

    return f


def delta_opt(s: int) -> float:
    """Universal spectral-radius floor 2 sqrt(s-1)/s for s generators."""
    if s < 2:
        raise DomainError("delta_opt needs s >= 2")
    return 2.0 * math.sqrt(s - 1.0) / s


# ---------------------------------------------------------------------------
# Spectrum estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEstimate:
    """Moment sequence of an averaging operator plus Kesten-McKay reference."""

    moments: tuple  # (m, value, stderr-or-None)
    km_reference: tuple = field(default=())

    def moment(self, m: int) -> float:
        for mm, v, _ in self.moments:
            if mm == m:
                return v
        raise DomainError(f"moment {m} not present")

    def even_moments(self):
        return [(m, v) for m, v, _ in self.moments if m % 2 == 0 and m > 0]


def spectrum_estimate(
    rs: RootSystem,
    lam,
    gens: GeneratorSet,
    max_moment: int,
    n_samples: int | None = None,
    seed: int | None = None,
) -> SpectrumEstimate:
    """Moments 0..max_moment of the averaging operator, exact or sampled.

    Sampled order m uses the stream of _stream_seed(seed, m), one per (seed, m).
    """
    lam = rs.validate_weight(lam)
    if max_moment < 0:
        raise DomainError("moment order must be nonnegative")
    rows = []
    for m in range(max_moment + 1):
        if gens.size**m <= WORD_CAP:
            rows.append((m, moment_exact(rs, lam, gens, m), None))
        else:
            if n_samples is None or seed is None:
                raise CapacityError(
                    f"moment {m} takes {gens.size**m} words, above the cap {WORD_CAP}; "
                    "pass n_samples and seed"
                )
            val, err = moment_sampled(rs, lam, gens, m, n_samples, _stream_seed(seed, m))
            rows.append((m, val, err))
    km_ref = tuple(km_moment(gens.size, m) for m in range(max_moment + 1))
    return SpectrumEstimate(tuple(rows), km_ref)


def _stream_seed(seed: int, m: int) -> int:
    """The Cantor pairing of (seed, m): one distinct stream seed per pair."""
    return (seed + m) * (seed + m + 1) // 2 + m


def moment_growth_sequence(est: SpectrumEstimate) -> list[tuple[int, float]]:
    """The raw growth terms (sigma^(2k))^(1/2k) for available even moments."""
    out = []
    for m, v in est.even_moments():
        out.append((m, max(v, 0.0) ** (1.0 / m)))
    return out


def norm_estimate(est: SpectrumEstimate) -> float:
    """Operator-norm estimate in [0, 1] from the even-moment sequence.

    Combines the raw growth lower bound (sigma^(2k))^(1/2k) at the largest
    available order with a method-of-moments edge estimate calibrated on
    the Kesten-McKay family (sigma^(2) = 1/s implies edge 2 sqrt(s-1)/s,
    i.e. edge = 2 sqrt(sigma2 - sigma2^2)); the max of the two is reported.
    The growth term alone converges to the true norm only as k grows, far
    too slowly for desk-scale moment budgets.
    """
    growth = moment_growth_sequence(est)
    if not growth:
        raise DomainError("norm estimate needs at least one even moment")
    raw = growth[-1][1]
    s2 = est.moment(2) if any(m == 2 for m, _ in est.even_moments()) else None
    candidates = [raw]
    if s2 is not None and 0.0 < s2 < 1.0:
        candidates.append(2.0 * math.sqrt(s2 - s2 * s2))
    return min(max(candidates), 1.0)


def inverse_table(gens: GeneratorSet) -> list[int]:
    """Index of each generator's inverse within the set (symmetric sets)."""
    if not gens.symmetric:
        raise DomainError("inverse table needs a symmetric set")
    table = []
    for g in gens.elements:
        inv = g.conj().T
        found = None
        for j, h in enumerate(gens.elements):
            if np.abs(inv - h).max() <= _UNITARY_TOL:
                found = j
                break
        table.append(found)
    return table


def haar_generator_set(n: int, count: int, seed: int) -> GeneratorSet:
    """Haar-random SU(n) elements (QR of a Ginibre matrix, det normalized)."""
    rng = np.random.Generator(np.random.Philox(seed))
    mats = []
    for _ in range(count):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        det = np.linalg.det(q)
        q = q * det ** (-1.0 / n)
        mats.append(q)
    return generator_set(mats, symmetric=False)
