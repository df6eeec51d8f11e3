"""Spectral moments of generator-averaging operators vs the Kesten-McKay law.

For a symmetric generator set S in the defining representation, the m-th
moment of the spectral measure of T = |S|^{-1} sum pi_lambda(g) is the
word sum |S|^{-m} sum chi_lambda(g_1...g_m)/d_lambda.  In the
high-dimension limit only words reducing to the identity survive, which
are counted by closed walks on the |S|-regular tree, i.e. the moments of
the Kesten-McKay law supported on [-2 sqrt(s-1)/s, 2 sqrt(s-1)/s].

The groups are SU(N), type A_{N-1}: each word's character is read off the
traces of its product (`_trace_characters`), with no eigenvalue or Weyl sum.
A word and its rotations are conjugate, so `moment_exact` evaluates one
character per cyclic class of words, about s^m / m of them, and multiplies
only the least word of each class and the words that can begin one
(`_class_products`); `moment_sampled` multiplies its random words two
letters at a time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# `character` is unused here; perfbench's tracer wraps spectral.character by name.
from .charcalc import character, dim_irrep  # noqa: F401
from .errors import CapacityError, DomainError
from .rootsys import RootSystem
from .torus import float_point
from .utils import as_complex, cmul, pairwise_sum, physical_memory

#: moment_exact enumerates at most this many words; beyond it, sample.
WORD_CAP = 10**6

#: Words evaluated per stack: bounds the working memory of a moment at a few
#: MB (products, powers, symmetric functions), however many words it sums.
WORD_CHUNK = 4096

#: Word products are re-unitarized (one Newton-Schulz step) after every this many letters.
UNITARIZE_EVERY = 16

_UNITARY_TOL = 1e-10

#: Weights whose trace-kernel `_kernel_error` exceeds this fraction of the dimension are refused.
KERNEL_TOL = 1e-4


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


def conjugacy_phases(g: np.ndarray):
    """Eigenphases of a special-unitary (n, n) matrix as a floating torus point.

    Phases are taken in (-pi, pi], then whole multiples of 2*pi are moved
    between branches so the sum vanishes (det g = 1 makes the total an
    exact multiple of 2*pi); finally a common shift removes the float
    residue.  Sorted descending, the result is a Cartan representative of
    the conjugacy class.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[-1]
    if np.abs(g @ g.conj().T - np.eye(n)).max() > _UNITARY_TOL:
        raise DomainError("conjugacy_phases needs a unitary matrix")
    if abs(np.linalg.det(g) - 1) > _UNITARY_TOL:
        raise DomainError("conjugacy_phases needs determinant 1")
    phases = sorted(np.angle(np.linalg.eigvals(g)).tolist(), reverse=True)
    k = round(sum(phases, 0.0) / (2 * math.pi))
    # Move 2*pi quanta at the extremes; a *common* shift would multiply g by
    # a central element and change the character.
    end, quantum = (0, -2 * math.pi) if k > 0 else (-1, 2 * math.pi)
    for _ in range(abs(k)):
        phases[end] += quantum
        phases.sort(reverse=True)
    residue = sum(phases, 0.0) / n
    return float_point(sorted((x - residue for x in phases), reverse=True))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a_w b_w of two stacks of (N, N) matrices held words-last, (N, N, ...).

    Entry (i, j) is sum_k a_ik b_kj, summed in order of k: N broadcast
    multiply-adds of numpy's complex `*` over whole word vectors.  Trailing
    axes broadcast, so a stack of one word multiplies every word of the other.
    """
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _unitarize(stack: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step X (3I - X^H X) / 2 on every word of an (N, N, W) stack.

    Long products drift off the unitary group; re-unitarizing keeps their
    traces accurate.  The step converges quadratically to the polar factor
    (Higham, Functions of Matrices, 2008, 8.3), so from the drift of
    UNITARIZE_EVERY letters, a few 1e-15, one step reaches rounding level.
    """
    gram = _mul(stack.conj().transpose(1, 0, 2), stack)
    return _mul(stack, 1.5 * np.eye(len(stack))[:, :, None] - 0.5 * gram)


@functools.lru_cache(maxsize=32)
def _prenecklace_plan(s: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """(parent, letter, size, start): the words `_class_products` multiplies, s letters, length m.

    They are the prenecklaces of lengths 1..m-1, the words that begin the
    least word of some cyclic class, and the necklaces of length m, the
    least words of the classes (Ruskey, Savage & Wang, J. Algorithms 13,
    1992).  A prenecklace p of length k and period q extends only by
    letters j >= p[k-q]: the period stays q when j = p[k-q] and becomes
    k + 1 otherwise, and a word of length m is a necklace iff q divides m,
    with q its class size.  The words of length k are rows
    start[k-1]:start[k] of parent and letter, in lexicographic order: word
    parent[i] of length k-1, then letter[i].  size holds the class sizes,
    which sum to s^m.  Each level is a few integer array operations; p[k-q]
    is a digit of p's base-s code.  The arrays are read-only, since the
    cache hands them to every caller.  They take 16 bytes a word and 8 a
    class; the largest entry with s^m <= WORD_CAP and s > 1, s = 10**6 and
    m = 1, holds 24 MB; a set of one letter takes about 50 bytes a letter of m.
    """
    code, period = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)  # the empty word
    parent, letter, start = [], [], [0]
    for k in range(m):
        ref = code // s ** (period - 1) % s  # p[k-q]
        count = s - ref
        par = np.repeat(np.arange(len(code)), count)
        ref = ref[par]
        new = ref + np.arange(len(par)) - (np.cumsum(count) - count)[par]
        period = np.where(new == ref, period[par], k + 1)
        code = code[par] * s + new
        if k + 1 == m:
            keep = np.flatnonzero(m % period == 0)
            par, new, period = par[keep], new[keep], period[keep]
        parent.append(par)
        letter.append(new)
        start.append(start[-1] + len(par))
    out = np.concatenate(parent), np.concatenate(letter), period
    for a in out:
        a.flags.writeable = False
    return (*out, tuple(start))


def _class_products(gens: GeneratorSet, m: int):
    """Products of the least words of the cyclic classes of length m, with the class sizes.

    Yields ((N, N, W) products, sizes) in lexicographic order of the words.
    Every word of `_prenecklace_plan` is one product, its prefix's times its
    last letter: each level is `_mul(np.take(prefixes, parent), np.take(gens,
    letter))`, from the identity on, re-unitarized after every
    UNITARIZE_EVERY-th letter, so each word is the chain P_k = P_(k-1) g one
    letter at a time.  The levels are walked depth first over contiguous
    ranges of at most max(WORD_CHUNK, s) words, one range held per level: a
    few MB of products up to WORD_CAP.
    """
    parent, letter, size, start = _prenecklace_plan(gens.size, m)
    mats = np.stack(gens.elements, axis=-1)
    width = max(WORD_CHUNK, gens.size)
    # (k, products of words lo.. of length k, lo, then words a..end of length k + 1 to form)
    todo = [(0, np.eye(gens.dim, dtype=complex)[:, :, None], 0, 0, gens.size)]
    while todo:
        k, prefixes, lo, a, end = todo.pop()
        b = min(a + width, end)
        if b < end:
            todo.append((k, prefixes, lo, b, end))
        rows = slice(start[k] + a, start[k] + b)
        words = _mul(np.take(prefixes, parent[rows] - lo, axis=-1),
                     np.take(mats, letter[rows], axis=-1))
        if (k + 1) % UNITARIZE_EVERY == 0:
            words = _unitarize(words)
        if k + 1 == m:
            yield words, size[a:b]
            continue
        below, above = np.searchsorted(parent[start[k + 1]:start[k + 2]], (a, b)).tolist()
        if below < above:
            todo.append((k + 1, words, a, below, above))


def _check_su(rs: RootSystem, gens: GeneratorSet) -> None:
    """DomainError unless rs is A_{N-1} for the dimension N of the generators."""
    if rs.spec.family != "A" or rs.ambient_dim != gens.dim:
        raise DomainError(f"spectral moments of generators in SU({gens.dim}) need the "
                          f"root system A{gens.dim - 1}, not {rs.spec.name}")


@functools.lru_cache
def _kernel_error(n: int, parts: tuple[int, ...]) -> float:
    """The trace kernel's error bound on |chi - chi_exact| / dim, for a partition of SU(n).

    A first-order rounding model: the computed h_k are those of H(t) (1 + sum_j d_j t^j),
    |d_j| <= n 2**n 2**-52 C(j + n - 1, n - 1) (n terms a step, sum |e_i| <= 2**n, |h_j| <=
    C(j + n - 1, n - 1)), and d_j t^j moves chi by d_j times a signed sum of s_mu, |s_mu| <=
    dim mu, over the mu left by removing a border strip of size j from lambda (Macdonald
    I.3, I.7): a bead of beta_i = lambda_i + n - i moves to a free beta_i - j >= 0, and dim
    mu / dim lambda = prod_(a != i) |beta_i - j - beta_a| / |beta_i - beta_a|.  The
    determinant's rounding is left out; against 40-digit arithmetic the error stays under a
    twelfth of the bound on SU(2)-SU(9), closest at identity-reducing words.  The empty
    partition, whose character is exactly 1, has bound 0.  Any other has a strip sum of at
    least 1, from its one-box strips alone (n dim mu >= dim lambda for a corner mu, by
    Pieri), so its bound is at least n 2**(n - 52), past KERNEL_TOL from n = 34 on; that
    n, and lambda_1 past 10**6, where no bound is below 1e-4, give inf without the sums.
    Each bead's product over a != i is one array product, in order of a, taken over slices
    of j so that its temporaries stay near a MB.
    """
    if not parts:
        return 0.0
    if parts[0] > 10**6 or math.log2(n) + n - 52 > math.log2(KERNEL_TOL):
        return math.inf
    beta = np.array([x + n - 1 - i for i, x in enumerate(list(parts) + [0] * (n - len(parts)))])
    h_one = np.ones(beta[0] + 1)
    step = 2**17 // n  # at least 3971 columns: n <= 33 here
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        for _ in range(n - 1):
            h_one = np.cumsum(h_one)  # h_one[j] = C(j + n - 1, n - 1), h_j at the identity
        strips = 0.0
        for i, b in enumerate(beta.tolist()):
            others = np.delete(beta, i)[:, None]
            gap = np.abs(b - others)
            ratio = np.empty(b)
            for lo in range(0, b, step):
                j = np.arange(lo + 1, min(lo + step, b) + 1)
                np.multiply.reduce(np.abs(b - j - others) / gap, axis=0,
                                   out=ratio[lo:lo + step])
            strips += h_one[np.arange(1, b + 1)] @ ratio
        return float(np.ldexp(n * strips, n - 52))


def _kernel_parts(rs: RootSystem, lam) -> tuple[tuple[int, ...], bool]:
    """(parts, conj): the arguments after the stack of `_trace_characters` for a weight.

    Of the weight's partition lambda_i = lam_i - lam_N and its dual lambda_1 - lambda_(N+1-i),
    whose character is the conjugate, the one with the smaller `_kernel_error` is taken.  A
    weight whose smaller bound exceeds KERNEL_TOL is refused with a DomainError.
    """
    n = rs.ambient_dim
    lam = [int(x - lam[-1]) for x in lam]
    own = tuple(p for p in lam[:-1] if p)
    dual = tuple(p for p in (lam[0] - x for x in lam[:0:-1]) if p)
    error, parts, is_dual = min((_kernel_error(n, own), own, False),
                                (_kernel_error(n, dual), dual, True), key=lambda c: c[0])
    if not error <= KERNEL_TOL:  # a nan bound is refused too
        raise DomainError(f"weight out of range for the trace kernel of {rs.spec.name}: its "
                          f"error bound exceeds {KERNEL_TOL} of the dimension")
    return parts, is_dual


@functools.lru_cache(maxsize=256)
def _weight_data(rs: RootSystem, lam: tuple) -> tuple[int, tuple[int, ...], bool]:
    """(dim, parts, conj) of a checked weight: the dimension and the `_kernel_parts`.

    Every moment of the weight reads them first; a weight that either
    refuses raises each time, since the cache keeps no exception.
    """
    return dim_irrep(rs, lam), *_kernel_parts(rs, lam)


def _trace_characters(stack: np.ndarray, parts: tuple[int, ...], conj=False) -> np.ndarray:
    """chi_lambda(g), or its conjugate, for every g of an (N, N, W) stack of SU(N) matrices.

    chi_lambda, for the partition lambda = parts (l <= N - 1 parts), is a
    polynomial in p_k = tr g^k (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., I.2-I.3): Newton's identities k e_k = sum_{i<=k}
    (-1)^(i-1) e_{k-i} p_i give e_1..e_N (e_N = det g), the recurrence h_k =
    sum_{i<=min(k,N)} (-1)^(i-1) e_i h_{k-i} runs to k = lambda_1 + l - 1
    keeping the last N values and those the determinant reads, and chi =
    det(h_{lambda_i - i + j}) (Jacobi-Trudi), in closed form for l <= 2.
    Every g must be unitary with e_N = 1, within 1e-10, or DomainError is
    raised.  The Gram matrices and the powers are `_mul` products.  A word
    costs about (lambda_1 + l) N complex multiply-adds.  Both sums run on
    real and imaginary rows stacked in one array: each term is formed as
    `cmul` forms it and the terms are added in order of i, from 0, by one
    reduction, so a step is a few whole-array calls whatever N is: Newton's
    on (k, 2, W) terms, and the recurrence on a (2, ring + N, W) history of
    h, four calls a step.  A word's value has the same bits in any stack of
    two or more words, of any memory layout; in a stack of one word numpy's
    einsum, and for N >= 8 its reductions, sum in another order.  The error
    is bounded by `_kernel_error`.  With conj, the conjugate is returned:
    chi of the dual weight.
    """
    stack = np.ascontiguousarray(stack)  # einsum's order of summation follows the layout
    n, w = stack.shape[0], stack.shape[-1]
    gram = _mul(stack, stack.conj().transpose(1, 0, 2))
    if (np.abs(gram - np.eye(n)[:, :, None]).max(axis=(0, 1)) > _UNITARY_TOL).any():
        raise DomainError(f"a word product is not unitary within {_UNITARY_TOL}")
    power, p = stack, [np.einsum("iin->n", stack)]
    for _ in range(2, n):
        power = _mul(power, stack)
        p.append(np.einsum("iin->n", power))
    p.append(np.einsum("ijn,jin->n", power, stack))
    # Newton's identities on (N, 2, W) rows: (re, im) of (-1)^(i-1) p_i and its partner
    # (-im, re), so that e (re, im) times p, as `cmul` forms it, is re(e) (re, im) of p plus
    # im(e) (-im, re) of p: a - b is a + (-b) exactly.
    sign = np.array([(-1.0) ** i for i in range(n)])[:, None]  # (-1)^(i-1), i = 1..N
    p = np.array(p)
    signed_p, partner = np.empty((n, 2, w)), np.empty((n, 2, w))
    np.multiply(p.real, sign, out=signed_p[:, 0])
    np.multiply(p.imag, sign, out=signed_p[:, 1])
    np.negative(signed_p[:, 1], out=partner[:, 0])
    partner[:, 1] = signed_p[:, 0]
    e = np.zeros((n + 1, 2, w))  # (re, im) of e_0, ..., e_N
    e[0, 0] = 1.0
    t, u = np.empty((n, 2, w)), np.empty((n, 2, w))
    for k in range(1, n + 1):
        prev, tk, uk = e[k - 1::-1], t[:k], u[:k]  # e_(k-1), ..., e_0 against p_1, ..., p_k
        np.multiply(prev[:, :1], signed_p[:k], out=tk)
        np.multiply(prev[:, 1:], partner[:k], out=uk)
        np.add(tk, uk, out=tk)
        np.add.reduce(tk, axis=0, initial=0.0, out=e[k])  # in order of i from 0
        e[k] /= k
    if (np.hypot(e[n, 0] - 1.0, e[n, 1]) > _UNITARY_TOL).any():  # |e_N - 1|
        raise DomainError(f"a word product does not have determinant 1 within {_UNITARY_TOL}")
    one = as_complex(e[0, 0], e[0, 1])
    if not parts:
        return one
    # (re, re) and (-im, im) of (-1)^(i-1) e_i, i = 1..N: times (h_re, h_im) and (h_im, h_re)
    er, ei = np.empty((2, n, w)), np.empty((2, n, w))
    np.multiply(e[1:, 0], sign, out=er[0])
    er[1] = er[0]
    np.multiply(e[1:, 1], sign, out=ei[1])
    np.negative(ei[1], out=ei[0])
    ell = len(parts)
    index = [[parts[i] - i + j for j in range(ell)] for i in range(ell)]
    need = {k for row in index for k in row}
    h = {0: one}
    # h_k is row pos of both planes of hist, (re, im), and h_(k-1), ..., h_(k-N) are the N
    # rows after it (h_0 = 1, h_(-1) = ... = 0); every `ring` steps the last N rows move back.
    # A short ring keeps the rows in cache: at W = 4096, 16 of them took a third longer.
    ring = max(n, 4)
    hist = np.zeros((2, ring + n, w))
    hist[0, ring] = 1.0
    # per row: h_k, and h_(k-1), ..., h_(k-N) as (re, im) and as (im, re)
    views = [(hist[:, pos], hist[:, pos + 1:pos + 1 + n], hist[:, pos + 1:pos + 1 + n][::-1])
             for pos in range(ring)]
    t, u = np.empty((2, n, w)), np.empty((2, n, w))
    pos = ring
    for k in range(1, parts[0] + ell):
        if pos == 0:
            hist[:, ring:] = hist[:, :n]
            pos = ring
        pos -= 1
        out, window, swapped = views[pos]
        # term i is (-1)^(i-1) e_i h_(k-i) as `cmul` forms it
        np.multiply(er, window, out=t)
        np.multiply(ei, swapped, out=u)
        np.add(t, u, out=t)
        np.add.reduce(t, axis=1, initial=0.0, out=out)  # in order of i from 0
        if k in need:
            h[k] = as_complex(out[0], out[1])
    zero = np.zeros(w, dtype=complex)
    entry = [[h[k] if k >= 0 else zero for k in row] for row in index]
    if ell == 1:
        chi = entry[0][0]
    elif ell == 2:
        (a, b), (c, d) = entry
        chi = cmul(a, d) - cmul(b, c)
    else:
        chi = np.linalg.det(np.stack([np.stack(row, axis=-1) for row in entry], axis=-2))
    return chi.conj() if conj else chi


def moment_exact(rs: RootSystem, lam, gens: GeneratorSet, m: int) -> float:
    """m-th spectral moment as a sum over the cyclic classes of the s^m words.

    A word's rotation g_2...g_m g_1 = g_1^-1 (g_1...g_m) g_1 is conjugate
    to it, so each class has one character.  `_class_products` multiplies
    only the least word of each class and the words that can begin one: at
    s = 4, 1128 products for m = 6 and 342 for m = 5, against 5460 and 1364
    for every prefix of every word.  The least words go to
    `_trace_characters`, each ratio chi / d is taken part by part (the bits
    of `cquot` by the integer d, in a fraction of its time) and weighted by
    the class size, and the terms are summed pairwise in the words'
    lexicographic order.
    """
    _check_su(rs, gens)
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
    d, *kernel = _weight_data(rs, lam)
    terms = []
    for words, size in _class_products(gens, m):
        chi = _trace_characters(words, *kernel)
        terms.append(as_complex(size * (chi.real / d), size * (chi.imag / d)))
    total = pairwise_sum(np.concatenate(terms)) / n_words
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
    block is one (N, N, W) stack, multiplied two letters at a time: the s^2
    products g_a g_b are formed once by `_mul`, a word of odd length starts
    from its first letter and an even one from its first pair, and each
    further pair is one `_mul`, so m letters cost about m/2 products.  A
    stack is re-unitarized whenever its letter count passes a multiple of
    UNITARIZE_EVERY.  Only the real ratios outlive a block; with the
    squared deviations and the pairwise sums' partial sums they peak at
    about 24 * n_samples bytes, and a CapacityError is raised before any
    draw when that exceeds physical memory.
    """
    _check_su(rs, gens)
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
    d, *kernel = _weight_data(rs, lam)
    rng = np.random.Generator(np.random.Philox(seed))
    s, n = gens.size, gens.dim
    mats = np.stack(gens.elements, axis=-1)
    pairs = _mul(mats[:, :, :, None], mats[:, :, None, :]).reshape(n, n, s * s)
    vals = np.empty(n_samples)
    for lo in range(0, n_samples, WORD_CHUNK):
        chunk = rng.integers(0, s, size=(min(WORD_CHUNK, n_samples - lo), m))
        first = 2 - m % 2  # letters before the first pair
        if first == 1:
            stack = np.take(mats, chunk[:, 0], axis=-1)
        else:
            stack = np.take(pairs, chunk[:, 0] * s + chunk[:, 1], axis=-1)
        for i in range(first, m, 2):  # letters i and i + 1
            stack = _mul(stack, np.take(pairs, chunk[:, i] * s + chunk[:, i + 1], axis=-1))
            if (i + 2) // UNITARIZE_EVERY > i // UNITARIZE_EVERY:
                stack = _unitarize(stack)
        vals[lo:lo + len(chunk)] = _trace_characters(stack, *kernel).real / d
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
    _check_su(rs, gens)
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
