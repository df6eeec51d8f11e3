"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of (workload, seed): the runner calls
`make_inputs` in its own process and hands the resulting JSON document to a
fresh worker process, so the measured program only ever sees generated
inputs, never the seed.  Rationals travel as strings ("p/q"), floating
radians as JSON floats (Python's repr round-trips exactly).

Op lists are generated longer than any run needs; a run consumes a prefix,
so the inputs of a run never depend on how fast the machine is.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from weylchar import asymptotics, charcalc, rootsys, weylgroup

#: Every workload with seeded inputs; run.WORKLOADS says which are declared.
WORKLOADS = ("sweep", "points", "spectral", "cli")
#: Inputs that hit known defects: ill-conditioned points on F4/B4 (floating
#: points near a wall, rational points with a tiny Weyl denominator), where
#: the character comes back wrong, and two malformed CLI argv that exit 1
#: with a traceback.  The timed workloads leave them out, since every run
#: of theirs must return only correct outputs; `run.py --workload <probe>`
#: reports their fail and wrong fractions.
DEFECT_PROBES = ("ill_conditioned", "cli_errors")

# -- sweep -----------------------------------------------------------------
SWEEP_GROUP = "E6"
#: Every A4xA1 face of the E6 alcove has a 216-coset transversal, so the
#: seed can pick the face without changing the cost of a row.
SWEEP_STRATUM_COMPONENTS = ("A4", "A1")
SWEEP_ROWS = 120
#: Rows per normalized_char_sweep call: five is the fewest that fits a slope.
SWEEP_CHUNK = 5

# -- points ----------------------------------------------------------------
POINTS_GROUPS = ("F4", "B4")
#: Highest weights are the nonzero dominant weights up to this dimension;
#: the Freudenthal oracle cost grows with the dimension.
POINTS_DIM_CAP = 400
#: Near-wall distance (radians) is log-uniform over this range; it spans the
#: snap tolerance EPS_SNAP = 1e-9 on both sides.
NEAR_WALL_RANGE = (1e-12, 1e-3)
#: Regular exact points have |Weyl denominator| >= this.  Below it the
#: exact regular path loses the value to cancellation in its float
#: numerator; about 2-3 % of seeded rational points on F4, B4 and D5 fall
#: there.  Those points form the "small_denominator" kind of the
#: ill_conditioned probe.
MIN_WEYL_DENOMINATOR = 1e-6
#: A block evaluates every weight of each group once per point kind, in a
#: seeded order, so every block does the same mix of work.
POINTS_BLOCKS = 40
POINT_KINDS = ("regular", "singular")
PROBE_BLOCKS = 8
PROBE_KINDS = ("near_wall", "small_denominator")
_DENOMINATORS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# -- spectral --------------------------------------------------------------
SPECTRAL_A1_WEIGHT = (20,)  # spin l = 10 on the catalog free pair
#: Word lengths are the same for every seed (block i samples at length
#: SPECTRAL_SAMPLED_ORDERS[i % 5]), so the cost of a word does not depend
#: on the seed; the seed draws the Haar set, the A2 weight and the words.
SPECTRAL_A1_ORDER = 6  # exact enumeration: 4^6 words
SPECTRAL_A2_WEIGHTS = ((1, 0), (1, 1), (2, 0), (2, 1))
SPECTRAL_A2_ORDER = 5
SPECTRAL_SAMPLED_ORDERS = (16, 17, 18, 19, 20)
SPECTRAL_SAMPLES = 256
SPECTRAL_BLOCKS = 80
#: Words per moment whose character is re-checked against a reference.
SPECTRAL_CHECKED_WORDS = 12

# -- cli -------------------------------------------------------------------
CLI_CYCLES = 16


def make_inputs(workload: str, seed: int) -> dict:
    """The JSON-serializable input document of one workload or defect probe run."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS + DEFECT_PROBES}")
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, **_GENERATORS[workload](rng)}


def _frac_strs(v) -> list[str]:
    return [str(Fraction(x)) for x in v]


def _dominant_pool(rs, cap: int) -> list[tuple[int, ...]]:
    """Nonzero dominant weights (fundamental coordinates) with dim <= cap, sorted.

    The dimension grows in every fundamental coordinate, so a search that
    only steps up from weights under the cap finds all of them.
    """
    pool = set()
    frontier = [(0,) * rs.rank]
    while frontier:
        nxt = []
        for coeffs in frontier:
            for i in range(rs.rank):
                up = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1:]
                if up in pool:
                    continue
                if charcalc.dim_irrep(rs, rs.weight_from_fundamental(up)) <= cap:
                    pool.add(up)
                    nxt.append(up)
        frontier = nxt
    return sorted(pool)


def _random_weyl_image(rs, rng, v):
    """v moved by a random word of simple reflections (exact)."""
    for _ in range(rng.randint(rs.rank, 4 * rs.rank)):
        v = weylgroup.reflect(rs, rng.choice(rs.simple_roots), v)
    return v


def _sweep(rng) -> dict:
    rs = rootsys.build_root_system(SWEEP_GROUP)
    faces = []
    n_deg = sum(len(rootsys.build_root_system(c).positive_roots)
                for c in SWEEP_STRATUM_COMPONENTS)
    for s in asymptotics.alcove_stratum_points(rs):
        if s.deg_count != n_deg:
            continue
        sub = charcalc.effective_subsystem(rs, rs.degenerate_split(s.point).deg)
        if tuple(c.name for c in sub.components) == SWEEP_STRATUM_COMPONENTS:
            faces.append(s)
    face = rng.choice(faces)
    k0 = rng.randint(1, 3)
    return {
        "group": SWEEP_GROUP,
        "walls": list(face.walls),
        "point": _frac_strs(face.point.coords),
        "fundamental_index": rng.randrange(rs.rank),
        "ks": list(range(k0, k0 + SWEEP_ROWS)),
        "chunk": SWEEP_CHUNK,
    }


def _weyl_denominator(rs, coords) -> float:
    """|prod over positive roots of 2 sin((alpha|h)/2)| at h = pi * coords."""
    den = 1.0
    for a in rs.positive_roots:
        den *= abs(2 * math.sin(math.pi * float(rs.inner(a, coords) % 4) / 2))
    return den


def _regular_exact(rs, rng, small_denominator=False) -> list[str]:
    """Seeded rational coordinates of a regular point (in units of pi).

    Draws until the Weyl denominator is nonzero and on the requested side
    of MIN_WEYL_DENOMINATOR; the outcome of any evaluation plays no part.
    """
    while True:
        coords = []
        for _ in range(rs.ambient_dim):
            q = rng.choice(_DENOMINATORS)
            coords.append(Fraction(rng.randrange(-2 * q + 1, 2 * q), q))
        den = _weyl_denominator(rs, coords)
        if den > 0 and (den < MIN_WEYL_DENOMINATOR) == small_denominator:
            return _frac_strs(coords)


def _near_wall(rs, rng, strata) -> tuple[list[float], float]:
    # A moved face point, so points that snap land on distinct exact points.
    base = _random_weyl_image(rs, rng, rng.choice(strata).point.coords)
    lo, hi = (math.log10(x) for x in NEAR_WALL_RANGE)
    dist = 10 ** rng.uniform(lo, hi)
    u = [rng.gauss(0.0, 1.0) for _ in range(rs.ambient_dim)]
    norm = math.sqrt(sum(x * x for x in u))
    rad = [math.pi * float(c) + dist * x / norm for c, x in zip(base, u)]
    return rad, dist


def _points(rng, kinds=POINT_KINDS, n_blocks=POINTS_BLOCKS) -> dict:
    groups = {}
    for name in POINTS_GROUPS:
        rs = rootsys.build_root_system(name)
        groups[name] = (rs, _dominant_pool(rs, POINTS_DIM_CAP),
                        asymptotics.alcove_stratum_points(rs))
    blocks = []
    seen = set()  # no two ops share a point, so no per-point cache can hit
    for _ in range(n_blocks):
        block = []
        for name in POINTS_GROUPS:
            rs, pool, strata = groups[name]
            for weight in rng.sample(pool, len(pool)):
                for kind in kinds:
                    op = {"group": name, "kind": kind, "weight": list(weight)}
                    while True:
                        if kind in ("regular", "small_denominator"):
                            op["point"] = _regular_exact(rs, rng, kind == "small_denominator")
                        elif kind == "singular":
                            coords = _random_weyl_image(rs, rng, rng.choice(strata).point.coords)
                            op["point"] = _frac_strs(coords)
                        else:
                            op["point"], op["distance"] = _near_wall(rs, rng, strata)
                        key = (name, tuple(map(str, op["point"])))
                        if key not in seen:
                            break
                    seen.add(key)
                    block.append(op)
        blocks.append(block)
    return {"groups": list(POINTS_GROUPS), "blocks": blocks}


def _ill_conditioned_probe(rng) -> dict:
    return _points(rng, kinds=PROBE_KINDS, n_blocks=PROBE_BLOCKS)


def _spectral(rng) -> dict:
    blocks = []
    for i in range(SPECTRAL_BLOCKS):
        blocks.append({
            "a1_order": SPECTRAL_A1_ORDER,
            "a2_order": SPECTRAL_A2_ORDER,
            "sampled_order": SPECTRAL_SAMPLED_ORDERS[i % len(SPECTRAL_SAMPLED_ORDERS)],
            "sample_seed": rng.randrange(2**31),
            "check_seed": rng.randrange(2**31),
        })
    return {
        "a1_weight": list(SPECTRAL_A1_WEIGHT),
        "a2_weight": list(rng.choice(SPECTRAL_A2_WEIGHTS)),
        "haar_seed": rng.randrange(2**31),
        "samples": SPECTRAL_SAMPLES,
        "checked_words": SPECTRAL_CHECKED_WORDS,
        "blocks": blocks,
    }


def _pi_entry(c: Fraction) -> str:
    """A coordinate in the CLI's exact syntax, e.g. "-3pi/7"."""
    c = Fraction(c)
    if c == 0:
        return "0"
    return f"{c.numerator}pi/{c.denominator}"


def _cli_point(coords) -> str:
    """The value of --point; pass it as "--point=..." since it may start with "-"."""
    return "--point=" + ":".join(_pi_entry(Fraction(c)) for c in coords)


def _cli_weight(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _cli_fixtures() -> dict:
    """Groups, weight pools and non-central alcove faces the script draws from."""
    groups = {n: rootsys.build_root_system(n) for n in ("F4", "B4", "B3", "D5")}
    faces = {n: [s for s in asymptotics.alcove_stratum_points(rs) if not s.central]
             for n, rs in groups.items() if n != "D5"}
    return {"groups": groups, "faces": faces,
            "f4_pool": _dominant_pool(groups["F4"], POINTS_DIM_CAP)}


def _cli_script(rng, fx) -> list[dict]:
    """One cycle: every subcommand once or twice, then malformed argv."""
    f4, d5 = fx["groups"]["F4"], fx["groups"]["D5"]
    f4_pool = fx["f4_pool"]
    b4_strata, b3_strata, f4_strata = (fx["faces"][n] for n in ("B4", "B3", "F4"))

    def small_weight(rank, hi=3):
        coeffs = [rng.randint(0, hi) for _ in range(rank)]
        coeffs[rng.randrange(rank)] += 1  # nonzero, so certificates exist
        return coeffs

    script = [
        ("roots", ["roots", "--group", rng.choice(("F4", "E6", "D5"))]),
        ("weyl", ["weyl", "--group", "E6", "--enumerate"]),
        ("dim", ["dim", "--group", "E7", "--weight", _cli_weight(small_weight(7, 5))]),
        ("char", ["char", "--group", "F4", "--weight", _cli_weight(rng.choice(f4_pool)),
                  _cli_point(_regular_exact(f4, rng))]),
        ("char", ["char", "--group", "D5", "--weight", _cli_weight(small_weight(5)),
                  _cli_point(_regular_exact(d5, rng))]),
        ("char", ["char", "--group", "B4", "--weight", _cli_weight(small_weight(4)),
                  _cli_point(rng.choice(b4_strata).point.coords)]),
        ("sweep", ["sweep", "--group", "B3", "--weight", _cli_weight(small_weight(3, 1)),
                   _cli_point(rng.choice(b3_strata).point.coords),
                   "--kmax", "8"]),
        ("certificate", ["certificate", "--group", "F4",
                         "--weight", _cli_weight(small_weight(4)),
                         _cli_point(rng.choice(f4_strata).point.coords)]),
        ("spectral", ["spectral", "--group", "A1", "--l", "20"]),
        # Malformed argv: the CLI promises a typed error document (exit 2, 3
        # or 4) for each of these.
        ("error", ["dim", "--group", f"Z{rng.randint(2, 9)}", "--weight", "1"]),
        ("error", ["dim", "--group", "A2", "--weight", f"1,-{rng.randint(1, 9)}"]),
        ("error", ["weyl", "--group", "E8", "--enumerate"]),
    ]
    return [{"sub": sub, "argv": argv} for sub, argv in script]


def _cli_doc(cycles) -> dict:
    return {
        "setup_argv": ["dim", "--group", "A2", "--weight", "1,1"],
        "setup_samples": 5,
        "cycles": cycles,
    }


def _cli(rng) -> dict:
    fx = _cli_fixtures()
    return _cli_doc([_cli_script(rng, fx) for _ in range(CLI_CYCLES)])


def _cli_errors_probe(rng) -> dict:
    """Malformed argv that should give a typed error document but exit 1."""
    def cycle():
        script = [["char", "--group", "A2", "--point", "pi/3:-pi/3:0"],  # no --weight
                  ["dim", "--group", "A2", "--weight", f"{rng.randint(0, 9)},x"]]
        return [{"sub": "error", "argv": argv} for argv in script]
    return _cli_doc([cycle() for _ in range(CLI_CYCLES * 8)])


_GENERATORS = {"sweep": _sweep, "points": _points, "spectral": _spectral, "cli": _cli,
               "ill_conditioned": _ill_conditioned_probe, "cli_errors": _cli_errors_probe}
