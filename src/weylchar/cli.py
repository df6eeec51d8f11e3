"""Command-line front end: deterministic, machine-readable runs.

Every successful run emits a single document (JSON by default) embedding
the resolved configuration, so a run can be reproduced from its own
output.  Exit codes: 0 success, 2 parse/configuration, 3 capacity,
4 domain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityError, ConfigError, DomainError, WeylcharError
from .rootsys import RootSystem, build_root_system, check_weyl_cap, weyl_order
from .torus import TorusPoint, exact_point, float_point

# Each child process runs one subcommand, so the modules only some of them
# need (charcalc, asymptotics, spectral, weylgroup) are imported inside the
# `_run_*` functions that use them: a `roots` run never loads them.

_PI_ENTRY = re.compile(r"^([+-]?)(\d+)?(?:/(\d+))?\*?pi(?:/(\d+))?$")

#: The option an argparse message blames: "argument --cap-weyl: ..." or
#: "the following arguments are required: --group, ...".
_ARGPARSE_FIELD = re.compile(r"^argument ([^:]+):|arguments are required: ([^,]+)")

#: Options each subcommand cannot run without (spectral's --l sets --weight).
_REQUIRED = {
    "dim": ("weight",),
    "char": ("weight", "point"),
    "sweep": ("point",),
    "certificate": ("weight", "point"),
    "spectral": ("weight",),
}


def _fraction(text: str, field: str) -> Fraction:
    """An exact rational from text, or a ConfigError naming the option."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse {field} entry {text!r}", field=field) from None


def parse_group(text: str) -> list[RootSystem]:
    """Parse "A2" or a product like "A1xA1" into root-system factors."""
    parts = [p.strip() for p in text.replace("X", "x").split("x")]
    if not all(parts):
        raise ConfigError(f"cannot parse group {text!r}: empty factor", field="group")
    try:
        return [build_root_system(p) for p in parts]
    except CapacityError:  # a root system beyond physical memory
        raise
    except ConfigError as exc:
        raise ConfigError(str(exc), field="group") from exc
    except Exception as exc:
        raise ConfigError(f"cannot parse group {text!r}: {exc}", field="group") from exc


def parse_point_entry(text: str):
    """One coordinate: exact Fraction (units of pi) or float radians."""
    text = text.strip().lower()
    m = _PI_ENTRY.match(text)
    if m:
        sign, num, den1, den2 = m.groups()
        if den1 and den2:
            raise ConfigError(f"malformed pi entry {text!r}", field="point")
        if int(den1 or den2 or 1) == 0:
            raise ConfigError(f"zero denominator in pi entry {text!r}", field="point")
        val = Fraction(int(num) if num else 1, int(den1 or den2 or 1))
        return -val if sign == "-" else val
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse torus coordinate {text!r}", field="point") from None


def parse_point(text: str, rs: RootSystem) -> TorusPoint:
    """Colon-separated coordinates; any decimal makes the point floating.

    For A1 (SU(2)) a single theta is shorthand for the point (theta/2, -theta/2).
    """
    entries = [parse_point_entry(e) for e in text.split(":") if e.strip()]
    if rs.ambient_dim == 2 and len(entries) == 1:
        if rs.spec.name != "A1":
            raise ConfigError(
                f"a single angle is the SU(2) shorthand, for A1 only; {rs.spec.name} "
                "needs 2 coordinates",
                field="point",
            )
        theta = entries[0]
        entries = [theta / 2, -theta / 2] if isinstance(theta, Fraction) else [
            theta / 2.0,
            -theta / 2.0,
        ]
    if len(entries) != rs.ambient_dim:
        raise ConfigError(
            f"point has {len(entries)} coordinates; ambient space needs {rs.ambient_dim}",
            field="point",
        )
    if all(isinstance(e, Fraction) for e in entries):
        return exact_point(entries)
    return float_point([float(e) if not isinstance(e, Fraction) else math.pi * float(e)
                        for e in entries])


def parse_weight(text: str, factors: list[RootSystem], basis: str):
    """Fundamental coordinates (comma list per total rank) or ambient rationals."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    total_rank = sum(rs.rank for rs in factors)
    total_dim = sum(rs.ambient_dim for rs in factors)
    if basis == "auto":
        basis = "ambient" if (len(entries) == total_dim != total_rank
                              or any("/" in e for e in entries)) else "fundamental"
    out = []
    if basis == "fundamental":
        if len(entries) != total_rank:
            raise ConfigError(
                f"expected {total_rank} fundamental coordinates, got {len(entries)}",
                field="weight",
            )
        pos = 0
        for rs in factors:
            coeffs = [_fraction(e, "weight") for e in entries[pos: pos + rs.rank]]
            pos += rs.rank
            out.append(rs.weight_from_fundamental(coeffs))
    elif basis == "ambient":
        if len(entries) != total_dim:
            raise ConfigError(
                f"expected {total_dim} ambient coordinates, got {len(entries)}",
                field="weight",
            )
        pos = 0
        for rs in factors:
            out.append(tuple(_fraction(e, "weight")
                             for e in entries[pos: pos + rs.ambient_dim]))
            pos += rs.ambient_dim
    else:
        raise ConfigError(f"unknown weight basis {basis!r}", field="weight_basis")
    return out


@dataclass
class RunConfig:
    """Fully resolved, reproducible description of one CLI run."""

    subcommand: str
    group: str
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"subcommand": self.subcommand, "group": self.group, **self.options}


def _float_range_dim(sub: str, dim: int) -> int:
    """dim, or a DomainError when it leaves the float range, where `sub` divides chi by it."""
    if dim > sys.float_info.max:
        raise DomainError(
            f"{sub} computes chi/dim as a float, so dim may be at most the largest float "
            f"{sys.float_info.max!r}; dim is at least 2**{dim.bit_length() - 1}"
        )
    return dim


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (result_dict, csv_rows)
# ---------------------------------------------------------------------------


def _run_roots(cfg: RunConfig, factors):
    if len(factors) != 1:
        raise ConfigError("roots takes a single simple group", field="group")
    doc = factors[0].to_json_dict()
    rows = [["kind", "index", "coords"]]
    for i, r in enumerate(doc["simple_roots"]):
        rows.append(["simple", i, " ".join(r)])
    for i, r in enumerate(doc["positive_roots"]):
        rows.append(["positive", i, " ".join(r)])
    return doc, rows


def _run_weyl(cfg: RunConfig, factors):
    if len(factors) != 1:
        raise ConfigError("weyl takes a single simple group", field="group")
    rs = factors[0]
    order = weyl_order(rs.spec)
    result = {"order": order, "rank": rs.rank, "generators": rs.rank}
    if cfg.options.get("enumerate"):
        from .weylgroup import generate_weyl_group

        group = generate_weyl_group(rs, cfg.options.get("cap_weyl"))
        result["enumerated"] = group.order
    rows = [["order", "rank"], [order, rs.rank]]
    return result, rows


def _run_dim(cfg: RunConfig, factors, weights):
    from . import charcalc

    total = 1
    per = []
    for rs, lam in zip(factors, weights):
        d = charcalc.dim_irrep(rs, lam)
        per.append(d)
        total *= d
    result = {"dim": total, "factor_dims": per,
              "weights_ambient": [list(map(Fraction, w)) for w in weights]}
    rows = [["dim"], [total]]
    return result, rows


def _run_char(cfg: RunConfig, factors, weights, points):
    from . import charcalc

    total_dim = _float_range_dim("char", math.prod(
        charcalc.dim_irrep(rs, lam) for rs, lam in zip(factors, weights)))
    value = 1 + 0j
    condition = 0.0
    deg_count = 0
    for rs, lam, h in zip(factors, weights, points):
        split = charcalc.read_point(rs, h)
        cv = charcalc.char_at(rs, lam, split)
        deg_count += len(split.deg)
        condition = abs(value) * cv.condition + abs(cv.value) * condition
        value *= cv.value
    result = {
        "value": {"re": value.real, "im": value.imag},
        "dim": total_dim,
        "degenerate_roots": deg_count,
        "condition": condition,
        "normalized_abs": abs(value) / total_dim,
    }
    rows = [["re", "im", "dim", "degenerate_roots", "condition"],
            [value.real, value.imag, total_dim, deg_count, condition]]
    return result, rows


def _run_sweep(cfg: RunConfig, factors, weights, points):
    from . import asymptotics, charcalc

    ks = cfg.options["schedule"]
    if cfg.options.get("counterexample"):
        carrier = cfg.options.get("carrier", 0)
        if not 0 <= carrier < len(factors):
            raise ConfigError(
                f"--carrier {carrier} is not a factor index of {cfg.group}", field="carrier"
            )
        if ks != list(range(1, len(ks) + 1)):
            raise ConfigError("--counterexample runs k = 1..N only (--kmax N)", field="schedule")
        rep = asymptotics.nonsimple_counterexample(
            factors, carrier, points[carrier], len(ks),
            grow_all=cfg.options.get("grow_all", False),
        )
    else:
        if len(factors) != 1:
            raise ConfigError("plain sweeps take a single simple group", field="group")
        rs = factors[0]
        path = asymptotics.WeightPath.ray(rs, weights[0], ks)
        # dim grows with k, so the largest k has the largest
        _float_range_dim("sweep", charcalc.dim_irrep(rs, [max(ks) * x for x in path.base]))
        rep = asymptotics.normalized_char_sweep(rs, path, points[0])
    entries = [
        {"k": k, "dim": d, "ratio_abs": r,
         "bound": (rep.bound_constant / asymptotics.weight_inf_norm(lam)
                   if rep.bound_constant else None)}
        for k, lam, d, r in rep.entries
    ]
    result = {
        "entries": entries,
        "fitted_slope": rep.fitted_slope,
        "bound_constant": rep.bound_constant,
        "identity_stratum": rep.identity_stratum,
    }
    if cfg.options.get("plot_data"):
        result["plot_data"] = [
            [math.log(e["k"]), math.log(e["ratio_abs"])]
            for e in entries if e["ratio_abs"] > 0
        ]
    rows = [["k", "dim", "ratio_abs", "bound"]]
    for e in entries:
        rows.append([e["k"], e["dim"], e["ratio_abs"], e["bound"]])
    return result, rows


def _run_certificate(cfg: RunConfig, factors, weights, points):
    if len(factors) != 1:
        raise ConfigError("certificates are defined for a single simple group", field="group")
    from . import asymptotics, charcalc

    rs = factors[0]
    split = charcalc.read_point(rs, points[0])
    cert = asymptotics.divergence_certificate(rs, split, weights[0])
    result = {
        "root": list(map(Fraction, cert.root)),
        "growth": Fraction(cert.growth),
        "base_pairing": Fraction(cert.base_pairing),
        "construction": cert.construction,
        "chain": list(cert.chain),
        "degenerate_roots": len(split.deg),
    }
    rows = [["construction", "root", "growth"],
            [cert.construction, " ".join(map(str, cert.root)), result["growth"]]]
    return result, rows


def _run_spectral(cfg: RunConfig, factors, weights):
    if len(factors) != 1:
        raise ConfigError("spectral takes a single simple group", field="group")
    rs = factors[0]
    if rs.spec.family != "A":  # generators are unitary matrices, their phases SU(N) points
        raise ConfigError(f"spectral runs on SU(N), type A only, not {rs.spec.name}",
                          field="group")
    from . import charcalc, spectral

    gens_src = cfg.options.get("gens", "catalog")
    if gens_src == "catalog":
        gens = spectral.catalog_su2_free_pair()
        if rs.spec.name != "A1":
            raise ConfigError("the shipped catalog pair lives in SU(2); pass --gens", field="gens")
    else:
        try:
            gens = spectral.load_generator_set(gens_src)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"cannot read a generator set from {gens_src!r}: {exc}", field="gens"
            ) from None
        if gens.dim != rs.ambient_dim:
            raise ConfigError(
                f"generators act on C^{gens.dim} but {rs.spec.name} needs C^{rs.ambient_dim}",
                field="gens",
            )
    top = cfg.options["moments"]
    if gens.size**top <= spectral.WORD_CAP:
        for flag in ("sample", "seed"):
            if flag in cfg.options:
                raise ConfigError(
                    f"--{flag} applies to sampled orders only, and every order up to "
                    f"{top} is enumerated: {gens.size}^{top} = {gens.size**top} words, "
                    f"within the cap {spectral.WORD_CAP}", field=flag,
                )
    _float_range_dim("spectral", charcalc.dim_irrep(rs, weights[0]))
    est = spectral.spectrum_estimate(
        rs, weights[0], gens, top,
        n_samples=cfg.options.get("sample"), seed=cfg.options.get("seed"),
    )
    rows = [["m", "moment", "km", "abs_diff"]]
    moments = []
    for m, v, err in est.moments:
        km = float(est.km_reference[m])
        moments.append({"m": m, "moment": v, "stderr": err, "km": km,
                        "abs_diff": abs(v - km)})
        rows.append([m, v, km, abs(v - km)])
    dopt = spectral.delta_opt(gens.size)
    nest = spectral.norm_estimate(est)
    result = {
        "moments": moments,
        "s": gens.size,
        "free": gens.free,
        "delta_opt": dopt,
        "norm_estimate": nest,
    }
    if not gens.symmetric:
        result["warning"] = (
            "generator set is not symmetric: the Kesten-McKay comparison "
            "columns are informational only"
        )
    rows.append(["delta_opt", dopt, "", ""])
    rows.append(["norm_estimate", nest, "", ""])
    return result, rows


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(cfg: RunConfig) -> dict:
    """Execute a resolved configuration and return the output document."""
    factors = parse_group(cfg.group)
    for name in _REQUIRED.get(cfg.subcommand, ()):
        if cfg.options.get(name) is None:
            flag = "--weight or --l" if cfg.subcommand == "spectral" else f"--{name}"
            raise ConfigError(f"{cfg.subcommand} needs {flag}", field=name)
    weights = points = None
    if "weight" in cfg.options and cfg.options["weight"] is not None:
        weights = parse_weight(cfg.options["weight"], factors,
                               cfg.options.get("weight_basis", "auto"))
    if "point" in cfg.options and cfg.options["point"] is not None:
        texts = cfg.options["point"].split(";")
        if len(texts) == 1 and len(factors) > 1:
            raise ConfigError("product groups need one point per factor, ';'-separated",
                              field="point")
        points = [parse_point(t, rs) for t, rs in zip(texts, factors)]
        if len(points) != len(factors):
            raise ConfigError("need one torus point per group factor", field="point")

    sub = cfg.subcommand
    cap = cfg.options.get("cap_weyl")
    if cap is not None and (sub != "weyl" or cfg.options.get("enumerate")):
        for rs in factors:
            check_weyl_cap(rs.spec, cap)
    if sub == "roots":
        result, rows = _run_roots(cfg, factors)
    elif sub == "weyl":
        result, rows = _run_weyl(cfg, factors)
    elif sub == "dim":
        result, rows = _run_dim(cfg, factors, weights)
    elif sub == "char":
        result, rows = _run_char(cfg, factors, weights, points)
    elif sub == "sweep":
        if weights is None:
            weights = [rs.weyl_vector for rs in factors]
        result, rows = _run_sweep(cfg, factors, weights, points)
    elif sub == "certificate":
        result, rows = _run_certificate(cfg, factors, weights, points)
    elif sub == "spectral":
        result, rows = _run_spectral(cfg, factors, weights)
    else:  # pragma: no cover
        raise ConfigError(f"unknown subcommand {sub!r}", field="subcommand")
    return {"config": cfg.to_dict(), "result": result, "_csv_rows": rows}


def render(doc: dict, fmt: str) -> str:
    """The document as text: its weights, dims and pairings become text here.

    The result keeps them as ints and Fractions, and a Fraction is written
    as its string.  A number with more digits than
    `sys.get_int_max_str_digits()` allows is a DomainError: the limit is
    the interpreter's, and it is left as it is.
    """
    rows = doc.pop("_csv_rows", None)
    try:
        if fmt == "json":
            return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            for row in rows:
                writer.writerow(row)
            return buf.getvalue()
        if fmt == "table":
            widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
            lines = [
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
                for row in rows
            ]
            return "\n".join(lines) + "\n"
    except ValueError:  # int-to-str conversion past the digit limit
        raise DomainError(
            f"the document holds a number of more than sys.get_int_max_str_digits() = "
            f"{sys.get_int_max_str_digits()} decimal digits, which cannot be written"
        ) from None
    raise ConfigError(f"unknown format {fmt!r}", field="format")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise a ConfigError naming the option, so they get a document too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        m = _ARGPARSE_FIELD.search(message)
        name = (m.group(1) or m.group(2)) if m else "argv"
        raise ConfigError(f"{self.prog}: {message}", field=name.lstrip("-").replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="weylchar",
        description="Exact Weyl characters, decay sweeps, and spectral moments.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, weight=False, point=False, cap_weyl=False):
        sp.add_argument("--group", required=True,
                        help="e.g. A2, G2, or a product like A1xA1")
        sp.add_argument("--format", default="json", choices=("json", "csv", "table"))
        sp.add_argument("--threads", type=int, default=1,
                        help="reserved: accepted and ignored; runs are single-threaded")
        if cap_weyl:
            sp.add_argument("--cap-weyl", type=int, default=None,
                            help="refuse (exit 3) a group whose Weyl group order exceeds "
                                 "this, before the Weyl group is enumerated")
        if weight:
            sp.add_argument("--weight", default=None,
                            help="fundamental coords '1,1' or ambient rationals")
            sp.add_argument("--weight-basis", default="auto",
                            choices=("auto", "fundamental", "ambient"))
        if point:
            sp.add_argument("--point", default=None,
                            help="colon-separated coords: 'pi/5:pi/5:-2pi/5' or decimals")

    common(sub.add_parser("roots", help="root system data as canonical JSON"))
    sp = sub.add_parser("weyl", help="Weyl group order diagnostics")
    common(sp, cap_weyl=True)
    sp.add_argument("--enumerate", action="store_true")
    sp = sub.add_parser("dim", help="irreducible dimension")
    common(sp, weight=True)
    sp = sub.add_parser("char", help="character value at a torus point")
    common(sp, weight=True, point=True, cap_weyl=True)
    sp = sub.add_parser("sweep", help="normalized character decay sweep")
    common(sp, weight=True, point=True, cap_weyl=True)
    sp.add_argument("--kmax", type=int, default=20)
    sp.add_argument("--schedule", default=None,
                    help="explicit comma list of k values (default 1..kmax)")
    sp.add_argument("--counterexample", action="store_true",
                    help="product-group harness: trivial rep on the carrier")
    sp.add_argument("--carrier", type=int, default=0)
    sp.add_argument("--grow-all", action="store_true")
    sp.add_argument("--plot-data", action="store_true")
    sp = sub.add_parser("certificate", help="divergence certificate for a stratum")
    common(sp, weight=True, point=True)
    sp = sub.add_parser("spectral", help="averaging-operator moments vs Kesten-McKay")
    common(sp, weight=True, cap_weyl=True)
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the Monte Carlo word stream (needed with --sample)")
    sp.add_argument("--l", type=str, default=None,
                    help="SU(2) spin; shorthand for --weight 2l")
    sp.add_argument("--gens", default="catalog",
                    help="generator JSON path, or 'catalog' for the free pair")
    sp.add_argument("--moments", type=int, default=6)
    sp.add_argument("--sample", type=int, default=None,
                    help="Monte Carlo sample count for moments beyond the cap")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # --threads is reserved (accepted and ignored), deliberately absent from
    # the resolved config: documents must be byte-identical across its values.
    opts = {key: value for key, value in vars(args).items()
            if key not in ("subcommand", "group", "threads") and value is not None}
    cfg = RunConfig(args.subcommand, args.group, opts)
    if opts.get("cap_weyl", 1) < 1:
        raise ConfigError("--cap-weyl must be at least 1", field="cap_weyl")
    if cfg.subcommand == "sweep":
        kmax = opts.get("kmax", 20)
        if kmax < 1:
            raise ConfigError("--kmax must be at least 1", field="kmax")
        if "schedule" in opts:
            ks = [_fraction(k, "schedule") for k in str(opts["schedule"]).split(",")]
            if any(k.denominator != 1 for k in ks):
                raise ConfigError("--schedule takes whole numbers", field="schedule")
            if any(k < 1 for k in ks):
                raise ConfigError("--schedule takes k values of at least 1", field="schedule")
            if len(set(ks)) != len(ks):
                raise ConfigError("--schedule takes each k value once", field="schedule")
            cfg.options["schedule"] = [int(k) for k in ks]
        else:
            cfg.options["schedule"] = list(range(1, kmax + 1))
    if cfg.subcommand == "spectral":
        if opts["moments"] < 2:
            raise ConfigError("--moments must be at least 2: the norm estimate reads "
                              "the second moment", field="moments")
        if opts.get("l") is not None:
            two_l = _fraction(str(opts["l"]), "l") * 2
            if two_l.denominator != 1:
                raise ConfigError("--l must be a half-integer", field="l")
            cfg.options["weight"] = str(int(two_l))
        if opts.get("sample") is not None and opts.get("seed") is None:
            raise ConfigError("sampling requires --seed for reproducibility", field="seed")
        if opts.get("seed", 0) < 0:
            raise ConfigError("--seed must be at least 0", field="seed")
    return cfg


def main(argv=None) -> int:
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        doc = run(cfg)
        sys.stdout.write(render(doc, cfg.options.get("format", "json")))
        return 0
    except WeylcharError as exc:
        err = {
            "error": {
                "code": type(exc).__name__,
                "message": str(exc),
                "field": getattr(exc, "field", None),
            }
        }
        sys.stdout.write(json.dumps(err, sort_keys=True, indent=2) + "\n")
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
