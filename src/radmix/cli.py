"""Batch command-line driver.

Every lab operation is exposed as a subcommand with machine-readable output:
JSON for single results, CSV (header row plus a trailing manifest comment
carrying the config hash) for scans.  A fixed (command, config, seed) triple
reproduces its output files byte for byte; wall-clock timing goes to stderr
only.

Exit codes: 0 on success/convergence, 2 when a requested norm failed to
converge (divergence details are still printed), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .bergman import (PolarGrid, bergman_kernel, bergman_projection_operator,
                      duality_pairing, kernel_capped, kernel_capped_depth,
                      kernel_offdiag, kernel_offdiag_dyadic_sum,
                      operator_norm_estimate, project, sample_on_grid,
                      stolz_wedge_inequalities)
from .exponents import ExponentPair, ExtendedExponent, parse_fraction
from .functions import Lacunary, Monomial, from_spec
from .meshes import angular_distance, graded_radial_mesh
from .norms import QuadratureConfig, mixed_norm
from .sequences import ExponentFit
from .theorems import (
    BOUNDARY_LADDER,
    NormCache,
    compactness_witness_scan,
    evaluation_functional_fit,
    inclusion_witness_scan,
    monomial_norm,
)
from .witnesses import (EmbeddingParams, embedding_tail_bound,
                        power_singularity, projection_blowup_density)

DEFAULT_EXPONENT_GRID = "1,4/3,2,4,inf"


def _config_from_args(args, default_tol: float | None = None) -> QuadratureConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
    cfg = QuadratureConfig.from_dict(base)
    tol = args.tol if args.tol is not None else default_tol
    if tol is not None:
        cfg = QuadratureConfig(**{**cfg.to_dict(), "rel_tol": tol})
    return cfg


def _config_hash(cfg: QuadratureConfig, seed: int, extra: dict | None = None) -> str:
    payload = {"config": cfg.to_dict(), "seed": seed, **(extra or {})}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit_csv(rows: list, header: list, manifest: str, out_path: str | None,
              comments: tuple = ()):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(c) for c in row) + "\n")
    for line in comments:
        buf.write(f"# {line}\n")
    buf.write(f"# manifest: {manifest}\n")
    text = buf.getvalue()
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_exponent_grid(spec: str) -> list:
    return [ExtendedExponent.of(tok) for tok in spec.split(",") if tok.strip()]


def _parse_grid(spec: str) -> PolarGrid:
    try:
        a, r = spec.lower().split("x")
        return PolarGrid.build(int(a), int(r))
    except ValueError as exc:
        raise ValueError(f"bad --grid spec {spec!r}: {exc}") from exc


def _load_function(spec: str):
    """Accept inline JSON or a path to a JSON file."""
    text = spec
    p = Path(spec)
    if not spec.lstrip().startswith("{") and p.exists():
        text = p.read_text()
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("function spec nested too deeply to parse") from None
    return from_spec(doc)


def _fmt(x) -> str:
    """One output cell: empty for None, repr of a real, str of the rest."""
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# -- subcommands ----------------------------------------------------------------

def cmd_norm(args) -> int:
    cfg = _config_from_args(args)
    f = _load_function(args.function)
    pq = ExponentPair.of(args.p, args.q)
    est = mixed_norm(f, pq, cfg)
    doc = est.to_dict()
    doc["p"], doc["q"] = str(pq.p), str(pq.q)
    print(json.dumps(doc))
    return 0 if est.converged else 2


def _inclusion_cells(p0, q0, p, q, cfg, cache) -> list:
    verdict = inclusion_witness_scan(p0, q0, p, q, cfg, cache)
    agree = verdict.agreement()
    return [verdict.included, verdict.excluded_point,
            verdict.witness_conclusion(), "" if agree is None else agree]


def _compactness_cells(p0, q0, p, q, cfg, cache) -> list:
    rep = compactness_witness_scan(p0, q0, p, q, cfg, cache)
    agree = ""
    if rep["verdict"] != "inconclusive":
        agree = (rep["verdict"] == "compact-consistent") == rep["predicted"]
    return [rep["predicted"], rep["verdict"], agree]


# scan name -> (per-cell columns, CSV header)
SCANS = {
    "inclusion": (_inclusion_cells, ["p0", "q0", "p", "q", "predicted",
                                     "excluded_point", "witness", "agree"]),
    "compactness": (_compactness_cells, ["p0", "q0", "p", "q", "predicted",
                                         "witness", "agree"]),
}


def _scan_rows(cells, grid: list, cfg: QuadratureConfig,
               cache: NormCache) -> list:
    """One row per (p0, q0, p, q) in grid^4, sorted by cell key."""
    rows = [[*cell, *cells(*cell, cfg, cache)]
            for cell in itertools.product(grid, repeat=4)]
    rows.sort(key=lambda row: tuple(str(c) for c in row[:4]))
    return rows


def cmd_scan(args) -> int:
    cfg = _config_from_args(args, default_tol=0.02)
    cells, header = SCANS[args.scan]
    rows = _scan_rows(cells, _parse_exponent_grid(args.exponents), cfg,
                      NormCache(cfg))
    _emit_csv(rows, header, _config_hash(cfg, args.seed, {"cmd": args.cmd}),
              args.out_file)
    return 0


def cmd_scan_functional(args) -> int:
    cfg = _config_from_args(args, default_tol=0.005)
    zs = [float(parse_fraction(t)) for t in args.z_list.split(",")]
    cache = NormCache(cfg)
    rows = []
    for which in ("point", "derivative"):
        fit = evaluation_functional_fit(
            ExponentPair.of(args.p, args.q), which, zs, cfg, cache=cache)
        rows.append([args.p, args.q, which, fit.slope, fit.intercept,
                     fit.residual])
    manifest = _config_hash(cfg, args.seed, {"cmd": "scan-functional",
                                             "p": args.p, "q": args.q})
    _emit_csv(rows, ["p", "q", "functional", "slope", "intercept", "residual"],
              manifest, args.out_file)
    return 0


def _parse_point(pt) -> complex:
    """A point given as [re, im] or as one number."""
    parts = pt if isinstance(pt, list) else [pt, 0]
    if not (len(parts) == 2 and all(isinstance(c, (int, float))
                                    and not isinstance(c, bool) for c in parts)):
        raise ValueError(f"bad point {pt!r}: expected [re, im] or a number")
    return complex(parts[0], parts[1])


def cmd_project(args) -> int:
    cfg = _config_from_args(args)
    f = _load_function(args.function)
    grid = _parse_grid(args.grid or "64x64")
    points = json.loads(args.points)
    if not isinstance(points, list):
        raise ValueError("--points must be a JSON list")
    zs = np.array([_parse_point(pt) for pt in points], dtype=complex)
    # an overflow shows as a non-finite sample, which GridFunction refuses,
    # or as a non-finite value, refused here
    with np.errstate(over="ignore", invalid="ignore"):
        vals = project(f, zs, grid)
    if not np.isfinite(vals).all():
        raise ValueError("the projection is not finite at some point")
    rows = [[z.real, z.imag, val.real, val.imag] for z, val in zip(zs, vals)]
    manifest = _config_hash(cfg, args.seed, {"cmd": "project",
                                             "grid": args.grid or "64x64"})
    _emit_csv(rows, ["z_re", "z_im", "P_re", "P_im"], manifest, args.out_file)
    return 0


WITNESS_HEADER = ["k", "r_k", "a_k", "eps_k", "theta_k"]


def _witness_rows(params) -> list:
    return [[k, params.r[k], params.a[k], params.eps[k], params.theta[k]]
            for k in range(params.count)]


def cmd_witness(args) -> int:
    cfg = _config_from_args(args)
    params = EmbeddingParams(args.p, args.K)
    manifest = _config_hash(cfg, args.seed, {"cmd": "witness", "p": args.p,
                                             "K": args.K})
    low = min(params.disc_margins(), default=math.inf)  # one bump: no pair
    _emit_csv(_witness_rows(params), WITNESS_HEADER, manifest, args.out_file, (
        f"disc_disjoint: {low > 0} (min margin {low:.3e})",
        f"height_ratio_sum: {_fmt(params.height_ratio_sum())} "
        f"(+ tail <= {_fmt(embedding_tail_bound(args.p, args.K))})",
        f"theta_below_pi: {all(abs(t) < math.pi for t in params.theta)}"))
    return 0


# -- verification tables ------------------------------------------------------
# Each table is computed by one function at the configuration pinned here:
# ``report`` writes its rows and the acceptance criteria assert their
# thresholds on the same rows.

MONOMIAL_CFG = QuadratureConfig(theta_count=16, radial_levels=12,
                                refine_max=4, rel_tol=1e-4)
FRONTIER_CFG = QuadratureConfig(theta_count=64, radial_levels=12,
                                refine_max=12, rel_tol=0.02)
FIT_CFG = QuadratureConfig(radial_levels=14, refine_max=8, rel_tol=5e-3)
LACUNARY_CFG = QuadratureConfig(radial_levels=14, refine_max=6, rel_tol=0.01)
SCAN_CFG = QuadratureConfig(theta_count=64, radial_levels=12, refine_max=8,
                            rel_tol=0.02)
BLOWUP_POINTS = (0.8, 0.9, 0.95, 0.975)
BLOWUP_GRID = {"n_angles": 4096, "n_radii": 224, "nodes_per_cell": 16}


def monomial_rows(ns) -> list:
    """(p, q, n, norm, closed form (1 + n p)^(-1/p)) of z^n for each n in ns."""
    return [[p, q, n,
             mixed_norm(Monomial(n), ExponentPair.of(p, q), MONOMIAL_CFG).value,
             monomial_norm(n, p)]
            for p in (1, 2, 4) for q in (1, 2, 4, "inf") for n in ns]


def frontier_rows() -> list:
    """(p, q, alpha, converged, divergence exponent) of (1 - z)^-alpha at
    alpha = 0.9 and 1.1 times the membership threshold 1/p + 1/q."""
    rows = []
    for p, q in itertools.product((1, 2, 4), repeat=2):
        for c in (0.9, 1.1):
            alpha = c * (1.0 / p + 1.0 / q)
            est = mixed_norm(power_singularity(alpha), ExponentPair.of(p, q),
                             FRONTIER_CFG)
            rows.append([p, q, alpha, est.converged, est.divergence_exponent])
    return rows


def functional_rows() -> list:
    """(p, q, functional, slope, residual) of the point and derivative
    exponent fits on the boundary ladder; one NormCache per pair."""
    rows = []
    for p, q in ((2, 2), (2, 4), (4, 2)):
        cache = NormCache(FIT_CFG)
        for which in ("point", "derivative"):
            fit = evaluation_functional_fit(ExponentPair.of(p, q), which,
                                            BOUNDARY_LADDER, FIT_CFG,
                                            cache=cache)
            rows.append([p, q, which, fit.slope, fit.residual])
    return rows


def lacunary_rows(rng) -> list:
    """(p, draw, min, max, max/min) over q in {1, 2, 4, inf} of the ratio of
    a random 13-node lacunary series' norm to (sum |c_k|^p 2^-k)^(1/p),
    20 draws per p."""
    rows = []
    for p in (1, 2):
        for draw in range(20):
            coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            f = Lacunary(tuple((2 ** k, coeffs[k]) for k in range(13)))
            rhs = sum(abs(coeffs[k]) ** p / 2 ** k for k in range(13)) ** (1 / p)
            ratios = [mixed_norm(f, ExponentPair.of(p, q), LACUNARY_CFG).value
                      / rhs for q in (1, 2, 4, "inf")]
            rows.append([p, draw, min(ratios), max(ratios),
                         max(ratios) / min(ratios)])
    return rows


def kernel_chain_violations(rng, n: int) -> dict:
    """Counts, over n random tuples, of points breaking the kernel chain:
    |K| <= 4 D on gaps <= 1, H~/4 <= D <= H~ in depth form, H <= H~ and
    H~ <= 3 sum_{m <= 40} H_m (depths x, y drawn from [1e-12, 1))."""
    r, rho = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    th, ph = rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 2 * np.pi, n)
    x, y = rng.uniform(1e-12, 1, n), rng.uniform(1e-12, 1, n)
    d = angular_distance(th - ph)
    K = np.abs(bergman_kernel(r * np.exp(1j * th), rho * np.exp(1j * ph)))
    Ht = kernel_capped_depth(d, x, y)
    Dxy = kernel_capped(1 - x, 1 - y, d)
    return {
        "bergman_capped_violations":
            int(np.sum((d <= 1.0) & (K > 4 * kernel_capped(r, rho, d)))),
        "depth_sandwich_violations":
            int(np.sum(Ht / 4 > Dxy) + np.sum(Dxy > Ht)),
        "offdiag_below_capped_violations":
            int(np.sum(kernel_offdiag(d, x, y) > Ht)),
        "dyadic_sum_violations":
            int(np.sum(Ht > 3 * kernel_offdiag_dyadic_sum(d, x, y))),
    }


def wedge_violations(rng, n: int) -> dict:
    """Counts, over n random pairs z, w in the boundary wedge, of pairs
    failing each of the three ``stolz_wedge_inequalities``."""
    t1 = rng.uniform(0, 0.5, n)
    r1 = rng.uniform(0, 1, n) * (1 - 2 * t1)
    t2 = rng.uniform(0, 0.5, n)
    r2 = rng.uniform(0, 1, n) * (1 - 2 * t2)
    ratio, arg_ok, re_ok = stolz_wedge_inequalities(r1 * np.exp(1j * t1),
                                                    r2 * np.exp(1j * t2))
    return {
        "wedge_modulus_violations":
            int(np.sum((ratio < 1.0) | (ratio > math.sqrt(5) / 2))),
        "wedge_argument_violations": int(np.sum(~arg_ok)),
        "wedge_realpart_violations": int(np.sum(~re_ok)),
    }


def blowup_profile(p, grid: PolarGrid) -> tuple:
    """(|P f(a)| at BLOWUP_POINTS, the log-log slope of |P f(a)| against
    1 - a, the largest p-integral of |f| over 64 rays through the wedge) for
    the wedge-supported density f at exponent p."""
    dens = projection_blowup_density(p)
    gf = sample_on_grid(dens, grid)
    a = np.array(BLOWUP_POINTS)
    values = np.abs(project(gf, a, grid))
    slope = ExponentFit.fit(zip(np.log(1 - a), np.log(values))).slope
    r, w = graded_radial_mesh(20)
    worst_ray = max(float(w @ np.abs(dens(r, t)) ** p)
                    for t in (np.arange(64) + 0.5) / 64 * 0.5)
    return values, slope, worst_ray


def cmd_report(args) -> int:
    # --config/--tol reach only the manifest and the hashes of the witness
    # and blow-up tables; every other table runs at its pinned config
    cfg = _config_from_args(args)
    out = Path(args.out or "report")
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    artifacts = []

    def emit(name: str, rows: list, header: list, table_cfg, cmd: str):
        path = out / name
        _emit_csv(rows, header, _config_hash(table_cfg, args.seed,
                                             {"cmd": f"report/{cmd}"}),
                  str(path))
        artifacts.append(str(path))

    def emit_json(name: str, doc: dict):
        path = out / name
        path.write_text(json.dumps(doc, indent=2, default=float, sort_keys=True))
        artifacts.append(str(path))

    emit("monomial_norms.csv", monomial_rows((0, 1, 4, 16, 64)),
         ["p", "q", "n", "value", "closed_form"], MONOMIAL_CFG, "monomial")
    emit("frontier.csv", frontier_rows(),
         ["p", "q", "alpha", "converged", "divergence_exponent"],
         FRONTIER_CFG, "frontier")
    emit("functional_slopes.csv", functional_rows(),
         ["p", "q", "functional", "slope", "residual"], FIT_CFG, "functional")
    for p in (1, 2, 4):
        emit(f"witness_p{p}.csv", _witness_rows(EmbeddingParams(p, 16)),
             WITNESS_HEADER, cfg, f"witness{p}")

    # projection identity and pairing spot checks
    grid = _parse_grid(args.grid or "128x128")
    checks = {"projection": [], "pairing": []}
    for n in range(5):
        z = 0.5 * np.exp(1j * (0.3 + n))
        f = Monomial(n)
        val = project(f, z, grid)
        checks["projection"].append({
            "n": n, "z": [z.real, z.imag],
            "error": abs(val - z ** n)})
        pair = duality_pairing(f, f, grid)
        checks["pairing"].append({
            "n": n, "value": [pair.real, pair.imag],
            "exact": 1.0 / (n + 1)})
    op = bergman_projection_operator(grid)
    low, _ = operator_norm_estimate(op, ExponentPair.of(2, 2), grid,
                                    trials=12, seed=args.seed)
    checks["projection_norm_lower_bound_22"] = low
    emit_json("projection.json", checks)

    emit("lacunary.csv", lacunary_rows(np.random.default_rng(args.seed)),
         ["p", "draw", "ratio_min", "ratio_max", "q_bracket_width"],
         LACUNARY_CFG, "lacunary")
    rng, n = np.random.default_rng(args.seed), 10 ** 6
    emit_json("kernel_chain.json", {"tuples": n,
                                    **kernel_chain_violations(rng, n),
                                    **wedge_violations(rng, n)})

    bgrid = PolarGrid.build(**BLOWUP_GRID)
    rows = []
    for p in (2, 4):
        values, slope, worst_ray = blowup_profile(p, bgrid)
        bound = projection_blowup_density(p).ray_integral_bound()
        rows += [[p, a, v, slope, worst_ray, bound]
                 for a, v in zip(BLOWUP_POINTS, values)]
    emit("blowup.csv", rows, ["p", "a", "abs_P", "loglog_slope",
                              "worst_ray_integral", "ray_bound"], cfg, "blowup")

    # inclusion and compactness scans over the five-point exponent grid
    cache = NormCache(SCAN_CFG)
    egrid = _parse_exponent_grid(DEFAULT_EXPONENT_GRID)
    for name, (cells, header) in SCANS.items():
        emit(f"{name}_scan.csv", _scan_rows(cells, egrid, SCAN_CFG, cache),
             header, SCAN_CFG, name)

    manifest = {
        "command": "report",
        "config": cfg.to_dict(),
        "seed": args.seed,
        "artifacts": sorted(artifacts),
        "wall_time_s": time.monotonic() - t0,
    }
    print(json.dumps(manifest, indent=2, sort_keys=True), file=sys.stderr)
    (out / "manifest.json").write_text(json.dumps(
        {k: v for k, v in manifest.items() if k != "wall_time_s"},
        indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radmix",
        description="Mixed radial/angular norm laboratory for analytic "
                    "functions on the unit disc.")
    ap.add_argument("--config", help="JSON quadrature config "
                    "(theta_count, radial_levels, refine_max, rel_tol)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the randomised estimators")
    ap.add_argument("--tol", type=float, default=None,
                    help="override rel_tol of the config")
    ap.add_argument("--out", default=None,
                    help="output directory (report subcommand)")
    ap.add_argument("--grid", default=None,
                    help="polar grid as <angles>x<radii> "
                         "(project: default 64x64; report: 128x128)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("norm", help="mixed norm of a function spec")
    s.add_argument("--function", required=True,
                   help="function spec: inline JSON or a path")
    s.add_argument("--p", required=True)
    s.add_argument("--q", required=True)
    s.set_defaults(fn=cmd_norm)

    for name in SCANS:
        s = sub.add_parser(f"scan-{name}",
                           help=f"scan-{name} over an exponent grid")
        s.add_argument("--exponents", default=DEFAULT_EXPONENT_GRID)
        s.add_argument("--out-file", default=None)
        s.set_defaults(fn=cmd_scan, scan=name)

    s = sub.add_parser("scan-functional",
                       help="fitted growth exponents of point functionals")
    s.add_argument("--p", required=True)
    s.add_argument("--q", required=True)
    s.add_argument("--z-list", default=",".join(map(repr, BOUNDARY_LADDER)))
    s.add_argument("--out-file", default=None)
    s.set_defaults(fn=cmd_scan_functional)

    s = sub.add_parser("project", help="Bergman projection at points")
    s.add_argument("--function", required=True)
    s.add_argument("--points", required=True,
                   help='JSON list of [re, im] points')
    s.add_argument("--out-file", default=None)
    s.set_defaults(fn=cmd_project)

    s = sub.add_parser("witness", help="embedding parameter tables")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--K", type=int, required=True)
    s.add_argument("--out-file", default=None)
    s.set_defaults(fn=cmd_witness)

    s = sub.add_parser("report", help="write the full verification tables")
    s.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
