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

from .bergman import (
    PolarGrid,
    bergman_projection_operator,
    duality_pairing,
    operator_norm_estimate,
    project,
    sample_on_grid,
)
from .exponents import ExponentPair, ExtendedExponent, parse_fraction
from .functions import from_spec
from .norms import QuadratureConfig, mixed_norm
from .theorems import (
    NormCache,
    compactness_witness_scan,
    evaluation_functional_fit,
    inclusion_witness_scan,
)
from .witnesses import embedding_params, embedding_tail_bound

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
        buf.write(",".join(str(c) for c in row) + "\n")
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
    return from_spec(json.loads(text))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "inf" if math.isinf(x) else repr(x)
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
    rows = []
    for which in ("point", "derivative"):
        fit = evaluation_functional_fit(
            ExponentPair.of(args.p, args.q), which, zs, cfg)
        rows.append([args.p, args.q, which, _fmt(fit.slope),
                     _fmt(fit.intercept), _fmt(fit.residual)])
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
    rows = [[_fmt(z.real), _fmt(z.imag), _fmt(val.real), _fmt(val.imag)]
            for z, val in zip(zs, project(f, zs, grid))]
    manifest = _config_hash(cfg, args.seed, {"cmd": "project",
                                             "grid": args.grid or "64x64"})
    _emit_csv(rows, ["z_re", "z_im", "P_re", "P_im"], manifest, args.out_file)
    return 0


WITNESS_HEADER = ["k", "r_k", "a_k", "eps_k", "theta_k"]


def _witness_rows(params) -> list:
    return [[k, _fmt(params.r[k]), _fmt(params.a[k]), _fmt(params.eps[k]),
             _fmt(params.theta[k])] for k in range(params.count)]


def cmd_witness(args) -> int:
    cfg = _config_from_args(args)
    params = embedding_params(args.p, args.K)
    manifest = _config_hash(cfg, args.seed, {"cmd": "witness", "p": args.p,
                                             "K": args.K})
    low = min(params.disc_margins(), default=math.inf)  # one bump: no pair
    _emit_csv(_witness_rows(params), WITNESS_HEADER, manifest, args.out_file, (
        f"disc_disjoint: {low > 0} (min margin {low:.3e})",
        f"height_ratio_sum: {_fmt(params.height_ratio_sum())} "
        f"(+ tail <= {_fmt(embedding_tail_bound(args.p, args.K))})",
        f"theta_below_pi: {all(abs(t) < math.pi for t in params.theta)}"))
    return 0


def cmd_report(args) -> int:
    # Each table runs at the configuration its acceptance criterion pins;
    # --config/--tol only affect the generic norm machinery defaults.
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

    # monomial norms against the closed form
    rows = []
    from .functions import Monomial
    mono_cfg = QuadratureConfig(theta_count=16, radial_levels=12,
                                refine_max=4, rel_tol=1e-4)
    for p in (1, 2, 4):
        for q in (1, 2, 4, "inf"):
            for n in (0, 1, 4, 16, 64):
                est = mixed_norm(Monomial(n), ExponentPair.of(p, q), mono_cfg)
                exact = (1.0 + n * float(p)) ** (-1.0 / float(p))
                rows.append([p, q, n, _fmt(est.value), _fmt(exact)])
    emit("monomial_norms.csv", rows, ["p", "q", "n", "value", "closed_form"],
         mono_cfg, "monomial")

    # membership frontier of the boundary power singularity
    from .witnesses import power_singularity
    rows = []
    frontier_cfg = QuadratureConfig(theta_count=64, radial_levels=12,
                                    refine_max=12, rel_tol=0.02)
    for p in (1, 2, 4):
        for q in (1, 2, 4):
            s = 1.0 / p + 1.0 / q
            for c in (0.9, 1.1):
                est = mixed_norm(power_singularity(c * s),
                                 ExponentPair.of(p, q), frontier_cfg)
                rows.append([p, q, _fmt(c * s), est.converged,
                             _fmt(est.divergence_exponent)])
    emit("frontier.csv", rows,
         ["p", "q", "alpha", "converged", "divergence_exponent"],
         frontier_cfg, "frontier")

    # functional slopes
    rows = []
    zs = [1.0 - 2.0 ** -k for k in range(3, 9)]
    fit_cfg = QuadratureConfig(radial_levels=14, refine_max=8, rel_tol=5e-3)
    for (p, q) in ((2, 2), (2, 4), (4, 2)):
        for which in ("point", "derivative"):
            fit = evaluation_functional_fit(ExponentPair.of(p, q), which, zs,
                                            fit_cfg)
            rows.append([p, q, which, _fmt(fit.slope), _fmt(fit.residual)])
    emit("functional_slopes.csv", rows,
         ["p", "q", "functional", "slope", "residual"], fit_cfg, "functional")

    # embedding parameter tables
    for p in (1, 2, 4):
        emit(f"witness_p{p}.csv", _witness_rows(embedding_params(p, 16)),
             WITNESS_HEADER, cfg, f"witness{p}")

    # projection identity and pairing spot checks
    grid = _parse_grid(args.grid or "128x128")
    checks = {"projection": [], "pairing": []}
    for n in range(5):
        z = 0.5 * np.exp(1j * (0.3 + n))
        val = project(Monomial(n), z, grid)
        checks["projection"].append({
            "n": n, "z": [z.real, z.imag],
            "error": abs(val - z ** n)})
        pair = duality_pairing(Monomial(n), Monomial(n), grid)
        checks["pairing"].append({
            "n": n, "value": [pair.real, pair.imag],
            "exact": 1.0 / (n + 1)})
    op = bergman_projection_operator(grid)
    low, _ = operator_norm_estimate(op, ExponentPair.of(2, 2), grid,
                                    trials=12, seed=args.seed)
    checks["projection_norm_lower_bound_22"] = low
    path = out / "projection.json"
    path.write_text(json.dumps(checks, indent=2, default=float,
                               sort_keys=True))
    artifacts.append(str(path))

    # lacunary ratio brackets
    from .functions import Lacunary
    rng = np.random.default_rng(args.seed)
    lac_cfg = QuadratureConfig(radial_levels=14, refine_max=6, rel_tol=0.01)
    rows = []
    for p in (1, 2):
        for draw in range(20):
            coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            f = Lacunary(tuple((2 ** k, coeffs[k]) for k in range(13)))
            rhs = sum(abs(coeffs[k]) ** p / 2 ** k for k in range(13)) ** (1 / p)
            ratios = [mixed_norm(f, ExponentPair.of(p, q), lac_cfg).value / rhs
                      for q in (1, 2, 4, "inf")]
            rows.append([p, draw, _fmt(min(ratios)), _fmt(max(ratios)),
                         _fmt(max(ratios) / min(ratios))])
    emit("lacunary.csv", rows,
         ["p", "draw", "ratio_min", "ratio_max", "q_bracket_width"],
         lac_cfg, "lacunary")

    # pointwise kernel chain and wedge inequalities, seeded
    from .bergman import (kernel_capped, kernel_capped_depth, kernel_offdiag,
                          kernel_offdiag_dilated, bergman_kernel)
    from .meshes import angular_distance
    rng = np.random.default_rng(args.seed)
    n = 10 ** 6
    r, rho = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    th, ph = rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 2 * np.pi, n)
    x, y = rng.uniform(1e-12, 1, n), rng.uniform(1e-12, 1, n)
    d = angular_distance(th - ph)
    K = np.abs(bergman_kernel(r * np.exp(1j * th), rho * np.exp(1j * ph)))
    D = kernel_capped(r, th, rho, ph)
    Ht = kernel_capped_depth(th, ph, x, y)
    Dxy = kernel_capped(1 - x, th, 1 - y, ph)
    H = kernel_offdiag(th, ph, x, y)
    S = np.zeros(n)
    for m_ in range(41):
        S += kernel_offdiag_dilated(m_, th, ph, x, y)
    t1 = rng.uniform(0, 0.5, n)
    r1 = rng.uniform(0, 1, n) * (1 - 2 * t1)
    t2 = rng.uniform(0, 0.5, n)
    r2 = rng.uniform(0, 1, n) * (1 - 2 * t2)
    z1 = r1 * np.exp(1j * t1)
    z2 = r2 * np.exp(1j * t2)
    ratio1 = np.abs(1 - z1) / (1 - np.abs(z1))
    quot = (1 - z1) / (1 - z2)
    q2 = quot * quot
    chain = {
        "tuples": n,
        "bergman_capped_violations": int(np.sum((d <= 1.0) & (K > 4 * D))),
        "depth_sandwich_violations": int(np.sum(Ht / 4 > Dxy) + np.sum(Dxy > Ht)),
        "offdiag_below_capped_violations": int(np.sum(H > Ht)),
        "dyadic_sum_violations": int(np.sum(Ht > 3 * S)),
        "wedge_modulus_violations": int(np.sum((ratio1 < 1.0)
                                               | (ratio1 > math.sqrt(5) / 2))),
        "wedge_argument_violations": int(np.sum(np.abs(np.angle(quot))
                                                > math.atan(0.5))),
        "wedge_realpart_violations": int(np.sum(q2.real < 0.6 * np.abs(q2))),
    }
    path = out / "kernel_chain.json"
    path.write_text(json.dumps(chain, indent=2, sort_keys=True))
    artifacts.append(str(path))

    # projected wedge-density blow-up: values, slope, ray bound
    from .witnesses import projection_blowup_density
    from .meshes import graded_radial_mesh
    rows = []
    avals = np.array([0.8, 0.9, 0.95, 0.975])
    rmesh, wmesh = graded_radial_mesh(20)
    bgrid = PolarGrid.build(4096, 224, nodes_per_cell=16)
    for p in (2, 4):
        dens = projection_blowup_density(p)
        gf = sample_on_grid(dens, bgrid)
        pv = np.array([abs(project(gf, a, bgrid)) for a in avals])
        slope = float(np.polyfit(np.log(1 - avals), np.log(pv), 1)[0])
        worst_ray = max(float(wmesh @ np.abs(dens(rmesh, t)) ** p)
                        for t in (np.arange(64) + 0.5) / 64 * 0.5)
        for a, v in zip(avals, pv):
            rows.append([p, _fmt(float(a)), _fmt(float(v)), _fmt(slope),
                         _fmt(worst_ray), _fmt(dens.ray_integral_bound())])
    emit("blowup.csv", rows, ["p", "a", "abs_P", "loglog_slope",
                              "worst_ray_integral", "ray_bound"], cfg, "blowup")

    # inclusion and compactness scans over the five-point exponent grid
    scan_cfg = QuadratureConfig(theta_count=64, radial_levels=12,
                                refine_max=8, rel_tol=0.02)
    cache = NormCache(scan_cfg)
    egrid = _parse_exponent_grid(DEFAULT_EXPONENT_GRID)
    for name, (cells, header) in SCANS.items():
        emit(f"{name}_scan.csv", _scan_rows(cells, egrid, scan_cfg, cache),
             header, scan_cfg, name)

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
                    "(theta_count, radial_levels, refine_max, rel_tol, "
                    "sup_sample_count)")
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
    s.add_argument("--z-list", default="0.875,0.9375,0.96875,0.984375,"
                   "0.9921875,0.99609375")
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
