"""Command-line front end.

Every report is JSON with sorted keys so reruns are byte-identical apart
from the "generated_at" stamp; comparisons should exclude that field.
Exit codes: 0 experiment passed (or report-only command succeeded),
1 experiment ran and failed its bound, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .config import (
    ConfigError,
    DyadicConfig,
    EquivalenceConfig,
    GridConfig,
    TimeGridConfig,
    load_equivalence_config,
)
from .conditions import (
    condition_summary,
    marcinkiewicz_estimate_scan,
    nondegeneracy_check,
)
from .grid import (
    NODES_PER_OCTAVE,
    Geometry,
    ScaleSet,
    default_geometry,
    l2_norm,
    load_field_binary,
    load_field_csv,
    mean_subtract,
    random_band_field,
    save_field_csv,
)
from .kernels import Kernel, kernel_from_id, profile_from_id
from .multiplier import (
    continuous_symbol,
    dyadic_symbol,
    sampled_homogeneity_defect,
    sampled_min_modulus,
)
from .sobolev import (
    default_test_family,
    equivalence_experiment,
    sobolev_equivalence_ratio,
    square_function_ratio,
)
from .squarefn import g_function
from .weights import weight_from_id


# ---------------------------------------------------------------------------
# report plumbing

def _json_safe(obj):
    """Replace non-finite floats so the report stays valid JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(float(obj))
    return obj


def _emit_json(payload: dict, out: str | None) -> None:
    payload = dict(_json_safe(payload))
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _geometry_for(base: Geometry, args) -> Geometry:
    """The base grid with the --grid-n / --grid-l overrides."""
    n = args.grid_n if args.grid_n is not None else base.n_samples
    L = args.grid_l if args.grid_l is not None else base.half_length
    return GridConfig(base.dim, n, L).geometry()


def _scales_for(geom: Geometry, args) -> ScaleSet:
    """The scale set of --mode, with the --t-* / --nodes-per-octave or --k-* overrides."""
    if args.mode == "continuous":
        return TimeGridConfig(args.t_min, args.t_max, args.nodes_per_octave).time_grid(geom)
    return DyadicConfig(args.k_min, args.k_max).dyadic_range(geom)


def _kernel_metadata(kernel: Kernel) -> dict:
    edge = kernel.edge_singularity
    return {
        "name": kernel.name,
        "dim": kernel.dim,
        "radial": kernel.radial,
        "odd": kernel.odd,
        "real": kernel.real,
        "has_spatial": kernel.spatial is not None,
        "fourier_mode": kernel.fourier_mode,
        "support_radius": kernel.support_radius,
        "cancellation_order": kernel.cancellation_order,
        "spatial_tail_exponent": kernel.spatial_tail_exponent,
        "fourier_tail_exponent": kernel.fourier_tail_exponent,
        "fourier_origin_exponent": kernel.fourier_origin_exponent,
        "edge_singularity": list(edge) if edge is not None else None,
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_kernel_info(args) -> int:
    kernel = kernel_from_id(args.kernel)
    _emit_json(_kernel_metadata(kernel), args.out)
    return 0


def _build_symbol(kernel: Kernel, geom: Geometry, args):
    scales = _scales_for(geom, args)
    if args.mode == "continuous":
        return continuous_symbol(kernel, scales)
    return dyadic_symbol(kernel, scales)


def _save_symbol_csv(path: str, header: str, xi: np.ndarray, values: np.ndarray) -> None:
    """The header line, column names, then one (xi, re, im) row per frequency
    with the floats' repr, joined and written at once."""
    rows = zip(xi.tolist(), values.real.tolist(), values.imag.tolist())
    with open(path, "w") as fh:
        fh.write(header + "xi,re,im\n" + "".join(f"{x!r},{re!r},{im!r}\n" for x, re, im in rows))


def _cmd_symbol(args) -> int:
    kernel = kernel_from_id(args.kernel)
    geom = _geometry_for(default_geometry(kernel.dim), args)
    sym = _build_symbol(kernel, geom, args)
    vals = sym.sample(geom)  # the one evaluation the CSV and both checks read

    # values along the first frequency axis; 2-D symbols are sliced at xi_2 = 0
    xi = geom.frequency_axis()
    axis_vals = vals[(slice(None),) + geom.dc_index[1:]]

    header = f"# symbol={sym.name} mode={args.mode} n={geom.n_samples} half_length={geom.half_length!r}\n"
    _save_symbol_csv(args.out, header, xi, axis_vals)

    sidecar = {
        "symbol": sym.name,
        "mode": args.mode,
        "meta": sym.meta,
        "homogeneity": sym.homogeneity,
        "homogeneity_defect": sampled_homogeneity_defect(vals, geom),
        "annulus_min_modulus": sampled_min_modulus(vals, geom, annulus=(1.0, 2.0)),
    }
    _emit_json(sidecar, args.out + ".json")
    print(f"wrote {args.out} and {args.out}.json")
    return 0


def _load_input_field(path: str):
    if path.endswith(".csv"):
        return load_field_csv(path)
    return load_field_binary(path)


def _cmd_gfun(args) -> int:
    kernel = kernel_from_id(args.kernel)
    if args.input is not None:
        f = _load_input_field(args.input)
        geom = f.geometry
        try:  # the file's grid must suit the kernel and the scale set
            if geom.dim != kernel.dim:
                raise ValueError(f"field has dim {geom.dim}, kernel '{kernel.name}' has dim {kernel.dim}")
            scales = _scales_for(geom, args)
        except ValueError as exc:
            raise ValueError(f"{args.input}: {exc}") from None
    else:
        geom = _geometry_for(default_geometry(kernel.dim), args)
        f = mean_subtract(random_band_field(geom, args.seed))
        scales = _scales_for(geom, args)
    g = g_function(f, kernel, scales)
    nf = l2_norm(f)
    ng = l2_norm(g)
    if args.out is not None:
        save_field_csv(g, args.out)
    ratio = ng / nf if nf > 0 else math.nan
    print(f"input_l2={nf:.12g} gfun_l2={ng:.12g} ratio={ratio:.12g}")
    return 0


def _experiment_report(cfg: EquivalenceConfig, args) -> tuple[dict, bool]:
    geom = _geometry_for(cfg.grid.geometry(), args)
    seed = args.seed if args.seed is not None else cfg.seed
    weight = weight_from_id(cfg.weight, radius_floor=geom.spacing)
    family = default_test_family(geom, seed)

    if cfg.operator in ("gfun", "dyadic"):
        kernel = kernel_from_id(cfg.kernel)
        mode = "continuous" if cfg.operator == "gfun" else "dyadic"
        gate = nondegeneracy_check(kernel, mode)
        if not gate.passed:
            return (
                {
                    "operator": cfg.operator,
                    "kernel": cfg.kernel,
                    "error": "nondegeneracy check failed",
                    "nondegeneracy": gate.as_dict(),
                },
                False,
            )
        scales = cfg.time.time_grid(geom) if mode == "continuous" else cfg.dyadic.dyadic_range(geom)
        ratio_fn = square_function_ratio(kernel, scales, cfg.p, weight)
    else:
        profile = profile_from_id(cfg.profile, geom.dim)
        ratio_fn = sobolev_equivalence_ratio(
            cfg.order, profile, cfg.dyadic.dyadic_range(geom), cfg.p, weight
        )

    report = equivalence_experiment(
        family, ratio_fn, operator=cfg.operator, p=cfg.p, weight_label=cfg.weight
    )
    if cfg.operator in ("gfun", "dyadic") and report.min_ratio == 0.0:
        # the symbol passes the scan, but no scale of the set reaches the grid
        # frequencies of some member: G vanishes on it, and no ratio bounds it
        return (
            {
                "operator": cfg.operator,
                "kernel": cfg.kernel,
                "error": "nondegeneracy check failed",
                "nondegeneracy": {"mode": "grid", "min_value": 0.0, "pass": False},
            },
            False,
        )
    passed = report.spread <= cfg.spread_bound
    payload = report.as_dict()
    payload.update(
        {
            "kernel": cfg.kernel,
            "order": cfg.order,
            "profile": cfg.profile,
            "seed": seed,
            "spread_bound": cfg.spread_bound,
            "grid": {
                "dim": geom.dim,
                "n_samples": geom.n_samples,
                "half_length": geom.half_length,
            },
            "pass": passed,
        }
    )
    return payload, passed


def _cmd_equivalence(args) -> int:
    cfg = load_equivalence_config(args.config)
    if cfg.operator not in ("gfun", "dyadic"):
        raise ConfigError("operator", "equivalence expects 'gfun' or 'dyadic'; use the sobolev command otherwise")
    payload, passed = _experiment_report(cfg, args)
    _emit_json(payload, args.out)
    if "error" in payload:
        print(f"FAIL {payload['error']} for kernel {payload['kernel']}", file=sys.stderr)
        return 1
    print(f"{'PASS' if passed else 'FAIL'} spread={payload['spread']:.6g} bound={payload['spread_bound']:g}")
    return 0 if passed else 1


def _cmd_sobolev(args) -> int:
    cfg = load_equivalence_config(args.config, forced_operator="sobolev")
    payload, passed = _experiment_report(cfg, args)
    _emit_json(payload, args.out)
    print(f"{'PASS' if passed else 'FAIL'} spread={payload['spread']:.6g} bound={payload['spread_bound']:g}")
    return 0 if passed else 1


def _cmd_mar_scan(args) -> int:
    report = marcinkiewicz_estimate_scan(args.alpha, refine=not args.no_refine)
    _emit_json(report.as_dict(), args.out)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} alpha={report.alpha:g} max_ratio={report.max_ratio:.6g} "
        f"argmax=({report.argmax[0]:.6g}, {report.argmax[1]:.6g}) "
        f"refinement_delta={report.refinement_delta:.3g}"
    )
    return 0 if report.passed else 1


def _cmd_conditions(args) -> int:
    kernel = kernel_from_id(args.kernel)
    _emit_json(condition_summary(kernel), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", type=int, default=None, metavar="N",
                   help="samples per axis (power of two)")
    p.add_argument("--grid-l", type=float, default=None, metavar="L",
                   help="half-length of the periodic box")


def _add_scale_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--nodes-per-octave", type=int, default=NODES_PER_OCTAVE)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalesq",
        description="Square-function and multiplier experiments on periodic grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-info", help="static metadata for a kernel id")
    p.add_argument("kernel")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_kernel_info)

    p = sub.add_parser("symbol", help="tabulate the square-function symbol")
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=("continuous", "dyadic"), default="continuous")
    p.add_argument("--out", required=True, help="CSV path; a .json sidecar is written next to it")
    _add_grid_flags(p)
    _add_scale_flags(p)
    p.set_defaults(fn=_cmd_symbol)

    p = sub.add_parser("gfun", help="apply a square function to a field")
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=("continuous", "dyadic"), default="continuous")
    p.add_argument("--input", default=None, help="field file (.csv or binary); default: seeded random band field")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the square function as a field CSV")
    _add_grid_flags(p)
    _add_scale_flags(p)
    p.set_defaults(fn=_cmd_gfun)

    p = sub.add_parser("equivalence", help="norm-equivalence experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_grid_flags(p)
    p.set_defaults(fn=_cmd_equivalence)

    p = sub.add_parser("sobolev", help="smoothness-norm equivalence from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_grid_flags(p)
    p.set_defaults(fn=_cmd_sobolev)

    p = sub.add_parser("mar-scan", help="scan the scale-shift energy ratio")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_mar_scan)

    p = sub.add_parser("conditions", help="run every kernel condition checker")
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_conditions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
