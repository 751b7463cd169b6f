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

from .config import ConfigError, EquivalenceConfig, load_equivalence_config
from .conditions import (
    condition_summary,
    marcinkiewicz_estimate_scan,
    nondegeneracy_check,
)
from .grid import (
    NODES_PER_OCTAVE,
    Geometry,
    ScaleSet,
    _repr_cells,
    _write_csv_rows,
    default_geometry,
    l2_norm,
    load_field_binary,
    load_field_csv,
    mean_subtract,
    random_band_field,
    save_field_csv,
    scale_set,
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
    return Geometry(base.dim, n, L)


def _scales_for(geom: Geometry, args) -> ScaleSet:
    """The scale set of --mode, with the --t-* / --nodes-per-octave or --k-* overrides."""
    return scale_set(
        geom, args.mode == "continuous", args.t_min, args.t_max, args.nodes_per_octave, args.k_min, args.k_max
    )


def _kernel_metadata(kernel: Kernel) -> dict:
    edge = kernel.edge_singularity
    return {
        "name": kernel.name,
        "dim": kernel.dim,
        "radial": kernel.radial,
        "odd": kernel.odd,
        "real": kernel.real,
        "has_spatial": kernel.spatial is not None,
        "support_radius": kernel.support_radius,
        "cancellation_order": kernel.cancellation_order,
        "spatial_tail_exponent": kernel.spatial_tail_exponent,
        "fourier_tail_exponent": kernel.fourier_tail_exponent,
        "fourier_origin_exponent": kernel.fourier_origin_exponent,
        "origin_singularity": kernel.origin_singularity,
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
    with the floats' repr, as the field CSV writes them (`grid._repr_cells`)."""

    def columns(lo: int, hi: int) -> list:
        cells = [_repr_cells(v[lo:hi]) for v in (xi, values.real, values.imag)]
        return [cells[0], b",", cells[1], b",", cells[2], b"\n"]

    with open(path, "wb") as fh:
        fh.write((header + "xi,re,im\n").encode())
        _write_csv_rows(fh, xi.size, columns)


def _cmd_symbol(args) -> int:
    kernel = kernel_from_id(args.kernel)
    geom = _geometry_for(default_geometry(kernel.dim), args)
    sym = _build_symbol(kernel, geom, args)
    vals = sym.sample(geom)  # the one evaluation the CSV and both checks read

    # values along the first frequency axis in centred order; 2-D symbols are
    # sliced at xi_2 = 0, the first entry of the second axis in FFT order
    axis_vals = np.fft.fftshift(vals[(slice(None),) + (0,) * (geom.dim - 1)])

    try:  # both checks before anything is written
        annulus_min = sampled_min_modulus(vals, geom, annulus=(1.0, 2.0))
    except ValueError as exc:
        raise ValueError(f"{exc}: the grid's |xi_i| run in steps of 1/(2L) = {0.5 / geom.half_length!r} to N/(4L) = "
                         f"{geom.n_samples / (4.0 * geom.half_length)!r}; choose --grid-n/--grid-l to reach it") from None
    sidecar = {
        "symbol": sym.name,
        "mode": args.mode,
        "meta": sym.meta,
        "homogeneity": sym.homogeneity,
        "homogeneity_defect": sampled_homogeneity_defect(vals, geom),
        "annulus_min_modulus": annulus_min,
    }
    header = f"# symbol={sym.name} mode={args.mode} n={geom.n_samples} half_length={geom.half_length!r}\n"
    _save_symbol_csv(args.out, header, geom.frequency_axis(), axis_vals)
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


def _degenerate(cfg: EquivalenceConfig, nondegeneracy: dict) -> tuple[dict, bool]:
    """The failing report of a square function that vanishes at some frequency."""
    payload = {
        "operator": cfg.operator,
        "kernel": cfg.kernel,
        "error": "nondegeneracy check failed",
        "nondegeneracy": nondegeneracy,
    }
    return payload, False


def _experiment_report(cfg: EquivalenceConfig, args) -> tuple[dict, bool]:
    geom = _geometry_for(cfg.grid, args)
    seed = args.seed if args.seed is not None else cfg.seed
    weight = weight_from_id(cfg.weight, radius_floor=geom.spacing)
    family = default_test_family(geom, seed)

    if cfg.operator in ("gfun", "dyadic"):
        kernel = kernel_from_id(cfg.kernel)
        mode = "continuous" if cfg.operator == "gfun" else "dyadic"
        gate = nondegeneracy_check(kernel, mode)
        if not gate.passed:
            return _degenerate(cfg, gate.as_dict())
        ratio_fn = square_function_ratio(kernel, cfg.scale_set(geom, mode == "continuous"), cfg.p, weight)
    else:
        profile = profile_from_id(cfg.profile, geom.dim)
        ratio_fn = sobolev_equivalence_ratio(
            cfg.order, profile, cfg.scale_set(geom, False), cfg.p, weight
        )

    report = equivalence_experiment(
        family, ratio_fn, operator=cfg.operator, p=cfg.p, weight_label=cfg.weight
    )
    if cfg.operator in ("gfun", "dyadic") and report.min_ratio == 0.0:
        # the symbol passes the scan, but no scale of the set reaches the grid
        # frequencies of some member: G vanishes on it, and no ratio bounds it
        return _degenerate(cfg, {"mode": "grid", "min_value": 0.0, "pass": False})
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


def _seed(text: str) -> int:
    """--seed: a nonnegative integer, as numpy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_scale_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--nodes-per-octave", type=int, default=NODES_PER_OCTAVE)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)


def _kernel_info_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kernel")
    p.add_argument("--out", default=None)


def _symbol_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=("continuous", "dyadic"), default="continuous")
    p.add_argument("--out", required=True, help="CSV path; a .json sidecar is written next to it")
    _add_grid_flags(p)
    _add_scale_flags(p)


def _gfun_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=("continuous", "dyadic"), default="continuous")
    p.add_argument("--input", default=None, help="field file (.csv or binary); default: seeded random band field")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="write the square function as a field CSV")
    _add_grid_flags(p)
    _add_scale_flags(p)


def _config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    _add_grid_flags(p)


def _mar_scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--out", default=None)


def _conditions_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default=None)


# (name, help, the adder of its arguments, handler) of each subcommand, in the order --help lists them
_COMMANDS = (
    ("kernel-info", "static metadata for a kernel id", _kernel_info_args, _cmd_kernel_info),
    ("symbol", "tabulate the square-function symbol", _symbol_args, _cmd_symbol),
    ("gfun", "apply a square function to a field", _gfun_args, _cmd_gfun),
    ("equivalence", "norm-equivalence experiment from a JSON config", _config_args, _cmd_equivalence),
    ("sobolev", "smoothness-norm equivalence from a JSON config", _config_args, _cmd_sobolev),
    ("mar-scan", "scan the scale-shift energy ratio", _mar_scan_args, _cmd_mar_scan),
    ("conditions", "run every kernel condition checker", _conditions_args, _cmd_conditions),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named `command` alone:
    a command line that names its subcommand first parses the same with
    either, and one subcommand's parser takes a quarter of the time to build."""
    parser = argparse.ArgumentParser(
        prog="scalesq",
        description="Square-function and multiplier experiments on periodic grids.",
    )
    # with one subcommand built, the usage still lists all of them, as argparse does
    listed = None if command is None else "{" + ",".join(c[0] for c in _COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name, text, add_arguments, handler in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[0] if argv and argv[0] in {c[0] for c in _COMMANDS} else None
    args = build_parser(named).parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
