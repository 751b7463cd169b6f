import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalesq import (
    Geometry,
    LogTimeGrid,
    SampledField,
    default_geometry,
    haar_kernel,
    kernel_from_id,
    l2_norm,
    load_field_csv,
    mean_subtract,
    random_band_field,
    save_field_binary,
    save_field_csv,
)
from scalesq import cli
from scalesq.cli import main
from scalesq.config import ConfigError, equivalence_config_from_dict
from scalesq.grid import _largest_scale_limit
from scalesq.squarefn import g_function
from oracles import save_symbol_csv_rows

HAAR_SYMBOL = 4.0 * math.log(2.0)

SMALL = {"grid": {"n_samples": 256, "half_length": 16.0}}


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def read_report(path):
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("generated_at")
    return payload


def stdout_json(capsys):
    payload = json.loads(capsys.readouterr().out)
    payload.pop("generated_at")
    return payload


# ---------------------------------------------------------------------------
# config loading

def test_config_defaults():
    cfg = equivalence_config_from_dict({"operator": "gfun", "kernel": "haar"})
    assert cfg.p == 2.0
    assert cfg.weight == "const"
    assert cfg.seed == 0
    assert cfg.spread_bound == 50.0
    assert cfg.profile == "ball"
    assert cfg.grid.n_samples == 4096
    cfg2 = equivalence_config_from_dict({"operator": "sobolev", "order": 0.5, "grid": {"dim": 2}})
    assert cfg2.grid.n_samples == 512
    assert cfg2.grid.half_length == 16.0


@pytest.mark.parametrize("bad", [
    {"operator": "gfun", "kernel": "haar", "unknown_key": 1},
    {"operator": "nope", "kernel": "haar"},
    {"operator": "gfun"},
    {"operator": "sobolev"},
    {"operator": "sobolev", "order": -1.0},
    {"operator": "gfun", "kernel": "haar", "p": 0.5},
    {"operator": "gfun", "kernel": "haar", "seed": True},
    {"operator": "gfun", "kernel": "haar", "spread_bound": 1.0},
    {"operator": "gfun", "kernel": "haar", "time": {"t_min": 0.5}},
    {"operator": "gfun", "kernel": "haar", "time": {"t_min": 2.0, "t_max": 1.0}},
    {"operator": "gfun", "kernel": "haar", "grid": {"n_samples": 7}},
    {"operator": "gfun", "kernel": "haar", "dyadic": {"k_min": 3, "k_max": -3}},
    {"operator": "gfun", "kernel": "haar", "weight": ""},
    {"operator": "gfun", "kernel": "haar", "profile": "cube"},  # read by sobolev alone, echoed by every report
])
def test_config_rejections(bad):
    with pytest.raises(ConfigError):
        equivalence_config_from_dict(bad)


def test_config_resolves_the_sections_it_gives():
    # on 32 points the default time window [4h, L/4] is empty: a config that
    # gives no time section still loads, one that gives it is refused at load
    base = {"operator": "sobolev", "order": 0.5, "grid": {"n_samples": 32}}
    assert equivalence_config_from_dict(base).time == {}
    with pytest.raises(ConfigError, match="config field 'time': need 0 < t_min < t_max"):
        equivalence_config_from_dict(dict(base, time={"nodes_per_octave": 4}))


def test_config_error_names_field():
    with pytest.raises(ConfigError, match="config field 'operator'"):
        equivalence_config_from_dict({"operator": "nope"})


def test_forced_operator_wins():
    cfg = equivalence_config_from_dict(
        {"operator": "gfun", "kernel": "haar", "order": 0.5}, forced_operator="sobolev"
    )
    assert cfg.operator == "sobolev"


# ---------------------------------------------------------------------------
# kernel-info and conditions

def test_kernel_info_stdout(capsys):
    assert main(["kernel-info", "haar"]) == 0
    payload = stdout_json(capsys)
    assert payload["name"] == "haar"
    assert payload["support_radius"] == 1.0
    assert payload["has_spatial"] is True
    assert payload["origin_singularity"] is None
    assert "fourier_mode" not in payload


def test_kernel_info_origin_singularity(capsys):
    assert main(["kernel-info", "riesz-diff:0.5:ball"]) == 0
    assert stdout_json(capsys)["origin_singularity"] == 0.5


def test_kernel_info_unknown_kernel(capsys):
    assert main(["kernel-info", "warble:3"]) == 2
    assert "error" in capsys.readouterr().err


def test_conditions_divergence_report(tmp_path):
    out = str(tmp_path / "cond.json")
    assert main(["conditions", "--kernel", "gm:0.75", "--out", out]) == 0
    payload = read_report(out)
    assert payload["majorant_l1"] == {"value": None, "divergent": True}
    assert payload["nondegeneracy"]["continuous"]["pass"] is True


# ---------------------------------------------------------------------------
# symbol tabulation

SYMBOL_ARGS = [
    "symbol", "--kernel", "haar", "--mode", "continuous",
    "--grid-n", "256", "--grid-l", "16",
    "--t-min", "1e-4", "--t-max", "1e4", "--nodes-per-octave", "32",
]


def test_symbol_csv_and_sidecar(tmp_path, capsys):
    out = str(tmp_path / "sym.csv")
    assert main(SYMBOL_ARGS + ["--out", out]) == 0
    assert "wrote" in capsys.readouterr().out

    data = np.loadtxt(out, delimiter=",", skiprows=2)
    assert data.shape == (256, 3)
    xi, re, im = data.T
    assert np.max(np.abs(im)) < 1e-15
    dc = int(np.argmin(np.abs(xi)))
    assert re[dc] == 0.0
    at_one = int(np.argmin(np.abs(xi - 1.0)))
    assert math.isclose(re[at_one], HAAR_SYMBOL, rel_tol=1e-4)

    side = read_report(out + ".json")
    assert side["mode"] == "continuous"
    assert math.isclose(side["annulus_min_modulus"], HAAR_SYMBOL, rel_tol=1e-4)
    assert side["homogeneity_defect"] < 1e-4


def test_symbol_dyadic_mode(tmp_path):
    out = str(tmp_path / "dsym.csv")
    args = ["symbol", "--kernel", "haar", "--mode", "dyadic",
            "--grid-n", "256", "--grid-l", "16", "--out", out]
    assert main(args) == 0
    side = read_report(out + ".json")
    assert side["mode"] == "dyadic"
    assert side["annulus_min_modulus"] > 0.1


def test_symbol_determinism(tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(SYMBOL_ARGS + ["--out", out_a]) == 0
    assert main(SYMBOL_ARGS + ["--out", out_b]) == 0
    assert open(out_a).read() == open(out_b).read()
    assert read_report(out_a + ".json") == read_report(out_b + ".json")


def test_symbol_evaluates_its_symbol_once(tmp_path, monkeypatch):
    # one sample feeds the CSV and both checks, and the odd gm kernel is
    # evaluated on the N/2 + 1 distinct |xi| of the grid
    kernel, seen = kernel_from_id("gm:0.75"), []

    def fourier(xi):
        seen.append(np.size(xi))
        return kernel.fourier(xi)

    monkeypatch.setattr(cli, "kernel_from_id", lambda kid: dataclasses.replace(kernel, fourier=fourier))
    n = 256
    args = ["symbol", "--kernel", "gm:0.75", "--grid-n", str(n), "--t-min", "0.01", "--t-max", "100",
            "--nodes-per-octave", "8", "--out", str(tmp_path / "sym.csv")]
    assert main(args) == 0
    probes = 49 + 25  # the decay-envelope probes of multiplier._tail_meta
    assert sum(seen) <= (n // 2 + 1) * LogTimeGrid(0.01, 100.0, 8).node_count + probes


def test_symbol_csv_writer_matches_the_row_loop(tmp_path):
    header = "# symbol=test mode=continuous n=8 half_length=4.0\n"
    xi = np.array([-0.5, -0.25, -0.0, 0.0, 1e-320, 0.1, 1e300, 3.0])
    values = np.array([1.0 + 0j, -0.0 - 0.0j, 2.5e-310j, 1.0 / 3.0, 1e300 - 1e-300j, math.nan, -7.0j, 0.1 + 0.2j])
    for vals in (values, values.real):
        cli._save_symbol_csv(str(tmp_path / "joined.csv"), header, xi, vals)
        save_symbol_csv_rows(str(tmp_path / "rows.csv"), header, xi, vals)
        assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("kid,n", [("gm:0.75", 512), ("poisson-q:2", 64)])
def test_symbol_csv_is_the_row_loop_of_its_values(tmp_path, kid, n):
    # repr round-trips a float, so the row loop can rewrite the file from it
    out = tmp_path / "sym.csv"
    assert main(["symbol", "--kernel", kid, "--grid-n", str(n), "--out", str(out)]) == 0
    header, _, *rows = out.read_text().splitlines(keepends=True)
    xi, re, im = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    save_symbol_csv_rows(str(tmp_path / "rows.csv"), header, xi, re + 1j * im)
    assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# gfun

def parse_gfun_line(capsys):
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return {k: float(v) for k, v in (tok.split("=") for tok in line.split())}


def test_gfun_seeded_field(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    args = ["gfun", "--kernel", "haar", "--grid-n", "256", "--grid-l", "16",
            "--t-min", "1e-3", "--t-max", "1e3", "--seed", "2", "--out", out]
    assert main(args) == 0
    vals = parse_gfun_line(capsys)
    assert math.isclose(vals["ratio"], math.sqrt(HAAR_SYMBOL), rel_tol=1e-3)
    g = load_field_csv(out)
    assert g.geometry.n_samples == 256


def test_gfun_input_file(tmp_path, capsys):
    geom = Geometry(1, 256, 16.0)
    f = mean_subtract(random_band_field(geom, seed=9))
    path = str(tmp_path / "field.csv")
    save_field_csv(f, path)
    assert main(["gfun", "--kernel", "haar", "--input", path,
                 "--t-min", "1e-3", "--t-max", "1e3"]) == 0
    vals = parse_gfun_line(capsys)
    assert math.isclose(vals["input_l2"], l2_norm(f), rel_tol=1e-10)


def test_gfun_of_a_huge_field_is_finite(tmp_path, capsys):
    # samples near 1e200 square past the float range; the norms and the square
    # function are taken on the field scaled by a power of two, so they are
    # exactly 2^600 times those of the field scaled down by 2^-600
    rng = np.random.default_rng(5)
    geom = Geometry(1, 64, 8.0)
    big = rng.uniform(0.5, 1.5, 64) * rng.choice((-1.0, 1.0), 64) * 1e200
    fields = [SampledField(geom, big + 0j), SampledField(geom, np.ldexp(big, -600) + 0j)]
    tg, printed = LogTimeGrid(0.5, 2.0), []
    for i, f in enumerate(fields):
        path = str(tmp_path / f"field{i}.bin")
        save_field_binary(f, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gfun", "--kernel", "haar", "--input", path, "--t-min", "0.5", "--t-max", "2"]) == 0
        printed.append(capsys.readouterr().out.split())
    (nf, ng), (sf, sg) = [(l2_norm(f), l2_norm(g_function(f, haar_kernel(), tg))) for f in fields]
    assert math.isfinite(nf) and math.isfinite(ng)
    assert nf == math.ldexp(sf, 600) and ng == math.ldexp(sg, 600)
    assert printed[0] == [f"input_l2={nf:.12g}", f"gfun_l2={ng:.12g}", printed[1][2]]
    g_big, g_small = (g_function(f, haar_kernel(), tg).values for f in fields)
    assert np.array_equal(g_big, np.ldexp(g_small.real, 600))


def test_gfun_missing_input_file(capsys):
    assert main(["gfun", "--kernel", "haar", "--input", "/nonexistent/f.csv"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# equivalence and sobolev experiments

def test_equivalence_pass(tmp_path, capsys):
    cfg = write_config(
        tmp_path, operator="gfun", kernel="haar",
        time={"t_min": 1e-3, "t_max": 1e3, "nodes_per_octave": 8}, **SMALL,
    )
    out = str(tmp_path / "rep.json")
    assert main(["equivalence", "--config", cfg, "--out", out]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = read_report(out)
    assert payload["pass"] is True
    assert payload["members"] == 20
    assert payload["grid"]["n_samples"] == 256


def test_equivalence_fail_exit_code(tmp_path, capsys):
    # a one-octave scale window cannot see the low-frequency members, so the
    # ratios disperse far beyond a tight bound
    cfg = write_config(
        tmp_path, operator="gfun", kernel="haar", spread_bound=2.0,
        time={"t_min": 0.5, "t_max": 2.0, "nodes_per_octave": 8}, **SMALL,
    )
    assert main(["equivalence", "--config", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_equivalence_degenerate_kernel(tmp_path, capsys):
    cfg = write_config(tmp_path, operator="dyadic", kernel="band:1.5:1.6", **SMALL)
    out = str(tmp_path / "rep.json")
    assert main(["equivalence", "--config", cfg, "--out", out]) == 1
    assert "nondegeneracy" in capsys.readouterr().err
    payload = read_report(out)
    assert payload["error"] == "nondegeneracy check failed"
    assert payload["nondegeneracy"]["pass"] is False


def test_equivalence_scale_set_missing_the_grid(tmp_path, capsys):
    # band:1:1.5 passes the symbol scan, but for 1 <= t <= 2 it reaches only
    # 0.5 <= |xi| <= 1.5, above every frequency of an 8-point default grid
    cfg = write_config(
        tmp_path, operator="gfun", kernel="band:1:1.5", grid={"n_samples": 8},
        time={"t_min": 1.0, "t_max": 2.0},
    )
    out = str(tmp_path / "rep.json")
    assert main(["equivalence", "--config", cfg, "--out", out]) == 1
    assert "nondegeneracy" in capsys.readouterr().err
    payload = read_report(out)
    assert payload["error"] == "nondegeneracy check failed"
    assert payload["nondegeneracy"] == {"mode": "grid", "min_value": 0.0, "pass": False}
    assert "spread" not in payload


def test_equivalence_rejects_sobolev_operator(tmp_path, capsys):
    cfg = write_config(tmp_path, operator="sobolev", order=0.5, **SMALL)
    assert main(["equivalence", "--config", cfg]) == 2
    assert "sobolev" in capsys.readouterr().err


def test_equivalence_config_errors(tmp_path, capsys):
    assert main(["equivalence", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["equivalence", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path, operator="gfun", kernel="warble:3", **SMALL)
    assert main(["equivalence", "--config", cfg]) == 2
    capsys.readouterr()


def test_equivalence_seed_override(tmp_path):
    cfg = write_config(
        tmp_path, operator="gfun", kernel="haar",
        time={"t_min": 1e-2, "t_max": 1e2, "nodes_per_octave": 8}, **SMALL,
    )
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    main(["equivalence", "--config", cfg, "--out", out_a])
    main(["equivalence", "--config", cfg, "--seed", "5", "--out", out_b])
    a, b = read_report(out_a), read_report(out_b)
    assert a["seed"] == 0 and b["seed"] == 5
    assert a["ratios"] != b["ratios"]


def test_equivalence_determinism(tmp_path):
    cfg = write_config(
        tmp_path, operator="gfun", kernel="haar",
        time={"t_min": 1e-2, "t_max": 1e2, "nodes_per_octave": 8}, **SMALL,
    )
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    main(["equivalence", "--config", cfg, "--out", out_a])
    main(["equivalence", "--config", cfg, "--out", out_b])
    assert read_report(out_a) == read_report(out_b)


def test_sobolev_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path, order=0.5, dyadic={"k_min": -3, "k_max": 3}, **SMALL,
    )
    out = str(tmp_path / "rep.json")
    assert main(["sobolev", "--config", cfg, "--out", out]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = read_report(out)
    assert payload["operator"] == "sobolev"
    assert payload["order"] == 0.5


# ---------------------------------------------------------------------------
# mar-scan

def test_mar_scan_cli(tmp_path, capsys):
    out = str(tmp_path / "scan.json")
    assert main(["mar-scan", "--alpha", "1.0", "--no-refine", "--out", out]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = read_report(out)
    assert math.isclose(payload["max_ratio"], 14.0 / 9.0, rel_tol=1e-9)
    assert payload["refinement_delta"] is None  # nan: no refinement pass


def test_mar_scan_bad_alpha(capsys):
    assert main(["mar-scan", "--alpha", "0.2"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_commands_never_load_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the package and one command
    # of each kind the benchmark runs, at toy grids, leaves scipy unloaded.  The
    # probe runs in a fresh interpreter, since this one has loaded scipy already.
    sobolev_2d = tmp_path / "sobolev2d.json"
    sobolev_2d.write_text(json.dumps({"operator": "sobolev", "order": 0.5, "profile": "ball", "p": 2,
                                      "seed": 1, "grid": {"dim": 2, "n_samples": 64, "half_length": 16.0}}))
    sobolev_1d = tmp_path / "sobolev1d.json"
    sobolev_1d.write_text(json.dumps({"operator": "sobolev", "order": 0.5, "profile": "ball", "p": 2,
                                      "seed": 1, "grid": {"dim": 1, "n_samples": 256, "half_length": 16.0}}))
    equivalence = tmp_path / "equivalence.json"
    equivalence.write_text(json.dumps({"operator": "dyadic", "kernel": "riesz-diff:0.5:ball", "p": 3,
                                       "weight": "pow:0.3", "seed": 1,
                                       "grid": {"dim": 1, "n_samples": 256, "half_length": 16.0}}))
    probe = (
        "import contextlib, io, sys\n"
        "import scalesq\n"
        "assert 'scipy' not in sys.modules\n"
        "from scalesq import Geometry, cli, duality_residual, gaussian_field, kernel_from_id, save_field_binary\n"
        "field = gaussian_field(Geometry(2, 64, 16.0), width=1.5)\n"
        "save_field_binary(field, 'field.bin')\n"
        "runs = [['equivalence', '--config', 'equivalence.json'],\n"
        "        ['sobolev', '--config', 'sobolev1d.json'],\n"
        "        ['sobolev', '--config', 'sobolev2d.json'],\n"
        "        ['gfun', '--kernel', 'poisson-q:2', '--input', 'field.bin', '--out', 'g.csv'],\n"
        "        ['gfun', '--kernel', 'gm:0.75', '--grid-n', '256'],\n"
        "        ['symbol', '--kernel', 'gm:0.75', '--grid-n', '256', '--out', 'sym.csv'],\n"
        "        ['conditions', '--kernel', 'gm:0.75'],\n"
        "        ['conditions', '--kernel', 'riesz-diff:0.5:ball'],\n"
        "        ['mar-scan', '--alpha', '0.75', '--no-refine']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs]\n"
        "residual = duality_residual(field, kernel_from_id('poisson-q:2'), 0.25)\n"
        "print(codes, residual < 1e-10, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 0, 0, 0, 0] True []"


# ---------------------------------------------------------------------------
# argparse-level usage errors

def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["symbol", "--kernel", "haar"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gfun", "--kernel", "haar", "--mode", "sideways"])
    assert exc.value.code == 2


COMMANDS = ("kernel-info", "symbol", "gfun", "equivalence", "sobolev", "mar-scan", "conditions")


def subparser(parser, command: str):
    """The parser of one subcommand within a `cli.build_parser` parser."""
    [sub] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subcommand_parser_says_what_the_full_parser_says(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full, alone = cli.build_parser(), cli.build_parser(command)
    assert full.format_usage() == alone.format_usage()
    assert subparser(full, command).format_usage() == subparser(alone, command).format_usage()
    assert subparser(full, command).format_help() == subparser(alone, command).format_help()
    assert list(subparser(alone, command)._defaults.items()) == list(subparser(full, command)._defaults.items())


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--help-me"]])
def test_a_missing_or_unknown_command_lists_them_all(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(command in err for command in COMMANDS), err
    if argv == ["bogus"]:
        assert "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("command", ["gfun", "equivalence", "sobolev"])
def test_negative_seed_names_its_flag(tmp_path, capsys, command):
    if command == "gfun":
        argv = ["gfun", "--kernel", "haar", "--grid-n", "64"]
    else:
        fields = {"operator": "gfun", "kernel": "haar"} if command == "equivalence" else {"order": 0.5}
        argv = [command, "--config", write_config(tmp_path, **fields, **SMALL)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a nonnegative integer" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the input boundary: bad numbers and bad field files exit 2 with a named
# field or path, never with a traceback

def assert_usage_error(argv, capsys, named: str):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("command,fields,named", [
    ("equivalence", {"operator": "gfun", "kernel": "haar", "p": math.inf}, "'p'"),
    ("equivalence", {"operator": "gfun", "kernel": "haar", "p": math.nan}, "'p'"),
    ("sobolev", {"order": 0.5, "grid": {"half_length": math.inf}}, "'grid.half_length'"),
    ("sobolev", {"order": 0.5, "spread_bound": 10**400}, "'spread_bound'"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, fields, named):
    cfg = write_config(tmp_path, **fields)
    assert_usage_error([command, "--config", cfg], capsys, named)


@pytest.mark.parametrize("command,fields", [
    ("equivalence", {"operator": "gfun", "kernel": "haar"}),
    ("sobolev", {"order": 0.5}),
])
@pytest.mark.parametrize("weight", ["pow:-1.5", "pow:3"])
def test_weight_outside_ap_exits_2(tmp_path, capsys, command, fields, weight):
    # |x|^A lies in A_2 on the line iff -1 < A < 1: pow:-1.5 is not even
    # locally integrable, and pow:3 fails A_2, so a PASS would say nothing
    cfg = write_config(tmp_path, p=2, weight=weight, **fields, **SMALL)
    out = str(tmp_path / "rep.json")
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'weight'") and "Traceback" not in err
    assert weight in err and "-1 < A < 1" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,config,named", [
    pytest.param(["gfun", "--kernel", "haar", "--grid-n", "64", "--t-min", "1e-300", "--t-max", "1e300"],
                 None, "t_max/t_min must be finite", id="gfun-time"),
    pytest.param(["symbol", "--kernel", "gm:1e-15"], None, "gm order must lie in [2^-10, 1024]", id="symbol-gm"),
    pytest.param(["conditions", "--kernel", "gm:1e-17"], None, "gm order must lie in [2^-10, 1024]",
                 id="conditions-gm"),
    pytest.param(["equivalence"], {"operator": "gfun", "kernel": "haar", "time": {"t_min": 1e-300, "t_max": 1e300}},
                 "'time'", id="equivalence-time"),
    pytest.param(["equivalence"], {"operator": "dyadic", "kernel": "haar", "dyadic": {"k_min": 5000, "k_max": 5001}},
                 "'dyadic'", id="equivalence-dyadic"),
    pytest.param(["sobolev"], {"order": 0.5, "dyadic": {"k_min": -3000}}, "'dyadic'", id="sobolev-dyadic"),
    # scales whose t |xi| on the grid would overflow the kernel transforms to inf and NaN
    pytest.param(["gfun", "--kernel", "haar", "--grid-n", "64", "--mode", "dyadic", "--k-min", "1000",
                  "--k-max", "1023"], None, "k_max = 1023", id="gfun-haar-k_max"),
    pytest.param(["gfun", "--kernel", "poisson-q", "--grid-n", "64", "--mode", "dyadic", "--k-min", "1000",
                  "--k-max", "1023"], None, "k_max = 1023", id="gfun-poisson-q-k_max"),
    pytest.param(["gfun", "--kernel", "haar", "--grid-n", "64", "--t-min", "1e300", "--t-max", "1e305"],
                 None, "t_max = 1e+305", id="gfun-haar-t_max"),
    pytest.param(["gfun", "--kernel", "poisson-q", "--grid-n", "64", "--t-min", "1e300", "--t-max", "1e305"],
                 None, "t_max = 1e+305", id="gfun-poisson-q-t_max"),
    # 2 pi t |xi| is finite here, but not its square, which the radial kernels form
    pytest.param(["gfun", "--kernel", "poisson-q:2", "--grid-n", "64", "--mode", "dyadic", "--k-min", "590",
                  "--k-max", "600"], None, "k_max = 600", id="gfun-poisson-q:2-square"),
    # 2^-1000 is a double, but its weight 2^2000 under order 1 is not
    pytest.param(["sobolev"], {"order": 1.0, "dyadic": {"k_min": -1000}}, "order 1: the scale weight",
                 id="sobolev-order"),
])
def test_overflowing_scales_and_tiny_gm_orders_exit_2(tmp_path, capsys, argv, config, named):
    # a scale, a scale weight or a kernel order that overflows or underflows
    # the doubles is a usage error, not a report of inf or NaN values
    if argv[0] == "symbol":
        argv = argv + ["--out", str(tmp_path / "sym.csv")]
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, **config, **SMALL)]
    assert_usage_error(argv, capsys, named)


@pytest.mark.parametrize("config", [
    pytest.param({"operator": "sobolev", "order": 1e300}, id="order-1e300"),
    pytest.param({"order": 400, "grid": {"dim": 2, "n_samples": 64}}, id="order-400-2d"),
])
def test_sobolev_order_past_the_profile_exits_2(tmp_path, capsys, monkeypatch, config):
    # the moment check stops at the ball's second moments; the counter on the
    # degrees it takes stands in for the memory a loop to floor(order) would take
    from scalesq import kernels

    degree_tuples, calls = kernels._degree_tuples, []

    def counted(dim, degree):
        calls.append(degree)
        if len(calls) > 100:
            raise RuntimeError(f"moments of degree {degree} asked for")
        return degree_tuples(dim, degree)

    monkeypatch.setattr(kernels, "_degree_tuples", counted)
    out = str(tmp_path / "rep.json")
    assert_usage_error(["sobolev", "--config", write_config(tmp_path, **config), "--out", out], capsys,
                       "moment conditions")
    assert not os.path.exists(out)


def test_symbol_on_a_grid_short_of_the_annulus_writes_nothing(tmp_path, capsys):
    # the 64-point 1-D grid at L = 32 reaches |xi| = N/(4L) = 0.5 alone, so
    # the sidecar has no annulus 1 <= |xi| <= 2 to read: refused before the CSV
    out = tmp_path / "sym.csv"
    assert_usage_error(["symbol", "--kernel", "haar", "--grid-n", "64", "--out", str(out)], capsys, "--grid-n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kernel", ["haar", "poisson-q", "poisson-q:2"])
def test_largest_scales_allowed_run_clean(capsys, kernel):
    # the bound is tight: at the largest k_max it allows, the transforms stay
    # finite (a RuntimeWarning fails the test), one more is refused
    dim = 2 if kernel.endswith(":2") else 1
    geom = Geometry(dim, 64, default_geometry(dim).half_length)
    limit = math.floor(math.log2(_largest_scale_limit(geom)))
    argv = ["gfun", "--kernel", kernel, "--grid-n", "64", "--mode", "dyadic", "--k-min", str(limit - 8)]
    assert main(argv + ["--k-max", str(limit)]) == 0
    out = capsys.readouterr().out
    assert "ratio=" in out and "nan" not in out and "inf" not in out
    assert_usage_error(argv + ["--k-max", str(limit + 1)], capsys, f"need k_max <= {limit}")


# one bad value per grid or scale parameter, as flags (with the message that
# names the parameter) and as the config keys of the same parameter
BAD_GRID_AND_SCALE_VALUES = [
    pytest.param(["--grid-n", "7"], {"grid": {"n_samples": 7}}, "n_samples", id="n_samples"),
    pytest.param(["--grid-l", "-1"], {"grid": {"half_length": -1}}, "half_length", id="half_length"),
    pytest.param(["--nodes-per-octave", "0"], {"time": {"nodes_per_octave": 0}}, "nodes_per_octave",
                 id="nodes_per_octave-0"),
    pytest.param(["--nodes-per-octave", "1000000000"], {"time": {"nodes_per_octave": 10**9}},
                 "nodes_per_octave = 1000000000", id="nodes_per_octave-1e9"),
    pytest.param(["--t-min", "2", "--t-max", "1"], {"time": {"t_min": 2, "t_max": 1}}, "0 < t_min < t_max",
                 id="t-window"),
    pytest.param(["--t-min", "0.5"], {"time": {"t_min": 0.5}}, "t_min and t_max must be given together",
                 id="t_min-alone"),
    pytest.param(["--mode", "dyadic", "--k-min", "3", "--k-max", "-3"], {"dyadic": {"k_min": 3, "k_max": -3}},
                 "need k_min <= k_max", id="k-range"),
]


def assert_flag_error(argv, capsys, named: str):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "config field" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["gfun", "symbol"])
@pytest.mark.parametrize("flags,keys,named", BAD_GRID_AND_SCALE_VALUES)
def test_bad_grid_and_scale_flags_name_the_parameter(tmp_path, capsys, command, flags, keys, named):
    # no config file was given, so the error names the parameter, not a config field
    argv = [command, "--kernel", "haar"] + flags
    if command == "symbol":
        argv += ["--out", str(tmp_path / "sym.csv")]
    assert_flag_error(argv, capsys, named)


@pytest.mark.parametrize("command,fields", [
    ("equivalence", {"operator": "gfun", "kernel": "haar"}),
    ("sobolev", {"order": 0.5}),
])
def test_bad_grid_flag_on_a_config_command_names_the_parameter(tmp_path, capsys, command, fields):
    cfg = write_config(tmp_path, **fields, **SMALL)
    assert_flag_error([command, "--config", cfg, "--grid-n", "7"], capsys, "n_samples")


@pytest.mark.parametrize("flags,keys,named", BAD_GRID_AND_SCALE_VALUES)
def test_bad_grid_and_scale_keys_name_the_section(tmp_path, capsys, flags, keys, named):
    operator = "dyadic" if "dyadic" in keys else "gfun"
    cfg = write_config(tmp_path, operator=operator, kernel="haar", **keys)
    assert main(["equivalence", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{next(iter(keys))}': ") and named in err


def test_empty_profile_exits_2(tmp_path, capsys):
    # an empty id names no profile; it is not read as the ball
    cfg = write_config(tmp_path, order=0.5, profile="", **SMALL)
    assert_usage_error(["sobolev", "--config", cfg], capsys, "unknown averaging profile id ''")


def test_ap_range_follows_dimension_and_exponent():
    base = {"operator": "gfun", "kernel": "poisson-q:2", "grid": {"dim": 2}}
    assert equivalence_config_from_dict(dict(base, weight="pow:1.5", p=2)).weight == "pow:1.5"
    assert equivalence_config_from_dict(dict(base, weight="pow:-1.5", p=1)).weight == "pow:-1.5"
    for weight, p in (("pow:2", 2), ("pow:-2", 3), ("pow:0.3", 1), ("pow:nan", 2)):
        with pytest.raises(ConfigError, match="'weight'"):
            equivalence_config_from_dict(dict(base, weight=weight, p=p))


def small_field_files(tmp_path):
    f = mean_subtract(random_band_field(Geometry(1, 16, 4.0), seed=1))
    csv, binary = str(tmp_path / "f.csv"), str(tmp_path / "f.bin")
    save_field_csv(f, csv)
    save_field_binary(f, binary)
    return csv, binary


def test_truncated_binary_field_exits_2(tmp_path, capsys):
    _, binary = small_field_files(tmp_path)
    with open(binary, "rb") as fh:
        head = fh.read(20)
    with open(binary, "wb") as fh:
        fh.write(head)
    assert_usage_error(["gfun", "--kernel", "haar", "--input", binary], capsys, binary)


def test_non_finite_binary_sample_exits_2(tmp_path, capsys):
    _, binary = small_field_files(tmp_path)
    with open(binary, "r+b") as fh:
        fh.seek(28 + 8 * 5)
        fh.write(struct.pack("<d", math.nan))
    assert_usage_error(["gfun", "--kernel", "haar", "--input", binary], capsys, binary)


def edit_csv_rows(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:2] + edit(lines[2:])) + "\n")


@pytest.mark.parametrize("case,edit", [
    ("out of range", lambda rows: rows[:-1] + ["16,0.5,0.0"]),
    ("duplicated", lambda rows: rows[:-1] + [rows[0]]),
    ("missing", lambda rows: rows[:-1]),
    ("non-finite", lambda rows: ["0,nan,0.0"] + rows[1:]),
])
def test_bad_csv_field_exits_2(tmp_path, capsys, case, edit):
    csv, _ = small_field_files(tmp_path)
    edit_csv_rows(csv, edit)
    assert_usage_error(["gfun", "--kernel", "haar", "--input", csv], capsys, csv)


def test_empty_csv_field_exits_2_without_warning(tmp_path, capsys):
    csv, _ = small_field_files(tmp_path)
    edit_csv_rows(csv, lambda rows: [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gfun", "--kernel", "haar", "--input", csv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {csv}: expected rows of index,re,im"]


@pytest.mark.parametrize("kind", ["binary", "csv"])
def test_oversized_field_file_is_refused_after_one_grid(tmp_path, capsys, kind):
    # a 64^2 field file far longer than its header's grid: a 200 MiB binary
    # payload (a sparse file, nothing written) or 2 000 000 CSV rows.  The
    # loaders read one grid's worth and one item more, then refuse; read
    # whole they took 400 MiB and 65 MiB before refusing
    if kind == "binary":
        path = tmp_path / "f.bin"
        with open(path, "wb") as fh:
            fh.write(b"SFLD" + struct.pack("<qqd", 2, 64, 16.0))
            fh.truncate(28 + 200 * 2**20)
        want = "expected 8192 floats, found more"
    else:
        path = tmp_path / "f.csv"
        path.write_text("# dim=2 n=64 half_length=16.0\nindex,re,im\n" + "0,0.0,0.0\n" * 2_000_000)
        want = "expected 4096 rows, found more"
    tracemalloc.start()
    try:
        code = main(["gfun", "--kernel", "poisson-q:2", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {want}"]
    assert peak < 2**20


def test_gfun_of_a_real_binary_field_peaks_at_a_few_fields(tmp_path, capsys):
    # a real 256^2 field stays real from the file to the CSV: 9.4 real
    # fields' bytes (12.8 when it was read as complex and every chunk of
    # layers took fresh buffers)
    geom = Geometry(2, 256, 16.0)
    f = mean_subtract(SampledField(geom, random_band_field(geom, seed=7).values.real))
    path, out = str(tmp_path / "f.bin"), str(tmp_path / "g.csv")
    save_field_binary(f, path)
    tracemalloc.start()
    try:
        code = main(["gfun", "--kernel", "poisson-q:2", "--input", path, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "ratio=" in capsys.readouterr().out
    assert peak < 10.5 * (8 * 256 * 256), f"peak {peak / 2**20:.2f} MiB"


def test_huge_exponent_gives_finite_spread(tmp_path):
    cfg = write_config(tmp_path, operator="gfun", kernel="haar", p=1e308, weight="pow:0.3", **SMALL)
    out = str(tmp_path / "report.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equivalence", "--config", cfg, "--out", out]) in (0, 1)
    assert math.isfinite(read_report(out)["spread"])


@pytest.mark.parametrize("source", ["flag", "config", "binary header", "csv header"])
def test_grid_above_the_memory_budget_is_refused_before_allocating(tmp_path, capsys, source):
    # one complex field of 8192^2 (or 2^20 squared) points is 1 GiB (or 16 TiB)
    if source == "flag":
        argv = ["gfun", "--kernel", "poisson-q:2", "--grid-n", "8192"]
    elif source == "config":
        argv = ["sobolev", "--config", write_config(tmp_path, order=0.5, grid={"dim": 2, "n_samples": 8192})]
    elif source == "binary header":
        path = tmp_path / "f.bin"
        path.write_bytes(b"SFLD" + struct.pack("<qqd", 2, 8192, 16.0) + bytes(32))
        argv = ["gfun", "--kernel", "poisson-q:2", "--input", str(path)]
    else:
        path = tmp_path / "f.csv"
        path.write_text(f"# dim=2 n={2**20} half_length=16.0\nindex,re,im\n0,1.0,0.0\n")
        argv = ["gfun", "--kernel", "poisson-q:2", "--input", str(path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    assert "grid.n_samples" in err and "budget" in err
    if source.endswith("header"):
        assert str(path) in err
    assert peak < 2**20


# ---------------------------------------------------------------------------
# random config dicts: a report or a named error, never a traceback

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(0, 3), max_size=2),
)


def mostly(values):
    """Values from the strategy, and one time in twelve anything JSON can hold."""
    return st.integers(0, 11).flatmap(lambda i: JUNK if i == 7 else values)


def with_stray_key(configs):
    """One config in twelve gains a field the loader does not know."""
    return st.tuples(configs, st.integers(0, 11)).map(lambda c: dict(c[0], extra=1) if c[1] == 7 else c[0])


RANDOM_CONFIGS = with_stray_key(st.fixed_dictionaries(
    {
        "operator": mostly(st.sampled_from(["gfun", "gfun", "dyadic", "dyadic", "sobolev"])),
        "kernel": mostly(st.sampled_from([
            "haar", "gm:0.75", "poisson-q", "poisson-q:2", "riesz-diff:0.5:ball",
            "riesz-diff:1.5:ball:2", "riesz-diff:3:ball", "sgn-diff:ball", "band:1:1.5",
            "band:1:3", "gm:-1", "nope",
        ])),
        "order": mostly(st.floats(0.05, 2.5)),
        # at most 64 points per axis: a missing n_samples would mean the 4096 default
        "grid": st.fixed_dictionaries(
            {"n_samples": mostly(st.sampled_from([8, 16, 32, 64, 3]))},
            optional={"dim": mostly(st.sampled_from([1, 2, 2, 3])), "half_length": mostly(st.floats(0.25, 40.0))},
        ),
    },
    optional={
        "profile": mostly(st.sampled_from(["ball", "ball", "cube"])),
        "p": mostly(st.floats(0.75, 6.0)),
        "weight": mostly(st.sampled_from(["const", "pow:0.3", "pow:-0.5", "pow:1.5", "pow:x"])),
        "seed": mostly(st.integers(-1, 5)),
        "spread_bound": mostly(st.one_of(st.sampled_from([1.01, 1.5, 3.0]), st.floats(0.5, 100.0))),
        "time": st.one_of(
            st.fixed_dictionaries({"t_min": mostly(st.floats(1e-3, 2.0)), "t_max": mostly(st.floats(0.5, 50.0))}),
            # a window whose ratio t_max/t_min overflows
            st.fixed_dictionaries({"t_min": st.sampled_from([1e-300, 1e-9]), "t_max": st.sampled_from([1e300, 1e306])}),
            st.fixed_dictionaries({}, optional={"nodes_per_octave": mostly(st.integers(0, 8))}),
        ),
        "dyadic": st.fixed_dictionaries({}, optional={
            "k_min": mostly(st.one_of(st.integers(-10, 4), st.sampled_from([-5000, -1075, 5000]))),
            "k_max": mostly(st.one_of(st.integers(-4, 10), st.sampled_from([-5000, 1024, 5000]))),
        }),
    },
))


@given(command=st.sampled_from(["equivalence", "sobolev"]), cfg=RANDOM_CONFIGS)
@example(command="equivalence", cfg={
    "operator": "gfun", "kernel": "band:1:1.5", "order": 1.0,
    "grid": {"n_samples": 8}, "time": {"t_min": 1.0, "t_max": 2.0},
})
@settings(max_examples=40)
def test_random_configs_end_in_a_report_or_a_named_error(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "report.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            return
        report = read_report(out)
        if "error" in report:
            # an experiment refused by its non-degeneracy gate fails without ratios
            assert code == 1 and report["error"] == "nondegeneracy check failed"
            return
        assert isinstance(report["spread"], float) and math.isfinite(report["spread"])


# ---------------------------------------------------------------------------
# random field files through gfun --input: a result or an error naming the file

# about half the files are a field on a grid that gfun runs on; the rest draw
# each header entry apart.  2^23 in 1-D, 8192 and 2^40 in 2-D are above the memory
# budget and must be refused from the header alone.
HEADER_DIMS = st.sampled_from([1, 2, 0, 3, -1])
HEADER_NS = st.sampled_from([64, 64, 8, 32, 7, 0, -8, 2**23, 8192, 2**40])
HEADER_LS = st.one_of(st.sampled_from([1.0, 4.0, 16.0, 1e-300, 5e-324, 1e300]),
                      st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def headers(draw) -> tuple:
    if draw(st.booleans()):
        return draw(st.sampled_from([1, 2])), 64, draw(st.sampled_from([1.0, 4.0, 16.0])), True
    return draw(HEADER_DIMS), draw(HEADER_NS), draw(HEADER_LS), False


@st.composite
def field_payloads(draw, dim, n, exact: bool) -> bytes:
    """The header's count of float64s, or one off it, or 16 when the
    header names no grid: noise, or raw random bytes (any exponent, NaN or
    inf now and then)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = 2 * n**dim if dim in (1, 2) and 0 < n <= 64 else 16
    if not exact:
        count = max(0, count + draw(st.sampled_from([0, -1, 1])))
    if draw(st.booleans()):
        return rng.standard_normal(count).astype("<f8").tobytes()
    return rng.bytes(8 * count)


@st.composite
def binary_field_files(draw) -> bytes:
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=64))
    dim, n, L, exact = draw(headers())
    magic = b"SFLD" if exact else draw(st.sampled_from([b"SFLD"] * 5 + [b"SFLX"]))
    return magic + struct.pack("<qqd", dim, n, L) + draw(field_payloads(dim, n, exact))


@st.composite
def csv_field_files(draw) -> bytes:
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=64))
    dim, n, L, exact = draw(headers())
    header = f"# dim={dim} n={n} half_length={L!r}"
    if not exact:
        header = draw(st.sampled_from([header, header, f"# dim={dim} n={n}", "# junk", "index"]))
    values = np.frombuffer(draw(field_payloads(dim, n, exact)), dtype="<f8")
    rows = [f"{i},{float(values[2 * i])!r},{float(values[2 * i + 1])!r}" for i in range(values.size // 2)]
    if rows and not exact and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(["", "1,2", "x,y,z", "0,1.0,0.0", "-1,0,0", "1e9,0,0"]))
    return "\n".join([header, "index,re,im"] + rows).encode() + b"\n"


@given(kind=st.sampled_from(["bin", "csv"]), data=st.data(), kernel=st.sampled_from(["haar", "poisson-q:2"]))
@settings(max_examples=80, deadline=None)
def test_random_field_files_end_in_a_result_or_an_error_naming_the_file(kind, data, kernel):
    content = data.draw(binary_field_files() if kind == "bin" else csv_field_files())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"field.{kind}")
        with open(path, "wb") as fh:
            fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["gfun", "--kernel", kernel, "--input", path])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(f"error: {path}")
