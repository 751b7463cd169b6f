import contextlib
import dataclasses
import io
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesq import (
    Geometry,
    LogTimeGrid,
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
    assert cfg.grid.geometry().n_samples == 4096
    cfg2 = equivalence_config_from_dict({"operator": "sobolev", "order": 0.5, "grid": {"dim": 2}})
    assert cfg2.grid.geometry().n_samples == 512
    assert cfg2.grid.geometry().half_length == 16.0


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
])
def test_config_rejections(bad):
    with pytest.raises(ConfigError):
        equivalence_config_from_dict(bad)


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


def test_huge_exponent_gives_finite_spread(tmp_path):
    cfg = write_config(tmp_path, operator="gfun", kernel="haar", p=1e308, weight="pow:0.3", **SMALL)
    out = str(tmp_path / "report.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equivalence", "--config", cfg, "--out", out]) in (0, 1)
    assert math.isfinite(read_report(out)["spread"])


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
            st.fixed_dictionaries({}, optional={"nodes_per_octave": mostly(st.integers(0, 8))}),
        ),
        "dyadic": st.fixed_dictionaries({}, optional={
            "k_min": mostly(st.integers(-10, 4)),
            "k_max": mostly(st.integers(-4, 10)),
        }),
    },
))


@given(command=st.sampled_from(["equivalence", "sobolev"]), cfg=RANDOM_CONFIGS)
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
