"""Command line interface: subcommands, exit codes, deterministic artifacts."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cselab.cli import _QUAD_OPTS, main
from cselab.quadrature import QuadratureConfig
from cselab.reports import SWEEP_CSV_HEADER, render_json, to_jsonable


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExponentCommand:
    def test_cusp_holds(self, capsys):
        code, out, _ = run_cli(["exponent", "--f", "y^2-x^3", "--t", "1e-4"],
                               capsys)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "holds"
        assert data["central"]["min"] == {"num": 1, "den": 3}
        zeros = data["rows"][0]["zeros"]
        assert len(zeros) == 5
        assert all(z["exponent"] == {"num": 1, "den": 1} for z in zeros)

    def test_radial_violation_is_expected_exit_zero(self, capsys):
        code, out, _ = run_cli(
            ["exponent", "--f", "x + y - 2*abs(x*y)^(1/2)", "--t", "1/100"],
            capsys)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "violated"
        assert data["holomorphic"] is False

    def test_radial_violation_with_default_t(self, capsys):
        # the default t are squares, so the radial term has an exact sqrt(t)
        code, out, _ = run_cli(
            ["exponent", "--f", "x + y - 2*abs(x*y)^(1/2)"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "violated"
        assert [row["t"] for row in data["rows"]] == [
            "1/100", "1/10000", "1/1000000", "1/100000000"]

    def test_radial_term_without_exact_sqrt_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["exponent", "--f", "x + y - 2*abs(x*y)^(1/2)", "--t", "1/1000"],
            capsys)
        assert code == 1 and out == ""
        assert "exact square root of t = 1/1000" in err

    def test_non_square_t_error_names_no_s(self, capsys):
        # s = sqrt(t) is computed, never passed: no option takes it
        code, out, err = run_cli(
            ["exponent", "--f", "x+y-2*abs(x*y)^(1/2)", "--t", "1/2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exact square root of t = 1/2" in err
        assert "pass s" not in err and "s^2" not in err

    def test_bad_expression_usage_error(self, capsys):
        code, _, err = run_cli(["exponent", "--f", "x + + y"], capsys)
        assert code == 1
        assert "error" in err


class TestLctCommand:
    def test_all_builtin_entries_agree(self, capsys):
        code, out, _ = run_cli(["lct"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all(e["agree"] for e in data["entries"])
        names = {e["name"] for e in data["entries"]}
        assert {"smooth", "cusp", "tacnode", "node", "x^2+y^3"} <= names

    def test_unknown_entry(self, capsys):
        code, _, err = run_cli(["lct", "--name", "nope"], capsys)
        assert code == 1

    def test_catalog_file(self, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([
            {"name": "ord-7", "divisors": [{"k": 0, "a": 7, "through": True}],
             "log_resolution": True},
        ]))
        code, out, _ = run_cli(["lct", "--catalog", str(path), "--name", "ord-7"],
                               capsys)
        assert code == 0
        data = json.loads(out)
        assert data["entries"][0]["resolution_value"] == {"num": 1, "den": 7}

    @pytest.mark.parametrize("content", [
        [{"name": "a"}],
        {"a": 1},
        [{"name": "a", "divisors": [{"k": None, "a": 1}]}],
        [{"name": "a", "divisors": [{"k": 1.5, "a": 1}]}],
        [{"name": "a", "divisors": [{"k": 0, "a": True}]}],
        [{"name": "a", "divisors": [{"k": 0, "a": 1, "through": "false"}]}],
        [{"name": "a", "divisors": [{"k": 0, "a": 1}], "log_resolution": "no"}],
        [{"name": 7, "divisors": [{"k": 0, "a": 1}]}],
        [{"name": "a", "divisors": [{"k": 0, "a": 1}], "curve": 3}],
    ])
    def test_malformed_catalog_is_one_error_line(self, content, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(["lct", "--catalog", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [b'[{"name": "a", "divisors": }]', b"\xff[]"])
    def test_a_catalog_that_is_not_json_names_the_file(self, content, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_bytes(content)
        code, out, err = run_cli(["lct", "--catalog", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: catalog {path}: not JSON (") and err.count("\n") == 1


class TestPolygonCommand:
    def test_dump(self, capsys):
        code, out, _ = run_cli(["polygon", "--f", "x*y + x^3 + y^3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == [[0, 3], [1, 1], [3, 0]]
        assert data["single_segment"] is False
        assert data["endpoints"] == {"k": 3, "l": 3}


class TestSweepCommand:
    ARGS = ["sweep", "--f", "x+y", "--c", "0.5", "--R", "1",
            "--t-count", "3", "--angular-cells", "16", "--radial-cells", "6"]

    def test_csv_header_and_exit(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == SWEEP_CSV_HEADER
        assert len(out.splitlines()) == 4

    def test_json_format(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        data = json.loads(out)
        assert data["verdict"] == "converged"
        assert code == 0

    def test_plot_data(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "plot-data"], capsys)
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert all(len(r) == 2 for r in rows)

    def test_missing_required_args(self, capsys):
        code, _, err = run_cli(["sweep", "--f", "x+y"], capsys)
        assert code == 1

    def test_flagged_rows_make_the_verdict_inconclusive(self, capsys):
        # at depth 4 every row stops at the cap, however close its ratios are
        code, out, _ = run_cli(["sweep", "--f", "x + y", "--c", "0.5", "--R", "1",
                                "--max-depth", "4", "--tolerance", "1e-5",
                                "--format", "json"], capsys)
        data = json.loads(out)
        assert all(r["flags"][0].startswith("max-depth-reached:") for r in data["rows"])
        assert data["verdict"] == "inconclusive"
        assert code == 2

    def test_every_config_field_is_an_option(self):
        # a knob of the quadrature is reachable from the command line, and
        # only through an option
        fields = {f.name for f in dataclasses.fields(QuadratureConfig)}
        assert fields == {field for *_, field in _QUAD_OPTS}


class TestCounterexampleCommand:
    def test_n0_matches_diagonal_family(self, capsys):
        code, out, _ = run_cli(["counterexample", "--n", "0"], capsys)
        assert code == 0
        data = json.loads(out)
        rec = data["records"][0]
        assert rec["p_coefficients"] == [1, -2, 1]
        assert rec["c_n"] == -2
        assert rec["central_exponent"] == {"num": 1, "den": 1}
        assert rec["fiber_exponent_at_diagonal"] == {"num": 1, "den": 2}
        assert rec["verification"]["verdict"] == "violated"

    def test_n1_coefficients(self, capsys):
        code, out, _ = run_cli(["counterexample", "--n", "1"], capsys)
        data = json.loads(out)
        assert data["records"][0]["p_coefficients"] == [1, 0, -9, 16, -9, 0, 1]

    def test_range(self, capsys):
        code, out, _ = run_cli(
            ["counterexample", "--n-min", "0", "--n-max", "2"], capsys)
        assert code == 0
        assert [r["n"] for r in json.loads(out)["records"]] == [0, 1, 2]


class TestProbeCommand:
    def test_holder(self, capsys):
        code, out, _ = run_cli(["probe", "--kind", "holder", "--n", "0"], capsys)
        assert code == 0
        assert abs(json.loads(out)["estimate"] - 0.5) < 0.05

    def test_multiplicity_requires_inputs(self, capsys):
        code, _, err = run_cli(["probe", "--kind", "multiplicity"], capsys)
        assert code == 1

    def test_flagged_annuli_exit_two(self, capsys):
        code, out, _ = run_cli(["probe", "--kind", "multiplicity", "--f", "(x + y)^2",
                                "--t", "1/1000", "--c", "0.49", "--max-depth", "4",
                                "--tolerance", "1e-8"], capsys)
        flags = [f for p in json.loads(out)["probes"] for f in p["probe"]["flags"]]
        assert len(flags) == 16
        assert [f for f in flags if f] == [["max-depth-reached:2"]] * 2
        assert code == 2

    def test_radii_keep_clear_of_a_zero_outside_the_polydisc(self, capsys):
        # 51/100 lies outside --delta 0.5 but 1/50 from the probed 49/100,
        # so the largest radius is a quarter of that distance
        code, out, _ = run_cli(["probe", "--kind", "multiplicity", "--f",
                                "(x - 49/100)*(x - 51/100)", "--t", "1/1000",
                                "--c", "0.3", "--delta", "0.5"], capsys)
        [probe] = json.loads(out)["probes"]
        assert probe["zero"]["location"] == "49/100"
        assert probe["probe"]["radii"][0] == 0.005
        assert probe["probe"]["multiplicity_estimate"] == pytest.approx(0.99653, abs=1e-5)
        assert code == 0


class TestBoundCommand:
    def test_central_fiber_among_three_samples(self, capsys):
        code, out, _ = run_cli(["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5",
                                "--t", "1/100", "--t", "1/400", "--t", "0"], capsys)
        assert code == 0
        data = json.loads(out)["bound"]
        assert [r["t"] for r in data["rows"]] == ["1/100", "1/400", 0]
        assert data["growth_flag"] is False

    def test_samples_of_equal_modulus(self, capsys):
        code, out, _ = run_cli(["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5",
                                "--t", "1/100", "--t", "-1/100", "--t", "1/400",
                                "--t", "1/1600"], capsys)
        assert code == 0
        data = json.loads(out)["bound"]
        assert [r["t"] for r in data["rows"]] == ["1/100", "-1/100", "1/400", "1/1600"]
        assert data["growth_flag"] is False

    def test_an_overflowing_k_is_a_flagged_bound(self, capsys):
        code, out, _ = run_cli(["bound", "--f", "x + y", "--c", "1e-6", "--R", "1e154",
                                "--t", "1/100"], capsys)
        data = json.loads(out)["bound"]
        assert data["bound"] == "infinity"
        assert data["rows"][0]["flags"] == ["float-overflow"]
        assert code == 2


class TestUsageErrors:
    BAD = {
        "probe-t-zero": ["probe", "--kind", "multiplicity", "--f", "x+y", "--t", "0"],
        "probe-no-exact-sqrt": ["probe", "--kind", "multiplicity", "--f",
                                "x + y - 2*abs(x*y)^(1/2)", "--t", "1/1000"],
        "probe-zero-fiber": ["probe", "--kind", "multiplicity", "--f", "x*y - 1/100",
                             "--t", "1/100"],
        "sweep-z": ["sweep", "--f", "z^2", "--c", "0.3", "--R", "1"],
        "bound-z": ["bound", "--f", "z^2", "--c", "0.3", "--R", "1"],
        "bound-factor-z": ["bound", "--f", "x+y", "--c", "0.3", "--R", "1",
                           "--t", "1/100", "--factor", "z"],
        "exponent-z": ["exponent", "--f", "z^2"],
        "bound-zero-radius": ["bound", "--f", "x+y", "--c", "0.5", "--R", "0",
                              "--t", "1/100"],
        "bound-infinite-radius": ["bound", "--f", "x+y", "--c", "0.5", "--R", "inf",
                                  "--t", "1/100"],
        "sweep-negative-radius": ["sweep", "--f", "x+y", "--c", "0.5", "--R", "-1"],
        "sweep-nan-radius": ["sweep", "--f", "x+y", "--c", "0.5", "--R", "nan"],
        "exponent-negative-delta": ["exponent", "--f", "y^2-x^3", "--t", "1/400",
                                    "--delta", "-1"],
        "exponent-nan-delta": ["exponent", "--f", "y^2-x^3", "--delta", "nan"],
        "probe-zero-delta": ["probe", "--kind", "multiplicity", "--f", "(x+y)^2",
                             "--t", "1/1000", "--delta", "0"],
        "polygon-z": ["polygon", "--f", "z^2"],
        "polygon-zero": ["polygon", "--f", "0"],
        "probe-holder-negative-n": ["probe", "--kind", "holder", "--n", "-1"],
        # the stencil reaches r <= 0; h^n underflows; r^(n+1/2) overflows
        "probe-holder-large-n": ["probe", "--kind", "holder", "--n", "128"],
        "probe-holder-underflow": ["probe", "--kind", "holder", "--n", "60"],
        "probe-holder-overflow": ["probe", "--kind", "holder", "--n", "1", "--scale", "1e300"],
        "probe-holder-zero-scale": ["probe", "--kind", "holder", "--scale", "0"],
        "probe-holder-infinite-scale": ["probe", "--kind", "holder", "--scale", "inf"],
        "probe-holder-nan-scale": ["probe", "--kind", "holder", "--scale", "nan"],
        "probe-nan-r0": ["probe", "--kind", "multiplicity", "--f", "(x+y)^2",
                         "--t", "1/1000", "--r0", "nan"],
        "probe-negative-r0": ["probe", "--kind", "multiplicity", "--f", "(x+y)^2",
                              "--t", "1/1000", "--r0", "-1"],
        # exited 0 while the cut to the zeros' separation hid it
        "probe-infinite-r0": ["probe", "--kind", "multiplicity", "--f", "(x+y)^2",
                              "--t", "1/1000", "--r0", "inf"],
        "probe-c-zero": ["probe", "--kind", "multiplicity", "--f", "x+y",
                         "--t", "1/100", "--c", "0"],
        "counterexample-negative-n": ["counterexample", "--n", "-1"],
        "counterexample-zero-s": ["counterexample", "--s", "0"],
        "counterexample-empty-range": ["counterexample", "--n-min", "3",
                                       "--n-max", "1"],
        "lct-missing-catalog": ["lct", "--catalog", "/nonexistent/catalog.json"],
    }

    @pytest.mark.parametrize("name", BAD)
    def test_one_error_line(self, name, capsys):
        code, out, err = run_cli(self.BAD[name], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", [n for n in BAD if n.endswith("-radius")])
    def test_bad_radius_is_named(self, name, capsys):
        _, _, err = run_cli(self.BAD[name], capsys)
        assert "the radius R must be finite and > 0" in err

    @pytest.mark.parametrize("name", [n for n in BAD if n.endswith("-r0")])
    def test_bad_r0_is_named(self, name, capsys):
        _, _, err = run_cli(self.BAD[name], capsys)
        assert "the probe radius r0 must be finite and > 0" in err

    @pytest.mark.parametrize("name", [n for n in BAD if n.endswith("-scale")])
    def test_bad_scale_is_named(self, name, capsys):
        _, _, err = run_cli(self.BAD[name], capsys)
        assert "sample_scale must be finite and positive" in err


class TestValuesBeginningWithAMinus:
    # each argv ends in an option and a value that argparse alone reads as
    # an option name ("argument --t: expected one argument")
    ARGV = {
        "exponent-t": ["exponent", "--f", "x^2*y", "--t", "-1/100"],
        "sweep-t-start": ["sweep", "--f", "x+y", "--c", "0.2", "--R", "0.5",
                          "--t-count", "1", "--t-start", "-1/100"],
        # the unique prefix of --t-start, which argparse accepts as it
        "sweep-t-st": ["sweep", "--f", "x+y", "--c", "0.2", "--R", "0.5",
                       "--t-count", "1", "--t-st", "-1/100"],
        "sweep-t-ratio": ["sweep", "--f", "x+y", "--c", "0.2", "--R", "0.5",
                          "--t-count", "2", "--t-ratio", "-1/4"],
        "bound-t": ["bound", "--f", "x+y", "--c", "0.2", "--R", "0.5", "--t", "-1/100"],
        "bound-factor": ["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5",
                         "--t", "1/100", "--factor", "x+y", "--factor", "-x+y"],
        "probe-t": ["probe", "--kind", "multiplicity", "--f", "(x+y)^2", "--t", "-1/1000"],
        "counterexample-s": ["counterexample", "--n", "0", "--s", "-1/2"],
        "polygon-f": ["polygon", "--f", "-x^2+y^3"],
    }

    @pytest.mark.parametrize("name", ARGV)
    def test_same_as_the_equals_form(self, name, capsys):
        argv = self.ARGV[name]
        spaced = run_cli(argv, capsys)
        assert "error: argument" not in spaced[2]
        assert spaced == run_cli(argv[:-2] + [f"{argv[-2]}={argv[-1]}"], capsys)

    def test_a_negative_s_reaches_the_library(self, capsys):
        code, out, err = run_cli(self.ARGV["counterexample-s"], capsys)
        assert code == 1 and out == ""
        assert err == "error: s samples must be positive rationals; got s=Fraction(-1, 2)\n"

    def test_an_ambiguous_prefix_is_still_an_error(self, capsys):
        # --t- could be --t-start, --t-ratio or --t-count
        code, out, err = run_cli(["sweep", "--f", "x+y", "--c", "0.2", "--R", "0.5",
                                  "--t-", "-1/100"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ambiguous option: --t- could match ")

    def test_an_option_is_not_taken_as_a_value(self, capsys):
        code, _, err = run_cli(["exponent", "--f", "x", "--t", "--delta", "0.1"], capsys)
        assert code == 1
        assert err == "error: argument --t: expected one argument\n"


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_probe_rejects_a_non_finite_c(c, capsys):
    code, out, err = run_cli(["probe", "--kind", "multiplicity", "--f", "(x+y)^2",
                              "--t", "1/1000", "--c", c], capsys)
    assert code == 1 and out == ""
    assert err == f"error: the probe needs a finite c > 0; got c={c}\n"


class TestToJsonable:
    """The one JSON writer: raw fields in, normalized JSON values out."""

    def test_fields_of_to_json_obj_are_normalized(self):
        from fractions import Fraction

        class Report:
            def to_json_obj(self):
                return {"x": 1 / 3, "q": Fraction(2, 6), "n": Fraction(4, 2),
                        "z": 1j, "rows": (Fraction(1, 2), None)}

        assert to_jsonable([Report()]) == [{
            "x": 0.333333333333, "q": "1/3", "n": 2,
            "z": {"re": 0.0, "im": 1.0}, "rows": ["1/2", None]}]

    def test_non_finite_floats_are_strings(self):
        values = [math.inf, -math.inf, math.nan, complex(1.5, math.inf)]
        assert to_jsonable(values) == ["infinity", "-infinity", "nan",
                                       {"re": 1.5, "im": "infinity"}]
        assert "Infinity" not in render_json(values)

    def test_object_without_json_form_is_rejected(self):
        with pytest.raises(TypeError, match="no JSON form for object"):
            to_jsonable({"a": object()})


class TestDeterminism:
    CASES = [
        ["exponent", "--f", "y^2-x^3", "--t", "1e-3"],
        ["lct", "--name", "cusp"],
        ["polygon", "--f", "y^2-x^3"],
        ["sweep", "--f", "x+y", "--c", "0.5", "--R", "1", "--t-count", "2",
         "--angular-cells", "16", "--radial-cells", "6", "--format", "csv"],
        ["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5",
         "--t", "1/100", "--t", "1/400",
         "--angular-cells", "16", "--radial-cells", "6"],
        ["counterexample", "--n", "1"],
        ["probe", "--kind", "holder", "--n", "1"],
    ]

    @pytest.mark.parametrize("args", CASES, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, args, tmp_path, capsys):
        p1 = tmp_path / "a.out"
        p2 = tmp_path / "b.out"
        assert main(args + ["--out", str(p1)]) == main(args + ["--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes()  # nonempty


def assert_unloaded(code, absent):
    """Run code in a fresh interpreter, then check no module in absent was imported."""
    code += (f"loaded = sorted({sorted(absent)!r} & sys.modules.keys())\n"
             "assert not loaded, f'imported: {loaded}'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def main_code(argv):
    return ("import contextlib, io, sys\n"
            "from cselab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")


class TestNoNumpyOnTheExactPath:
    """Each subcommand imports only the modules it runs: those that integrate
    nothing load neither numpy nor the quadrature, and only counterexample
    and the Hoelder probe load the counterexample families."""

    @pytest.mark.parametrize("argv", [
        ["lct", "--name", "cusp"],
        ["polygon", "--f", "y^2-x^3"],
        ["counterexample", "--n", "2", "--s", "3/7"],
        ["exponent", "--f", "y^2-x^3", "--t", "1e-4"],   # numeric zero locations
    ], ids=lambda argv: argv[0])
    def test_subcommand_leaves_numpy_unloaded(self, argv):
        absent = {"numpy", "cselab.quadrature"}
        if argv[0] != "counterexample":
            absent.add("cselab.counterexamples")
        assert_unloaded(main_code(argv), absent)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--f", "x+y", "--c", "0.5", "--R", "1", "--t-count", "2",
         "--angular-cells", "16", "--radial-cells", "6"],
        ["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5", "--t", "1/100",
         "--angular-cells", "16", "--radial-cells", "6"],
        ["probe", "--kind", "multiplicity", "--f", "(x+y)^2", "--t", "1/1000",
         "--c", "0.15"],
    ], ids=lambda argv: argv[0])
    def test_integrating_subcommand_leaves_counterexamples_unloaded(self, argv):
        assert_unloaded(main_code(argv), {"cselab.counterexamples"})

    def test_holder_probe_leaves_quadrature_unloaded(self):
        # the Hoelder probe integrates nothing, so it builds no QuadratureConfig,
        # and it fits its slope with the standard library
        assert_unloaded(main_code(["probe", "--kind", "holder", "--n", "0"]),
                        {"numpy", "cselab.quadrature"})

    def test_bare_import_loads_no_submodule(self):
        package = Path(__file__).resolve().parent.parent / "src" / "cselab"
        submodules = {f"cselab.{f.stem}" for f in package.glob("*.py")} - {"cselab.__init__"}
        assert_unloaded("import sys\nimport cselab\n", submodules)
