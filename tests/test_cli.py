"""Command-line interface: verbs, JSON interchange, and exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import huffseq
from huffseq import (DomainError, autocorr, dual_autocorr, gen_fibonacci,
                     generate, outer, periodic_autocorr, spectral_flatness,
                     to_json_obj)
from huffseq import cli
from huffseq.cli import main

from _oracles import brute_spectral_flatness, smooth_length


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_seq(tmp_path, seq, name="seq.json"):
    path = tmp_path / name
    path.write_text(json.dumps(to_json_obj(seq)))
    return str(path)


class TestGen:
    def test_fibonacci_7_printed_vector(self, capsys):
        doc = run_json(capsys, "gen", "--family", "fib", "--n", "7",
                       "--s", "1")
        assert doc["family"] == "fib"
        assert [v[0] for v in doc["elements"]] == [1, 2, 2, 0, -2, 2, -1]
        assert all(v[1] == 0 for v in doc["elements"])
        assert doc["scale"] == [1, 0]

    def test_complex_scale_argument(self, capsys):
        doc = run_json(capsys, "gen", "--family", "h9a", "--s", "0,2")
        assert doc["scale"] == [0, 2]
        for re, im in doc["elements"]:
            assert re == round(re) and im == round(im)

    def test_fixture(self, capsys):
        doc = run_json(capsys, "gen", "--family", "b13")
        assert [v[0] for v in doc["elements"]] == \
            [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]

    def test_list_flag(self, capsys):
        doc = run_json(capsys, "gen", "--list")
        assert "fib" in doc["families"]
        assert "b13" in doc["fixtures"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "gen", "--family", "fib", "--n", "7",
                           "--s", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert [v[0] for v in doc["elements"]] == [1, 2, 2, 0, -2, 2, -1]

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "gen", "--family", "he6", "--s", "2")
        _, out2, _ = run(capsys, "gen", "--family", "he6", "--s", "2")
        assert out1 == out2

    def test_unknown_family_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "warbler")
        assert code == 2
        assert "argument error" in err

    def test_missing_scale_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "h11")
        assert code == 2

    def test_missing_family_exit_2(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == 2

    def test_bad_scale_syntax_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "h11", "--s", "two")
        assert code == 2
        code, _, err = run(capsys, "gen", "--family", "h11",
                           "--s", "1,2,3")
        assert code == 2

    def test_int_scale_out_of_float_range_exit_3(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "fib", "--n", "131",
                             "--s", "1000000000000")
        assert code == 3
        assert out == ""
        assert "domain error" in err and "float range" in err

    def test_float_power_overflow_exit_3(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "h9a", "--s", "1e200")
        assert code == 3
        assert out == ""
        assert "domain error" in err and "overflows" in err

    def test_fibonacci_past_length_127(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "fib", "--n", "1003",
                           "--s", "0.5")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 1003

    @pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "1,inf",
                                       "nan,0"])
    def test_non_finite_scale_exit_2(self, capsys, scale):
        code, out, err = run(capsys, "gen", "--family", "fib", "--n", "7",
                             "--s=" + scale)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("scale", ["-1e3", "-1,2", "-inf"])
    def test_negative_scale_spellings_agree(self, capsys, scale):
        # argparse reads these as options unless they are joined to --s.
        spaced = run(capsys, "gen", "--family", "h11", "--s", scale)
        joined = run(capsys, "gen", "--family", "h11", "--s=" + scale)
        assert spaced[:2] == joined[:2]
        assert spaced[0] == (2 if scale == "-inf" else 0)

    def test_overflow_to_infinity_exit_3(self, capsys):
        # Elements near 1e300**63 overflow to inf, which JSON cannot hold.
        code, out, err = run(capsys, "gen", "--family", "fib", "--n", "127",
                             "--s", "1e300")
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        target = tmp_path / "absent" / "x.json"
        code, _, err = run(capsys, "gen", "--family", "fib", "--n", "7",
                           "--s", "1", "--out", str(target))
        assert code == 2
        assert "cannot write" in err
        assert not target.exists()

    def test_list_flag_equals_list_verb(self, capsys):
        _, via_flag, _ = run(capsys, "gen", "--list")
        _, via_verb, _ = run(capsys, "list")
        assert via_flag == via_verb


class TestAnalyze:
    def test_canonical_verdict(self, capsys, tmp_path):
        path = write_seq(tmp_path, gen_fibonacci(7, 1))
        doc = run_json(capsys, "analyze", "--in", path)
        assert doc["canonical"] is True
        assert doc["kind"] == "aperiodic"
        assert doc["peak"] == 18.0
        assert doc["length"] == 7
        assert doc["profile"]["lags"][0] == -6
        center = doc["profile"]["values"][6]
        assert center == [18.0, 0.0]

    def test_metrics(self, capsys, tmp_path):
        path = write_seq(tmp_path, gen_fibonacci(7, 1))
        doc = run_json(capsys, "analyze", "--in", path,
                       "--metrics", "merit,flatness,peak")
        m = doc["metrics"]
        assert m["peak"] == 18.0
        assert m["merit_factor"] == pytest.approx(162.0)
        # min/max |F| over _fast_len(2 * 7 - 1) = 15 bins, from the
        # brute-force DFT oracle
        assert m["spectral_flatness"] == \
            pytest.approx(0.9030925300487855, abs=1e-12)

    @pytest.mark.parametrize("family,n,s", [
        ("harb", 700, 1.01), ("harb", 701, 0.8 + 0.6j), ("fib", 7, 1)])
    def test_flatness_metric_matches_library_and_oracle(
            self, capsys, tmp_path, family, n, s):
        # analyze correlates first, so the CLI reads the magnitudes kept by
        # the FFT autocorrelation; the library takes a fresh transform of
        # the elements.  The two agree bit for bit.
        seq = generate(family, n=n, s=s)
        path = write_seq(tmp_path, seq)
        doc = run_json(capsys, "analyze", "--in", path,
                       "--metrics", "flatness")
        got = doc["metrics"]["spectral_flatness"]
        assert got == spectral_flatness(np.array(seq.elements))
        want = brute_spectral_flatness(seq, smooth_length(2 * n - 1))
        assert got == pytest.approx(want, abs=1e-12)

    def test_infinite_merit_sentinel(self, capsys, tmp_path):
        from huffseq import Sequence
        path = write_seq(tmp_path, Sequence([1, 0], family="custom",
                                            scale=1.0))
        doc = run_json(capsys, "analyze", "--in", path, "--metrics",
                       "merit")
        assert doc["metrics"]["merit_factor"] == "inf"

    def test_periodic_mode(self, capsys, tmp_path):
        from huffseq import gen_perfect_fib
        path = write_seq(tmp_path, gen_perfect_fib(11, 1))
        doc = run_json(capsys, "analyze", "--in", path, "--periodic")
        assert doc["kind"] == "periodic"
        assert doc["perfect"] is True

    def test_dual_mode(self, capsys, tmp_path):
        from huffseq import gen_h9a
        path = write_seq(tmp_path, gen_h9a(2j))
        plain = run_json(capsys, "analyze", "--in", path)
        assert plain["canonical"] is False
        dual = run_json(capsys, "analyze", "--in", path, "--dual")
        assert dual["kind"] == "dual_aperiodic"
        assert dual["canonical"] is True

    def test_tol_option(self, capsys, tmp_path):
        from huffseq import fixtures
        path = write_seq(tmp_path, fixtures("quasi9"))
        strict = run_json(capsys, "analyze", "--in", path)
        assert strict["canonical"] is False
        loose = run_json(capsys, "analyze", "--in", path, "--tol", "0.1")
        assert loose["canonical"] is True

    @pytest.mark.parametrize("mode", [[], ["--dual"], ["--periodic"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_not_positive_and_finite_exit_2(self, capsys, tmp_path, tol,
                                                 mode):
        path = write_seq(tmp_path, gen_fibonacci(7, 1))
        code, out, err = run(capsys, "analyze", "--in", path, "--tol", tol,
                             *mode)
        assert code == 2
        assert out == ""
        assert "positive and finite" in err

    def test_csv_mode(self, capsys, tmp_path):
        path = write_seq(tmp_path, gen_fibonacci(7, 1))
        code, out, _ = run(capsys, "analyze", "--in", path, "--csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 13
        assert rows[0][0] == "-6"
        assert float(rows[6][1]) == 18.0

    def test_unknown_metric_exit_2(self, capsys, tmp_path):
        path = write_seq(tmp_path, gen_fibonacci(7, 1))
        code, _, err = run(capsys, "analyze", "--in", path,
                           "--metrics", "sparkle")
        assert code == 2
        assert "sparkle" in err

    def test_unknown_metric_checked_before_reading(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--in",
                           str(tmp_path / "absent.json"),
                           "--metrics", "peak,sparkle")
        assert code == 2
        assert "unknown metric 'sparkle'" in err

    def test_periodic_and_dual_exclude_each_other(self, capsys, tmp_path):
        path = write_seq(tmp_path, gen_fibonacci(7, 1))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--in", path, "--periodic", "--dual"])
        assert exc.value.code == 2
        assert "not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("element", [float("nan"), float("inf")])
    def test_non_finite_file_exit_2(self, capsys, tmp_path, element):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"elements": [[element, 0], [1, 0]]}))
        code, out, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("family", [{"x": [1, 2]}, 7, None])
    def test_non_string_family_exit_2(self, capsys, tmp_path, family):
        bad = tmp_path / "family.json"
        bad.write_text(json.dumps({"family": family,
                                   "elements": [[1, 0], [2, 0], [3, 0]]}))
        code, out, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2
        assert out == ""
        assert "family must be a string" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--in",
                           str(tmp_path / "absent.json"))
        assert code == 2

    def test_grid_file_exit_2(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "family": "outer", "scale": [1, 0], "shape": [2, 2],
            "elements": [[1, 0], [2, 0], [3, 0], [4, 0]]}))
        code, _, err = run(capsys, "analyze", "--in", str(grid))
        assert code == 2

    def test_malformed_shape_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps({
            "family": "outer", "scale": [1, 0], "shape": "wide",
            "elements": [[1, 0], [2, 0]]}))
        code, _, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2

    @pytest.mark.parametrize("verb", ["analyze", "compose"])
    def test_negative_shape_exit_2(self, capsys, tmp_path, verb):
        # Its product matches the element count: only the signs are wrong.
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps({"elements": [[1, 0], [2, 0], [3, 0]],
                                   "shape": [-1, -3]}))
        argv = ["--in", str(bad)] if verb == "analyze" else \
            ["--op", "outer", str(bad), str(bad)]
        code, out, err = run(capsys, verb, *argv)
        assert code == 2
        assert out == ""
        assert "shape (-1, -3)" in err

    def test_length_one_exit_2(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({
            "family": "custom", "scale": [1, 0], "elements": [[5, 0]]}))
        code, _, err = run(capsys, "analyze", "--in", str(one))
        assert code == 2


class TestCompose:
    def test_kron(self, capsys, tmp_path):
        from huffseq import fixtures
        a = write_seq(tmp_path, fixtures("h5"), "a.json")
        b = write_seq(tmp_path, gen_fibonacci(7, 1), "b.json")
        doc = run_json(capsys, "compose", "--op", "kron", a, b)
        assert doc["family"] == "kron"
        assert doc["scale"] == [1.0, 0.0]
        assert "shape" not in doc
        assert len(doc["elements"]) == 35
        assert [v[0] for v in doc["elements"][:7]] == \
            [1, 2, 2, 0, -2, 2, -1]

    def test_outer(self, capsys, tmp_path):
        a = write_seq(tmp_path, gen_fibonacci(7, 1), "a.json")
        b = write_seq(tmp_path, gen_fibonacci(7, 1), "b.json")
        doc = run_json(capsys, "compose", "--op", "outer", a, b)
        assert doc["family"] == "outer"
        assert doc["shape"] == [7, 7]
        assert len(doc["elements"]) == 49

    def test_outer_round_trips_through_analyzeable_json(self, capsys,
                                                        tmp_path):
        a = write_seq(tmp_path, gen_fibonacci(7, 1), "a.json")
        target = tmp_path / "grid.json"
        code, _, _ = run(capsys, "compose", "--op", "outer", a, a,
                         "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        grid = np.array([complex(re, im) for re, im in doc["elements"]]
                        ).reshape(doc["shape"])
        assert grid[0, 0] == 1 and grid[3, 3] == 0

    def test_kron_rejects_grid_input(self, capsys, tmp_path):
        a = write_seq(tmp_path, gen_fibonacci(7, 1), "a.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "family": "outer", "scale": [1, 0], "shape": [2, 2],
            "elements": [[1, 0], [2, 0], [3, 0], [4, 0]]}))
        code, _, err = run(capsys, "compose", "--op", "kron", a,
                           str(grid))
        assert code == 2


class TestDemo:
    def test_dose_ledger(self, capsys):
        doc = run_json(capsys, "demo", "dose", "--family", "fib",
                       "--n", "19", "--s", "1", "--dim", "2")
        assert doc["shape"] == [19, 19]
        assert doc["min_element"] == -1764.0
        assert doc["pedestal_offset"] == 1764.0
        assert doc["pedestal"] == 1273608.0
        assert doc["split"] == 51076.0
        assert doc["ratio"] == pytest.approx(24.935547027958336)

    def test_dose_one_dim(self, capsys):
        doc = run_json(capsys, "demo", "dose", "--family", "fib",
                       "--n", "7", "--s", "1", "--dim", "1")
        assert doc["shape"] == [7]
        assert doc["split"] == 10.0

    def test_dose_three_dim_matches_outer(self, capsys):
        from huffseq import dose, min_pedestal, pedestal_masks, split_signs
        row = gen_fibonacci(7, 1)
        grid = outer(row, outer(row, row)).real
        doc = run_json(capsys, "demo", "dose", "--family", "fib",
                       "--n", "7", "--s", "1", "--dim", "3")
        assert doc["shape"] == [7, 7, 7]
        assert doc["min_element"] == grid.min()
        assert doc["pedestal_offset"] == min_pedestal(grid)
        assert doc["split"] == dose(split_signs(grid)).total_dose
        assert doc["pedestal"] == dose(pedestal_masks(grid)).total_dose

    def test_dose_overflow_exit_3(self, capsys):
        # The overflowing row is rejected before numpy sees it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "demo", "dose", "--family", "fib",
                                 "--n", "7", "--s", "1e300", "--dim", "2")
        assert code == 3
        assert out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("dim", ["8", "1000000000"])
    def test_dose_grid_above_limit_exit_2(self, capsys, monkeypatch, dim):
        # 7**8 elements is past the limit; the check comes before any grid.
        def refuse(*args):
            raise AssertionError("outer called")

        monkeypatch.setattr(cli, "outer", refuse)
        code, out, err = run(capsys, "demo", "dose", "--family", "fib",
                             "--n", "7", "--s", "1", "--dim", dim)
        assert code == 2
        assert out == ""
        assert "above the limit" in err

    def test_dose_rejects_complex_family(self, capsys):
        code, _, err = run(capsys, "demo", "dose", "--family", "h9a",
                           "--s", "0,2", "--dim", "1")
        assert code == 2

    def test_deblur_round_trip(self, capsys, tmp_path):
        obj = tmp_path / "object.csv"
        obj.write_text("0.2,0.9,0.1,0.5,0.7,0.3\n")
        doc = run_json(capsys, "demo", "deblur", "--object", str(obj),
                       "--family", "fib", "--n", "7", "--s", "1")
        assert doc["peak"] == 18.0
        assert doc["object_shape"] == [6]
        assert doc["end_term_bound"] == pytest.approx(2 * 0.9 / 18)
        assert doc["max_abs_error"] <= doc["end_term_bound"] + 1e-12
        assert doc["rel_l2_error"] < 0.2

    def test_deblur_two_d_csv(self, capsys, tmp_path):
        obj = tmp_path / "object.csv"
        obj.write_text("0.2,0.9\n0.1,0.5\n")
        doc = run_json(capsys, "demo", "deblur", "--object", str(obj),
                       "--family", "fib", "--n", "7", "--s", "1")
        assert doc["dim"] == 2
        assert doc["object_shape"] == [2, 2]
        assert doc["peak"] == pytest.approx(324.0)

    def test_deblur_two_d_bound_holds(self, capsys, tmp_path):
        # The fib7 x fib7 grid has eight off-center autocorrelation terms
        # (4 x 1, 4 x -18 against peak 324), so the bound is
        # 76 * max|O| / 324, not the 1-D 2 * max|O| / 324.
        obj = np.random.default_rng(0).random((12, 12))
        path = tmp_path / "object.csv"
        np.savetxt(path, obj, delimiter=",")
        doc = run_json(capsys, "demo", "deblur", "--object", str(path),
                       "--family", "fib", "--n", "7", "--s", "1")
        assert doc["end_term_bound"] == pytest.approx(76 * obj.max() / 324)
        assert doc["end_term_bound"] == pytest.approx(0.234, abs=1e-3)
        assert doc["max_abs_error"] == pytest.approx(0.102, abs=1e-3)
        assert doc["max_abs_error"] <= doc["end_term_bound"]

    @pytest.mark.parametrize("row", ["1,2,3", "1,2\n3,4"], ids=["1d", "2d"])
    def test_deblur_overflow_exit_3(self, capsys, tmp_path, row):
        # fib7 at s=1e80 has entries near 1e240: the 1-D mask's correlation
        # peak and the 2-D mask itself leave the float range, and neither
        # gets as far as a numpy warning.
        obj = tmp_path / "object.csv"
        obj.write_text(row + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "demo", "deblur", "--object",
                                 str(obj), "--family", "fib", "--n", "7",
                                 "--s", "1e80")
        assert code == 3
        assert out == ""
        assert "too large for float64" in err

    def test_deblur_non_finite_csv_exit_2(self, capsys, tmp_path):
        obj = tmp_path / "object.csv"
        obj.write_text("nan,1,2\n")
        code, out, err = run(capsys, "demo", "deblur", "--object", str(obj),
                             "--family", "fib", "--n", "7", "--s", "1")
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    def test_deblur_missing_object_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "demo", "deblur", "--object",
                           str(tmp_path / "absent.csv"),
                           "--family", "fib", "--n", "7", "--s", "1")
        assert code == 2


def _plain(obj):
    """``obj`` as json.dumps takes it: each ndarray as the list of its
    elements, complex ones as [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            return [[z.real, z.imag] for z in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_plain(val) for val in obj]
    return obj


def _json_dumps(doc) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False)


# Floats where repr changes form (1e16, 1e-5), the smallest subnormal and
# the sign of zero, beside any finite float.
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e16, 9999999999999998.0,
     1e-5, 9.999999999999999e-06, 1e22, 1e-7])
ARRAYS = (arrays(np.int64, st.integers(0, 4))
          | arrays(np.float64, st.integers(0, 4), elements=FLOATS)
          | arrays(np.complex128, st.integers(0, 4),
                   elements=st.builds(complex, FLOATS, FLOATS)))
LEAVES = (st.none() | st.booleans() | st.integers() | st.text() | FLOATS
          | ARRAYS)
DOCS = st.dictionaries(
    st.text(),
    st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=4)
                 | st.dictionaries(st.text(), kids, max_size=4),
                 max_leaves=20),
    max_size=5)

# Every verb: {a} a real 257-element file, {c} a complex one, {obj} a 2-D
# CSV object.
VERB_ARGV = {
    "gen": ["gen", "--family", "fib", "--n", "11", "--s", "2"],
    "gen-complex": ["gen", "--family", "h9a", "--s", "0.5,-1.5"],
    "gen-fixture": ["gen", "--family", "complex7_i"],
    "gen-list": ["gen", "--list"],
    "list": ["list"],
    "analyze": ["analyze", "--in", "{a}"],
    "analyze-metrics": ["analyze", "--in", "{a}", "--metrics",
                        "merit,flatness,peak"],
    "analyze-dual": ["analyze", "--in", "{c}", "--dual"],
    "analyze-periodic": ["analyze", "--in", "{c}", "--periodic"],
    "compose-kron": ["compose", "--op", "kron", "{a}", "{c}"],
    "compose-outer": ["compose", "--op", "outer", "{c}", "{c}"],
    "dose": ["demo", "dose", "--family", "fib", "--n", "7", "--s", "1",
             "--dim", "3"],
    "deblur": ["demo", "deblur", "--object", "{obj}", "--family", "fib",
               "--n", "7", "--s", "1"],
}


class TestJsonBytes:
    """CLI JSON is json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) byte for byte, ndarrays in doc taken as lists."""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    def test_every_verb(self, capsys, tmp_path, monkeypatch, verb, to_file):
        files = {"a": write_seq(tmp_path, generate("harb", n=257, s=1.01),
                                "a.json"),
                 "c": write_seq(tmp_path, generate("h9a", s=0.5 - 1.5j),
                                "c.json"),
                 "obj": str(tmp_path / "obj.csv")}
        np.savetxt(files["obj"], np.random.default_rng(1).random((5, 6)),
                   delimiter=",")
        docs, dumps = [], cli._dumps
        monkeypatch.setattr(cli, "_dumps",
                            lambda doc: docs.append(doc) or dumps(doc))
        target = tmp_path / "out.json"
        argv = [arg.format(**files) for arg in VERB_ARGV[verb]]
        code, out, err = run(capsys, *argv,
                             *(["--out", str(target)] if to_file else []))
        assert code == 0, err
        written = target.read_text(encoding="utf-8") if to_file else out
        assert out == ("" if to_file else written)
        assert len(docs) == 1
        assert written == _json_dumps(docs[0]) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(DOCS)
    def test_documents(self, doc):
        assert cli._dumps(doc) == _json_dumps(doc)

    @pytest.mark.parametrize("arr", [
        np.array([0, -1, 2 ** 63 - 1, -2 ** 63]),
        np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1, -1.5e300]),
        np.array([complex(-0.0, 5e-324), 1e16 - 1e-5j, 1j, -0.0]),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.float64),
        np.array([], dtype=np.complex128),
    ], ids=["int", "float", "complex", "empty-int", "empty-float",
            "empty-complex"])
    def test_arrays(self, arr):
        doc = {"top": arr, "list": [arr, 1, [arr]], "é": {"deep": arr}}
        assert cli._dumps(doc) == _json_dumps(doc)

    @pytest.mark.parametrize("doc", [
        {"a": np.array([1.0, math.nan])},
        {"a": np.array([-math.inf])},
        {"a": [np.array([1 + 0j, complex(0, math.inf)])]},
        {"a": math.nan},
        {"a": [1.0, {"b": -math.inf}]},
    ], ids=["nan-array", "inf-array", "inf-complex-array", "nan-scalar",
            "inf-scalar"])
    def test_non_finite_is_a_domain_error(self, doc):
        with pytest.raises(DomainError, match="not finite"):
            cli._emit(doc, None)

    def test_non_finite_profile_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"elements": [[1e200, 0.0], [1e200, 0.0]]}))
        code, out, err = run(capsys, "analyze", "--in", str(path))
        assert code == 3
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("flag,profile", [
        (None, autocorr), ("--dual", dual_autocorr),
        ("--periodic", periodic_autocorr)])
    def test_csv(self, capsys, tmp_path, flag, profile):
        seq = generate("h9a", s=0.5 - 1.5j)
        path = write_seq(tmp_path, seq)
        prof = profile(seq)
        want = "".join(f"{int(k)},{float(v.real)!r},{float(v.imag)!r}\n"
                       for k, v in zip(prof.lags, prof.values))
        code, out, _ = run(capsys, "analyze", "--in", path, "--csv",
                           *([flag] if flag else []))
        assert code == 0
        assert out == want


class TestListVerb:
    def test_families_and_fixtures(self, capsys):
        doc = run_json(capsys, "list")
        for fid in ("fib", "hplus", "perfect_fib", "h9a", "h13b", "h17",
                    "h17l", "h11", "he4", "he6", "harb", "htan",
                    "perfect_arb"):
            assert fid in doc["families"]
            assert doc["families"][fid]
        assert "h86" in doc["fixtures"]


class TestParserBehavior:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "huffseq" in capsys.readouterr().out

    def test_no_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_dim_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "dose", "--family", "fib", "--n", "7",
                  "--s", "1", "--dim", "0"])
        assert exc.value.code == 2


class TestRoundTrip:
    def test_gen_analyze_pipeline(self, capsys, tmp_path):
        seq_file = tmp_path / "seq.json"
        code, _, _ = run(capsys, "gen", "--family", "h13b", "--s", "1",
                         "--out", str(seq_file))
        assert code == 0
        doc = run_json(capsys, "analyze", "--in", str(seq_file))
        assert doc["canonical"] is True
        assert doc["family"] == "h13b"


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(huffseq.__file__))
    code = "import sys, huffseq, huffseq.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"
