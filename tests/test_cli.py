import contextlib
import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import keyed_view
from oracles import (
    fraction_fricke_sweep,
    fraction_param_sweep,
    keyed_complex,
    subset_scan_barbell_trees,
)

import multicurve as mc
from multicurve import cli, errors, polytope
from multicurve import quadric as q
from multicurve.cli import main
from multicurve.export import complex_to_off, complex_to_svg

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


class TestExitCodes:
    def test_success(self):
        code, out, _ = run(["generators", "ex11"])
        assert code == 0
        assert json.loads(out)["count"] == 3

    def test_validation_error_unknown_fixture(self):
        code, _, err = run(["generators", "nonsense"])
        assert code == 2
        assert "validation error" in err

    def test_validation_error_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"triangles": 2, "gluing": [[[0,0],[0,0]]]}')
        code, _, err = run(["generators", str(bad)])
        assert code == 2

    def test_usage_error_leaves_parser_unchanged(self):
        # one parser serves every call in a process; an argparse exit 2,
        # even after some options parsed, must not change the next parse
        argvs = [["param", "fricke"], ["git", "classify", "--weights", "1,2"],
                 ["param", "check", "--samples", "30", "--backend", "exact"]]
        before = [vars(cli.build_parser().parse_args(a)) for a in argvs]
        for bad in (["param", "fricke", "--samples", "7", "--bogus"],
                    ["param", "fricke", "--backend", "gpu"],
                    ["git", "classify"], ["param"]):
            with pytest.raises(SystemExit) as exit_info:
                run(bad)
            assert exit_info.value.code == 2
        assert cli.build_parser() is cli.build_parser()
        assert [vars(cli.build_parser().parse_args(a))
                for a in argvs] == before
        assert before[0]["samples"] == 1000
        code, out, _ = run(argvs[2])
        assert code == 0
        assert json.loads(out)["samples"] == 30

    def test_empty_relative_complex(self):
        code, _, err = run(["polytope", "flower:3", "--relative"])
        assert code == 2
        assert "empty" in err

    def test_certificate_failure(self):
        code, out, _ = run(["polytope", "ex11", "--relative",
                            "--check-sphere", "2"])
        assert code == 3
        assert not json.loads(out)["sphere_certificate"]["granted"]

    def test_illegal_operation(self):
        code, _, err = run(["mutate", "flower:5", "1"])
        assert code == 4
        assert "illegal operation" in err

    @pytest.mark.parametrize("edge", ["-1", "99"])
    def test_edge_index_out_of_range(self, edge):
        code, out, err = run(["mutate", "n4ex", edge])
        assert code == 2
        assert out == ""
        assert f"edge {edge} not in 0..5" in err

    def test_broken_exchange_rule_is_a_bug(self, monkeypatch):
        # an inadmissible transfer is a fault of the exchange rule, not of
        # the input, so it propagates instead of exiting 2
        monkeypatch.setattr(polytope, "is_admissible", lambda tri, v: False)
        with pytest.raises(ValueError, match="inadmissible coloring"):
            main(["mutate", "n4ex", "0", "--coloring", "1,0,1,0,1,0"])

    def test_unwritable_emit_target(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(["polytope", "n4ex", "--relative",
                              "--emit", "json", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert "cannot write" in err
        assert not target.exists()

    def test_directory_as_source(self, tmp_path):
        code, _, err = run(["generators", str(tmp_path)])
        assert code == 2
        assert "no fixture or readable file" in err

    @pytest.mark.parametrize("text", [
        '{"triangles":2,"gluing":[1]}',
        '{"triangles":"2","gluing":[]}',
        '{"gluing":[]}',
        '{"triangles":2,',
        # JSON true is not the slot index 1
        '{"triangles":2,"gluing":[[[0,0],[true,0]],[[0,1],[1,1]],'
        '[[0,2],[1,2]]]}',
    ])
    def test_malformed_json_source(self, text):
        code, _, err = run(["generators", text])
        assert code == 2
        assert "validation error: malformed" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_must_be_positive(self, samples):
        code, _, err = run(["param", "check", "--samples", samples])
        assert code == 2
        assert "--samples must be at least 1" in err

    @pytest.mark.parametrize("action,backend", itertools.product(
        ("check", "fricke"), ("exact", "float")))
    def test_seed_must_not_be_negative(self, action, backend):
        code, out, err = run(["param", action, "--seed", "-1",
                              "--backend", backend])
        assert code == 2
        assert out == ""
        assert "--seed must be at least 0, got -1" in err

    def test_oracle_depth_must_not_be_negative(self):
        code, out, err = run(["generators", "n4ex", "--oracle-depth", "-3"])
        assert code == 2
        assert out == ""
        assert "--oracle-depth must be at least 0, got -3" in err

    def test_oracle_depth_needs_a_value(self):
        with pytest.raises(SystemExit) as exit_info:
            run(["generators", "n4ex", "--oracle-depth"])
        assert exit_info.value.code == 2

    def test_check_sphere_must_not_be_negative(self, monkeypatch):
        def unbuilt(tri):
            raise AssertionError("complex built for a negative dimension")
        monkeypatch.setattr(cli, "relative_complex", unbuilt)
        code, out, err = run(["polytope", "flower:4", "--check-sphere", "-1"])
        assert code == 2
        assert out == ""
        assert "--check-sphere must be at least 0, got -1" in err

    def test_emit_needs_a_complex(self, tmp_path):
        target = tmp_path / "cone.json"
        code, out, err = run(["polytope", "n4ex", "--emit", "json",
                              "--out", str(target)])
        assert code == 2
        assert out == ""
        assert "--emit needs --relative or --check-sphere" in err
        assert not target.exists()

    def test_out_needs_emit(self, tmp_path):
        target = tmp_path / "cone.json"
        code, out, err = run(["polytope", "flower:5", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert "--out needs --emit" in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["mutate", "n4ex", "0", "--coloring", "1,0,x"],
        ["git", "classify", "--weights", "1,a,1"],
        ["git", "classify", "--weights", "1,1,1,1", "--partition", "1x|2"],
        ["generators", "flower:abc"],
    ])
    def test_unparsable_option_text(self, argv):
        code, _, err = run(argv)
        assert code == 2
        assert "validation error" in err

    @pytest.mark.parametrize("weights,message", [
        ("1,2", "need at least 3 weights"),
        ("1,0,2", "weights must be positive"),
    ], ids=["two-weights", "zero-weight"])
    def test_bad_weights(self, weights, message):
        code, out, err = run(["git", "classify", "--weights", weights])
        assert code == 2
        assert out == ""
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("name,message", [
        ("random:5:0", "even number T >= 2 of triangles, got 5"),
        ("random:0:1", "even number T >= 2 of triangles, got 0"),
        ("random:four:1", "random:<T>:<seed> needs integers T and seed"),
    ])
    def test_bad_random_fixture(self, name, message):
        code, out, err = run(["generators", name])
        assert code == 2
        assert out == ""
        assert "validation error" in err and message in err

    def test_internal_errors_propagate(self, monkeypatch):
        def broken(tri):
            raise KeyError("internal")
        monkeypatch.setattr(cli, "enumerate_barbell_trees", broken)
        with pytest.raises(KeyError):
            main(["generators", "ex11"])

    def oracle_report(self, monkeypatch, edit):
        """The n4ex2 sweep to degree 8 against an edited generator list."""
        gens = mc.enumerate_barbell_trees(mc.fixture("n4ex2"))
        monkeypatch.setattr(cli, "enumerate_barbell_trees",
                            lambda tri: edit(list(gens)))
        code, out, _ = run(["generators", "n4ex2", "--oracle-depth", "8"])
        return code, json.loads(out), gens

    def test_oracle_reports_missing_generator(self, monkeypatch):
        code, report, gens = self.oracle_report(
            monkeypatch, lambda gens: gens[:2] + gens[3:])
        assert code == 3
        assert report["count"] == len(gens) - 1
        assert report["oracle"]["mismatches"] == \
            [list(gens[2].coloring.values)]

    def test_oracle_reports_decomposable_generator(self, monkeypatch):
        def add_sum(gens):
            total = gens[0].coloring + gens[1].coloring
            return gens + [mc.BarbellTree([], [], total)]

        code, report, gens = self.oracle_report(monkeypatch, add_sum)
        total = gens[0].coloring + gens[1].coloring
        assert code == 3
        assert report["oracle"]["mismatches"] == [list(total.values)]


class TestReports:
    def test_generators_with_oracle(self):
        code, out, _ = run(["generators", "ex11", "--oracle-depth", "6"])
        assert code == 0
        report = json.loads(out)
        assert report["oracle"] == {"depth": 6, "mismatches": []}

    def test_generators_oracle_on_genus_two(self):
        code, out, _ = run(["generators", "random:8:4", "--oracle-depth",
                            "12"])
        assert code == 0
        report = json.loads(out)
        assert (report["genus"], report["punctures"]) == (2, 2)
        assert report["oracle"] == {"depth": 12, "mismatches": []}
        assert sum(g["degree"] <= 12 for g in report["generators"]) == 50

    def test_generators_random_surface(self):
        code, out, _ = run(["generators", "random:12:0"])
        assert code == 0
        report = json.loads(out)
        scan = subset_scan_barbell_trees(mc.fixture("random:12:0"))
        assert report["count"] == len(scan) == 429
        assert report["generators"] == [b.to_json_dict() for b in scan]

    def test_polytope_cone_report(self):
        code, out, _ = run(["polytope", "ex11"])
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 3
        assert report["faces_per_dim"]["2"] == 3

    @pytest.mark.parametrize("source,per_dim", [
        ("flower:5", [1, 10, 43, 105, 161, 161, 105, 43, 10, 1]),
        ("flower:6", [1, 15, 95, 346, 819, 1338, 1554, 1296, 771, 319, 87,
                      14, 1]),
        ("flower:7", [1, 21, 180, 887, 2883, 6633, 11242, 14355, 13959,
                      10351, 5808, 2421, 725, 147, 18, 1]),
    ])
    def test_flower_cone_faces_per_dim(self, source, per_dim):
        code, out, _ = run(["polytope", source])
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == len(per_dim) - 1
        assert report["faces_per_dim"] == {
            str(d): n for d, n in enumerate(per_dim)}

    def test_sphere_pass(self):
        code, out, _ = run(["polytope", "flower:5", "--relative",
                            "--check-sphere", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["f_vector"] == [6, 13, 13, 6]
        assert report["sphere_certificate"]["granted"]

    def test_mutate_transfer_report(self):
        code, out, _ = run(["mutate", "n4ex", "0",
                            "--coloring", "1,0,1,0,1,0", "--verify-betti"])
        assert code == 0
        report = json.loads(out)
        assert report["betti"]["equal"]
        assert report["coloring"]["degree_before"] == 3

    def test_git_classify(self):
        code, out, _ = run(["git", "classify", "--weights", "1,1,1,1",
                            "--partition", "12|3|4"])
        assert code == 0
        assert json.loads(out)["stability"] == "StrictlySemistable"

    def test_param_check_float(self):
        code, out, _ = run(["param", "check", "--samples", "2000",
                            "--seed", "5", "--backend", "float"])
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_param_fricke_float_large_terms(self):
        # a residual of 1.041e-09 where the cubic's largest term is 4.5e6
        # is rounding, not a failure of the relation
        code, out, _ = run(["param", "fricke", "--samples", "4519",
                            "--seed", "987918", "--backend", "float"])
        assert code == 0
        report = json.loads(out)
        assert report["max_residual"] == "1.041e-09"
        assert report["failures"] == 0

    @pytest.mark.parametrize("seed", ["7", "50", "987918"])
    def test_param_fricke_float_positive_traces_fail(self, monkeypatch,
                                                     seed):
        # the cubic fails under the positive-trace convention, by at least
        # 2e-2 of its largest term on every sample of these seeds
        negative = q.fricke_trace_coordinates

        def positive(b1, b2, b3):
            a, cs = negative(b1, b2, b3)
            return [-x for x in a], tuple(-c for c in cs)

        monkeypatch.setattr(q, "fricke_trace_coordinates", positive)
        code, out, _ = run(["param", "fricke", "--samples", "2000",
                            "--seed", seed, "--backend", "float"])
        assert code == 3
        assert json.loads(out)["failures"] == 2000

    @pytest.mark.parametrize("seed", ["7", "50"])
    def test_param_fricke_exact_positive_traces_fail(self, monkeypatch,
                                                     seed):
        # the exact twin: no positive-trace sample of these seeds lies on
        # the cubic
        negative = q.fricke_trace_coordinates

        def positive(b1, b2, b3):
            a, cs = negative(b1, b2, b3)
            return [-x for x in a], tuple(-c for c in cs)

        monkeypatch.setattr(q, "fricke_trace_coordinates", positive)
        code, out, _ = run(["param", "fricke", "--samples", "200",
                            "--seed", seed, "--backend", "exact"])
        assert code == 3
        assert json.loads(out)["failures"] == 200

    def test_param_fricke_exact(self):
        code, out, _ = run(["param", "fricke", "--samples", "30",
                            "--seed", "5", "--backend", "exact"])
        assert code == 0
        assert json.loads(out)["failures"] == 0


class TestExactSweeps:
    """The integer-representative sweeps against the Fraction oracles, and
    each of their checks broken on purpose."""

    @pytest.mark.parametrize("seed", range(20))
    def test_check_matches_fraction_sweep(self, seed):
        ints, fractions = random.Random(seed), random.Random(seed)
        assert cli._exact_param_sweep(40, ints) == fraction_param_sweep(
            40, fractions)
        assert ints.getstate() == fractions.getstate()

    @pytest.mark.parametrize("seed", range(20))
    def test_fricke_matches_fraction_sweep(self, seed):
        ints, fractions = random.Random(seed), random.Random(seed)
        assert cli._exact_fricke_sweep(60, ints) == fraction_fricke_sweep(
            60, fractions)
        assert ints.getstate() == fractions.getstate()

    def test_no_fraction_per_sample(self, monkeypatch):
        # the integer sweeps build no Fraction; the Fraction oracle, run
        # under the same counter, builds them
        made = 0
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for seed in (1, 7, 123):
            cli._exact_param_sweep(20, random.Random(seed))
            cli._exact_fricke_sweep(20, random.Random(seed))
        assert made == 0
        fraction_fricke_sweep(1, random.Random(1))
        assert made > 0

    def test_equivariance_with_s_negated_on_one_side(self, monkeypatch):
        # inside equivariance_check, A(M p, M q) is the first of each pair
        # of quadric_point calls; the sweep's own calls are not patched
        real, calls = q.quadric_point, itertools.count()

        def skewed(p, pt, cp):
            return real(p, pt, cp.negate_s() if next(calls) % 2 == 0 else cp)

        monkeypatch.setattr(q, "quadric_point", skewed)
        assert cli._exact_param_sweep(50, random.Random(7)) == 42

    def test_gamma_without_negating_p(self, monkeypatch):
        monkeypatch.setattr(q.ProjectivePoint, "negate", lambda self: self)
        for seed in (7, 11):
            failures = cli._exact_param_sweep(50, random.Random(seed))
            assert failures == fraction_param_sweep(50, random.Random(seed))
            assert failures >= 48

    @pytest.mark.parametrize("scale", [2, -1], ids=["det", "trace"])
    def test_quadric_identities_on_a_rescaled_e(self, monkeypatch, scale):
        # (A, 2e) breaks det A = e^2 and (A, -e) breaks tr A = t e, except
        # on the samples with p = pt, where e = 0 and both still hold
        real = q.quadric_identity_residuals
        monkeypatch.setattr(q, "quadric_identity_residuals", lambda qp, cp:
                            real(q.QuadricPoint(qp.a, scale * qp.e), cp))
        for seed, failures in ((1, 49), (7, 48)):
            assert cli._exact_param_sweep(50, random.Random(seed)) == failures
        code, out, _ = run(["param", "check", "--samples", "50", "--seed",
                            "7", "--backend", "exact"])
        assert code == 3 and json.loads(out)["failures"] == 48

    def test_sl2_draw_off_the_unit_determinant(self, monkeypatch):
        class Skewed(q.MobiusMap):
            __slots__ = ()

            def __init__(self, m, den=1):
                (a, b), (c, d) = m
                super().__init__(((a, b), (c, d + 1)), den)

        monkeypatch.setattr(q, "MobiusMap", Skewed)
        for sweep in (cli._exact_param_sweep, cli._exact_fricke_sweep):
            with pytest.raises(errors.NotUnitDeterminant):
                sweep(5, random.Random(7))
        code, _, err = run(["param", "fricke", "--samples", "5",
                            "--backend", "exact"])
        assert code == 2 and "det - 1" in err

    def test_fricke_trace_off_by_one(self, monkeypatch):
        real = q.fricke_trace_coordinates

        def shifted(b1, b2, b3):
            # a1 + 1: its numerator over L = (D1 D2 D3)^3 moves by L
            a, c = real(b1, b2, b3)
            return [a[0] + (b1.den * b2.den * b3.den) ** 3, *a[1:]], c

        monkeypatch.setattr(q, "fricke_trace_coordinates", shifted)
        code, out, _ = run(["param", "fricke", "--samples", "100",
                            "--seed", "7", "--backend", "exact"])
        assert code == 3
        assert json.loads(out)["failures"] == 100

    def test_float_tau_on_the_lower_branch(self, monkeypatch):
        # tau_matrix with -iy for +iy: the real representative of
        # (p, conj p) on the lower conic, ((D, -B), (-C, A)) of the upper
        real = cli.tau_matrix

        def lower(p, t):
            tq = real(p, t)
            (a, b), (c, d) = tq.a
            return q.QuadricPoint(((d, -b), (-c, a)), tq.e)

        monkeypatch.setattr(cli, "tau_matrix", lower)
        code, out, _ = run(["param", "check", "--samples", "200",
                            "--seed", "1", "--backend", "float"])
        report = json.loads(out)
        assert code == 3 and report["failures"] == 1
        assert float(report["max_residuals"]["tau"]) > 1e-3

    def test_float_eta_off_the_unitary_group(self, monkeypatch):
        # 2 U is not unitary: (2 U)(2 U)^* = 4, so the residual is about 3
        real = cli.eta_matrix
        monkeypatch.setattr(cli, "eta_matrix",
                            lambda p, t: q.mat_scale(real(p, t), 2))
        code, out, _ = run(["param", "check", "--samples", "200",
                            "--seed", "1", "--backend", "float"])
        report = json.loads(out)
        assert code == 3 and report["failures"] == 1
        assert float(report["max_residuals"]["eta_unitary"]) > 1e-3

    def test_float_nan_residual_fails(self, monkeypatch):
        # NaN compares false with the tolerance, yet is no pass
        real = cli.tau_matrix

        def on_the_circle(p, t):
            tq = real(p, t)
            (a, b), (c, d) = tq.a
            nan = float("nan")
            return q.QuadricPoint(((a * nan, b), (c, d)), tq.e * nan)

        monkeypatch.setattr(cli, "tau_matrix", on_the_circle)
        code, out, _ = run(["param", "check", "--samples", "200",
                            "--seed", "1", "--backend", "float"])
        report = json.loads(out)
        assert code == 3 and report["failures"] == 1
        assert report["max_residuals"]["tau"] == "nan"

    def test_float_fricke_nan_residual_fails(self, monkeypatch):
        # a NaN residual is not below the bound, so every sample fails
        monkeypatch.setattr(q, "_cubic", lambda a1, *rest: a1 * float("nan"))
        code, out, _ = run(["param", "fricke", "--samples", "200",
                            "--seed", "1", "--backend", "float"])
        report = json.loads(out)
        assert code == 3 and report["failures"] == report["samples"] == 200
        assert report["max_residual"] == "nan"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["generators", "flower:5"],
        ["param", "check", "--samples", "500", "--seed", "9",
         "--backend", "float"],
        ["param", "fricke", "--samples", "200", "--seed", "9",
         "--backend", "exact"],
    ])
    def test_byte_identical_reruns(self, argv):
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first == second

    def test_float_sweep_ignores_environment(self, monkeypatch):
        argv = ["param", "check", "--samples", "2000", "--seed", "1",
                "--backend", "float"]
        monkeypatch.delenv("MULTICURVE_THREADS", raising=False)
        _, unset, _ = run(argv)
        monkeypatch.setenv("MULTICURVE_THREADS", "2")
        _, two, _ = run(argv)
        assert unset == two


class TestGolden:
    def test_all_golden_files_regenerate(self):
        manifest = json.loads((GOLDEN / "manifest.json").read_text())
        drifted = []
        for name, argv in manifest.items():
            code, out, _ = run(argv)
            if code != 0 or out != (GOLDEN / name).read_text():
                drifted.append(name)
        assert not drifted, \
            f"drifted from their recorded command lines: {drifted}"


# run in a fresh interpreter: the exit code, the stdout and whether numpy
# has been imported, after each command line of the JSON list argv[1]
COLD_RUN = """
import contextlib, io, json, sys
import multicurve, multicurve.cli
sys.stderr = io.StringIO()
steps = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = multicurve.cli.main(argv)
    steps.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(steps))
"""


class TestNumpyOnlyForFloatSweeps:
    def test_exact_commands_never_import_numpy(self):
        manifest = json.loads((GOLDEN / "manifest.json").read_text())
        float_golden = "param_fricke_float.json"
        goldens = sorted(n for n in manifest if n != float_golden)
        goldens.append(float_golden)
        exact_fricke = ["param", "fricke", "--samples", "20", "--seed", "3",
                        "--backend", "exact"]
        argvs = [manifest[n] for n in goldens]
        argvs.insert(-1, exact_fricke)
        src = pathlib.Path(mc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_RUN, json.dumps(argvs)], env=env,
            capture_output=True, text=True, timeout=300, check=True)
        codes, outs, numpy_loaded = zip(*json.loads(proc.stdout))
        assert codes == (0,) * len(argvs)
        assert numpy_loaded == (False,) * (len(argvs) - 1) + (True,)
        assert outs[:-2] + outs[-1:] == tuple(
            (GOLDEN / n).read_text() for n in goldens)


class TestHashSeed:
    def test_polytope_output_ignores_hash_seed(self):
        # the polytope golden lines and the cone report of flower:6, each
        # set of command lines run under two hash seeds in a fresh process
        manifest = json.loads((GOLDEN / "manifest.json").read_text())
        goldens = sorted(n for n in manifest if n.startswith("polytope"))
        argvs = [manifest[n] for n in goldens] + [["polytope", "flower:6"]]
        src = pathlib.Path(mc.__file__).resolve().parent.parent
        runs = []
        for seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           str(src), os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-c", COLD_RUN, json.dumps(argvs)], env=env,
                capture_output=True, text=True, timeout=300, check=True)
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
        codes, outs, _numpy = zip(*runs[0])
        assert codes == (0,) * len(argvs)
        assert outs[:-1] == tuple((GOLDEN / n).read_text() for n in goldens)


class TestEmit:
    def test_off_export(self, tmp_path):
        out_file = tmp_path / "c.off"
        code, _, _ = run(["polytope", "flower:5", "--relative",
                          "--emit", "off", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("OFF")
        assert "non-metric" in text
        counts = text.splitlines()[2].split()
        assert counts[0] == "6"   # six vertices

    @pytest.mark.parametrize("writer", [complex_to_off, complex_to_svg])
    def test_export_ignores_set_order(self, writer):
        # polygons and edges come from the poset, not from the order in
        # which its facets are given
        cpx = mc.relative_complex(mc.flower(5))
        cells, facets = keyed_view(cpx)
        rebuilt = keyed_complex(
            cells, {k: list(fs)[::-1] for k, fs in facets.items()})
        assert writer(rebuilt) == writer(cpx)

    def test_svg_export(self, tmp_path):
        out_file = tmp_path / "c.svg"
        code, _, _ = run(["polytope", "n4ex", "--relative",
                          "--emit", "svg", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 3
        assert text.count("<line") == 3

    def test_json_export(self, tmp_path):
        out_file = tmp_path / "c.json"
        code, _, _ = run(["polytope", "n4ex2", "--relative",
                          "--emit", "json", "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["f_vector"] == [4, 4]
