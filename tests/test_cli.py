import contextlib
import io
import json
import pathlib

import pytest

from multicurve import cli
from multicurve.cli import main

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

    def test_internal_errors_propagate(self, monkeypatch):
        def broken(tri):
            raise KeyError("internal")
        monkeypatch.setattr(cli, "enumerate_barbell_trees", broken)
        with pytest.raises(KeyError):
            main(["generators", "ex11"])


class TestReports:
    def test_generators_with_oracle(self):
        code, out, _ = run(["generators", "ex11", "--oracle-depth", "6"])
        assert code == 0
        report = json.loads(out)
        assert report["oracle"] == {"depth": 6, "mismatches": []}

    def test_polytope_cone_report(self):
        code, out, _ = run(["polytope", "ex11"])
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 3
        assert report["faces_per_dim"]["2"] == 3

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

    def test_param_fricke_exact(self):
        code, out, _ = run(["param", "fricke", "--samples", "30",
                            "--seed", "5", "--backend", "exact"])
        assert code == 0
        assert json.loads(out)["failures"] == 0


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
        for name, argv in manifest.items():
            code, out, _ = run(argv)
            assert code == 0, name
            assert out == (GOLDEN / name).read_text(), \
                f"{name} drifted from its recorded command line"


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
