import json

import pytest

from cfrieze.cli import main

DIRECTORY = object()  # test_missing_file: pass a directory as the input file
RECONSTRUCT = ["reconstruct", "--c", "-1", "--n", "1"]
SECTION_VALUES = '"values": ["0", "1", "1", "1", "0"]'
SEED = '"seed": ["1", "2", "-1/3", "-6"]'  # valid for c = 1, n = 1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_example_descriptor(tmp_path, name="frieze.json", **overrides):
    data = {
        "c": "-4",
        "n": 2,
        "base_index": 1,
        "seed": ["4", "3", "3", "4", "5/2"],
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestBuild:
    def test_from_free_values(self, capsys):
        code, out, _ = run(capsys, "build", "--c", "4", "--n", "2",
                           "--free", "2,-3,-1")
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == ["2", "-3", "-1", "4/5", "35/8"]
        assert data["c"] == "4" and data["n"] == 2 and data["base_index"] == 1

    def test_from_seed_validates(self, capsys):
        code, out, err = run(capsys, "build", "--c", "-1", "--n", "2",
                             "--seed", "1,1,1,1,1")
        assert code == 1
        assert "InvalidSeed" in err

    def test_seed_violations_print_rationals(self, capsys):
        code, _, err = run(capsys, "build", "--c=-1", "--n", "2",
                           "--seed=1,1,1,1,1")
        assert code == 1
        assert err.startswith("error[InvalidSeed]: seed is not admissible: ")
        assert "residual -1" in err and "Fraction(" not in err

    def test_degenerate_free_values(self, capsys):
        code, _, err = run(capsys, "build", "--c", "-1", "--n", "1",
                           "--free", "1,1")
        assert code == 1
        assert "DegenerateSeed" in err

    def test_free_and_seed_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--c", "1", "--n", "1", "--free", "1,2",
                  "--seed", "1,2,3,4"])
        assert exc.value.code == 2

    def test_malformed_rational_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--c", "x", "--n", "1", "--free", "1,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["build", "--c", "1", "--free", "1"],
        ["reconstruct", "--c", "1", "--in", "section.json"],
    ], ids=["build", "reconstruct"])
    def test_order_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "0"])
        assert exc.value.code == 2
        assert "order n must be >= 1" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "f.json"
        code, out, _ = run(capsys, "build", "--c", "-1", "--n", "2",
                           "--free", "1,2,2", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["seed"] == ["1", "2", "2", "1", "3"]


class TestAnalyze:
    def test_monotonic_example_report(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        code, out, _ = run(capsys, "analyze", "--in", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["s"] == "8" and report["t"] == "8"
        assert report["periodicity"]["kind"] == "periodic"
        assert report["periodicity"]["period"] == 5
        assert report["integrality"]["status"] == "non-integer"
        assert report["integrality"]["witness"]["value"] == "5/2"
        assert report["classification"]["repetitive"] is True
        assert report["positive"] is True

    @pytest.mark.parametrize("argv, content, error", [
        (["analyze"], None, "FileNotFoundError"),
        (["analyze"], DIRECTORY, "IsADirectoryError"),
        (["analyze"], "[1, 2]", "MalformedInput"),
        (RECONSTRUCT, "[1, 2]", "MalformedInput"),
        (RECONSTRUCT,
         '{"oblique": {"anchor": 1, "orientation": "down-right"}}',
         "InvalidSection"),
        (["analyze"], '{"c": "1", "n": null, "seed": []}', "InvalidSeed"),
        (["analyze"], '{"c": "1", "n": 1.5, %s}' % SEED, "InvalidSeed"),
        (["analyze"], '{"c": "1", "n": true, %s}' % SEED, "InvalidSeed"),
        (["analyze"], '{"c": "1", "n": 0, "seed": ["1", "2", "3"]}',
         "InvalidSeed"),
        (["analyze"], '{"c": "1", "n": 1, "base_index": null, %s}' % SEED,
         "InvalidSeed"),
        (RECONSTRUCT, '{"values": 5, "points": []}', "InvalidSection"),
        (RECONSTRUCT, '{%s, "points": 5}' % SECTION_VALUES, "InvalidSection"),
        (RECONSTRUCT, '{%s, "points": [[1, 2], [3]]}' % SECTION_VALUES,
         "InvalidSection"),
        (RECONSTRUCT, '{%s, "oblique": [1]}' % SECTION_VALUES, "InvalidSection"),
        (RECONSTRUCT, '{%s, "oblique": {"anchor": null, '
         '"orientation": "down-right"}}' % SECTION_VALUES, "InvalidSection"),
    ], ids=["missing", "directory", "descriptor-list", "section-list",
            "section-without-values", "n-null", "n-float", "n-bool",
            "n-zero", "base-null", "values-int", "points-int", "points-short-pair",
            "oblique-list", "oblique-anchor-null"])
    def test_missing_file(self, capsys, tmp_path, argv, content, error):
        path = tmp_path / "input.json"
        if content is DIRECTORY:
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1


class TestRender:
    def test_json_round_trip(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        code, out, _ = run(capsys, "render", "--in", str(path),
                           "--from", "1", "--cols", "5")
        assert code == 0
        payload = json.loads(out)
        from cfrieze import frieze_from_dict, rat_parse

        frieze = frieze_from_dict(json.loads(path.read_text()))
        for row in payload["rows"]:
            for cell in row["cells"]:
                assert rat_parse(cell["value"]) == frieze.value(cell["i"], cell["j"])

    def test_tsv(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        code, out, _ = run(capsys, "render", "--in", str(path), "--format", "tsv",
                           "--from", "1", "--cols", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 * 6  # cols * (n+4) rows
        i, j, value = lines[0].split("\t")
        assert (int(i), int(j), value) == (1, -1, "0")

    def test_text_grid(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        code, out, _ = run(capsys, "render", "--in", str(path), "--format", "text",
                           "--from", "1", "--cols", "6")
        assert code == 0
        lines = out.split("\n")
        assert len([l for l in lines if l.strip()]) == 6  # rows -1..4
        # the diagonal window anchored at i=1 shows row 1 from x_0 on
        row1 = lines[2].split()
        assert row1[:6] == ["5/2", "4", "3", "3", "4", "5/2"]

    def test_single_column(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        code, out, _ = run(capsys, "render", "--in", str(path), "--format", "text",
                           "--cols", "1")
        assert code == 0
        cells = [l.strip() for l in out.split("\n") if l.strip()]
        assert len(cells) == 6  # one staggered value per row

    def test_bad_cols(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["render", "--in", str(path), "--cols", "0"])
        assert exc.value.code == 2


class TestReconstruct:
    def test_oblique_section_file(self, capsys, tmp_path):
        section = {
            "oblique": {"anchor": 1, "orientation": "down-right"},
            "values": ["0", "1", "4", "8", "8", "0"],
        }
        path = tmp_path / "section.json"
        path.write_text(json.dumps(section))
        code, out, _ = run(capsys, "reconstruct", "--c", "-4", "--n", "2",
                           "--in", str(path))
        assert code == 0
        data = json.loads(out)
        assert sorted(data["seed"]) == sorted(["5/2", "4", "3", "3", "4"])

    def test_zero_on_section(self, capsys, tmp_path):
        section = {
            "oblique": {"anchor": 1, "orientation": "down-right"},
            "values": ["0", "1", "0", "8", "8", "0"],
        }
        path = tmp_path / "section.json"
        path.write_text(json.dumps(section))
        code, _, err = run(capsys, "reconstruct", "--c", "-4", "--n", "2",
                           "--in", str(path))
        assert code == 1 and "ZeroOnSection" in err

    def test_order_mismatch_is_domain_error(self, capsys, tmp_path):
        section = {
            "oblique": {"anchor": 1, "orientation": "down-right"},
            "values": ["0", "1", "4", "8", "8", "0"],
        }
        path = tmp_path / "section.json"
        path.write_text(json.dumps(section))
        code, _, err = run(capsys, "reconstruct", "--c", "-4", "--n", "3",
                           "--in", str(path))
        assert code == 1 and "ValueError" in err


class TestTransform:
    def test_flip(self, capsys, tmp_path):
        path = write_example_descriptor(
            tmp_path, c="4", seed=["2", "-3", "-1", "4/5", "35/8"]
        )
        code, out, _ = run(capsys, "transform", "--in", str(path), "--op", "flip")
        assert code == 0
        data = json.loads(out)
        assert data["c"] == "-4"
        assert data["seed"] == ["-2", "-3", "1", "4/5", "-35/8"]

    def test_scale(self, capsys, tmp_path):
        path = write_example_descriptor(
            tmp_path, c="-1", seed=["1", "2", "2", "1", "3"]
        )
        code, out, _ = run(capsys, "transform", "--in", str(path), "--op", "scale:3")
        assert code == 0
        data = json.loads(out)
        assert data["c"] == "-9" and data["seed"] == ["3", "6", "6", "3", "9"]

    def test_gamma_and_inverse(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path, seed=["1", "6", "6", "1", "16"])
        code, out, _ = run(capsys, "transform", "--in", str(path), "--op", "gamma")
        assert code == 0
        lifted = json.loads(out)
        assert lifted["seed"] == ["3", "6", "6", "1", "18", "2"]
        lifted_path = tmp_path / "lifted.json"
        lifted_path.write_text(json.dumps(lifted))

        code, out, _ = run(capsys, "transform", "--in", str(lifted_path),
                           "--op", "gamma-inv:6")
        assert code == 0
        assert json.loads(out)["seed"] == ["1", "6", "6", "1", "16"]

        # without an explicit index, the induced entry is located automatically
        code, out, _ = run(capsys, "transform", "--in", str(lifted_path),
                           "--op", "gamma-inv")
        assert code == 0
        assert json.loads(out)["seed"] == ["1", "6", "6", "1", "16"]

    def test_gamma_inv_not_induced(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path, seed=["1", "6", "6", "1", "16"])
        code, _, err = run(capsys, "transform", "--in", str(path),
                           "--op", "gamma-inv")
        assert code == 1 and "NotInduced" in err

    def test_gamma_inv_bad_index_is_usage_error(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", str(path), "--op", "gamma-inv:x"])
        assert exc.value.code == 2

    def test_unknown_op(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", str(path), "--op", "rotate"])
        assert exc.value.code == 2


class TestVerify:
    def test_identities_green(self, capsys):
        code, out, _ = run(capsys, "verify", "--identities", "--max-k", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines and all(line.startswith("ok ") for line in lines)
        assert any(line.startswith("ok concat(") for line in lines)
        assert any(line.startswith("ok signflip(") for line in lines)


    @pytest.mark.parametrize("max_k", ["0", "13"])
    def test_max_k_outside_cap_is_usage_error(self, capsys, max_k):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identities", "--max-k", max_k])
        assert exc.value.code == 2
        assert "--max-k must lie in 1..12" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        path = write_example_descriptor(tmp_path)
        _, out1, _ = run(capsys, "analyze", "--in", str(path))
        _, out2, _ = run(capsys, "analyze", "--in", str(path))
        assert out1 == out2
        _, r1, _ = run(capsys, "render", "--in", str(path), "--format", "text")
        _, r2, _ = run(capsys, "render", "--in", str(path), "--format", "text")
        assert r1 == r2
