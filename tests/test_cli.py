import csv
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strtherm as st
from strtherm.cli import (
    _PERIODIC_PATTERN,
    AnalysisConfig,
    analyze,
    corpus_summary,
    gen_corpus,
    main,
)
from strtherm.thermo import REPORT_FIELDS


@pytest.fixture
def crafted_file(tmp_path):
    # first four bits are 0101
    path = tmp_path / "crafted.bin"
    path.write_bytes(b"\x50")
    return str(path)


class TestGenCorpus:
    def test_all_zero(self, tmp_path):
        out = tmp_path / "z.bin"
        gen_corpus("all_zero", 16, 0, str(out))
        assert out.read_bytes() == b"\x00" * 16

    def test_random_determinism(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        gen_corpus("random", 16384, 7, str(a))
        gen_corpus("random", 16384, 7, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) == 16384

    def test_random_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        gen_corpus("random", 64, 1, str(a))
        gen_corpus("random", 64, 2, str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_periodic_repeats_pattern(self, tmp_path):
        out = tmp_path / "p.bin"
        gen_corpus("periodic", 10, 0, str(out))
        data = out.read_bytes()
        assert len(data) == 10
        assert data == (_PERIODIC_PATTERN * 3)[:10]

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ValueError):
            gen_corpus("fibonacci", 8, 0, str(tmp_path / "x.bin"))

    def test_zero_bytes_rejected(self, tmp_path, capsys):
        out = tmp_path / "e.bin"
        rc = main(["gen", "--kind", "random", "--bytes", "0",
                   "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert "corpus size must be >= 1 byte" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        assert main(["gen", "--kind", "random", "--bytes", "32",
                     "--seed", "5", "--out", str(out)]) == 0
        assert len(out.read_bytes()) == 32
        rc = main(["gen", "--kind", "random", "--bytes", "8",
                   "--seed", "1", "--out", str(tmp_path / "no" / "dir.bin")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def test_crafted_json_report(self, crafted_file, capsys):
        rc = main(["analyze", crafted_file, "--bits", "4", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report_version"] == 1
        assert doc["mode"] == "self"
        assert doc["bit_order"] == "msb_first"
        assert doc["nbits"] == 4
        assert doc["n_obs"] == 4
        assert doc["full_ensemble"] is True
        assert doc["report"]["u_bar"] == pytest.approx(0.5)
        assert doc["report"]["t"] == pytest.approx(0.25)

    def test_human_analysis_loads_no_json_or_csv(self, crafted_file):
        # -S: a .pth file in site-packages may import either before the
        # script runs
        script = (
            "import sys\n"
            "from strtherm import cli\n"
            "assert cli.main(['analyze', sys.argv[1], '--format', 'human']) == 0\n"
            "assert not {'json', 'csv'} & set(sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(st.__file__).parents[1])}
        subprocess.run([sys.executable, "-S", "-c", script, crafted_file],
                       check=True, env=env, stdout=subprocess.DEVNULL)

    def test_nan_report_is_not_printed(
        self, crafted_file, tmp_path, monkeypatch, capsys
    ):
        build = st.thermo.build_report

        def nan_report(h, m):
            # the built report, through ThermoReport's own constructor, with
            # a temperature no JSON may hold
            report = build(h, m)
            names = inspect.signature(st.ThermoReport).parameters
            values = {name: getattr(report, name) for name in names}
            return st.ThermoReport(**{**values, "temperature": float("nan")})

        monkeypatch.setattr(st.thermo, "build_report", nan_report)
        hist_path = tmp_path / "dots.csv"
        rc = main(["analyze", crafted_file, "--bits", "4", "--format", "json",
                   "--emit-histogram", str(hist_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err
        # a report that cannot be rendered leaves no artifacts either
        assert not hist_path.exists()

    def test_all_zero_degenerate_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "z.bin"
        path.write_bytes(b"\x00" * 64)
        rc = main(["analyze", str(path), "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["degenerate"] is True
        assert doc["report"]["t"] == 0.0
        assert doc["report"]["z"] is None

    def test_empty_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.bin")]) == 2
        capsys.readouterr()

    def test_oversize_ensemble_exit_two(self, crafted_file, capsys):
        assert main(["analyze", crafted_file, "--ensemble", "9"]) == 2
        capsys.readouterr()

    def test_zero_ensemble_exit_two(self, crafted_file, capsys):
        assert main(["analyze", crafted_file, "--ensemble", "0"]) == 2
        capsys.readouterr()

    def test_bits_beyond_input_exit_two(self, crafted_file, capsys):
        assert main(["analyze", crafted_file, "--bits", "100"]) == 2
        capsys.readouterr()

    def test_human_format_units(self, crafted_file, capsys):
        rc = main(["analyze", crafted_file, "--bits", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bits/particle" in out
        assert "bits/bit" in out
        assert "nats" in out
        assert "full ensemble" in out

    def test_csv_format(self, crafted_file, capsys):
        rc = main(["analyze", crafted_file, "--bits", "4", "--format", "csv"])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        idx = dict(zip(header.split(","), row.split(",")))
        assert float(idx["u_bar"]) == pytest.approx(0.5)

    def test_emit_artifacts(self, crafted_file, tmp_path, capsys):
        hist_path = tmp_path / "dots.csv"
        curve_path = tmp_path / "lines.csv"
        rc = main(["analyze", crafted_file, "--bits", "4",
                   "--emit-histogram", str(hist_path),
                   "--emit-curves", str(curve_path)])
        assert rc == 0
        capsys.readouterr()
        assert hist_path.read_text() == "C,N_count\n0,2\n4,2\n"
        lines = curve_path.read_text().strip().split("\n")
        assert lines[0] == "C,N_normal,N_binomial"
        assert len(lines) > 1

    def test_failed_emit_prints_no_report(self, crafted_file, tmp_path, capsys):
        rc = main(["analyze", crafted_file, "--bits", "4", "--format", "csv",
                   "--emit-histogram", str(tmp_path / "no" / "dots.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_degenerate_skips_curves(self, tmp_path, capsys):
        path = tmp_path / "z.bin"
        path.write_bytes(b"\x00" * 8)
        curve_path = tmp_path / "lines.csv"
        rc = main(["analyze", str(path), "--emit-curves", str(curve_path)])
        assert rc == 0
        assert "no curve" in capsys.readouterr().err
        assert not curve_path.exists()

    def test_lsb_bit_order(self, tmp_path, capsys):
        # 0x50 is 00001010 when bit 0 is the LSB; first 4 bits then 0000
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x50")
        rc = main(["analyze", str(path), "--bits", "4", "--bit-order", "lsb",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bit_order"] == "lsb_first"
        assert doc["report"]["degenerate"] is True

    def test_pair_mode(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        gen_corpus("random", 64, 1, str(a))
        gen_corpus("random", 64, 2, str(b))
        rc = main(["analyze", str(a), "--pair", str(b), "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "pair"
        assert doc["pair_input"] == str(b)
        assert doc["nbits"] == 512

    def test_pair_mode_human(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        gen_corpus("random", 64, 1, str(a))
        gen_corpus("random", 64, 2, str(b))
        rc = main(["analyze", str(a), "--pair", str(b)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            f"input:            {a}",
            f"pair input:       {b}",
            "mode:             pair",
        ]

    def test_pair_bits_beyond_second_input_names_it(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        gen_corpus("random", 100, 1, str(a))
        gen_corpus("random", 50, 2, str(b))
        rc = main(["analyze", str(a), "--pair", str(b), "--bits", "500"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"strtherm: error: {b}: truncation length must be in [1, 400], got 500\n"
        )

    @pytest.mark.parametrize("count", [0, 3])
    def test_input_count_rejected(self, crafted_file, count):
        with pytest.raises(ValueError, match="one input, or two"):
            analyze(AnalysisConfig(inputs=(crafted_file,) * count))

    def test_pipeline_matches_library(self, tmp_path):
        path = tmp_path / "r.bin"
        gen_corpus("random", 512, 3, str(path))
        result = analyze(AnalysisConfig(inputs=(str(path),)))
        b = st.from_bytes(path.read_bytes())
        h = st.histogram(st.build_self_ensemble(b, b.nbits))
        expected = st.build_report(h)
        assert result.report == expected


class TestBatch:
    def test_summary_rows(self, tmp_path, capsys):
        good = tmp_path / "good.bin"
        gen_corpus("random", 256, 1, str(good))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"# corpus\n{good}\n\n{tmp_path / 'missing.bin'}\n"
        )
        rc = main(["batch", str(manifest), "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("input,u_bar,u_bar_eq")
        assert len(lines) == 3
        assert str(good) in lines[1]
        assert "missing.bin" in lines[2]
        # the failing row carries an error message and empty metrics
        assert lines[2].count(",,") >= 1

    def test_bits_beyond_input_names_it_in_its_row(self, tmp_path, capsys):
        long, short = tmp_path / "long.bin", tmp_path / "short.bin"
        gen_corpus("random", 100, 1, str(long))
        gen_corpus("random", 50, 2, str(short))
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{long}\n{short}\n")
        assert main(["batch", str(manifest), "--bits", "500", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["error"] for row in rows] == [
            "",
            f"{short}: truncation length must be in [1, 400], got 500",
        ]

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("# nothing here\n\n")
        rc = main(["batch", str(manifest), "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1

    def test_human_table(self, tmp_path, capsys):
        path = tmp_path / "r.bin"
        gen_corpus("random", 256, 2, str(path))
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{path}\n")
        assert main(["batch", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "u_bar" in out and str(path) in out

    def test_corpus_summary_random_and_compressed_equilibrate(self, tmp_path):
        import zlib

        raw = tmp_path / "rand.bin"
        gen_corpus("random", 16384, 11, str(raw))
        comp = tmp_path / "rand.z"
        comp.write_bytes(zlib.compress(raw.read_bytes(), 9))
        rows = corpus_summary(
            [AnalysisConfig(inputs=(str(raw),)), AnalysisConfig(inputs=(str(comp),))]
        )
        for row in rows:
            assert row["error"] == ""
            assert row["u_bar"] == pytest.approx(row["u_bar_eq"], rel=0.1)


class TestReportFields:
    """Every rendering follows the one field table, in JSON key order."""

    @pytest.fixture
    def analyzed(self, tmp_path, capsys):
        path = tmp_path / "r.bin"
        gen_corpus("random", 64, 5, str(path))

        def run(*args):
            assert main([*args]) == 0
            return capsys.readouterr().out

        doc = json.loads(run("analyze", str(path), "--format", "json"))
        return path, doc["report"], run

    def test_csv_header_is_json_keys(self, analyzed):
        path, report, run = analyzed
        header, row = run("analyze", str(path), "--format", "csv").splitlines()
        assert header.split(",") == list(report)
        assert [f.key for f in REPORT_FIELDS] == list(report)

    def test_human_rows_follow_json_keys(self, analyzed):
        path, report, run = analyzed
        rows = []
        for line in run("analyze", str(path)).splitlines():
            label, _, rest = line.partition(":")
            if "  [" in rest:
                value, _, unit = rest.strip().partition("  [")
                rows.append((label, value, unit.rstrip("]")))
        want = [(f.label, f"{report[f.key]:.6g}", f.unit)
                for f in REPORT_FIELDS if f.key != "degenerate"]
        assert rows == want

    def test_batch_csv_header_and_cells(self, analyzed, tmp_path):
        path, report, run = analyzed
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{path}\n")
        out = run("batch", str(manifest), "--format", "csv")
        header, row = csv.reader(io.StringIO(out))
        summary = [f.key for f in REPORT_FIELDS if f.in_summary]
        assert header == ["input", *summary, "error"]
        assert summary == ["u_bar", "u_bar_eq", "s_thermo", "s_thermo_eq",
                           "s_micro_per_bit", "s_micro_eq_per_bit", "fit_quality"]
        # batch cells render exactly as the report CSV renders them
        report_header, report_row = run(
            "analyze", str(path), "--format", "csv"
        ).splitlines()
        cells = dict(zip(report_header.split(","), report_row.split(",")))
        assert row == [str(path), *(cells[k] for k in summary), ""]

    def test_readme_table_is_json_keys(self, analyzed):
        _, report, _ = analyzed
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Reading the report", 1)[1].split("\n#", 1)[0]
        keys = [line.split("`")[1] for line in section.splitlines()
                if line.startswith("| `")]
        assert keys == list(report)


class TestDeterminism:
    def test_json_output_byte_identical(self, tmp_path):
        path = tmp_path / "input.bin"
        gen_corpus("random", 2048, 42, str(path))
        cmd = [sys.executable, "-m", "strtherm", "analyze", str(path),
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0

    def test_calls_in_one_process_match_each_alone(self, tmp_path):
        # the parser is built once per process; no call may leave an
        # option or a default behind for the next one
        gen_corpus("random", 512, 3, str(tmp_path / "r.bin"))
        gen_corpus("periodic", 96, 0, str(tmp_path / "p.bin"))
        (tmp_path / "m.txt").write_text("r.bin\np.bin\n")
        calls = [
            ["analyze", "r.bin", "--pair", "p.bin", "--ensemble", "7",
             "--bit-order", "lsb", "--format", "csv", "--emit-histogram", "h1.csv"],
            ["batch", "m.txt", "--bits", "100"],
            ["analyze", "r.bin", "--emit-histogram", "h2.csv"],
            ["analyze", "r.bin", "--bogus"],
        ]
        script = (
            "import json, sys\n"
            "from strtherm.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        code = main(argv)\n"
            "    except SystemExit as exit:\n"
            "        code = exit.code\n"
            "    print('exit', code, flush=True)\n"
            "    print('exit', code, file=sys.stderr, flush=True)\n"
        )

        env = {**os.environ, "PYTHONPATH": str(Path(st.__file__).parents[1])}

        def run(argvs):
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argvs)],
                capture_output=True, check=True, cwd=tmp_path, env=env,
            )
            emitted = {p.name: p.read_bytes() for p in tmp_path.glob("h*.csv")}
            for p in tmp_path.glob("h*.csv"):
                p.unlink()
            return proc.stdout, proc.stderr, emitted

        alone = [run([argv]) for argv in calls]
        together = run(calls)
        assert together[0] == b"".join(out for out, _, _ in alone)
        assert together[1] == b"".join(err for _, err, _ in alone)
        assert together[2] == {k: v for _, _, e in alone for k, v in e.items()}
        assert together[2].keys() == {"h1.csv", "h2.csv"}
        assert b"exit 2" in together[1]

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "strtherm", "--help"], capture_output=True
        )
        assert proc.returncode == 0
        assert b"analyze" in proc.stdout
