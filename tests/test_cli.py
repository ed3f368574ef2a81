import json

import pytest

from ctsbisim.cli import main


def run(*argv):
    return main([str(a) for a in argv])


class TestCheck:
    def test_bisimilar_under_advanced(self, models_dir, tmp_path, capsys):
        code = run(
            "check",
            models_dir / "routing_basic.json",
            models_dir / "routing_modified.json",
            "--pair",
            "ready,ready,a",
            "--out",
            tmp_path / "r.json",
        )
        assert code == 0

    def test_not_bisimilar_under_basic(self, models_dir, tmp_path):
        code = run(
            "check",
            models_dir / "routing_basic.json",
            models_dir / "routing_modified.json",
            "--pair",
            "ready,ready,b",
            "--out",
            tmp_path / "r.json",
        )
        assert code == 1

    def test_report_contents(self, models_dir, tmp_path):
        out = tmp_path / "r.json"
        run(
            "check",
            models_dir / "routing_basic.json",
            models_dir / "routing_modified.json",
            "--out",
            out,
        )
        report = json.loads(out.read_text())
        entry = next(
            p
            for p in report["pairs"]
            if p["left"] == "ready" and p["right"] == "ready"
        )
        assert entry["conditions"] == ["a"]

    def test_malformed_json_exits_2_naming_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "cts", "states": ["x"], "alphabet": ["m"]}))
        code = run("check", bad, bad)
        assert code == 2
        err = capsys.readouterr().err
        assert "model.transitions: missing field" in err

    def test_unreadable_file_exits_2(self, tmp_path):
        assert run("check", tmp_path / "missing.json", tmp_path / "missing.json") == 2

    def test_backends_produce_identical_reports(self, models_dir, tmp_path):
        pairs = [
            ("routing_basic.json", "routing_modified.json"),
            ("routing_fts_basic.json", "routing_fts_modified.json"),
            ("routing_basic.json", "routing_basic.json"),
        ]
        for left, right in pairs:
            out_e = tmp_path / "e.json"
            out_b = tmp_path / "b.json"
            assert run("check", models_dir / left, models_dir / right, "--out", out_e) == 0
            assert (
                run(
                    "check",
                    models_dir / left,
                    models_dir / right,
                    "--backend",
                    "bdd",
                    "--out",
                    out_b,
                )
                == 0
            )
            assert out_e.read_bytes() == out_b.read_bytes()

    def test_precedence_flag(self, models_dir, tmp_path):
        code = run(
            "check",
            models_dir / "routing_basic.json",
            models_dir / "routing_basic.json",
            "--precedence",
            "--pair",
            "safe,unsafe,b",
            "--out",
            tmp_path / "r.json",
        )
        assert code == 1


    @pytest.mark.parametrize(
        "command, pair, unknown",
        [
            ("check", "ready,ready,zzz", "'zzz'"),
            ("check", "ready,nosuch,a", "'nosuch'"),
            ("oracle", "ready,nosuch,a", "'nosuch'"),
        ],
    )
    def test_unknown_pair_names_exit_2(self, models_dir, tmp_path, capsys, command, pair, unknown):
        code = run(
            command,
            models_dir / "routing_basic.json",
            models_dir / "routing_modified.json",
            "--pair",
            pair,
            "--out",
            tmp_path / "r.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert unknown in err


class TestOracle:
    def test_byte_identical_to_check(self, models_dir, tmp_path):
        check_out = tmp_path / "check.json"
        oracle_out = tmp_path / "oracle.json"
        assert (
            run(
                "check",
                models_dir / "routing_basic.json",
                models_dir / "routing_modified.json",
                "--out",
                check_out,
            )
            == 0
        )
        assert (
            run(
                "oracle",
                models_dir / "routing_basic.json",
                models_dir / "routing_modified.json",
                "--out",
                oracle_out,
            )
            == 0
        )
        assert check_out.read_bytes() == oracle_out.read_bytes()

    def test_pair_verdict(self, models_dir, tmp_path):
        assert (
            run(
                "oracle",
                models_dir / "routing_basic.json",
                models_dir / "routing_modified.json",
                "--pair",
                "ready,ready,b",
                "--out",
                tmp_path / "o.json",
            )
            == 1
        )


class TestConvert:
    def test_fts_to_lats_prints_config_guards(self, models_dir, capsys):
        assert run("convert", models_dir / "routing_fts_basic.json", "--to", "lats") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "lats"
        guards = {
            (t["from"], t["action"], t["to"]): t["guard"] for t in payload["transitions"]
        }
        assert guards[("unsafe", "e", "ready")] == ["{enc}"]

    def test_undefined_conversion_exits_2(self, models_dir, capsys):
        assert run("convert", models_dir / "routing_basic.json", "--to", "fts") == 2
        assert "not defined" in capsys.readouterr().err


class TestApprox:
    def test_fig_formula(self, models_dir, tmp_path):
        out = tmp_path / "approx.json"
        assert run("approx", models_dir / "fig_bdd_approx.json", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["input"]["inner_nodes"] == 6
        assert report["output"]["downward_closed"] is True
        assert report["input"]["dot"].startswith("digraph")
        assert out.with_suffix(".approx.dot").exists()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "approx.json"
        bad.write_text(json.dumps({"features": ["f"]}))
        assert run("approx", bad) == 2
        assert "upgrade" in capsys.readouterr().err


class TestGame:
    def test_self_play_transcripts(self, models_dir, tmp_path):
        out = tmp_path / "game.txt"
        assert (
            run(
                "game",
                models_dir / "routing_basic.json",
                models_dir / "routing_modified.json",
                "--start",
                "ready,ready,b",
                "--self-play",
                "--out",
                out,
            )
            == 0
        )
        text = out.read_text()
        assert "winner: Player 1" in text

    def test_bad_start_pair_exits_2(self, models_dir, capsys):
        assert (
            run(
                "game",
                models_dir / "routing_basic.json",
                models_dir / "routing_basic.json",
                "--start",
                "nonsense",
                "--self-play",
            )
            == 2
        )


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run("bench", "--n-min", 1, "--n-max", 2, "--repeats", 1, "--out", out) == 0
        report = json.loads(out.read_text())
        assert [row["n"] for row in report["rows"]] == [1, 2]
        for row in report["rows"]:
            assert row["checksums_match"] is True
            assert row["explicit"]["status"] == "ok"
            assert row["bdd"]["status"] == "ok"
        table = capsys.readouterr().out
        assert "ratio" in table
