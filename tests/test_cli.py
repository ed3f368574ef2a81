import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctsbisim
from ctsbisim.cli import main
from ctsbisim.engine import brute_force_oracle, greatest_bisimulation
from ctsbisim.modelio import load_model

from conftest import GAME_SESSIONS, two_feature_fts_dicts


BDD = ("--backend", "bdd")
DATA = Path(__file__).resolve().parent / "data"

# three features, one of them static (log); the diagram removes {}, {ssl}
# and {log,ssl}
THREE_FEATURE_FTS = {
    "kind": "fts",
    "states": ["idle", "auth", "send", "log"],
    "alphabet": ["login", "push", "audit", "done"],
    "precedence": [["audit", "done"]],
    "features": ["enc", "log", "ssl"],
    "upgrade": ["enc", "ssl"],
    "diagram": "(ssl -> enc) & (log | enc)",
    "transitions": [
        {"from": "idle", "action": "login", "to": "auth", "guard": "true"},
        {"from": "auth", "action": "push", "to": "send", "guard": "enc | !log"},
        {"from": "auth", "action": "push", "to": "idle", "guard": "ssl"},
        {"from": "send", "action": "audit", "to": "log", "guard": "log & enc"},
        {"from": "send", "action": "done", "to": "idle", "guard": "true"},
        {"from": "log", "action": "done", "to": "idle", "guard": "!log -> ssl"},
    ],
}

# one transition whose guard "!enc" holds at {} but not at the upgrade {enc}
NOT_ENC_FTS = {
    "kind": "fts",
    "states": ["p", "q"],
    "alphabet": ["a"],
    "features": ["enc"],
    "upgrade": ["enc"],
    "transitions": [{"from": "p", "action": "a", "to": "q", "guard": "!enc"}],
}


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

    def test_non_object_transition_exits_2(self, models_dir, tmp_path, capsys):
        raw = json.loads((models_dir / "routing_basic.json").read_text())
        raw["transitions"][0] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run("check", bad, bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "transitions[0]: expected an object" in err

    def test_unclosed_lats_guard_exits_2_naming_the_witness(self, tmp_path, capsys):
        # a <= b, and the guard holds at b but not at its upgrade a
        lats = {
            "kind": "lats",
            "states": ["x"],
            "alphabet": ["act"],
            "poset": {"elements": ["a", "b"], "leq": [["a", "b"]]},
            "transitions": [{"from": "x", "action": "act", "to": "x", "guard": ["b"]}],
        }
        # a LaTS is refused as it is loaded, an FTS as its guards are built
        path = tmp_path / "m.json"
        for model, witness in (
            (lats, "%s: guard of (x, act, x) holds at b but not at the upgrade a" % path),
            (NOT_ENC_FTS, "guard of (p, a, q) holds at {} but not at the upgrade {enc}"),
        ):
            path.write_text(json.dumps(model))
            for backend in ("explicit", "bdd"):
                assert run("check", path, path, "--backend", backend, "--out", tmp_path / "r.json") == 2
                assert capsys.readouterr().err == "error: %s\n" % witness

    def test_unreadable_file_exits_2(self, tmp_path):
        assert run("check", tmp_path / "missing.json", tmp_path / "missing.json") == 2

    def test_unwritable_out_exits_2(self, models_dir, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "r.json"
        code = run("check", models_dir / "routing_basic.json", models_dir / "routing_modified.json", "--out", out)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")
        assert not out.parent.exists()

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


    def test_feature_names_that_collide_as_conditions_exit_2(self, tmp_path, capsys):
        # {a,b} would name both the configuration of a and b and that of "a,b"
        model = {
            "kind": "fts",
            "states": ["s"],
            "alphabet": ["act"],
            "features": ["a", "b", "a,b"],
            "transitions": [{"from": "s", "action": "act", "to": "s", "guard": "a"}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        for backend in ("explicit", "bdd"):
            assert run("check", path, path, "--backend", backend, "--out", tmp_path / "r.json") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "model.features[2]" in err

    # the ids of the explicit cases predate the model and option columns
    @pytest.mark.parametrize(
        "command, pair, unknown, stem, options",
        [
            pytest.param(
                "check", "ready,ready,zzz", "'zzz'", "routing", (),
                id="check-ready,ready,zzz-'zzz'",
            ),
            pytest.param(
                "check", "ready,nosuch,a", "'nosuch'", "routing", (),
                id="check-ready,nosuch,a-'nosuch'",
            ),
            pytest.param(
                "oracle", "ready,nosuch,a", "'nosuch'", "routing", (),
                id="oracle-ready,nosuch,a-'nosuch'",
            ),
            pytest.param(
                "check", "ready,ready,zzz", "'zzz'", "routing", BDD,
                id="bdd-ready,ready,zzz-'zzz'",
            ),
            pytest.param(
                "check", "ready,ready,zzz", "'zzz'", "routing_fts", BDD,
                id="bdd-fts-ready,ready,zzz-'zzz'",
            ),
            pytest.param("check", "nosuch", "got 'nosuch'", "routing", (), id="check-malformed"),
            pytest.param("oracle", "badpair", "got 'badpair'", "routing", (), id="oracle-malformed"),
            pytest.param("check", "", "--pair expects 'left-state,right-state,condition', got ''",
                         "routing", (), id="check-empty"),
            pytest.param("oracle", "", "--pair expects 'left-state,right-state,condition', got ''",
                         "routing", (), id="oracle-empty"),
        ],
    )
    def test_unknown_pair_names_exit_2(
        self, models_dir, tmp_path, capsys, command, pair, unknown, stem, options
    ):
        # the pair is read and answered before the report is written
        out = tmp_path / "r.json"
        code = run(
            command,
            models_dir / (stem + "_basic.json"),
            models_dir / (stem + "_modified.json"),
            "--pair",
            pair,
            "--out",
            out,
            *options,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert unknown in captured.err
        assert captured.out == ""
        assert not out.exists()

    # tests/data holds these reports as the json.dumps(indent=2) rendering wrote them
    @pytest.mark.parametrize("stem, data", [("routing", "cts"), ("routing_fts", "fts")])
    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    @pytest.mark.parametrize("precedence", [(), ("--precedence",)], ids=["plain", "precedence"])
    def test_report_bytes_are_the_recorded_ones(
        self, models_dir, tmp_path, stem, data, backend, precedence
    ):
        # precedence does not change these two pairs' relations
        out = tmp_path / "r.json"
        code = run(
            "check",
            models_dir / (stem + "_basic.json"),
            models_dir / (stem + "_modified.json"),
            "--backend",
            backend,
            "--out",
            out,
            *precedence,
        )
        assert code == 0
        assert out.read_bytes() == (DATA / ("check_routing_%s.json" % data)).read_bytes()

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_stdout_gets_the_recorded_bytes(self, models_dir, capsysbinary, backend):
        # the report goes to stdout's byte stream as report_bytes made it
        code = run("check", models_dir / "routing_fts_basic.json", models_dir / "routing_fts_modified.json",
                   "--backend", backend)
        assert code == 0
        assert capsysbinary.readouterr().out == (DATA / "check_routing_fts.json").read_bytes()

    def test_stdout_without_a_byte_stream_gets_the_same_text(self, models_dir, monkeypatch):
        text = io.StringIO()
        monkeypatch.setattr("sys.stdout", text)
        assert run("check", models_dir / "routing_basic.json", models_dir / "routing_modified.json") == 0
        assert text.getvalue() == (DATA / "check_routing_cts.json").read_text()

    def test_var_order_prints_the_same_report(self, models_dir, tmp_path):
        three = tmp_path / "three.json"
        three.write_text(json.dumps(THREE_FEATURE_FTS))
        routing = models_dir / "routing_fts_basic.json", models_dir / "routing_fts_modified.json"
        for (left, right), order in ((routing, "enc"), ((three, three), "ssl,log,enc")):
            plain, permuted = tmp_path / "plain.json", tmp_path / "permuted.json"
            assert run("check", left, right, *BDD, "--out", plain) == 0
            assert run("check", left, right, *BDD, "--var-order", order, "--out", permuted) == 0
            assert permuted.read_bytes() == plain.read_bytes()

    def test_var_order_that_is_not_a_permutation_exits_2(self, models_dir, tmp_path, capsys):
        code = run(
            "check",
            models_dir / "routing_fts_basic.json",
            models_dir / "routing_fts_modified.json",
            *BDD,
            "--var-order",
            "enc,ssl",
            "--out",
            tmp_path / "r.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "variable order ['enc', 'ssl'] is not a permutation" in err

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    @pytest.mark.parametrize(
        "stem, universe", [("routing", "['a', 'b']"), ("routing_fts", "['enc']")], ids=["cts", "fts"]
    )
    def test_var_order_is_checked_on_every_backend(self, models_dir, tmp_path, capsys, backend, stem, universe):
        # the explicit backend builds no BDD, yet refuses the order as the BDD backend does
        pair = models_dir / (stem + "_basic.json"), models_dir / (stem + "_modified.json")
        out = tmp_path / "r.json"
        assert run("check", *pair, "--backend", backend, "--var-order", "nosuch", "--out", out) == 2
        assert not out.exists()
        err = "error: variable order ['nosuch'] is not a permutation of the universe %s\n" % universe
        assert capsys.readouterr().err == err


@pytest.fixture
def two_feature_files(tmp_path):
    paths = tmp_path / "left.json", tmp_path / "right.json"
    for path, model in zip(paths, two_feature_fts_dicts()):
        path.write_text(json.dumps(model))
    return paths


class TestMultiFeatureConditions:
    """A condition naming two or more features holds commas: ``{f1,f2}``."""

    @pytest.mark.parametrize("cond", ["{f1,f2}", "{f1}"])
    @pytest.mark.parametrize("command, backend", [("check", "explicit"), ("check", "bdd"), ("oracle", None)])
    def test_pair_verdict_is_holds(self, two_feature_files, tmp_path, command, backend, cond):
        left_path, right_path = two_feature_files
        left, right = load_model(left_path), load_model(right_path)
        if command == "oracle":
            result, options = brute_force_oracle(left, right), ()
        else:
            result, options = greatest_bisimulation(left, right, backend=backend), ("--backend", backend)
        expected = result.holds("s", "s", cond)
        assert expected == (cond == "{f1,f2}")
        pair = "s,s," + cond
        code = run(command, left_path, right_path, "--pair", pair, "--out", tmp_path / "r.json", *options)
        assert code == (0 if expected else 1)

    def test_game_start(self, two_feature_files, tmp_path):
        out = tmp_path / "game.txt"
        code = run("game", *two_feature_files, "--start", "s,s,{f1,f2}", "--self-play", "--out", out)
        assert code == 0
        assert "winner: Player 2" in out.read_text()


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

    # tests/data holds the convert output as the per-configuration build wrote
    # it; element order and poset rows are part of the output contract
    @pytest.mark.parametrize("to", ["lats", "cts"])
    @pytest.mark.parametrize("stem", ["routing_fts", "three_feature"])
    def test_output_bytes_are_the_recorded_ones(self, models_dir, tmp_path, stem, to):
        if stem == "routing_fts":
            path = models_dir / "routing_fts_basic.json"
        else:
            path = tmp_path / "three.json"
            path.write_text(json.dumps(THREE_FEATURE_FTS))
        out = tmp_path / "out.json"
        assert run("convert", path, "--to", to, "--out", out) == 0
        assert out.read_bytes() == (DATA / ("convert_%s_%s.json" % (stem, to))).read_bytes()

    def test_converted_lats_checks_on_bdd(self, models_dir, tmp_path):
        lats = tmp_path / "lats.json"
        assert run("convert", models_dir / "routing_fts_basic.json", "--to", "lats", "--out", lats) == 0
        code = run("check", lats, lats, *BDD, "--pair", "ready,ready,{enc}", "--out", tmp_path / "r.json")
        assert code == 0

    @pytest.mark.parametrize("stem, kind", [("routing_basic", "cts"), ("routing_fts_basic", "fts")])
    def test_conversion_to_the_own_kind_loads_an_equal_model(self, models_dir, tmp_path, stem, kind):
        out = tmp_path / "out.json"
        assert run("convert", models_dir / ("%s.json" % stem), "--to", kind, "--out", out) == 0
        assert load_model(out) == load_model(models_dir / ("%s.json" % stem))

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

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"features": 5, "upgrade": [], "expr": "x"}, "input.features"),
            ({"features": ["a"], "upgrade": [], "expr": 5}, "input.expr"),
            (5, "input: expected an object"),
            ({"features": ["a", "a,b"], "upgrade": [], "expr": "a"}, "input.features[1]"),
        ],
        ids=["features-not-a-list", "expr-not-a-string", "not-an-object", "feature-name-not-an-atom"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, raw, field):
        bad = tmp_path / "approx.json"
        bad.write_text(json.dumps(raw))
        assert run("approx", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert field in err


class TestGame:
    def test_self_play_transcripts(self, models_dir, tmp_path):
        # the CTS pair from a bisimilar and a separated instance, and the raw
        # FTS pair, where "{}" lacks the encryption upgrade as "b" does;
        # tests/data holds the transcripts as the game wrote them before its
        # move generators and input loop were merged
        for stem, cond, name in (
            ("routing", "a", "routing_a"),
            ("routing", "b", "routing_b"),
            ("routing_fts", "{}", "routing_fts"),
        ):
            out = tmp_path / (name + ".txt")
            assert (
                run(
                    "game",
                    models_dir / (stem + "_basic.json"),
                    models_dir / (stem + "_modified.json"),
                    "--start",
                    "ready,ready," + cond,
                    "--self-play",
                    "--out",
                    out,
                )
                == 0
            )
            assert out.read_bytes() == (DATA / ("game_self_play_%s.txt" % name)).read_bytes()

    def test_stdin_session_writes_the_scripted_transcript(self, models_dir, tmp_path, monkeypatch):
        # the lines of a scripted session, typed on stdin
        start, human_side, lines = GAME_SESSIONS["attacker"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
        out = tmp_path / "game.txt"
        code = run(
            "game",
            models_dir / "routing_basic.json",
            models_dir / "routing_modified.json",
            "--start",
            ",".join(start),
            "--human",
            human_side,
            "--out",
            out,
        )
        assert code == 0
        assert out.read_bytes() == (DATA / "game_attacker.txt").read_bytes()

    def test_bad_start_pair_exits_2(self, tmp_path, capsys):
        # the instance is read before the models, so a missing file goes unread
        missing, out = tmp_path / "missing.json", tmp_path / "t.txt"
        for start in ("nonsense", ""):
            assert run("game", missing, missing, "--start", start, "--self-play", "--out", out) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: --start expects 'left-state,right-state,condition', got %r\n" % start
            assert captured.out == ""
            assert not out.exists()


class TestClose:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "M", "M"),
            ("check", "M", "M", *BDD),
            ("oracle", "M", "M"),
            ("game", "M", "M", "--start", "p,p,{}", "--self-play"),
            ("convert", "M", "--to", "lats"),
        ],
        ids=["check", "check-bdd", "oracle", "game", "convert"],
    )
    def test_close_is_honoured_on_fts(self, tmp_path, argv):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(NOT_ENC_FTS))
        out = tmp_path / "out.txt"
        assert run(*(model if a == "M" else a for a in argv), "--close", "--out", out) == 0
        if argv[0] == "oracle":
            check_out = tmp_path / "check.json"
            assert run("check", model, model, "--close", "--out", check_out) == 0
            assert out.read_bytes() == check_out.read_bytes()


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

    def test_budget_marks_the_first_run_and_skips_later_sizes(self, tmp_path, capsys):
        # every run exceeds a zero budget: n = 1 is marked, n = 2 and 3 are not run
        out = tmp_path / "bench.json"
        assert run("bench", "--n-min", 1, "--n-max", 3, "--budget", 0, "--repeats", 1, "--out", out) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(row["explicit"]["status"], row["bdd"]["status"]) for row in rows] == [
            ("timeout", "timeout"), ("skipped", "skipped"), ("skipped", "skipped"),
        ]
        assert [(row["ratio"] is None, row["checksums_match"]) for row in rows] == [
            (False, True), (True, None), (True, None),
        ]
        table = capsys.readouterr().out.splitlines()
        first = table[1].split()
        assert first[0] == "1" and first[1].endswith("*") and first[2].endswith("*") and first[4] == "yes"
        assert [line.split() for line in table[2:4]] == [
            [n, "skipped", "skipped", "-", "-"] for n in ("2", "3")
        ]
        assert table[4].startswith("(* = exceeded the per-n budget")

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, repeats):
        from ctsbisim import bench

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "_timed_run", no_run)
        out = tmp_path / "bench.json"
        assert run("bench", "--n-min", 1, "--n-max", 1, "--repeats", repeats, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repeats must be at least 1, got %d\n" % repeats
        assert not out.exists()

    def test_n_min_above_n_max_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        from ctsbisim import bench

        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "_timed_run", no_run)
        out = tmp_path / "bench.json"
        assert run("bench", "--n-min", 3, "--n-max", 1, "--repeats", 1, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_min 3 is above n_max 1\n"
        assert not out.exists()


def test_module_entry_point_prints_the_usage():
    src = Path(ctsbisim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "ctsbisim", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ctsbisim ")
