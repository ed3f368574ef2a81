"""What a check imports: the package exports load on first use, so a check
loads only the modules it runs."""

import json
import os
import subprocess
import sys
import types

import pytest

import ctsbisim

from conftest import MODELS
from test_sources import CHECK_MODULES, PACKAGE

CHECK_SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "ctsbisim" or m.startswith("ctsbisim."))

import ctsbisim
after_package = loaded()
import ctsbisim.engine, ctsbisim.modelio
left, right, out = sys.argv[1:]
reports = {}
for backend in ("explicit", "bdd"):
    result = ctsbisim.engine.greatest_bisimulation(
        ctsbisim.modelio.load_model(left), ctsbisim.modelio.load_model(right), backend=backend
    )
    reports[backend] = ctsbisim.engine.report_bytes(result.report()).decode()
after_library = loaded()
from ctsbisim import cli
code = cli.main(["check", left, right, "--backend", "bdd", "--out", out])
print(json.dumps({
    "after_package": after_package,
    "after_library": after_library,
    "after_cli": loaded(),
    "reports": reports,
    "code": code,
}))
"""


def module_name(filename: str) -> str:
    stem = filename[: -len(".py")]
    return "ctsbisim" if stem == "__init__" else "ctsbisim." + stem


def test_a_check_loads_neither_the_game_nor_the_bench(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, "-c", CHECK_SCRIPT,
            str(MODELS / "routing_basic.json"), str(MODELS / "routing_modified.json"), str(out),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["after_package"] == ["ctsbisim"]
    for stage in ("after_library", "after_cli"):
        assert not {"ctsbisim.game", "ctsbisim.bench"} & set(seen[stage])
    # the exact module set of a check is what the dataclass source test scans
    assert seen["after_cli"] == sorted(map(module_name, CHECK_MODULES))
    assert seen["after_library"] == sorted(set(seen["after_cli"]) - {"ctsbisim.cli"})
    assert seen["reports"]["explicit"] == seen["reports"]["bdd"]
    assert seen["code"] == 0
    assert out.read_text() == seen["reports"]["bdd"]


ORACLE_SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("ctsbisim"))

from ctsbisim import cli, engine
# a name the engine neither defines nor moved loads nothing
unknown = getattr(engine, "std_mul_ops", None)
before = loaded()
code = cli.main(["oracle", *sys.argv[1:]])
print(json.dumps({"unknown": unknown, "before": before, "code": code, "after": loaded()}))
"""


def test_the_oracle_loads_the_referee(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, "-c", ORACLE_SCRIPT,
            str(MODELS / "routing_basic.json"), str(MODELS / "routing_modified.json"), "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["unknown"] is None
    assert seen["before"] == sorted(map(module_name, CHECK_MODULES))
    assert seen["code"] == 0
    assert seen["after"] == sorted([*seen["before"], "ctsbisim.referee"])
    assert out.exists()


@pytest.mark.parametrize("name", ctsbisim.__all__)
def test_every_export_is_its_home_module_object(name):
    value = getattr(ctsbisim, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules["ctsbisim." + name]
    else:
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("ctsbisim.")
        assert getattr(home, name) is value


def test_an_unknown_name_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ctsbisim.no_such_name
    with pytest.raises(ImportError):
        from ctsbisim import no_such_name  # noqa: F401
    assert not hasattr(ctsbisim, "check_transfer")


def run_python(script: str, *args) -> dict:
    """Run ``script`` in a fresh interpreter on the package sources; it prints one JSON object."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "ctsbisim" or m.startswith("ctsbisim."))
"""


def test_importing_the_cli_loads_the_check_modules():
    seen = run_python(LOADED + "import ctsbisim.cli\nprint(json.dumps(loaded()))")
    assert seen == sorted(map(module_name, CHECK_MODULES))


WRITER_SCRIPT = LOADED + """
from ctsbisim import cli
left, right, report, command, *args = sys.argv[1:]
codes = [cli.main(["check", left, right, "--out", report])]
after_check = loaded()
codes.append(cli.main([command, *args]))
print(json.dumps({"codes": codes, "after_check": after_check, "after": loaded()}))
"""


@pytest.mark.parametrize(
    "command, args",
    [("convert", ["routing_fts_basic.json", "--to", "lats"]), ("approx", ["fig_bdd_approx.json"])],
)
def test_only_convert_and_approx_load_the_writer(tmp_path, command, args):
    seen = run_python(
        WRITER_SCRIPT,
        MODELS / "routing_basic.json", MODELS / "routing_modified.json", tmp_path / "report.json",
        command, MODELS / args[0], *args[1:], "--out", tmp_path / "out.json",
    )
    assert seen["codes"] == [0, 0]
    assert seen["after_check"] == sorted(map(module_name, CHECK_MODULES))
    assert seen["after"] == sorted([*seen["after_check"], "ctsbisim.convert"])


def test_the_benchmark_family_resolves_at_its_old_path():
    # ``perfbench`` reads ``models.gen_benchmark_fts``; the family lives in ``bench``
    from ctsbisim import bench, models

    assert models.gen_benchmark_fts is bench.gen_benchmark_fts
    assert models.gen_benchmark_fts(2) == bench.gen_benchmark_fts(2)
    with pytest.raises(AttributeError, match="has no attribute 'gen_benchmark'"):
        models.gen_benchmark
