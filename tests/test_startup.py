"""What each command loads: the Monte-Carlo stack (``channel`` and ``mcverify``)
loads only when ``verify`` runs it.  Every check starts a fresh interpreter,
since this one has long since imported every module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_MODULES = ("widecap.channel", "widecap.mcverify")
LAZY_NAMES = {
    "McConfig": "mcverify",
    "McEstimate": "mcverify",
    "run_verification_suite": "mcverify",
    "pilot_gram": "channel",
    "circulant_eigenvalues": "channel",
    "block_idft_matrix": "channel",
    "filterbank_equivalence_check": "channel",
}
# The modules and functions that the benchmark's span tracer looks up with
# getattr(widecap, module) and getattr(module, function), with no default: the
# literal WIDECAP_TARGETS of perfbench/spans.py, read without running it.
SPANS = SRC.parent / "perfbench" / "spans.py"
WIDECAP_TARGETS = next(ast.literal_eval(node.value) for node in ast.parse(SPANS.read_text()).body
                       if isinstance(node, ast.Assign)
                       and ast.unparse(node.targets[0]) == "WIDECAP_TARGETS")

SCENARIO = """snr_density_hz = 1e7
coherence_time_s = 1e-3
coherence_bandwidth_hz = 1e6
nt = 2
nr = 2
fading = rayleigh
"""


def fresh(code: str):
    """Run ``code`` in a new interpreter importing widecap from this tree; the
    value it prints as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def run_command(tmp_path, argv):
    """Exit code of ``widecap.cli.main(argv)`` and the modules loaded after it."""
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    argv = [argv[0], "--scenario", str(path), *argv[1:], "--out", str(tmp_path / "out")]
    return fresh(
        "import json, sys\n"
        "from widecap.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")


@pytest.mark.parametrize("argv", [
    ["bounds", "--db-grid", "1e4:1e10:7"],
    ["critical"],
    ["alpha", "--snr", "0.01"],
    ["fig6"],
], ids=lambda argv: argv[0])
def test_closed_form_commands_leave_the_monte_carlo_stack_unloaded(tmp_path, argv):
    code, modules = run_command(tmp_path, argv)
    assert code == 0
    assert not set(LAZY_MODULES) & set(modules)


def test_verify_loads_the_monte_carlo_stack(tmp_path):
    code, modules = run_command(tmp_path, ["verify", "--trials", "10000"])
    assert code == 0
    assert set(LAZY_MODULES) <= set(modules)


def test_package_import_leaves_the_monte_carlo_stack_unloaded():
    modules = fresh("import json, sys, widecap, widecap.cli\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert {"widecap.scenario", "widecap.bounds"} <= set(modules)
    assert not set(LAZY_MODULES) & set(modules)


FORK_MODULES = {"widecap._fork", "signal", "subprocess"}


def test_cli_import_and_one_block_bounds_fork_nothing(tmp_path):
    modules = fresh("import json, sys, widecap.cli\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert not FORK_MODULES & set(modules)
    code, modules = run_command(tmp_path, ["bounds", "--db-grid", "1e4:1e10:7"])
    assert code == 0
    assert not FORK_MODULES & set(modules)


def test_long_bounds_with_two_cpus_loads_the_fork_module(tmp_path):
    # Longer than the blocks made wholly in-process.
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    argv = ["bounds", "--scenario", str(path), "--db-grid", "1e4:1e10:5000",
            "--out", str(tmp_path / "out")]
    code, modules = fresh(
        "import json, sys\n"
        "from widecap import cli\n"
        "cli._usable_cpus = lambda: 2\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    assert code == 0
    assert {"widecap._fork", "signal"} <= set(modules)


def test_lazy_names_are_the_submodules_own_objects():
    same = fresh(
        "import json\n"
        f"from widecap import {', '.join(LAZY_NAMES)}\n"
        "import widecap.channel, widecap.mcverify\n"
        "print(json.dumps({name: globals()[name] is getattr(getattr(widecap, home), name)\n"
        f"                 for name, home in {LAZY_NAMES!r}.items()}}))")
    assert same == dict.fromkeys(LAZY_NAMES, True)


def test_every_traced_module_and_function_resolves():
    # As the benchmark worker does, import widecap.cli; nothing else.
    resolved = fresh(
        "import json, widecap, widecap.cli\n"
        "print(json.dumps({module: [callable(getattr(getattr(widecap, module), name))\n"
        "                           for name in names]\n"
        f"                 for module, names in {WIDECAP_TARGETS!r}.items()}}))")
    assert resolved == {module: [True] * len(names) for module, names in WIDECAP_TARGETS.items()}


def test_all_and_dir_list_the_lazy_names_before_they_load():
    listed = fresh(
        "import json, sys, types, widecap\n"
        "public = [name for name, value in vars(widecap).items()\n"
        "          if not name.startswith('_') and not isinstance(value, types.ModuleType)]\n"
        "print(json.dumps([widecap.__all__, dir(widecap), public, sorted(sys.modules)]))")
    names, directory, eager, modules = listed
    assert set(eager) | set(LAZY_NAMES) == set(names)
    assert set(names) | {"channel", "mcverify", "bounds", "scenario"} <= set(directory)
    assert not set(LAZY_MODULES) & set(modules)


def test_star_import_gives_every_name_in_all():
    exported = fresh(
        "import json, widecap\n"
        "namespace = {}\n"
        "exec('from widecap import *', namespace)\n"
        "print(json.dumps(sorted(set(widecap.__all__) - set(namespace))))")
    assert exported == []


def test_unknown_attribute_raises_attribute_error():
    import widecap

    with pytest.raises(AttributeError, match="module 'widecap' has no attribute 'no_such_name'"):
        widecap.no_such_name
    assert not hasattr(widecap, "run_verification")
    with pytest.raises(ImportError):
        exec("from widecap import no_such_name", {})
