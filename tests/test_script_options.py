"""The command-line options of scripts/, read from each script's source.

Each scan is one fixed run: the values it scans are module constants, so
no run can be pointed at a sweep that misses a regression.  Only the A/B
scripts, which take two checkouts, and make_figures, which takes an output
directory, have options.
"""

import ast

import pytest
from conftest import SCRIPTS, load_script

OPTIONS = {
    "time_ab": {"parent", "change", "workload", "rounds", "json"},
    "values_ab": {"parent", "change", "json"},
    "make_figures": {"outdir"},
}
SCANS = ("csv_writer_scan", "dvr_grid_scan", "i0_route_scan", "well_translation_scan",
         "zero_mode_step_scan")


def options(path):
    """The names of the add_argument calls of the script at `path`, without dashes."""
    return {
        node.args[0].value.lstrip("-")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    }


def test_only_the_ab_scripts_and_make_figures_take_options():
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert {p.stem: options(p) for p in scripts} == {p.stem: OPTIONS.get(p.stem, set())
                                                     for p in scripts}


@pytest.mark.parametrize("name", [*SCANS, "make_figures"])
def test_a_stray_argument_is_refused(name, capsys):
    with pytest.raises(SystemExit) as exit_:
        load_script(name).main(["--rounds", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --rounds 1" in capsys.readouterr().err
