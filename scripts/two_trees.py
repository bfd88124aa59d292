"""Import two checkouts of susy_fisheye into one process, side by side.

Each checkout's src/susy_fisheye is imported under its own package name,
susy_fisheye_parent or susy_fisheye_change, so the A/B scripts can call
both trees in alternation: values_ab.py compares their values and
time_ab.py their request times on the benchmark's streams.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SIDES = ("parent", "change")


def load(root, side, module):
    """module of the checkout at root, imported as susy_fisheye_<side>.<module>.

    The package is imported once per side and root: a second call for the
    same side and root reuses it, and a call with another root replaces it.
    """
    name = f"susy_fisheye_{side}"
    pkg = Path(root).resolve() / "src" / "susy_fisheye"
    loaded = sys.modules.get(name)
    if loaded is None or list(loaded.__path__) != [str(pkg)]:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
        spec = importlib.util.spec_from_file_location(
            name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.{module}")
