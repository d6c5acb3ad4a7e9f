"""Module layering: each muxnet module imports only from modules below it."""

import ast
import re
from pathlib import Path

import muxnet

ORDER = (
    "errors", "rng", "fields", "matrix", "multiplex", "network",
    "leakage", "bounds", "verification", "experiments", "cli",
)
# verification's report-determinism check runs the simulate pipeline, so it
# imports experiments inside that one function.
ALLOWED_BACK_EDGES = {("verification", "experiments")}

SRC = Path(muxnet.__file__).parent


def relative_imports(module):
    """The sibling module of every `from .x import`, at any depth."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    ]


def absolute_imports(path):
    """The top-level package of every absolute import in `path`, at any depth."""
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


def test_order_lists_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ORDER)


def test_imports_point_down_the_layers():
    back = {
        (module, target)
        for module in ORDER
        for target in relative_imports(module)
        if ORDER.index(target) >= ORDER.index(module)
    }
    assert back == ALLOWED_BACK_EDGES


def test_no_module_imports_dataclasses():
    # The records are plain __slots__ classes: importing dataclasses loads
    # inspect, ast, dis and tokenize, and each decorator execs its methods.
    for path in SRC.glob("*.py"):
        assert "dataclasses" not in absolute_imports(path), path.name


def test_bounds_takes_observations_from_its_caller():
    assert "network" not in relative_imports("bounds")


def test_observation_spaces_reduce_below_leakage():
    # network reduces observations with matrix's engine and never reaches
    # up to the leakage layer or the bounds that consume the reduced spaces.
    imports = set(relative_imports("network"))
    assert "matrix" in imports
    assert not imports & {"leakage", "bounds"}
    assert muxnet.leakage.ObservationSpaces is muxnet.network.ObservationSpaces


def modules_matching(pattern):
    return {p.stem for p in SRC.glob("*.py") if re.search(pattern, p.read_text())}


def test_each_library_rule_has_one_home():
    # One real-valued tolerance, bounds.REAL_TOLERANCE.  One test for a
    # plain int in a range, fields.is_element; the config boundary's JSON
    # integer check, experiments._json_int, is the only other type test.
    assert modules_matching(r"1e-12") == {"bounds"}
    assert modules_matching(r"\bis (not )?int\b") == {"fields", "experiments"}
    experiments = (SRC / "experiments.py").read_text()
    json_int = experiments[experiments.index("def _json_int("):]
    json_int = json_int[:json_int.index("\ndef ")]
    assert len(re.findall(r"\bis (not )?int\b", experiments)) == 1
    assert re.search(r"\bis not int\b", json_int)
    # The config boundary checks JSON shapes only; each eavesdropper value
    # rule lives in EavesdropperModel, and the network document format in
    # experiments alone.
    network = (SRC / "network.py").read_text()
    for rule in ("repeats a link", "mu-subset", "read only by"):
        assert rule not in experiments and rule in network
    assert "from_json" not in network and "isdecimal" not in network
