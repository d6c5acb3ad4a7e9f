"""Config fuzzing: one malformed value anywhere never escapes as a traceback.

Each example replaces one node of a valid config (a leaf or a whole
section) with a value from a fixed palette and runs `cli.main` in-process.
Every outcome must be an exit code: 0 (ran), 1 (a check failed) or 2
(config error).
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from muxnet.cli import main
from muxnet.experiments import DEFAULT_CONFIG

PALETTE = (None, True, 1.5, -1, 0, 10**12, "x", [], {}, [1])

INLINE_CONFIG = {
    "id": "fuzz-inline",
    "layout": {"q": 3, "m": 2, "n": 2, "T": 1, "k": [2, 2]},
    "field": {"q": 3},
    "network": {"inline": {
        "nodes": ["s", "a", "t"],
        "source": "s",
        "sinks": ["t"],
        "links": [
            {"id": "e1", "tail": "s", "head": "a"},
            {"id": "e2", "tail": "s", "head": "t"},
            {"id": "e3", "tail": "a", "head": "t"},
        ],
        "coding": {"e1": {"0": 1}, "e2": {"1": 1}, "e3": {"e1": 2}},
    }},
    "eavesdropper": {
        "kind": "statistical",
        "mu": 1,
        "distribution": [{"links": ["e1"], "p": 0.5}, {"links": ["e3"], "p": 0.5}],
    },
    "bounds": {"rho": 0.5, "C1": 7, "C2": 9},
    "seed": 3,
    "trials": {"L": 3, "B": 3},
}

VERIFY_CONFIG = {"id": "fuzz-verify", "seed": 11}


def node_paths(doc, prefix=()):
    """Paths (tuples of keys and indices) of every node below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from node_paths(value, prefix + (key,))


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_with_one_value_replaced(command, base, workdir, data):
    path = data.draw(st.sampled_from(list(node_paths(base))), label="path")
    value = data.draw(st.sampled_from(PALETTE), label="value")
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(replaced(base, path, value)))
    rc = main([command, "--config", str(cfg), "--out", str(workdir / "report")])
    assert rc in (0, 1, 2)


@pytest.mark.parametrize("base", [DEFAULT_CONFIG, INLINE_CONFIG], ids=["default", "inline"])
@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_simulate_config_fuzz(base, workdir, data):
    run_with_one_value_replaced("simulate", base, workdir, data)


# Two keys and ten palette values make 20 inputs; a verify run that passes
# the boundary costs about 0.4 s.
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_verify_config_fuzz(workdir, data):
    run_with_one_value_replaced("verify", VERIFY_CONFIG, workdir, data)
