"""Fuzz the CLI with configs whose fields hold arbitrary JSON values.

Each example takes a valid ``fit``, ``simulate`` or ``verify`` config and
replaces one or two of its fields with a random JSON value.  Whatever the
value, the command must end with exit status 0 or 1: a traceback escaping
``main`` fails the test.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circkrig import config
from circkrig.cli import main

# Integers stay small so that no field asks for much time or memory, and
# text has no path separator so a string read as a path stays inside the
# working directory.  Size fields also draw integers past their ceilings,
# which must be refused before anything is allocated.
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 24)
           | st.floats(-1.0e3, 1.0e3)
           | st.sampled_from([float("nan"), float("inf"), 1.0e300, 0.5])
           | st.text("abxy01.-", max_size=4))
_OVERSIZED = {
    "grid_size": st.integers(2**27 + 1, 2**64),
    "n_realizations": st.integers(2**27 + 1, 2**64),
    "n_max": st.integers(config.MAX_SPECTRUM_FREQUENCY + 1, 2**64),
}
_JSON = st.recursive(
    _LEAVES,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text("abxy", max_size=3), kids,
                                    max_size=3)),
    max_leaves=6)

_FIT = [
    {"model": {"spectrum": {"kappa": 1, "type": "power", "a": 1.0,
                            "p": 2.0, "n_max": 6}},
     "nugget": 0.1, "basis": "trig", "tau": "equispaced",
     "io": {"data": "data.csv", "output": "fit.csv", "grid_size": 8,
            "degrees": False}},
    {"model": {"spectrum": {"kappa": 2, "type": "list",
                            "values": [1.0, 0.5, 0.25]}},
     "nugget": 0.0, "basis": "cardinal", "tau": [0.0, 2.0, 4.0],
     "io": {"data": "data.csv", "output": "fit.csv",
            "prediction_points": [0.5, 1.0], "degrees": False}},
    {"model": {"kernel": "spline-m1"},
     "io": {"data": "data.csv", "output": "fit.csv", "grid_size": 4}},
]

_SIMULATE = [
    {"model": {"spectrum": {"kappa": 1, "type": "list",
                            "values": [1.0, 0.5]}},
     "simulate": {"n_realizations": 2, "grid_size": 16, "seed": 3,
                  "low_order": 0.5},
     "io": {"output": "sim.csv", "degrees": False}},
    {"model": {"kernel": "brownian-bridge"},
     "simulate": {"n_realizations": 2, "grid_size": 8, "seed": 0},
     "io": {"output": "sim.csv"}},
    {"model": {"kernel": "spline-m2"},
     "simulate": {"n_realizations": 1, "grid_size": 9,
                  "low_order": [0.0, 1.0, 0.5]},
     "io": {"output": "sim.csv"}},
]

# Cheap suites only, each at one instance; fuzzed counts stay below 25.
_VERIFY = [
    {"verify": {"checks": ["measures", "kernel", "kriging", "smoothing",
                           "ordinary"],
                "seed": 1, "tol_factor": 4.0, "n_measures": 3,
                "kernel_sets": 1, "kriging_instances": 1,
                "smoothing_instances": 1, "ordinary_instances": 1,
                "inject": {"negative_gamma": False}},
     "io": {"output": "report.json"}},
]


def _paths(node, prefix=()):
    """Every field of a config tree, blocks before their contents."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, bases):
    cfg = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        value = _JSON
        if path[-1] in _OVERSIZED:
            value = _JSON | _OVERSIZED[path[-1]]
        elif len(path) == 1 and path[0] == "verify":
            # An object here without 'checks' runs every suite at its
            # default size, which is too slow for a fuzz example.
            value = _JSON.filter(lambda v: not isinstance(v, dict))
        parent[path[-1]] = draw(value)
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    with open(path / "data.csv", "w", encoding="utf-8") as fh:
        fh.write("angle,value\n")
        for a, v in zip(np.linspace(0.0, 6.0, 5), [1.0, -0.5, 0.2, 2.0, 0.0]):
            fh.write(f"{a!r},{v!r}\n")
    old = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(old)


_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _run(command, cfg):
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    status = main([command, "--config", "config.json"])
    assert status in (0, 1)
    return status


@_SETTINGS
@given(cfg=_mutated(_FIT))
def test_fit_config_fuzz(workdir, cfg):
    _run("fit", cfg)


@_SETTINGS
@given(cfg=_mutated(_SIMULATE))
def test_simulate_config_fuzz(workdir, cfg):
    _run("simulate", cfg)


@_SETTINGS
@given(cfg=_mutated(_VERIFY))
def test_verify_config_fuzz(workdir, cfg):
    _run("verify", cfg)


@settings(_SETTINGS, max_examples=30)
@given(n_max=_JSON | _OVERSIZED["n_max"])
def test_power_law_cutoff_fuzz(workdir, n_max):
    # The mutated-config tests above rarely pick this one field.
    cfg = json.loads(json.dumps(_FIT[0]))
    cfg["model"]["spectrum"]["n_max"] = n_max
    _run("fit", cfg)


@settings(_SETTINGS, max_examples=30)
@given(seed=_JSON | st.integers(-2**70, 2**130))
def test_simulate_seed_fuzz(workdir, seed):
    # Any non-negative integer seeds a run, however many 32-bit words it
    # takes; anything else is refused with exit status 1.
    cfg = json.loads(json.dumps(_SIMULATE[0]))
    cfg["simulate"]["seed"] = seed
    valid = isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0
    assert _run("simulate", cfg) == (0 if valid else 1)


@settings(_SETTINGS, max_examples=30)
@given(seed=_JSON | st.integers(-2**70, 2**130))
def test_verify_seed_fuzz(workdir, seed):
    # The verify seed follows the same rule as the simulate seed.
    cfg = {"verify": {"checks": ["measures"], "n_measures": 3,
                      "seed": seed},
           "io": {"output": "report.json"}}
    valid = isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0
    assert _run("verify", cfg) == (0 if valid else 1)
