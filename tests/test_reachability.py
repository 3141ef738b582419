"""Which code the seven CLI drivers reach.

Every driver runs through ``cli.main`` under ``sys.setprofile`` and
``threading.setprofile``, and every top-level function and method of
``src/wcl`` must be entered by some driver, on any thread, or be named
in ``UNREACHED`` with the reason it stays.  A closure
or lambda counts with the function that holds it.  A body that no driver
enters and no allowlist entry explains is API that no workload, gate or
benchmark exercises: it gets a driver row or goes.  An allowlisted body
that a driver comes to reach leaves the list.
"""

import ast
import os
import sys
import threading

import pytest

import wcl
from wcl import analytic, chaos, cli, experiments, fac, functionals, processes

SRC = os.path.dirname(os.path.realpath(wcl.__file__))
# a budget that enters the same bodies as the drivers' default budgets,
# each flag given to the drivers that read its key
BUDGET = {"n_samples": ["--samples", "100"], "n_steps": ["--steps", "256"]}

PERFBENCH = "perfbench wraps it, and its tests assert the binding (ROADMAP item 1)"
INTEGRATORS = "Gaussian integrators in the drivers (ROADMAP item 6)"
# "module.qualname" -> why it stays though no driver enters it
UNREACHED = {
    "processes.sample_values": PERFBENCH,
    "functionals.eval_functional_many": PERFBENCH,
    "experiments.ExperimentConfig.tolerance": PERFBENCH,
    "functionals.local_time_field": "criterion 6, the occupation identity: a future "
                                    "selftest row (ROADMAP item 8)",
    "chaos.expansion_study_mc": "criterion 10, the chaos structure: a future chaos row "
                                "(ROADMAP item 8)",
    "processes.sigma_interval": INTEGRATORS,
    "processes.integrator_inequality": INTEGRATORS,
    "processes.IntegratorOperator.node_image_matrix": INTEGRATORS,
    "processes.IntegratorOperator.h": INTEGRATORS,
    "processes.Integrator.__post_init__": INTEGRATORS,
}


def bodies():
    """(file, first line) -> "module.qualname" of every top-level function
    and method of the package; the first line is a decorator's, if any, as
    in the code object."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        module = name[:-3]
        for node in tree.body:
            defs = [(node, module)]
            if isinstance(node, ast.ClassDef):
                defs = [(child, f"{module}.{node.name}") for child in node.body]
            for fn, owner in defs:
                if isinstance(fn, ast.FunctionDef):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[path, first] = f"{owner}.{fn.name}"
    return found


def run_drivers(tmp_path, monkeypatch):
    """Run every driver through cli.main; returns the (file, first line)
    of every code object of the package entered."""
    # a cached rule would let a driver skip a body that an earlier test
    # entered with the same arguments (conftest empties the Phi_eps memo)
    for module in (analytic, chaos, cli, experiments, fac, functionals, processes):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for i, name in enumerate(experiments.DRIVERS):
        out = str(tmp_path / name)
        quiet = ["--quiet"] if i else []  # the first prints its rows
        budget = [flag for key in experiments.DRIVERS[name].reads for flag in BUDGET.get(key, [])]
        monkeypatch.setattr(sys, "argv", ["wcl", name, *budget, "--seed", "7", "--out", out,
                                          *quiet])
        # threading.setprofile: a body entered only on an engine helper
        # thread counts too
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        assert exc.value.code == 0, name
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_body_is_reached_by_a_driver_or_allowlisted(tmp_path, monkeypatch):
    found = bodies()
    entered = run_drivers(tmp_path, monkeypatch)
    unreached = {name for key, name in found.items() if key not in entered}
    assert unreached == set(UNREACHED)
