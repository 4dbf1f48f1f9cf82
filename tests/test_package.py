"""The package's public surface and the README's library example."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimo_pilot
from mimo_pilot import harness, ppa, refsolver, scenario

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

# the literal antenna model and the whole-ensemble SINR moments, kept in
# tests/oracle.py as the kernels' references, and the tests' statistical
# and geometric tools, which no command uses
ORACLE_NAMES = ("pilot_book", "PilotObservation", "pilot_phase", "ChannelEstimate",
                "estimate_ls", "mmse_gain", "estimate_mmse", "mmse_gain_matrix",
                "rcee_sample", "rcee_prefix_samples", "ChannelRealization",
                "empirical_sinr_terms", "EmpiricalCdf", "empirical_cdf", "ks_distance",
                "in_hexagon", "upsilon")

# exported names no package module uses, each with why it is public
REASONS = {
    "unconstrained_optimum": "the subject of acceptance 06",
    "exp_rcee_bound_mmse": "the MMSE bound the allocator minimizes, a bound property",
    "save_beta_fixture": "writes the format allocate --beta and fixture-check read (README)",
    "achievable_rate": "one config's rates; the sweeps take its bits at every reuse factor",
}


def test_every_exported_name_resolves():
    for name in mimo_pilot.__all__:
        assert hasattr(mimo_pilot, name), name


def test_signatures_the_benchmark_reads(monkeypatch):
    # perfbench/spans.py counts solves that hit the iteration cap from
    # solve's max_iter default, or from a third positional argument, which
    # the reference solve must not pass; and shadowing draws from the
    # shape of large_scale's third argument
    max_iter = inspect.signature(refsolver.solve).parameters["max_iter"]
    assert max_iter.default is not inspect.Parameter.empty
    assert list(inspect.signature(scenario.large_scale).parameters)[2] == "positions"
    positional = []

    def counted(*args, **kwargs):
        positional.append(len(args))
        return refsolver.solve(*args, **kwargs)

    monkeypatch.setattr(harness, "solve", counted)
    cfg = scenario.SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5)
    harness.reference_solve("ls", ppa.eppa_profile(np.ones((2, 3)), cfg.P_total, cfg.K), cfg)
    assert len(positional) == 1 and positional[0] <= 2


def _uses(node, owners=frozenset()):
    """Names ``node`` reads, imports or takes as attributes, except inside
    the ``def``/``class`` of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    else:
        name = node.name if isinstance(node, ast.alias) else None
    if name is not None and name not in owners:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, owners)


def test_every_exported_name_is_used_or_has_a_reason():
    used = set()
    for path in (SRC / "mimo_pilot").glob("*.py"):
        if path.name != "__init__.py":
            used.update(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    unused = set(mimo_pilot.__all__) - used
    assert sorted(unused) == sorted(REASONS), "export only what the package uses, or say why"


def test_no_module_calls_the_builtin_sum():
    # a float sum in the builtin's order depends on the Python version
    # (3.12 compensates it); the package's sums are math.fsum or numpy's
    calls = []
    for path in sorted((SRC / "mimo_pilot").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_names_are_not_in_the_package(name):
    assert name not in mimo_pilot.__all__
    for info in pkgutil.iter_modules(mimo_pilot.__path__):
        module = importlib.import_module(f"mimo_pilot.{info.name}")
        assert not hasattr(module, name), (info.name, name)
    assert not hasattr(mimo_pilot, name)


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out


def _python(code: str) -> list[str]:
    """The words ``code`` prints, run in a fresh interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.split()


def test_numpy_random_loads_before_the_fork_map_forks_and_not_at_import():
    # numpy.random costs some 13 ms to load.  A sweep's gain draws load
    # it before the fork map forks, so its children start with it;
    # importing the package must not load it, or every in-process run
    # would pay it in its setup.  A sweep at two workers with reference
    # solves to run forks one child.
    code = """
import os
import sys
import mimo_pilot
from mimo_pilot import harness
print("numpy.random" in sys.modules)
fork = os.fork

def fork_after_printing():
    print("numpy.random" in sys.modules, flush=True)
    return fork()

os.fork = fork_after_printing
os.sched_getaffinity = lambda pid: {0, 1}
plan = harness.plan_for("fig5b", n_large=2, jobs=2, schemes=("ref",))
harness.run_experiment(plan, harness.default_config("fig5b"))
"""
    assert _python(code) == ["False", "True"]


def test_importing_the_cli_loads_no_process_pool():
    # the sweeps fork with os alone; the pool modules would cost every
    # run some 20 ms of start-up, and numpy.random loads only before a fork
    code = """
import sys
import mimo_pilot.cli
print([m for m in ("multiprocessing", "concurrent.futures", "numpy.random")
       if m in sys.modules])
"""
    assert _python(code) == ["[]"]
