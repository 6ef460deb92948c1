"""Package shape: src/fedqdp holds only code that the package itself uses,
and every function the benchmark's tracer wraps by name still exists.

A helper that only tests call belongs in the tests, next to its callers.
"""

import ast
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

import fedqdp
from fedqdp import config, federation


def _identifiers(node: ast.AST) -> set[str]:
    """Every name read or written in node, bare or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _attribute_loads(node: ast.AST) -> Counter:
    """How often node reads each attribute name."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _members(cls: ast.ClassDef):
    """(name, definition) of each non-dunder method of cls, and of each name
    in its __slots__, whose definition is the __slots__ assignment."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
            yield stmt.name, stmt
        elif (isinstance(stmt, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)):
            for elt in stmt.value.elts:
                yield elt.value, stmt


def unused_definitions(package: Path) -> list[str]:
    """'module.name' of each module-level function or class in package that
    no other statement of the package names, and 'module.Class.member' of
    each non-dunder method or __slots__ name that no attribute read outside
    its own definition reads. Top-level names in fedqdp.__all__ count as
    named; an import alone does not, nor does an assignment to a slot."""
    statements = [(path.stem, stmt)
                  for path in sorted(package.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    named = [_identifiers(stmt) for _, stmt in statements]
    loads = sum((_attribute_loads(stmt) for _, stmt in statements), Counter())
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name not in fedqdp.__all__ and not any(
                stmt.name in names for j, names in enumerate(named) if j != i):
            unused.append(f"{module}.{stmt.name}")
        if isinstance(stmt, ast.ClassDef):
            unused += [f"{module}.{stmt.name}.{name}" for name, definition in _members(stmt)
                       if loads[name] == _attribute_loads(definition)[name]]
    return unused


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    assert unused_definitions(Path(fedqdp.__file__).parent) == []


# Helpers that take values checked where they entered or were made, and so
# hold no check of their own (README "Configuration"), by module.
TRUSTING_HELPERS = {
    "data": ("power_law_pairs", "dirichlet_partition", "power_law_two_class_partition"),
    "models": ("loss_and_grad", "sgd_step", "clip_gradient_l1"),
    "privacy": ("laplace_noise", "compute_e0"),
    "federation": ("select_clients", "evaluate", "aggregate"),
    "quantize": ("comm_cost",),
    "schedule": ("schedule_bits", "client_importance"),
}


def test_trusting_helpers_hold_no_raise():
    package = Path(fedqdp.__file__).parent
    raising = []
    for module, names in TRUSTING_HELPERS.items():
        tree = ast.parse((package / f"{module}.py").read_text())
        defs = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
        raising += [f"{module}.{name}" for name in names
                    if any(isinstance(sub, ast.Raise) for sub in ast.walk(defs[name]))]
    assert raising == []


# Functions deleted from the package that perfbench/tracer.py still lists;
# the benchmark reads their metrics as zero until TARGETS drops them.
STALE_TRACE_TARGETS = {
    "backend.round_clip",
    "backend.laplace_from_uniform",
    "privacy.lipschitz_estimate",
    "privacy.perturb",
}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_benchmark_trace_target_resolves():
    """A refactor that moves or renames a traced function turns its
    per-layer metrics into zeros without notice; this catches it here."""
    tracer = _load_tracer()
    absent = {name for module, attr, name in tracer.TARGETS
              if tracer._resolve(module, attr) is None}
    assert absent <= STALE_TRACE_TARGETS


@pytest.mark.parametrize("workload", sorted(p.stem for p in (PERFBENCH / "workloads").glob("*.json")))
def test_every_benchmark_counter_reads_its_calls(workload):
    """The tracer's counters read the traced functions' arguments and
    results (ParamSet.num_elements, the batch labels). A refactor that
    drops one of those marks "<name> counters" absent and zeroes the
    counter without stopping the run; a short run of each workload
    catches it here."""
    raw = json.loads((PERFBENCH / "workloads" / f"{workload}.json").read_text())
    with _load_tracer().Tracer() as traced:
        federation.run_experiment(config.parse_config_dict({**raw, "rounds": 3}))
    assert traced.absent <= STALE_TRACE_TARGETS
