"""Checks on the library's source text that no installed linter makes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rotospin"


def _unused_imports(tree):
    """Names bound by the module's top-level imports and never read."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_top_level_imports():
    # __init__.py imports to re-export
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert len(unused) >= 9
    assert {name: names for name, names in unused.items() if names} == {}


def _init_imports():
    """Names that ``__init__.py`` binds by relative ``from .module import``."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names]


def test_all_matches_the_package_imports():
    # a deletion that leaves a stale import or export behind fails here
    import rotospin

    exported = rotospin.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == set(_init_imports())
    assert all(hasattr(rotospin, name) for name in exported)


def _borrowed_private_names(tree):
    """(module, name) of each private name the module takes from a sibling
    module, by ``from .module import _name`` or as an attribute of a
    module bound by ``from . import module``."""
    modules, borrowed = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    borrowed.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            borrowed.add((modules[node.value.id], node.attr))
    return borrowed


def test_modules_import_no_private_names_of_each_other():
    # a module that borrows another's private helper keeps a second copy
    # of its rule; dynamics may test for arrays as the kernel does
    borrowed = sorted(
        (path.stem, module, name) for path in SRC.glob("*.py")
        for module, name in _borrowed_private_names(
            ast.parse(path.read_text())))
    assert borrowed == [("dynamics", "response", "_is_array")]


def _scopes(tree, match):
    """Qualified names of the functions that hold a node for which
    ``match(node)`` is true, one entry per node; a module-level one reads
    as ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def _is_power(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
        node.op, ast.Pow)


def test_response_takes_its_powers_by_multiplication():
    # a point equals its array cell bit for bit only where both take each
    # power as a product: numpy's and libm's pow round apart, and numpy's
    # is slow at a negative base.  Outside the kernel these keep ``**``;
    # an allowance that no longer takes a power fails too.
    allowed = {"OscillatorModel.physical", "DriveField.__post_init__",
               "SpectralLine.norm_sq"}
    found = _scopes(ast.parse((SRC / "response.py").read_text()), _is_power)
    assert allowed <= set(found)
    assert sorted(set(found) - allowed) == []


def _is_linspace_call(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "linspace"
            and getattr(node.func.value, "id", None) == "np")


def test_dynamics_calls_no_linspace():
    # np.linspace's dispatch costs a few microseconds a call, as much as
    # a spin-up's bookkeeping; dynamics._linspace gives its bits
    found = _scopes(ast.parse((SRC / "dynamics.py").read_text()),
                    _is_linspace_call)
    assert found == ["<module>"]


def _is_sort_call(node):
    return (isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) in ("argsort", "sort")
                 or getattr(node.func, "id", None) == "sorted"))


def test_dynamics_calls_no_sort():
    # the spin-up quadrature replaces each panel by its halves where it
    # stands, so its table is in span order without a sort
    found = _scopes(ast.parse((SRC / "dynamics.py").read_text()),
                    _is_sort_call)
    assert found == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(tree, name):
    """The literal value a module assigns to ``name`` at top level."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name} = <literal>")


def _rs_chains(tree):
    """Dotted names like ``OscillatorModel.normalized`` read off ``rs``."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "rs":
            chains.add(".".join(reversed(parts)))
    return chains


def test_benchmark_names_resolve():
    # the benchmark harness calls the library by name; a deletion that
    # breaks it fails here instead of in a full benchmark run
    import importlib

    import rotospin
    from rotospin.validation import ALL_CHECKS

    workloads = ast.parse((BENCH / "workloads.py").read_text())
    chains = _rs_chains(workloads)
    assert "spin_up_trajectory" in chains
    for chain in sorted(chains):
        obj = rotospin
        for attr in chain.split("."):
            assert hasattr(obj, attr), f"rs.{chain}"
            obj = getattr(obj, attr)

    tracer = ast.parse((BENCH / "tracer.py").read_text())
    for layer in _literal(tracer, "LAYERS"):
        importlib.import_module(f"rotospin.{layer}")
    for layer, helpers in _literal(tracer, "_EXTRA").items():
        module = importlib.import_module(f"rotospin.{layer}")
        assert all(callable(getattr(module, h, None)) for h in helpers)
    checks = tuple(c.__name__.removeprefix("check_") for c in ALL_CHECKS)
    assert _literal(tracer, "CHECKS") == checks

    passed = [c.value for c in ast.walk(workloads)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)
              and "checks passed" in c.value]
    assert passed == [f"{len(checks)}/{len(checks)} checks passed"]


def test_processes_enter_by_run_and_only_cli_touches_the_collector():
    # run() freezes the heap for a process about to end; main and the
    # library leave the collector alone for in-process callers
    import tomllib

    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"rotospin": "rotospin.cli:run"}

    cli = ast.parse((SRC / "cli.py").read_text())
    guard, = [node for node in cli.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(guard.body[0]) == "sys.exit(run())"

    importers = []
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "gc" in names:
                importers.append(path.stem)
    assert importers == ["cli"]


#: the validated inputs: they check themselves in ``__post_init__``, and
#: callers build variants with ``dataclasses.replace``
_INPUT_CLASSES = {"OscillatorModel", "DriveField", "RigidBodyParams",
                  "ThermalParams", "DrudeSphere", "DrudeEllipsoid",
                  "MediumMember", "MediumSpec", "ScanRequest"}


def test_only_the_inputs_are_dataclasses():
    # result records are NamedTuples: a dataclass generates and compiles
    # its methods when the package is imported
    import rotospin
    from rotospin.timedomain import TimeDomainAverages
    from rotospin.validation import CheckResult

    decorated = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                decorated.add(node.name)
    assert decorated == _INPUT_CLASSES
    records = [getattr(rotospin, name) for name in (
        "CrossSectionSet", "SpectralLine", "DipoleSpectrum",
        "SpinUpTrajectory", "EnsembleExtinction", "ScanGrid")] + [
        TimeDomainAverages, CheckResult]
    for record in records:
        assert issubclass(record, tuple) and record._fields, record
