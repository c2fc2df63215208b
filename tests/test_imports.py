"""Every module of the package and of its tests uses each name it imports;
everything the package defines is reached from the package or the
benchmark, not only from the tests; for each parameter with a default, some
call in the package or the benchmark passes it and some call omits it;
the package or the benchmark reads every field of each dataclass; neither
the file formats nor the simulator import the front end; and every module
of the package parses under the oldest Python it declares."""

import ast
from pathlib import Path

import pytest

import lcsmooth

PACKAGE = Path(lcsmooth.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
# the benchmark's scripts, without its own tests
BENCH = sorted(
    p
    for p in (Path(__file__).parents[1] / "bench").glob("*.py")
    if not p.name.startswith("test_")
)


def unused_imports(source):
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport json\nimport os.path\n"
    source += "@dataclass\nclass A:\n    x: int = os.path.sep\n"
    assert unused_imports(source) == [(1, "field"), (2, "json")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source):
    """The package modules that ``source`` imports from, by name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_guard_finds_a_package_import():
    source = "from . import lie, parallel\nfrom .frontend import PointCloud\nimport numpy\n"
    assert package_imports(source) == {"lie", "parallel", "frontend"}


@pytest.mark.parametrize("name", ["dataio", "sim"])
def test_data_layers_do_not_import_the_front_end(name):
    # laser profiles cross them as (stamps, points) rows, no front-end type
    assert "frontend" not in package_imports((PACKAGE / f"{name}.py").read_text())


def _references(node, module):
    """(module, name) pairs that the code under ``node`` refers to.

    A name read in ``module`` refers to that module's definition, an
    attribute to the definition in the module it is taken from, and
    ``from .mod import name`` to the definition in ``mod``.
    """
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add((module, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            out.add((n.value.id, n.attr))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute):
            out.add((n.value.attr, n.attr))
        elif isinstance(n, ast.ImportFrom) and n.module:
            out.update((n.module.rsplit(".", 1)[-1], a.name) for a in n.names)
    return out


def unreached_definitions(modules, callers=()):
    """Module-level functions and classes that no code outside the tests reaches.

    ``modules`` maps each package module's name to its source; ``callers``
    holds the sources of scripts outside the package.  Code outside every
    definition reaches what it refers to, and a reached definition reaches
    what its own body refers to, so a helper of an unreached definition is
    unreached too.
    """
    defs, roots = {}, set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = _references(node, module)
            else:
                roots |= _references(node, module)
    for source in callers:
        roots |= _references(ast.parse(source), None)
    reached = set()
    todo = [key for key in roots if key in defs]
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(k for k in defs[key] if k in defs)
    return sorted(defs.keys() - reached)


def test_guard_finds_an_unreached_definition():
    modules = {
        "a": "from .b import used\ndef helper():\n    return dead()\n"
        "def dead():\n    return 1\nX = used()\n",
        "b": "def used():\n    return 1\ndef recursive():\n    return recursive()\n"
        "class Called:\n    x: int = 0\n",
    }
    caller = "import lcsmooth.b\nlcsmooth.b.Called()\n"
    assert unreached_definitions(modules, [caller]) == [
        ("a", "dead"), ("a", "helper"), ("b", "recursive")
    ]
    assert ("b", "Called") in unreached_definitions(modules)


def test_every_definition_is_reached():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in BENCH]
    assert unreached_definitions(modules, callers) == []


def _defaulted_parameters(modules):
    """{(module, function): [(position or None, parameter)]} for the
    parameters with a default of each module-level function in ``modules``;
    a keyword-only parameter has no position."""
    defaults = {}
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                defaults[(module, node.name)] = [
                    (i, p.arg) for i, p in enumerate(positional) if i >= first
                ] + [
                    (None, p.arg)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                ]
    return defaults


def _calls(sources):
    """(name, leading, starred, keywords) of each call in ``sources``.

    ``name`` is the called function's name, ``leading`` the number of
    positional arguments before any ``*args``, ``starred`` whether one
    follows, and ``keywords`` the names passed by keyword, with None for
    ``**kwargs``.
    """
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                starred = [isinstance(a, ast.Starred) for a in call.args]
                leading = starred.index(True) if any(starred) else len(starred)
                yield name, leading, any(starred), {k.arg for k in call.keywords}


def unpassed_parameters(modules, callers=()):
    """(module, function, parameter) for each parameter with a default, of a
    module-level function in ``modules``, that no call passes.

    Calls in ``modules`` and ``callers`` count, by position or by keyword.
    A call is matched by the function's name alone, and one that unpacks
    ``*args`` or ``**kwargs`` passes every parameter of that kind.
    """
    defaults = _defaulted_parameters(modules)
    passed = set()
    for name, leading, starred, keywords in _calls([*modules.values(), *callers]):
        for (module, function), params in defaults.items():
            if function != name:
                continue
            for i, arg in params:
                if None in keywords or arg in keywords or (
                    i is not None and (i < leading or starred)
                ):
                    passed.add((module, function, arg))
    return sorted(
        (module, function, arg)
        for (module, function), params in defaults.items()
        for _, arg in params
        if (module, function, arg) not in passed
    )


def test_guard_finds_an_unpassed_parameter():
    modules = {
        "a": "def f(x, y=1, *, z=2, w=3):\n    return x\n"
        "def g(p=0, q=0):\n    return p\nf(1, 2)\n",
        "b": "from .a import g\ng(q=1)\ndef h(u=1, *, v=2):\n    return u\n"
        "def k(s=0):\n    return h(*s, **s)\n",
    }
    caller = "import lcsmooth.a\nlcsmooth.a.f(0, w=1)\n"
    assert unpassed_parameters(modules, [caller]) == [
        ("a", "f", "z"), ("a", "g", "p"), ("b", "k", "s")
    ]
    assert ("a", "f", "w") in unpassed_parameters(modules)


def test_every_defaulted_parameter_is_passed():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in BENCH]
    assert unpassed_parameters(modules, callers) == []


def unomitted_parameters(modules, callers=()):
    """(module, function, parameter) for each parameter with a default, of a
    module-level function in ``modules``, that every call passes.

    Calls in ``modules`` and ``callers`` count, matched by the function's name
    alone.  A call omits each parameter that it does not name: one it passes
    neither by keyword nor among its positional arguments before any
    ``*args``, so a call that unpacks ``*args`` or ``**kwargs`` omits all
    the others.
    """
    defaults = _defaulted_parameters(modules)
    omitted = set()
    for name, leading, _, keywords in _calls([*modules.values(), *callers]):
        for (module, function), params in defaults.items():
            if function == name:
                omitted.update(
                    (module, function, arg)
                    for i, arg in params
                    if arg not in keywords and (i is None or i >= leading)
                )
    return sorted(
        (module, function, arg)
        for (module, function), params in defaults.items()
        for _, arg in params
        if (module, function, arg) not in omitted
    )


def test_guard_finds_an_unomitted_parameter():
    modules = {
        "a": "def f(x, y=1, *, z=2):\n    return x\nf(1, 2, z=3)\n"
        "def g(p=0):\n    return p\n",
        "b": "def h(u=1, v=2):\n    return u\ndef m(w=0):\n    return w\n"
        "def k(s):\n    return h(*s, v=s) + m(**s)\n",
    }
    caller = "import lcsmooth.a\nlcsmooth.a.f(0)\n"
    assert unomitted_parameters(modules, [caller]) == [("a", "g", "p"), ("b", "h", "v")]
    assert unomitted_parameters(modules) == [
        ("a", "f", "y"), ("a", "f", "z"), ("a", "g", "p"), ("b", "h", "v")
    ]


def test_every_default_is_used():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in BENCH]
    assert unomitted_parameters(modules, callers) == []


def unread_fields(modules, callers=(), owners=None):
    """(module, class, field) for each field of a dataclass in ``modules``
    that no attribute load in ``modules`` or ``callers`` reads.

    A load of ``x.name``, also as the receiver of a method call such as
    ``x.name.append(...)``, reads the field ``name`` of every dataclass that
    declares one.  The owner of a load is not resolved: where several
    dataclasses declare the same name, ``owners`` maps it to the classes
    whose field the loads of that name read.
    """
    owners = owners or {}
    fields = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            # a class decorated ``@dataclass`` or ``@dataclass(...)``
            if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                fields += [
                    (module, node.name, s.target.id)
                    for s in node.body
                    if isinstance(s, ast.AnnAssign)
                ]
    loaded = {
        n.attr
        for source in [*modules.values(), *callers]
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        (module, cls, name)
        for module, cls, name in fields
        if name not in loaded or cls not in owners.get(name, {cls})
    )


def test_guard_finds_an_unread_field():
    modules = {
        "a": "from dataclasses import dataclass\n@dataclass\nclass P:\n"
        "    x: int\n    y: int\n    log: list\n"
        "@dataclass(frozen=True)\nclass Q:\n    x: int\n    z: int\n"
        "class Plain:\n    w: int\n"
        "def f(p):\n    p.y = p.x\n    p.log.append(1)\n",
    }
    caller = "import lcsmooth.a\nprint(lcsmooth.a.Q(1, 2).z)\n"
    assert unread_fields(modules, [caller]) == [("a", "P", "y")]
    assert unread_fields(modules, [caller], {"x": {"P"}}) == [
        ("a", "P", "y"), ("a", "Q", "x")
    ]
    assert ("a", "Q", "z") in unread_fields(modules)


# ``IcpReport`` and ``SolveReport`` both declare ``converged``; the package
# reads both (``closeloops_report.json`` and ``smooth_report.json``)
SHARED_FIELD_OWNERS = {"converged": {"SolveReport", "IcpReport"}}
# ``cmd_smooth`` writes every field of ``SolveReport`` to its report through
# ``dataclasses.asdict``, and ``PipelineConfig.to_flat`` every field of
# ``PipelineConfig`` to ``config.cfg`` through ``getattr``; neither loads an
# attribute.  ``tests/test_cli.py`` checks that the report holds each field,
# and pins the hash of the flat configuration
SERIALIZED = {"SolveReport", "PipelineConfig"}


def test_every_field_is_read():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in BENCH]
    unread = unread_fields(modules, callers, SHARED_FIELD_OWNERS)
    assert [f for f in unread if f[1] not in SERIALIZED] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), feature_version=(3, 10))
