"""Dead-code guard: an AST scan of ``src/hiddenscale``.

Fails when a function, class or method is referenced nowhere in ``src/``
except inside its own definition, when a module other than ``__init__``
imports a name it never uses, or when a module-level assignment binds a
name, dunders apart, that nothing in ``src/`` reads.  A module-level
function or class is resolved
by module: it counts as used only through a bare name in its own module
(outside its own definition, string annotations included), a
``from .mod import name``, or ``alias.name`` after
``from . import mod [as alias]``.  A method (a ``def`` directly in a class
body) counts as used only through an attribute read ``obj.name`` or an
imported name anywhere outside its own definition; a bare local name or
parameter of the same name does not count.  Nested functions and nested
classes are matched by name (a bare name, an attribute, an imported name, or
a name inside a string annotation).  Dunder methods are called by the
language and are not checked.  ``TEST_FACING`` lists the definitions kept only for the tests,
each with its reason; a listed name must still be defined in ``src/`` and
still be unused there.

A keyword default of a function or method in ``src/`` must be overridden by
some call in ``src/`` or ``tests/``, by position or by keyword; a default no
caller changes is a constant.  Calls are matched by name (a bare name or an
attribute), and a call with ``*args`` or ``**kwargs`` counts as setting
every parameter.  ``UNSET_DEFAULTS`` lists the exceptions, as
``fnmatch`` patterns on ``function(parameter)``, each with its reason.
"""

import ast
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hiddenscale"
TESTS = Path(__file__).resolve().parent

# Definitions kept only for the tests, name -> why.
TEST_FACING = {
    "expand_hierarchy": "reference helper: the tests read each order's "
                        "forcing from it",
    "most_divergent_partial_sum": "reference helper: the tests sum the "
                                  "series behind the logarithm with it",
    "radius_of_convergence": "method the tests compare against the closed "
                             "form's convergence radius",
    "truncate_order": "method criterion 9 and the kernel-battery benchmark "
                      "workload check against collect_order",
    "component": "method the generator tests read solved components with",
}

# Keyword defaults no call sets by name, pattern -> why.
UNSET_DEFAULTS = {
    "__*__(*)": "dunder methods are called by the language, not by name",
    "cis(offs)": "textform's parser passes it through the builder it picks "
                 "from its cos/sin/cis table",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _annotation_names(tree):
    """Names inside string annotations such as ``"Poly | None"``."""
    out = Counter()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.update(n.id for n in ast.walk(ast.parse(sub.value,
                                                            mode="eval"))
                           if isinstance(n, ast.Name))
    return out


def _bare_names(tree):
    """Bare names a subtree mentions, string annotations included, counted."""
    return Counter(n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name)) + _annotation_names(tree)


def _module_imports(trees):
    """(module, name) pairs that one module reaches in another: through
    ``from .mod import name`` or ``alias.name`` after
    ``from . import mod [as alias]``."""
    out = set()
    for tree in trees.values():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        out.add((node.module, a.name))
                    else:
                        aliases[a.asname or a.name] = a.name
        out.update((aliases[node.value.id], node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases)
    return out


def _references(tree):
    """Every name a subtree mentions, counted."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out + _annotation_names(tree)


def _attribute_reads(tree):
    """Attributes a subtree reads (``obj.name``) or imports, counted."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _methods(tree):
    """The ``def`` nodes directly in a class body."""
    return {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _definitions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def definitions():
    """(module, line, name, used in src) for every checked definition."""
    trees = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    total = sum((_references(t) for t in trees.values()), Counter())
    reads = sum((_attribute_reads(t) for t in trees.values()), Counter())
    imported = _module_imports(trees)
    out = []
    for mod, tree in trees.items():
        bare = _bare_names(tree)
        methods = _methods(tree)
        for node in _definitions(tree):
            if node in tree.body:
                used = bare[node.name] > _bare_names(node)[node.name] \
                    or (mod, node.name) in imported
            elif node in methods:
                used = reads[node.name] > _attribute_reads(node)[node.name]
            else:
                used = total[node.name] > _references(node)[node.name]
            out.append((mod, node.lineno, node.name, used))
    return out


def unreferenced_definitions():
    return [f"{mod}.py:{line} {name}" for mod, line, name, used
            in definitions() if not used and name not in TEST_FACING]


def unread_module_names():
    """Module-level assignments no module in ``src/`` reads: not as a bare
    name in their own module, nor through ``from .mod import name`` or
    ``alias.name``.  Dunder names are read by the language."""
    trees = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    imported = _module_imports(trees)
    out = []
    for mod, tree in trees.items():
        loads = Counter(n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)) \
            + _annotation_names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)):
                if not (name.startswith("__") and name.endswith("__")) \
                        and not loads[name] \
                        and (mod, name) not in imported:
                    out.append(f"{mod}.py:{node.lineno} {name}")
    return out


def unused_imports():
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = _bare_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    name = (a.asname or a.name).split(".")[0]
                    if not used[name]:
                        out.append(f"{path.name}:{node.lineno} {name}")
    return out


def _keyword_defaults(tree):
    """(line, function, parameter, position) for every parameter with a
    default; the position counts the arguments a caller passes (``self``
    and ``cls`` excluded) and is None for a keyword-only parameter."""
    methods = _methods(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        pos = a.posonlyargs + a.args
        bound = node in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        first = len(pos) - len(a.defaults)
        for i, arg in enumerate(pos[first:], first):
            yield node.lineno, node.name, arg.arg, i - bound
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.lineno, node.name, arg.arg, None


def _calls(trees):
    """Function name -> (most positional arguments, keyword names) over the
    calls of that name; ``*args`` counts as unboundedly many positional
    arguments and ``**kwargs`` as the keyword None."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            npos, kws = out.get(name, (0, set()))
            n = float("inf") if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args)
            out[name] = (max(npos, n), kws | {k.arg for k in node.keywords})
    return out


def unset_defaults():
    """``module.py:line function(parameter)`` for every keyword default in
    ``src/`` that no call in ``src/`` or ``tests/`` overrides."""
    calls = _calls(_parse(p) for p in [*sorted(SRC.glob("*.py")),
                                       *sorted(TESTS.glob("*.py"))])
    out = []
    for path in sorted(SRC.glob("*.py")):
        for line, func, param, pos in _keyword_defaults(_parse(path)):
            npos, kws = calls.get(func, (0, set()))
            if param in kws or None in kws or \
                    (pos is not None and npos > pos):
                continue
            out.append(f"{path.name}:{line} {func}({param})")
    return out


def test_every_keyword_default_has_a_caller():
    assert [u for u in unset_defaults()
            if not any(fnmatch(u.split()[1], pat) for pat in UNSET_DEFAULTS)] \
        == []


def test_unset_default_allowlist_is_needed():
    found = [u.split()[1] for u in unset_defaults()]
    assert [pat for pat in UNSET_DEFAULTS
            if not any(fnmatch(f, pat) for f in found)] == []


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_allowlist_names_are_defined_and_unused():
    defs = definitions()
    missing = sorted(set(TEST_FACING) - {name for _, _, name, _ in defs})
    used = sorted({name for _, _, name, u in defs
                   if u and name in TEST_FACING})
    assert missing == [], "allowlisted but no longer defined in src/"
    assert used == [], "allowlisted but now used in src/"


def test_every_module_name_is_read():
    assert unread_module_names() == []


def test_every_import_is_used():
    assert unused_imports() == []
