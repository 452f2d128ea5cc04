"""Every module-level function and import of ``hermlat`` is used somewhere.

A function defined at the top level of ``src/hermlat/*.py`` must be named
outside its own definition in ``src/``, ``tests/``, ``perfbench/`` or
``tools/``: as a name or attribute in code, an imported name, or a word of a
string that is not a docstring (``perfbench`` names the functions it wraps
in strings).  Comments and docstrings do not count, nor does a call of the
function inside its own body.

A name that a module of ``src/hermlat`` imports at its top level must be
read in that module's code, and no function body imports anything.  Every
parameter of a function defined at module or class level is read in its
body (``self`` and ``cls`` apart; callbacks nested in a function are not
checked).  Every exception class of ``hermlat.errors`` but the base
``HermlatError`` is raised somewhere in ``src/hermlat``, and a caller in
``src/hermlat`` or ``perfbench`` acts on it: it is named in an ``except``
clause or in an ``isinstance`` test.

No method of a class in ``src/hermlat`` is decorated with
``functools.lru_cache`` or ``functools.cache``: the cache is keyed by
``self`` and holds it, so no instance would ever be freed.  Tables that an
object fills on use live in dicts on the object itself, and no module binds
a ``weakref.WeakKeyDictionary`` at its top level to keep them beside it.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("src", "tests", "perfbench", "tools")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _sources():
    for top in SEARCHED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read())


def _docstrings(tree):
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.add(id(first.value))
    return docs


def _names(node, docs):
    """How often each name is used in the subtree of `node`; `docs` holds
    the ids of the docstring constants of its module."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in docs:
            used.update(WORD.findall(sub.value))
    return used


def test_every_module_level_function_is_used():
    sources = list(_sources())
    docs = {path: _docstrings(tree) for path, tree in sources}
    names = {path: _names(tree, docs[path]) for path, tree in sources}
    src_dir = os.path.join(ROOT, "src", "hermlat")
    unused = []
    for path, tree in sources:
        if os.path.dirname(path) != src_dir:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = _names(node, docs[path])[node.name]
            if not any(used[node.name] > (own if other == path else 0)
                       for other, used in names.items()):
                unused.append(f"{os.path.basename(path)}:{node.name}")
    assert not unused, f"module-level functions nobody uses: {unused}"


def _module_imports(tree):
    """(bound name, line) of each module-level import of `tree`, apart from
    ``from __future__``; ``import a.b`` binds ``a``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], node.lineno


def _src_trees():
    """(file name, tree) of each module of ``src/hermlat``."""
    src_dir = os.path.join(ROOT, "src", "hermlat")
    for path, tree in _sources():
        if os.path.dirname(path) == src_dir:
            yield os.path.basename(path), tree


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in _src_trees():
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unused += [f"{name}:{line}:{bound}"
                   for bound, line in _module_imports(tree) if bound not in loaded]
    assert not unused, f"module-level imports nobody uses: {unused}"


def _defined_functions(tree):
    """Functions defined at module level or directly in a module-level class;
    functions nested in a function body (callbacks) are not listed."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for sub in body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield sub


def test_every_parameter_is_read():
    unread = []
    for name, tree in _src_trees():
        for fn in _defined_functions(tree):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            loaded = {sub.id for sub in ast.walk(fn)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{name}:{fn.name}({p.arg})" for p in params
                       if p.arg not in ("self", "cls") and p.arg not in loaded]
    assert not unread, f"parameters never read: {unread}"


def test_no_function_imports_inside_its_body():
    local = set()
    for name, tree in _src_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.update(f"{name}:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not local, f"imports inside function bodies: {sorted(local)}"


def _error_classes(trees):
    return [node.name for node in trees["errors.py"].body
            if isinstance(node, ast.ClassDef) and node.name != "HermlatError"]


def test_every_error_class_is_raised():
    trees = dict(_src_trees())
    classes = _error_classes(trees)
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes and not set(classes) - raised, \
        f"error classes never raised: {sorted(set(classes) - raised)}"


def _class_names(node):
    """The names of an ``except`` type or an ``isinstance`` class argument:
    a name or a tuple of names."""
    for elt in node.elts if isinstance(node, ast.Tuple) else [node]:
        if isinstance(elt, ast.Name):
            yield elt.id


def test_every_error_class_is_caught():
    classes = _error_classes(dict(_src_trees()))
    caught = set()
    for path, tree in _sources():
        if not path.startswith((os.path.join(ROOT, "src", "hermlat"),
                                os.path.join(ROOT, "perfbench"))):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(_class_names(node.type))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                caught.update(_class_names(node.args[1]))
    assert classes and not set(classes) - caught, \
        f"error classes no caller acts on: {sorted(set(classes) - caught)}"


def _decorator_name(node):
    """The last name of a decorator, or of what a call calls: ``cache`` for
    ``@functools.cache``, ``lru_cache`` for ``@lru_cache(maxsize=None)``,
    ``WeakKeyDictionary`` for ``weakref.WeakKeyDictionary()``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_no_method_is_cached_on_self():
    cached = []
    for name, tree in _src_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            cached += [f"{name}:{cls.name}.{fn.name}" for fn in cls.body
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and any(_decorator_name(d) in ("lru_cache", "cache")
                               for d in fn.decorator_list)]
    assert not cached, f"methods whose cache holds self: {cached}"


def test_no_module_keeps_a_weak_key_table():
    tables = []
    for name, tree in _src_trees():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(stmt.value, ast.Call) \
                    and _decorator_name(stmt.value) == "WeakKeyDictionary":
                tables.append(f"{name}:{stmt.lineno}")
    assert not tables, f"module-level weak-key tables: {tables}"
