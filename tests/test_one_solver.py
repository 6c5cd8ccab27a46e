"""One solver per problem.  Single systems and points share one
difference-constraint solver: satisfiability, witnesses, exact
realizability and the renderer's points go to ``tropical._solve``, the
only reader of the column offsets ``tropical._offsets``, so the
losing-row constraint is built in one walk over the columns, which also
places the rows in no column when ``_realize`` asks; the separate weak
system ``_weak_edges`` stays gone.  Streams of cells have one solver too:
the enumerate report ``cli._report`` is the only caller of
``tropical._decider``, which decides each cell of its cross-check from
cached bound tables.  The two share one relaxation loop:
``tropical._bellman`` is called by ``_solve`` and ``_decider`` alone,
and no other function in the package assigns to a subscript of
``dist``, so a second Bellman-Ford loop cannot come back unseen.  Block
permanents and
tight rows have one recurrence, ``permanent._recur``, which both the
top-down ``permanent._solve`` and the level-order drain
``PermanentStructure.bijections`` call; the old join ``_join`` stays
gone.  Every question about one block goes through one reader,
``permanent._argmax``: only it and the drain call the top-down
``_solve`` (besides ``_solve`` itself, and no longer the recurrence),
and the earlier readers ``_block``, ``_attains`` and
``PermanentStructure._optimal`` stay gone.  Argmax sets are made by one
join, ``permanent._join_slab``, which only the drain and the top-down
``permanent._masks`` call; within ``permanent`` only those two and
``_argmax`` read the block memo ``_memo``, and no function in the
package takes an ``argmax`` parameter.  The cell test reads blocks only
through ``_argmax`` too: the walk over maximal bijections
``_maximal_attaining`` stays gone, and no module but ``permanent`` reads
``_memo``, which only the ``Arrangement`` constructor makes.  The cell
search reads its column constraints per block from one helper,
``complex._rule``, which only the search ``complex._search`` calls; the
walk over every partial bijection of the grid, ``_column_constraints``,
stays gone.  The search has three callers: ``enumerate_types``, the CLI
report ``cli._report`` and the renderer ``render.render_svg``.  The last
two read its leaves directly: neither names ``enumerate_types`` or
``TypeCell``, and the renderer, which draws on an integer grid, names no
``BoolMatrix``, ``realize_type``, ``project_to_plane`` or ``Fraction``
either.  The report's order has one owner: the search takes each
column's row sets in it (``boolmat._walk``), so ``cli._report`` calls no
``sort`` or ``sorted``, and no ``_rank`` keys row sets a second way.
The value types have one base: only ``boolmat._Value`` defines
equality, hashing and pickling, and no module imports ``dataclasses``.
The checks at the library's edges have one owner each: only
``boolmat._position`` raises IndexError for an index out of range, and
only ``boolmat._shape`` refuses ragged rows.  An index set has one check:
only ``boolmat._index_set`` refuses an index "out of range for size",
and only ``cli._parse_braced_groups`` checks a command-line row against
1..n.  Each value type's slots have one writer, its trusted constructor:
no ``_Value`` subclass but ``PartialBijection`` defines ``__init__``,
the others validating in ``__new__``.  ``CapExceeded`` lives in
``boolmat``, so ``facemonoid`` imports nothing from ``permanent``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropface"


def _sites(tree: ast.Module, callee: str) -> tuple:
    """(calls of ``callee``, by name or attribute, as (line, enclosing
    top-level function or class), and definitions of a function named
    ``callee``, by line)."""
    calls, defs = [], []
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", None) == callee or (
                        getattr(f, "attr", None) == callee):
                    calls.append((node.lineno, name))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name == callee):
                defs.append(node.lineno)
    return calls, defs


def _package_sites(callee: str) -> tuple:
    calls, defs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        c, d = _sites(tree, callee)
        calls += [(path.stem, name) for _, name in c]
        defs += [(path.stem, line) for line in d]
    return calls, defs


def _callers(tree: ast.Module, callee: str) -> list:
    """The sorted names, ``function`` or ``Class.method``, of the top-level
    functions and the methods that call ``callee``."""
    funcs = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            funcs += [(f"{top.name}.{f.name}", f) for f in top.body
                      if isinstance(f, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef):
            funcs.append((top.name, top))
    return sorted(name for name, f in funcs
                  if _sites(ast.Module(body=[f], type_ignores=[]),
                            callee)[0])


def _subscript_stores(tree: ast.Module, name: str) -> list:
    """The enclosing top-level function or class of every assignment,
    plain, augmented or unpacked, to a subscript of the name ``name``."""
    return _matches(tree, lambda node: (
        isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == name))


def test_subscript_stores_are_found():
    tree = ast.parse("def f(dist):\n"
                     "    dist[0] = 1\n"
                     "    return dist[0]\n"
                     "class C:\n"
                     "    def g(self, dist):\n"
                     "        dist[1] += 2\n"
                     "def h(dist, other):\n"
                     "    def inner():\n"
                     "        dist[2], x = 3, 4\n"
                     "    other[0] = dist\n"
                     "    self.dist[0] = 5\n")
    assert _subscript_stores(tree, "dist") == ["f", "C", "h"]


def test_one_difference_constraint_solver():
    assert _package_sites("_bellman")[0] == [("tropical", "_solve"),
                                             ("tropical", "_decider")]
    relaxations = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        relaxations += [(path.stem, name)
                        for name in _subscript_stores(tree, "dist")]
    assert relaxations == [("tropical", "_bellman")]
    assert _package_sites("_offsets")[0] == [("tropical", "_solve")]
    assert _package_sites("_weak_edges") == ([], [])
    calls, defs = _package_sites("_decider")
    assert calls == [("cli", "_report")]
    assert [module for module, _ in defs] == ["tropical"]


def test_calls_and_definitions_are_found():
    tree = ast.parse("def f(e):\n"
                     "    return _bellman(3, e)\n"
                     "class C:\n"
                     "    def g(self):\n"
                     "        return tropical._bellman(1, [])\n"
                     "    def _bellman(self):\n"
                     "        pass\n"
                     "x = _bellman\n")
    assert _sites(tree, "_bellman") == ([(2, "f"), (5, "C")], [6])


def test_one_block_recurrence():
    calls, defs = _package_sites("_recur")
    assert [module for module, _ in defs] == ["permanent"]
    assert {module for module, _ in calls} == {"permanent"}
    path = PACKAGE / "permanent.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _callers(tree, "_recur") == ["PermanentStructure.bijections",
                                         "_solve"]
    assert _package_sites("_join") == ([], [])


def test_callers_are_named_by_method():
    tree = ast.parse("def f():\n"
                     "    return k()\n"
                     "class C:\n"
                     "    def g(self):\n"
                     "        def inner():\n"
                     "            return m.k()\n"
                     "        return inner\n"
                     "    def h(self):\n"
                     "        return k\n"
                     "k()\n")
    assert _callers(tree, "k") == ["C.g", "f"]


def _attribute_uses(tree: ast.Module, attr: str) -> list:
    """(enclosing ``function`` or ``Class.method`` at the top level, and
    ``Load`` or ``Store``) of every use of the attribute ``attr``."""
    uses = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            funcs = [(f"{top.name}.{f.name}" if hasattr(f, "name")
                      else top.name, f) for f in top.body]
        else:
            funcs = [(getattr(top, "name", None), top)]
        for name, f in funcs:
            uses += [(name, type(node.ctx).__name__) for node in ast.walk(f)
                     if isinstance(node, ast.Attribute) and node.attr == attr]
    return uses


def test_the_cell_test_reads_blocks_through_argmax():
    assert _package_sites("_maximal_attaining") == ([], [])
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "permanent":
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            outside += [(path.stem,) + use
                        for use in _attribute_uses(tree, "_memo")]
    assert outside == [("tropical", "Arrangement.__init__", "Store")]


def test_one_block_reader():
    path = PACKAGE / "permanent.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(_attribute_uses(tree, "_memo"))) == [
        ("PermanentStructure.bijections", "Load"), ("_argmax", "Load"),
        ("_masks", "Load")]
    assert _callers(tree, "_solve") == [
        "PermanentStructure.bijections", "_argmax", "_solve"]
    for gone in ("_block", "_attains", "_optimal"):
        assert _package_sites(gone) == ([], []), gone


def test_one_mask_join():
    calls, defs = _package_sites("_join_slab")
    assert [module for module, _ in defs] == ["permanent"]
    assert {module for module, _ in calls} == {"permanent"}
    path = PACKAGE / "permanent.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _callers(tree, "_join_slab") == ["PermanentStructure.bijections",
                                             "_masks"]


def _parameters(tree: ast.Module) -> set:
    """The names of the parameters of every function in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names.update(p.arg for p in a.posonlyargs + a.args
                         + a.kwonlyargs + [a.vararg, a.kwarg] if p)
    return names


def test_no_function_takes_an_argmax_flag():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert "argmax" not in _parameters(tree), path.stem


def test_parameters_are_found():
    tree = ast.parse("def f(a, /, b=1, *c, argmax, **e):\n"
                     "    return lambda g: g\n"
                     "class C:\n"
                     "    def m(self, h):\n"
                     "        pass\n")
    assert _parameters(tree) == {"a", "b", "c", "argmax", "e", "g", "self",
                                 "h"}


def test_attribute_uses_are_found():
    tree = ast.parse("def f(a):\n"
                     "    return a._memo[1]\n"
                     "class C:\n"
                     "    'a docstring'\n"
                     "    def __init__(self):\n"
                     "        self._memo = {}\n"
                     "x = y._memo\n")
    assert _attribute_uses(tree, "_memo") == [
        ("f", "Load"), ("C.__init__", "Store"), (None, "Load")]


def test_the_search_reads_one_rule_per_block():
    assert _package_sites("_column_constraints") == ([], [])
    calls, defs = _package_sites("_rule")
    assert [module for module, _ in defs] == ["complex"]
    assert calls == [("complex", "_search")]
    path = PACKAGE / "complex.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _callers(tree, "_rule") == ["_search"]


def _names(tree: ast.Module) -> set:
    """Every name ``tree`` imports or uses, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_names_are_found():
    tree = ast.parse("from .complex import TypeCell as T\n"
                     "def f(m):\n"
                     "    return m.enumerate_types(x)\n")
    assert _names(tree) == {"TypeCell", "m", "enumerate_types", "x"}


def _module_names(stem: str) -> set:
    path = PACKAGE / f"{stem}.py"
    return _names(ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)))


def test_the_search_has_three_callers():
    calls, defs = _package_sites("_search")
    assert [module for module, _ in defs] == ["complex"]
    assert sorted(calls) == [("cli", "_report"), ("complex", "enumerate_types"),
                             ("render", "render_svg")]
    assert not {"enumerate_types", "TypeCell"} & _module_names("cli")
    assert not {"enumerate_types", "TypeCell", "BoolMatrix", "realize_type",
                "project_to_plane", "Fraction"} & _module_names("render")


def test_the_report_keeps_the_search_order():
    for callee in ("sort", "sorted"):
        assert ("cli", "_report") not in _package_sites(callee)[0], callee
    assert _package_sites("_rank")[1] == []


def test_calls_in_nested_functions_belong_to_the_top_level():
    tree = ast.parse("def f(a):\n"
                     "    def rec(j):\n"
                     "        return _rule(a, 0, j)\n"
                     "    return rec(0)\n"
                     "def _rule(a, key, j):\n"
                     "    return key\n"
                     "g = _rule\n")
    assert _sites(tree, "_rule") == ([(3, "f")], [5])
    assert _callers(tree, "_rule") == ["f"]


VALUE_HOOKS = {"__eq__", "__hash__", "__reduce__"}


def _value_hooks(tree: ast.Module) -> list:
    """(class, name) of every ``__eq__``, ``__hash__`` or ``__reduce__``
    that a class in ``tree`` defines or assigns, and ("import",
    "dataclasses") for every import of ``dataclasses``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                names = [t.id for t in getattr(f, "targets", ())
                         if isinstance(t, ast.Name)]
                names += [f.name] if isinstance(
                    f, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
                found += [(node.name, n) for n in names if n in VALUE_HOOKS]
        elif isinstance(node, ast.Import):
            found += [("import", a.name) for a in node.names
                      if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(("import", node.module))
    return found


def test_value_hooks_are_found():
    tree = ast.parse("import dataclasses as dc\n"
                     "from dataclasses import dataclass\n"
                     "class C:\n"
                     "    __hash__ = None\n"
                     "    def __eq__(self, other):\n"
                     "        return True\n"
                     "    class D:\n"
                     "        def __reduce__(self):\n"
                     "            pass\n"
                     "    def __repr__(self):\n"
                     "        pass\n")
    assert _value_hooks(tree) == [
        ("import", "dataclasses"), ("import", "dataclasses"),
        ("C", "__hash__"), ("C", "__eq__"), ("D", "__reduce__")]


def test_one_value_base():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.stem,) + hook for hook in _value_hooks(tree)]
    assert sorted(found) == [("boolmat", "_Value", "__eq__"),
                             ("boolmat", "_Value", "__hash__"),
                             ("boolmat", "_Value", "__reduce__")]


def _matches(tree: ast.Module, match) -> list:
    """The enclosing top-level function or class of every node of
    ``tree`` for which ``match(node)`` holds."""
    return [getattr(top, "name", None) for top in tree.body
            for node in ast.walk(top) if match(node)]


def _raises_index_error(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) == "IndexError"


def _says_ragged_rows(node) -> bool:
    return isinstance(node, ast.Constant) and "ragged rows" in str(node.value)


def test_edge_checks_are_found():
    tree = ast.parse("def f(v):\n"
                     "    raise IndexError(f'{v} out of range')\n"
                     "class C:\n"
                     "    def g(self):\n"
                     "        raise IndexError\n"
                     "    def h(self):\n"
                     "        raise ValueError(f'ragged rows at {self}')\n"
                     "def k():\n"
                     "    raise\n"
                     "x = 'ragged rows'\n")
    assert _matches(tree, _raises_index_error) == ["f", "C"]
    assert _matches(tree, _says_ragged_rows) == ["C", None]


def test_one_edge_check():
    found = {_raises_index_error: [], _says_ragged_rows: []}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for match, owners in found.items():
            owners += [(path.stem, name) for name in _matches(tree, match)]
    assert found[_raises_index_error] == [("boolmat", "_position")]
    assert found[_says_ragged_rows] == [("boolmat", "_shape")]


def _says(text: str):
    """A match for ``_matches``: a string constant, or a constant part of
    an f-string, that contains ``text``."""
    return lambda node: (isinstance(node, ast.Constant)
                         and text in str(node.value))


def _value_inits(tree: ast.Module) -> list:
    """The ``_Value`` subclasses in ``tree`` that define ``__init__``."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(getattr(b, "id", None) == "_Value" for b in node.bases)
            and any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                    for f in node.body)]


def _permanent_imports(tree: ast.Module) -> list:
    """The lines of the imports in ``tree`` that reach a module named
    ``permanent``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [
                f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any("permanent" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


def test_owners_are_found():
    tree = ast.parse("class A(_Value, fields=()):\n"
                     "    def __init__(self, v, n):\n"
                     "        return f'{v} out of range for size {n}'\n"
                     "class B(_Value, fields=()):\n"
                     "    def __new__(cls):\n"
                     "        pass\n"
                     "class C:\n"
                     "    def __init__(self):\n"
                     "        pass\n"
                     "from .permanent import CapExceeded\n"
                     "from . import permanent\n"
                     "import tropface.permanent as p\n"
                     "from .boolmat import permanent_structure\n"
                     "def f():\n"
                     "    return 'row 4 outside 1..3'\n")
    assert _matches(tree, _says("out of range for size")) == ["A"]
    assert _matches(tree, _says("outside 1..")) == ["f"]
    assert _value_inits(tree) == ["A"]
    assert _permanent_imports(tree) == [10, 11, 12]


def test_one_index_set_check_and_one_slot_writer():
    found = {"range": [], "cli range": [], "inits": [], "imports": []}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found["range"] += [(path.stem, name) for name in _matches(
            tree, _says("out of range for size"))]
        found["cli range"] += [(path.stem, name) for name in _matches(
            tree, _says("outside 1.."))]
        found["inits"] += [(path.stem, name) for name in _value_inits(tree)]
        if path.stem == "facemonoid":
            found["imports"] = _permanent_imports(tree)
    assert found == {"range": [("boolmat", "_index_set")],
                     "cli range": [("cli", "_parse_braced_groups")],
                     "inits": [("boolmat", "PartialBijection")],
                     "imports": []}
