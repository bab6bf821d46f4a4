import ast
import importlib
import inspect
import pkgutil

import splr


def test_public_names_resolve():
    # Every name a module lists in __all__, and every name the package
    # imports into its top level, exists: a deletion cannot leave a
    # dangling export.
    for info in pkgutil.iter_modules(splr.__path__):
        module = importlib.import_module(f"splr.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"splr.{info.name}.{name}"
    tree = ast.parse(inspect.getsource(splr))
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(splr, name), f"splr.{name}"


def test_modules_use_every_name_they_import():
    # No module but the package's __init__ re-exports: every name another
    # module imports is read somewhere in it, so a deletion cannot leave a
    # dead import behind.
    for info in pkgutil.iter_modules(splr.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"splr.{info.name}")))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"splr.{info.name} imports {sorted(imported - used)} unused"


def test_rank_cutoff_decides_ranks_only():
    # _numerical_rank cuts a spectrum at 1e-10 * sigma_1. Only the two
    # functions that return a rank's worth of values call it; a norm that
    # called it would drop values from its sum.
    callers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "_numerical_rank":
                    callers.add((module, scope))
            visit(child, module, scope)

    for info in pkgutil.iter_modules(splr.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"splr.{info.name}")))
        visit(tree, info.name, None)
    assert callers == {("matrices", "_svd"), ("matrices", "singular_values")}


def test_integer_premise_has_one_rule():
    # Dimensions, ranks, counts and seeds are checked by
    # matrices._check_integer. Apart from it, only SupportSet's check of
    # each cell's indices, whose message names the cell, calls _is_integer:
    # a hand-written integer check elsewhere fails here.
    callers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "_is_integer":
                    callers.add((module, scope))
            visit(child, module, scope)

    for info in pkgutil.iter_modules(splr.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"splr.{info.name}")))
        visit(tree, info.name, None)
    assert callers == {("matrices", "_check_integer"), ("subspaces", "SupportSet.__init__")}


def _is_bound(node):
    """A number, math.inf, or either negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)) or \
        ast.unparse(node) == "math.inf"


def _is_value(node):
    """A name or an attribute (cfg.b, self.mu): a value, not a call."""
    return isinstance(node, (ast.Name, ast.Attribute)) and not _is_bound(node)


def test_real_premise_has_one_rule():
    # Real-valued premises are checked by matrices._check_real, and the
    # per-premise helpers it replaced are gone. Apart from the two rules,
    # which compare with bounds they are given, no `raise ValueError` sits
    # under an `if` that orders a value against a numeric bound, except in
    # SupportSet's check of each cell's range, the CLI's step and order
    # check of a density grid, solve_regularized's rule on mu at the scale
    # of Y (it depends on the data) and RowColSpace's orthonormality
    # tolerance (a measured deviation, not an argument): a hand-written
    # check elsewhere fails here.
    gone = {f"_check_{name}" for name in ("lambda", "scales", "rho", "tol", "densities")}
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    raisers = set()

    def compares_with_bound(test):
        for node in ast.walk(test):
            if isinstance(node, ast.Compare) and any(isinstance(op, order) for op in node.ops):
                operands = [node.left, *node.comparators]
                if any(map(_is_bound, operands)) and any(map(_is_value, operands)):
                    return True
        return False

    def raises_value_error(body):
        return any(isinstance(node, ast.Raise) and node.exc is not None
                   and "ValueError" in ast.unparse(node.exc)
                   for stmt in body for node in ast.walk(stmt))

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                assert child.name not in gone, f"splr.{module}.{child.name}"
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.If) and compares_with_bound(child.test) \
                    and raises_value_error(child.body):
                raisers.add((module, scope))
            visit(child, module, scope)

    for info in pkgutil.iter_modules(splr.__path__):
        module = importlib.import_module(f"splr.{info.name}")
        assert not gone & set(vars(module)), f"splr.{info.name}"
        visit(ast.parse(inspect.getsource(module)), info.name, None)
    assert raisers == {("subspaces", "SupportSet.__init__"), ("cli", "_parse_float_grid"),
                       ("solvers", "solve_regularized"), ("subspaces", "RowColSpace.__init__")}


def test_dense_factorizations_called_only_in_matrices():
    # np.linalg.svd, eigh, eigvalsh and qr are reached through matrices
    # alone, so one layer holds every dense factorization and can count them.
    factorizations = {"svd", "eigh", "eigvalsh", "qr"}
    for info in pkgutil.iter_modules(splr.__path__):
        if info.name == "matrices":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(f"splr.{info.name}")))
        found = [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in factorizations
                 and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
        found += [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                  for alias in node.names if alias.name in factorizations]
        assert found == [], f"splr.{info.name} calls np.linalg.{found[0]}"


def test_gap_terms_run_in_the_solver_frame():
    # Each solver hands _admm its data in one frame, 2^-e times Y, and its
    # gap_terms evaluate there: a power-of-two rescaling inside one would
    # be a second scale, kept apart from the iterates'.
    tree = ast.parse(inspect.getsource(importlib.import_module("splr.solvers")))
    gap_terms = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "gap_terms"]
    assert len(gap_terms) == 2
    for fn in gap_terms:
        calls = [node.func for node in ast.walk(fn) if isinstance(node, ast.Call)]
        names = [f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                 for f in calls]
        assert not {"ldexp", "frexp"} & set(names), f"gap_terms at line {fn.lineno}"
    # The penalized data term and dual value each have one formula, exact
    # over the frame's range: no branch on a value past the float range.
    solve = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "solve_regularized")
    terms = {node.name: node for node in ast.walk(solve) if isinstance(node, ast.FunctionDef)}
    for name in ("fit", "gap_terms", "dual"):
        for node in ast.walk(terms[name]):
            if isinstance(node, ast.Compare):
                assert "math.inf" not in ast.unparse(node), f"{name} at line {node.lineno}"
