"""Static checks on the package source.

Every name a module imports must be used in that module: an import left
behind by a deletion is dead code that still costs load time and misleads
a reader about what the module depends on. Likewise every public name a
module defines must be read somewhere in the package, unless a checked
claim of the test suite rests on it.
"""

import ast
import os

import pytest

from support import MODULES, TREES, run_fresh


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_are_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(TREES[path.name]) == [], f"unused imports in {path.name} (line, name)"


# Public names that no package module reads, kept because a checked claim
# rests on them: criterion 7 compares measured Sobolev norms with
# analytic_sobolev_norm, criterion 6 reads stability_probe's Tikhonov
# amplification, and test_cli.py and test_harness.py parse emitted tables back
# with load_csv (criterion 9 compares raw bytes).
UNREAD_BUT_CHECKED = {"analytic_sobolev_norm", "stability_probe", "load_csv"}


def _public_definitions(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def _references(tree: ast.Module) -> set:
    # Load context only, so an assignment's own target is not a use.
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_read_in_the_package():
    used = set().union(*(_references(tree) for tree in TREES.values()))
    unread = {
        (module, name)
        for module, tree in TREES.items()
        for name in _public_definitions(tree)
        if name not in used
    }
    assert {name for _, name in unread} == UNREAD_BUT_CHECKED, sorted(unread)


def test_the_census_does_not_count_an_assignment_as_a_use():
    tree = ast.parse("LIMIT = 3\nTOTAL = LIMIT\n")
    assert _public_definitions(tree) == ["LIMIT", "TOTAL"]
    assert _references(tree) == {"LIMIT"}


# One factorization per operator: the operator's own SVD is the only SVD call
# site; a differentiation matrix is built once per grid, through the grid's memo.
SVD_SITES = [("operators.py", "DiscreteOperator._build_svd", None)]


def _parents(tree: ast.Module) -> dict:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _ancestors(node, parents):
    while node in parents:
        node = parents[node]
        yield node


def _qualname(node, parents) -> str:
    names = [
        a.name
        for a in _ancestors(node, parents)
        if isinstance(a, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef))
    ]
    return ".".join(reversed(names))


def _svd_sites(name: str, tree: ast.Module) -> list:
    parents = _parents(tree)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            for alias in node.names:
                if alias.name == "svd":
                    sites.append((name, "import", node.lineno))
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            if ast.unparse(node.value).endswith("linalg"):
                branch = next(
                    (
                        ast.unparse(a.test)
                        for a in _ancestors(node, parents)
                        if isinstance(a, ast.If)
                    ),
                    None,
                )
                sites.append((name, _qualname(node, parents), branch))
    return sites


def test_svd_is_called_only_at_the_operator_factorization():
    sites = [site for name, tree in TREES.items() for site in _svd_sites(name, tree)]
    assert sorted(sites, key=str) == SVD_SITES


def _is_memo_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "memo"
    )


def _calls_outside_memo(tree: ast.Module, name: str) -> list:
    """Lines calling ``name`` neither inside a memo call nor inside a function
    that some memo call of the module takes as its build."""
    parents = _parents(tree)
    build_functions = {
        arg.id
        for node in ast.walk(tree)
        if _is_memo_call(node)
        for arg in node.args
        if isinstance(arg, ast.Name)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
        and not any(
            _is_memo_call(a)
            or (isinstance(a, ast.FunctionDef) and a.name in build_functions)
            for a in _ancestors(node, parents)
        )
    ]


def test_differentiation_matrices_are_built_only_through_a_memo():
    calls = [
        name
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "differentiation_matrix"
    ]
    # sobolev_norm's matrix and the Tikhonov penalty's Gram
    assert sorted(calls) == ["estimators.py", "function_space.py"]
    for name, tree in TREES.items():
        assert _calls_outside_memo(tree, "differentiation_matrix") == [], name


def test_the_memo_census_sees_a_call_outside_every_build():
    tree = ast.parse(
        "def f(g):\n    return g.memo('k', lambda: d(g))\n"
        "def h(g):\n    def build():\n        return d(g)\n    return g.memo('k', build)\n"
        "def stray(g):\n    def helper():\n        return d(g)\n    return helper()\n"
        "def cached(g):\n    return g.memo('k', d(g))\n"
    )
    assert _calls_outside_memo(tree, "d") == [9]


# Derived values are kept on the immutable object they come from, through one
# memo; a functools cache would key them elsewhere and size them by hand.
FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}


def _functools_caches(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES:
            if ast.unparse(node.value) == "functools":
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for a in node.names if a.name in FUNCTOOLS_CACHES]
    return found


def test_one_memo_and_no_functools_caches():
    assert {name: _functools_caches(tree) for name, tree in TREES.items()} == {
        name: [] for name in TREES
    }
    memos = [
        name
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "memo"
    ]
    assert memos == ["function_space.py"]


def test_the_cache_census_sees_both_spellings():
    tree = ast.parse(
        "import functools\nfrom functools import cache\n"
        "@functools.lru_cache(maxsize=1)\ndef f(): pass\n"
    )
    assert _functools_caches(tree) == [2, 3]


# Dataclass fields that no package module reads as an attribute, kept because
# tests pin them and a reader is planned: EstimateResult.iterations is the
# solver diagnostic the trace sidecar is to report.
UNREAD_BUT_PINNED_FIELDS = {"EstimateResult.iterations"}


def _dataclass_decorator(node: ast.ClassDef):
    for d in node.decorator_list:
        if ast.unparse(d.func if isinstance(d, ast.Call) else d).endswith("dataclass"):
            return d
    return None


def _dataclass_fields(tree: ast.Module) -> list:
    fields = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _dataclass_decorator(node) is not None:
            fields += [
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def _attribute_reads(tree: ast.Module) -> set:
    # Load context only: a keyword argument is no attribute at all, and an
    # assignment target stores.
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_in_the_package():
    read = set().union(*(_attribute_reads(tree) for tree in TREES.values()))
    unread = {
        f"{cls}.{name}"
        for tree in TREES.values()
        for cls, name in _dataclass_fields(tree)
        if name not in read
    }
    assert unread == UNREAD_BUT_PINNED_FIELDS


def test_the_field_census_does_not_count_a_keyword_or_a_store_as_a_read():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Result:\n    value: float\n    note: str\n"
        "@dataclass\nclass Box:\n    size: int\n"
        "r = Result(value=1.0, note='x')\nr.note = 'y'\nprint(r.value)\n"
    )
    fields = [("Result", "value"), ("Result", "note"), ("Box", "size")]
    assert _dataclass_fields(tree) == fields
    assert _attribute_reads(tree) == {"value"}


def _keyword_is_false(call, name: str) -> bool:
    return isinstance(call, ast.Call) and any(
        k.arg == name and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in call.keywords
    )


def _value_compared_array_fields(trees: list) -> list:
    """Fields holding arrays that a generated __eq__ would compare.

    A field holds arrays when its annotation names np.ndarray or a dataclass
    that compares by identity (eq=False), whose own arrays a value comparison
    would reach through it. Such a field must be compare=False or sit in an
    eq=False class, since == and hash() on arrays raise.
    """
    classes = [
        (node, d)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and (d := _dataclass_decorator(node)) is not None
    ]
    by_identity = {node.name for node, d in classes if _keyword_is_false(d, "eq")}
    arrays = {"np.ndarray"} | by_identity
    found = []
    for node, _ in classes:
        if node.name in by_identity:
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            named = {
                ast.unparse(n)
                for n in ast.walk(stmt.annotation)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if named & arrays and not _keyword_is_false(stmt.value, "compare"):
                found.append(f"{node.name}.{stmt.target.id}")
    return found


def test_array_fields_are_never_compared_by_value():
    assert _value_compared_array_fields(TREES.values()) == []


def test_the_array_census_sees_value_comparison():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Grid:\n    size: int\n"
        "    nodes: np.ndarray = field(init=False, compare=False)\n"
        "@dataclass(frozen=True, eq=False)\nclass Values:\n    v: np.ndarray\n"
        "@dataclass(frozen=True)\nclass Result:\n    fit: Values\n"
        "    raw: np.ndarray | None = None\n    grid: Grid = field(compare=True)\n"
    )
    assert _value_compared_array_fields([tree]) == ["Result.fit", "Result.raw"]


# Defaulted parameters of public package functions that no package call
# passes, kept because callers outside the package pass them: the tests and
# the benchmark's child run main(argv).
DEFAULTED_BUT_PASSED_OUTSIDE = {"main.argv"}


def _unpassed_defaults(trees: list) -> set:
    """function.parameter for each defaulted parameter of a public
    module-level function that no call in ``trees`` passes, by position or
    by keyword (a *args or **kwargs argument counts as passing all)."""
    defaults = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    defaults[node.name, positional[i].arg] = i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        defaults[node.name, arg.arg] = None
    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            keywords = {k.arg for k in call.keywords}
            for (fname, param), index in defaults.items():
                if fname != name:
                    continue
                by_position = index is not None and (starred or index < len(call.args))
                if by_position or param in keywords or None in keywords:
                    passed.add((fname, param))
    return {f"{f}.{p}" for f, p in defaults.keys() - passed}


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert _unpassed_defaults(TREES.values()) == DEFAULTED_BUT_PASSED_OUTSIDE


def test_the_default_census_sees_position_keyword_and_unpacking():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "def g(x=0, y=0): pass\n"
        "def h(k=0): pass\n"
        "def _private(z=0): pass\n"
        "f(0, 1)\nf(0, d=4)\ng(*args)\nobj.h(**options)\n"
    )
    assert _unpassed_defaults([tree]) == {"f.c"}


def _numpy_calls(tree: ast.Module, function: str) -> list:
    """Lines calling numpy's ``function``, as np.f, numpy.f or an imported f."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names
        if alias.name == function
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            ast.unparse(node.func) in {f"np.{function}", f"numpy.{function}"}
            or (isinstance(node.func, ast.Name) and node.func.id in imported)
        )
    ]


# Shape constraints have one owner: function_space forms the differences that
# ConstraintSet.rows enforces and check_shape verifies, so no other module
# takes differences of grid values.
def test_differences_are_taken_only_in_function_space():
    users = {name for name, tree in TREES.items() if _numpy_calls(tree, "diff")}
    assert users == {"function_space.py"}


def test_the_difference_census_sees_every_spelling():
    tree = ast.parse(
        "import numpy as np\nimport numpy\nfrom numpy import diff as d\n"
        "np.diff(v)\nnumpy.diff(v, n=2)\nd(v)\n"
        "v.diff()\nnp.gradient(v)\ndiff(v)\n"
    )
    assert _numpy_calls(tree, "diff") == [4, 5, 6]


# The inspection rule has one owner too: a ConstraintSet derives its equally
# spaced nodes and checks their count against its difference orders, so no
# other module spaces points evenly or reads a difference order.
def _inspection_rule_lines(tree: ast.Module) -> list:
    """Lines reading .difference_order or calling numpy's linspace."""
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "difference_order"
    ]
    return sorted(reads + _numpy_calls(tree, "linspace"))


def test_only_function_space_spaces_inspection_nodes():
    users = {name for name, tree in TREES.items() if _inspection_rule_lines(tree)}
    assert users == {"function_space.py"}


def test_the_inspection_census_sees_every_spelling():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import linspace as ls\n"
        "np.linspace(0, 1, 5)\nnumpy.linspace(0, 1, 5)\nls(0, 1, 5)\n"
        "c.difference_order + 2\ngetattr(c, 'order')\nnp.arange(5)\nlinspace(0, 1)\n"
    )
    assert _inspection_rule_lines(tree) == [3, 4, 5, 6]


# A table is built in one place: each runner hands its {column: value} rows to
# harness._table, which reads every row by the first row's columns, so no
# runner lists its columns a second time.
def _result_table_builders(tree: ast.Module) -> list:
    """Qualified names of the functions that call ResultTable, by name or attribute."""
    parents = _parents(tree)
    return sorted(
        _qualname(node, parents)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ResultTable"
    )


def test_only_the_table_helper_builds_a_result_table():
    builders = [
        (module, name) for module, tree in TREES.items() for name in _result_table_builders(tree)
    ]
    assert builders == [("harness.py", "_table")]


def test_the_table_census_sees_a_direct_call():
    tree = ast.parse(
        "def _table(cfg, rows):\n    return ResultTable(c, rows, m)\n"
        "def run_x(cfg):\n    return ResultTable(columns=c, rows=[], metadata={})\n"
        "def run_y(cfg) -> ResultTable:\n    return harness.ResultTable(c, [], {})\n"
        "isinstance(t, ResultTable)\nResultTableView(t)\n"
    )
    assert _result_table_builders(tree) == ["_table", "run_x", "run_y"]


def _imports_of(tree: ast.Module, package: str) -> list:
    """Lines importing ``package`` or anything inside it, absolutely."""

    def inside(module: str) -> bool:
        return module == package or module.startswith(package + ".")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if inside(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if inside(node.module or ""):
                found.append(node.lineno)
    return found


# scipy.optimize and scipy.special cost about half a second of import in
# every run for two kernels; the package loads scipy's compiled NNLS and ndtr
# from their extension files instead, each at its first call, and imports no
# scipy module.
def test_no_package_module_imports_scipy():
    assert {name: _imports_of(tree, "scipy") for name, tree in TREES.items()} == {
        name: [] for name in TREES
    }


def test_the_scipy_census_sees_every_spelling():
    tree = ast.parse(
        "import scipy.optimize\nfrom scipy.optimize import nnls\n"
        "from scipy import optimize as opt\nimport scipy.optimize._nnls as n\n"
        "import scipy.special\nfrom scipy import special\nimport scipy\n"
        "from .optimize import x\nimport scipyx\nfind_spec('scipy')\n"
    )
    assert _imports_of(tree, "scipy") == [1, 2, 3, 4, 5, 6, 7]


# The command line freezes its import-time objects and switches the collector
# off while they load; a library module must never change the collector of
# the process that imports it.
def test_only_the_command_line_imports_gc():
    users = {name for name, tree in TREES.items() if _imports_of(tree, "gc")}
    assert users == {"cli.py"}


def test_the_gc_census_sees_every_spelling():
    tree = ast.parse(
        "import gc\nfrom gc import freeze\nimport os, gc as g\n"
        "from . import gc\nimport gcx\ngc.collect()\n"
    )
    assert _imports_of(tree, "gc") == [1, 2, 3]


SCIPY_MODULES = "import sys\n{}\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    assert run_fresh(SCIPY_MODULES.format("import npivlab.cli")) == "[]"


def test_the_scipy_module_probe_sees_a_package_import():
    assert "'scipy.special'" in run_fresh(SCIPY_MODULES.format("import scipy.special"))


# A command loads the compiled kernels it calls and no others: the constrained
# solve calls NNLS, and only dgp.sample, which compare never calls, calls ndtr.
RUN_COMMAND = "import npivlab.cli\nassert npivlab.cli.main(sys.argv[1:]) == 0"
LOADED_BY_COMMAND = {
    "demo": [],
    "svd": [],
    "montecarlo": ["scipy.special._special_ufuncs"],
    "compare": ["scipy.optimize._slsqplib"],
}


@pytest.mark.parametrize("command", LOADED_BY_COMMAND)
def test_a_command_loads_only_the_compiled_kernels_it_calls(tmp_path, command):
    out = str(tmp_path / f"{command}.csv")
    loaded = run_fresh(SCIPY_MODULES.format(RUN_COMMAND), command, "--out", out)
    assert loaded.splitlines()[-1] == str(LOADED_BY_COMMAND[command])


# scipy's OpenBLAS, which _slsqplib links, starts worker threads as it loads,
# and an idle worker spins for about 32 ms under npivlab's
# OPENBLAS_THREAD_TIMEOUT of 26 (2^26 cycles; OpenBLAS's own default of 28
# spins about 0.13 s). The package loads it at one thread, which starts no
# worker. Each probe sleeps first, so that numpy's own workers, which spin
# after numpy loads, are asleep before the load it measures.
SPIN_PROBE = """import time
{}
start = time.process_time()
time.sleep(0.1)
print(time.process_time() - start)
"""
FIRST_NNLS = """import os
import numpy as np
from npivlab.estimators import nnls
time.sleep(0.2)
{}
nnls(np.eye(2), np.ones(2), 10)"""
SPIN_CPU_LIMIT_S = 0.010


def _spin_cpu_s(load: str, pick=min) -> float:
    """CPU seconds the process burns in a 100 ms sleep right after ``load``,
    in three fresh interpreters, of which ``pick`` takes one. A busy host can
    delay the start of the worker thread, and with it the spin, in one run:
    a probe that no thread spins takes the least, since a wrong load spins in
    every run, and a control that a thread does spin takes the greatest."""
    return pick(float(run_fresh(SPIN_PROBE.format(load))) for _ in range(3))


def test_importing_the_cli_leaves_no_thread_spinning():
    assert _spin_cpu_s("import npivlab.cli") <= SPIN_CPU_LIMIT_S


def test_the_first_nnls_call_leaves_no_thread_spinning():
    assert _spin_cpu_s(FIRST_NNLS.format("")) <= SPIN_CPU_LIMIT_S


# The control: a user who sets OPENBLAS_NUM_THREADS to the default count loads
# scipy's OpenBLAS with its workers, and the probe must see them spin.
AT_THE_DEFAULT_COUNT = "os.environ['OPENBLAS_NUM_THREADS'] = str(os.cpu_count())"


@pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU: OpenBLAS starts no worker thread")
def test_the_spin_probe_sees_nnls_loaded_at_the_default_thread_count():
    assert _spin_cpu_s(FIRST_NNLS.format(AT_THE_DEFAULT_COUNT), pick=max) > SPIN_CPU_LIMIT_S


ENVIRONMENT_PROBE = """import os
{}
import numpy as np
from npivlab.estimators import nnls
before = dict(os.environ)
nnls(np.eye(2), np.ones(2), 10)
print(dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS'))"""


def test_the_first_nnls_call_leaves_the_environment_as_it_found_it():
    assert run_fresh(ENVIRONMENT_PROBE.format("")) == "True None"


def test_a_users_blas_thread_count_is_kept():
    preset = "os.environ['OPENBLAS_NUM_THREADS'] = '2'"
    assert run_fresh(ENVIRONMENT_PROBE.format(preset)) == "True 2"


TIMEOUT_PROBE = "import os\n{}\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])"


def test_importing_npivlab_sets_the_blas_spin_timeout():
    assert run_fresh(TIMEOUT_PROBE.format("import npivlab")) == "26"


def test_a_users_blas_spin_timeout_is_kept():
    preset = "os.environ['OPENBLAS_THREAD_TIMEOUT'] = '28'\nimport npivlab"
    assert run_fresh(TIMEOUT_PROBE.format(preset)) == "28"


# A product big enough to wake numpy's BLAS workers; at OpenBLAS's default
# timeout they then spin through the whole 100 ms sleep, at npivlab's for
# about a third of it.
AFTER_A_PRODUCT = "import npivlab.cli\nimport numpy as np\nnp.ones((512, 512)) @ np.ones((512, 512))"
IDLE_WORKER_CPU_LIMIT_S = 0.050


@pytest.mark.skipif(os.cpu_count() < 2, reason="one CPU: OpenBLAS starts no worker thread")
def test_idle_blas_workers_go_to_sleep_within_the_timeout():
    assert _spin_cpu_s(AFTER_A_PRODUCT) <= IDLE_WORKER_CPU_LIMIT_S


# Which solvers a table runs is written once, in estimators.solver_suite; the
# experiments reach the solvers only through it.
SOLVERS = {"naive_estimate", "tir_estimate", "constrained_estimate"}


def _solver_mentions(tree: ast.Module) -> list:
    """Lines naming a solver: a call or other use, an import or an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in SOLVERS:
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in SOLVERS:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name in SOLVERS]
    return sorted(found)


def test_only_estimators_names_the_solvers():
    users = {name for name, tree in TREES.items() if _solver_mentions(tree)}
    assert users == {"estimators.py"}


def test_the_solver_census_sees_a_call_an_import_and_an_attribute():
    tree = ast.parse(
        "from .estimators import tir_estimate as t\n"
        "naive_estimate(A, r)\n"
        "est.constrained_estimate\n"
        "solver_suite(lams, cset)\ntir(A, r)\n"
    )
    assert _solver_mentions(tree) == [1, 2, 3]
