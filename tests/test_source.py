"""Source-level rules for the package."""

import ast
import re
from pathlib import Path

import bodenhu
from bodenhu import _kernel
from bodenhu._kernel import pure
from conftest import REPO_ROOT

PACKAGE = Path(bodenhu.__file__).parent
SPEEDUPS = PACKAGE / "_kernel" / "_speedups.c"


def parsed_modules():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(), str(path))) for path in modules]


def test_no_assert_statements():
    """Invariants must survive python -O, which strips assert statements."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


FLOAT_CLOCKS = ("perf_counter", "time", "monotonic", "process_time")


def is_float(node):
    """A float literal, the name float, or a call of a float clock."""
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in FLOAT_CLOCKS
        return getattr(func, "id", None) in FLOAT_CLOCKS
    return False


def test_no_float_in_the_package():
    """Exact arithmetic everywhere: no module makes or names a float, the
    clock is read in integer nanoseconds, and the compiled twin has no
    floating type."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        for node in ast.walk(tree)
        if is_float(node)
    ]
    found += [
        f"{SPEEDUPS.name}:{number}"
        for number, line in enumerate(SPEEDUPS.read_text().splitlines(), 1)
        if re.search(r"PyFloat_|\bdouble\b", line)
    ]
    assert found == []


def reads_environment(node):
    """os.environ / os.getenv, or either name imported from os."""
    names = ("environ", "getenv")
    if isinstance(node, ast.Attribute):
        return (
            node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in names for a in node.names)
    return False


def test_only_the_cli_reads_the_environment():
    """Library calls behave the same whatever the environment holds."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        if path != PACKAGE / "cli.py"
        for node in ast.walk(tree)
        if reads_environment(node)
    ]
    assert found == []


def parameter_names(node):
    """The parameter names of a def or lambda, of every kind."""
    a = node.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def applies_cap(node):
    """A def or lambda with a parameter named cap, or a call of check_cap."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return "cap" in parameter_names(node)
    if isinstance(node, ast.Call):
        names = (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        return "check_cap" in names
    return False


def test_only_the_cli_applies_the_cap():
    """The slot-count cap is the CLI's rule: outside cli.py no function
    takes a cap and nothing calls check_cap, so library calls run up to
    the kernels' MAX_SLOTS."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        if path != PACKAGE / "cli.py"
        for node in ast.walk(tree)
        if applies_cap(node)
    ]
    assert found == []


def test_no_indented_json_dumps():
    """Payloads go through _kernel.dumps; json.dumps with an indent is slow."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "dumps" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []


def makes_support_key(node):
    """A dict display, dict() call or item assignment that puts the key
    "support" into a dict."""
    if isinstance(node, ast.Dict):
        return any(
            isinstance(key, ast.Constant) and key.value == "support"
            for key in node.keys
        )
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return any(k.arg == "support" for k in node.keywords)
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "support"
    )


def test_one_block_formatter():
    """Every payload block {"support": [...], "degree": d} comes from the
    kernel's blocks: no module outside the two twins puts the key
    "support" into a dict, though the table writers read it."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        if path != PACKAGE / "_kernel" / "pure.py"
        for node in ast.walk(tree)
        if makes_support_key(node)
    ]
    assert found == []
    pure_tree = ast.parse((PACKAGE / "_kernel" / "pure.py").read_text())
    assert any(makes_support_key(node) for node in ast.walk(pure_tree))


# Private constructors that skip validation, and the enumeration modules
# whose objects are valid by construction, the only ones that call them.
UNCHECKED = ("_from_mask_unchecked", "_unchecked")
ENUMERATORS = ("partitions.py", "smallness.py", "moduli.py")


def test_unchecked_constructors_only_in_enumerators():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        if path.relative_to(PACKAGE).as_posix() not in ENUMERATORS
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in UNCHECKED
    ]
    assert found == []


# The single-alpha decision path reads pairwise deltas off support masks;
# core.delta and delta_seq walk all N slots per pair and stay as oracles.
DELTA_FREE = ("partitions.py", "smallness.py")


def test_decision_path_does_not_call_delta():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        if path.relative_to(PACKAGE).as_posix() in DELTA_FREE
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
        & {"delta", "delta_seq"}
    ]
    assert found == []


# The single-alpha decisions read WeightVector's scaled integers; Fractions
# stay at parsing and output.
INTEGER_DECISIONS = {
    "weightspace.py": {"is_generic", "is_near"},
    "partitions.py": {"_stable_rotation", "is_alpha_stable_seq"},
    "moduli.py": {"fiber_component_dim"},
}


def test_single_alpha_decisions_do_not_name_fraction():
    checked, found = set(), []
    for path, tree in parsed_modules():
        names = INTEGER_DECISIONS.get(path.relative_to(PACKAGE).as_posix(), ())
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and func.name in names:
                checked.add(func.name)
                found += [
                    f"{path.name}:{func.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if (isinstance(node, ast.Name) and node.id == "Fraction")
                    or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                ]
    assert checked == set().union(*INTEGER_DECISIONS.values())
    assert found == []


def decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", None) or getattr(target, "attr", None)


def test_weight_space_caches_only_subset_sums():
    """A weight vector's tables live on the WeightVector instance, never in
    a cache of the weight-space or partition modules keyed by alpha."""
    found = [
        f"{path.name}:{node.name}"
        for path, tree in parsed_modules()
        if path.relative_to(PACKAGE).as_posix() in ("weightspace.py", "partitions.py")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(
            decorator_name(d) in ("lru_cache", "cache", "cached_property")
            for d in node.decorator_list
        )
    ]
    assert found == ["weightspace.py:subset_sums"]


def test_only_subset_sums_builds_the_full_table():
    """check and fiber decide from half tables: the kernel's admissible
    tabulates the two halves of each weight vector, and is_near bisects
    those of WeightVector.half_sums.

    subset_sums builds all 2^N subset sums and stays public with its cache;
    nothing in the package may call or otherwise refer to it.
    """
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in parsed_modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "subset_sums")
        or (isinstance(node, ast.Attribute) and node.attr == "subset_sums")
    ]
    assert found == []


def recursive_functions(tree):
    """Qualified names of the functions that call themselves by name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = ".".join(scope + [child.name])
                if any(
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == child.name
                    for call in ast.walk(child)
                ):
                    found.append(name)
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(tree, [])
    return found


# Beside the kernel, the only recursion is the dual construction of a
# counterexample.
OTHER_RECURSIONS = [
    "smallness.py:_construct",
]
KERNEL_FORMULAS = {"_cross_terms", "_place_degrees", "_pairing", "_rotations",
                   "_scan_shape", "rate_orders", "alpha_shapes",
                   "iter_partition_shapes", "_walk_shapes", "_solve_strict",
                   "_insert_row", "wall_meets", "realise", "realise_shapes",
                   "_subset_sum_table"}


def test_single_alpha_formulas_live_in_the_pure_kernel():
    """The pairing and rotation formulas, the per-shape scan, the shape
    recursions, the subset-sum table and the Fourier-Motzkin realisation
    are defined once, in _kernel/pure.py, as the twin of _speedups.c.
    Every name listed is a function pure.py defines, so the list cannot
    go stale."""
    pure_tree = ast.parse((PACKAGE / "_kernel" / "pure.py").read_text())
    in_pure = {
        node.name for node in pure_tree.body if isinstance(node, ast.FunctionDef)
    }
    assert KERNEL_FORMULAS - in_pure == set()
    outside = [
        (path.relative_to(PACKAGE).as_posix(), tree)
        for path, tree in parsed_modules()
        if path != PACKAGE / "_kernel" / "pure.py"
    ]
    defined = [
        f"{path}:{node.name}"
        for path, tree in outside
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in KERNEL_FORMULAS
    ]
    assert defined == []
    recursions = [
        f"{path}:{name}"
        for path, tree in outside
        for name in recursive_functions(tree)
    ]
    assert recursions == OTHER_RECURSIONS


def test_partitions_leave_the_degree_loop_to_the_kernel():
    """feasible_partitions takes its candidates from the kernel's
    realise_shapes; partitions.py runs no product over degree ranges."""
    tree = ast.parse((PACKAGE / "partitions.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "product")
        or (isinstance(node, ast.Attribute) and node.attr == "product")
        or (isinstance(node, ast.alias) and node.name == "product")
    ]
    assert found == []


def test_kernel_entries_are_bound_in_one_place():
    """Only bodenhu._kernel binds the twin's entry points; every other
    module calls them as _kernel.<entry>, so rebinding them there switches
    the twin for the whole package."""
    kernel_modules = ("_kernel", "_kernel.pure")
    found = []
    for path, tree in parsed_modules():
        if path.parent == PACKAGE / "_kernel":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:
                    module = module.removeprefix("bodenhu.")
                if module in kernel_modules:
                    found += [
                        f"{path.name}:{node.lineno} imports {alias.name}"
                        for alias in node.names
                        if alias.name in _kernel.ENTRY_POINTS
                    ]
        found += [
            f"{path.name}:{node.lineno} binds {node.value.attr}"
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and getattr(node.value.value, "id", None) in ("_kernel", "pure")
            and node.value.attr in _kernel.ENTRY_POINTS
        ]
    assert found == []


def test_pure_block_entries_read_one_partition_rule():
    """Every pure-kernel entry taking blocks reads them through
    _read_partition, the twin of the compiled read_partition: rate_orders
    through _read_shapes, which reads its listing shape by shape."""
    tree = ast.parse((PACKAGE / "_kernel" / "pure.py").read_text())
    readers = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_read_partition"
            for call in ast.walk(node)
        )
    }
    assert {"realise", "_read_shapes", "scan_partition_batch"} <= readers
    assert (None, "_read_shapes") in calls_of(
        top_function(PACKAGE / "_kernel" / "pure.py", "rate_orders")
    )


def c_functions(source):
    """(name, body) of each C function defined in source."""
    definitions = re.finditer(
        r"^(\w+)\([^;{]*?\)\n\{\n(.*?)^\}", source, re.M | re.S
    )
    return [(match[1], match[2]) for match in definitions]


def c_recursive_functions(source):
    """Names of the C functions defined in source that call themselves."""
    return [
        name
        for name, body in c_functions(source)
        if re.search(rf"\b{name}\(", body)
    ]


def test_each_twin_has_one_shape_walk():
    """The scan, the realisation and alpha_shapes walk their shapes through
    one recursion per twin, differing only in its block source.  Beside it
    only pure's JSON writer recurses; the compiled writer's recursion runs
    through write_value and is not a self-call."""
    kernel = PACKAGE / "_kernel"
    pure_tree = ast.parse((kernel / "pure.py").read_text())
    assert recursive_functions(pure_tree) == ["_walk_shapes.rec", "_encode"]
    assert c_recursive_functions(SPEEDUPS.read_text()) == ["walk_shapes"]


# The entries with arguments to read: all but the JSON writer.
PURE_ENTRIES = [name for name in _kernel.ENTRY_POINTS if name != "dumps"]


def is_reader(node):
    return getattr(node, "id", "").startswith("_read_")


def takes(call, name):
    """Whether the call takes the bare name as an argument."""
    return any(isinstance(a, ast.Name) and a.id == name for a in call.args)


def reads_through_reader(stmt, name):
    """Whether stmt binds name to a _read_* call taking name, or loops over
    map(_read_*, name) or over a _read_* call taking name."""
    if isinstance(stmt, ast.For):
        loop = stmt.iter
        return isinstance(loop, ast.Call) and (
            getattr(loop.func, "id", None) == "map"
            and is_reader(loop.args[0])
            and getattr(loop.args[1], "id", None) == name
            or is_reader(loop.func) and takes(loop, name)
        )
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return False
    targets, values = stmt.targets[0], stmt.value
    if isinstance(targets, ast.Tuple) and isinstance(values, ast.Tuple):
        pairs = zip(targets.elts, values.elts)
    else:
        pairs = [(targets, values)]
    return any(
        isinstance(target, ast.Name) and target.id == name
        and isinstance(value, ast.Call)
        and is_reader(value.func)
        and takes(value, name)
        for target, value in pairs
    )


def test_pure_entries_read_arguments_through_readers():
    """The first statement of a pure entry that names an argument reads it
    through a _read_* function, or hands every argument on to another entry.
    The semismall flag is read once, by _read_flag, like the rest, and
    rate_orders loops over _read_shapes of its shapes and their degrees;
    the batch's shapes, each measured and then read in turn, are the one
    argument left out.  Only _read_int calls operator.index."""
    tree = ast.parse((PACKAGE / "_kernel" / "pure.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    unread = []
    for entry in PURE_ENTRIES:
        func = functions[entry]
        for arg in func.args.args:
            if arg.arg == "masks_list":
                continue
            stmt = next(
                stmt
                for stmt in func.body
                if any(
                    isinstance(node, ast.Name) and node.id == arg.arg
                    for node in ast.walk(stmt)
                )
            )
            handed_on = (
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Call)
                and getattr(stmt.value.func, "id", None) in PURE_ENTRIES
            )
            if not (handed_on or reads_through_reader(stmt, arg.arg)):
                unread.append(f"{entry}:{arg.arg}")
    assert unread == []
    index_calls = [
        func.name
        for func in functions.values()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "index"
    ]
    assert index_calls == ["_read_int"]


def test_compiled_entries_parse_no_integer_unit():
    """Each compiled entry, dumps too, parses its arguments in one call,
    by position or keyword, whose format holds no integer unit: integers go
    through the readers' O& converters, which read them as pure.py does."""
    formats = re.findall(
        r'PyArg_ParseTupleAndKeywords\(\s*args,\s*kwds,\s*"([^"]*)"',
        SPEEDUPS.read_text(),
    )
    assert len(formats) == len(_kernel.ENTRY_POINTS)
    assert [f for f in formats if set(f.split(":")[0]) & set("bBhHiIlkLKn")] == []


# The C functions that may take Python integers or sequences apart: the
# readers (read_pair unpacks a (mask, degree) pair of blocks and takes its
# degree as an exact int), alpha_shapes over its list of any length, and
# the JSON writer.
C_READERS = {"read_int", "read_ints", "read_pair", "alpha_shapes", "write_int"}


def test_compiled_arguments_are_read_only_by_the_readers():
    found = {
        name
        for name, body in c_functions(SPEEDUPS.read_text())
        if re.search(r"\b(PySequence_\w+|PyLong_As\w+|PyNumber_Index)\(", body)
    }
    assert found == C_READERS


def test_kernel_api_is_one_number():
    """_speedups.c, pure.py and README's example of a refused stale build
    name the same KERNEL_API; this runs without a C compiler, which the
    compiled-kernel tests need."""
    (api,) = map(
        int, re.findall(r"^#define KERNEL_API (\d+)$", SPEEDUPS.read_text(), re.M)
    )
    assert api == pure.KERNEL_API
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    assert f"`API mismatch: extension {api - 1}, pure.py {api}`" in readme


def c_reaches(source, start, target):
    """Whether the C function start calls target, directly or through other
    functions defined in source."""
    calls = {
        name: set(re.findall(r"\b(\w+)\(", body))
        for name, body in c_functions(source)
    }
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name == target:
            return True
        if name in calls and name not in seen:
            seen.add(name)
            todo += calls[name]
    return False


def calls_of(func):
    """The names func calls, as name or attribute, each with the name of the
    object it is looked up on (None for a bare name)."""
    return {
        (getattr(node.func.value, "id", None), node.func.attr)
        if isinstance(node.func, ast.Attribute)
        else (None, getattr(node.func, "id", None))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    }


def top_function(path, name):
    tree = ast.parse(path.read_text())
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return func


def test_walls_are_listed_through_each_twins_closed_form():
    """Each twin lists the walls through its own wall_meets, the one closed
    form of a wall in it, and enumerate_walls takes them from the kernel."""
    assert (None, "wall_meets") in calls_of(
        top_function(PACKAGE / "_kernel" / "pure.py", "walls")
    )
    assert c_reaches(SPEEDUPS.read_text(), "walls", "wall_meets")
    assert ("_kernel", "walls") in calls_of(
        top_function(PACKAGE / "weightspace.py", "enumerate_walls")
    )


def test_the_test_harness_lives_in_conftest():
    """Only conftest.py starts tracemalloc, sets a signal timer or runs
    setup.py build_ext: the leak check, the Ctrl-C check and the kernel
    build are written once, there."""
    found = []
    for path in sorted((REPO_ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            command = isinstance(node, (ast.List, ast.Tuple)) and {
                "setup.py", "build_ext"
            } <= {elt.value for elt in node.elts if isinstance(elt, ast.Constant)}
            if path.name != "conftest.py" and (
                command
                or isinstance(node, ast.Call) and ast.unparse(node.func)
                in ("tracemalloc.start", "signal.setitimer")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
