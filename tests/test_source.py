"""Source-level rules for the package."""

import ast
import re
from pathlib import Path

import bodenhu

PACKAGE = Path(bodenhu.__file__).parent


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


# Private constructors that skip validation, and the enumeration modules
# whose objects are valid by construction.
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
    """check and fiber decide from the two half tables of WeightVector.half_sums.

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
KERNEL_FORMULAS = {"_pair_delta", "_cross_terms", "_place_degrees", "_pairing",
                   "_rotations", "_scan_shape", "rate_orders", "alpha_shapes",
                   "_rated_orders", "iter_partition_shapes", "_walk_shapes",
                   "_solve_strict", "_insert_row", "wall_meets", "realise",
                   "realise_shapes"}


def test_single_alpha_formulas_live_in_the_pure_kernel():
    """The pairing and rotation formulas, the per-shape scan, the shape
    recursions and the Fourier-Motzkin realisation are defined once, in
    _kernel/pure.py, as the twin of _speedups.c."""
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


def test_cli_does_not_rate_through_partition_objects():
    """check takes its listing straight from the kernel's rate_orders."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "rated_orderings")
        or (isinstance(node, ast.Attribute) and node.attr == "rated_orderings")
        or (isinstance(node, ast.alias) and node.name == "rated_orderings")
    ]
    assert found == []


def test_pure_block_entries_read_one_partition_rule():
    """Every pure-kernel entry taking blocks reads them through
    _read_partition, the twin of the compiled read_partition."""
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
    assert {"realise", "rate_orders", "scan_partition_batch"} <= readers


def c_recursive_functions(source):
    """Names of the C functions defined in source that call themselves."""
    definitions = re.finditer(
        r"^(\w+)\([^;{]*?\)\n\{\n(.*?)^\}", source, re.M | re.S
    )
    return [
        match[1]
        for match in definitions
        if re.search(rf"\b{match[1]}\(", match[2])
    ]


def test_each_twin_has_one_shape_walk():
    """The scan, the realisation and alpha_shapes walk their shapes through
    one recursion per twin, differing only in its block source.  Beside it
    only pure's JSON writer recurses; the compiled writer's recursion runs
    through write_value and is not a self-call."""
    kernel = PACKAGE / "_kernel"
    pure_tree = ast.parse((kernel / "pure.py").read_text())
    assert recursive_functions(pure_tree) == ["_walk_shapes.rec", "_encode"]
    source = (kernel / "_speedups.c").read_text()
    assert c_recursive_functions(source) == ["walk_shapes"]
