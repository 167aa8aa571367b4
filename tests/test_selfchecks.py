"""Package-wide source rules that no single module's tests can see."""

import ast
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import loopgas

SRC = pathlib.Path(loopgas.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a self-check written as one
    # silently disappears; every check in the package must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in loopgas: {found}"


def test_packed_integers_stay_in_the_one_kernel():
    # one series engine: series packed into big-integer fields are built by the
    # exact Euler kernel and read by its `_fields`, and by nothing else
    home = {"_euler_kernel", "_fields"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
                  and path.name == "qseries.py" and f.name in home for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and id(node) not in inside
                  and node.attr in {"from_bytes", "to_bytes", "unpack"}]
    assert not found, f"packed big-integer code outside the Euler kernel: {found}"


def test_every_builder_completes_through_one_entry_point():
    # one completion: builders hand theta and their backend to `qseries._complete`,
    # and the Euler kernel is named by it and its own definition, and nowhere else;
    # the channel evaluator's fallback completes through `_complete` and its work cap
    home = {"_complete", "_euler_kernel"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
                  and path.name == "qseries.py" and f.name in home for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in inside and "_euler_kernel" in (
                      getattr(node, "id", None), getattr(node, "attr", None),
                      getattr(node, "name", None))]
    assert not found, f"the Euler kernel named outside `_complete`: {found}"


def test_partition_numbers_are_read_by_the_kernel_alone():
    # one completion: p(k) is read by the Euler kernel's two backends, and by
    # `characters.decompose`'s peel; every other series of p(k) is a completion
    # of theta = 1 through `_complete`
    home = {("qseries.py", "_partition_numbers"), ("qseries.py", "_float_setup"),
            ("qseries.py", "_euler_kernel"), ("characters.py", "decompose")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
                  and (path.name, f.name) in home for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in inside and "_partition_numbers" in (
                      getattr(node, "id", None), getattr(node, "attr", None))]
    assert not found, f"p(k) read outside the Euler kernel: {found}"


def test_one_writer_serialises_every_command():
    # every CLI command returns its value and `cli._payload` alone writes it:
    # `json.dumps` is called there and nowhere else in src, and `csv.writer`
    # only in the `cli._csv` it calls
    writers = {("json", "dumps"), ("csv", "writer")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # breadth-first, so a nested function's name overwrites its parent's
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        found += [(path.name, owner.get(id(node)), node.func.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (getattr(node.func.value, "id", None), node.func.attr) in writers]
    assert sorted(found) == [("cli.py", "_csv", "writer"), ("cli.py", "_payload", "dumps")]


def test_every_exact_cutoff_takes_the_one_slot_rule():
    # "slot n lies below the cutoff" is `qseries._slot_top`'s integer rule: no
    # `math.ceil` (or a bare `ceil`) in src takes an argument that names a
    # cutoff, outside `_slot_top` itself
    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", "") for n in ast.walk(node)}

    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        found += [(path.name, owner.get(id(node)), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "ceil" in (
                      getattr(node.func, "attr", None), getattr(node.func, "id", None))
                  and owner.get(id(node)) != "_slot_top"
                  and any("cutoff" in name for arg in node.args for name in names(arg))]
    assert found == []


def test_no_function_reads_the_terms_view():
    # a series is its lattice: every operation reads the tuples n and a, and
    # `terms` is read only by its own property, by iteration, by pickling and
    # by `characters.decompose`'s refusal text
    home = {("qseries.py", "terms"), ("qseries.py", "__iter__"),
            ("qseries.py", "__reduce__"), ("characters.py", "decompose")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # breadth-first, so a nested function's name overwrites its parent's
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        found += [(path.name, owner.get(id(node)), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "terms"
                  and (path.name, owner.get(id(node))) not in home]
    assert found == []


def test_readme_states_the_counted_lines():
    # README's figure is what its own one-liner counts: lines of src that are
    # not blank and do not start with `#` after indentation
    readme = (ROOT / "README.md").read_text()
    assert "cat src/loopgas/*.py | grep -v '^\\s*#' | grep -c '\\S'" in readme
    stated = re.search(r"The package now has ([\d ]+) counted lines", readme)
    lines = [line for path in sorted((ROOT / "src" / "loopgas").glob("*.py"))
             for line in path.read_text().splitlines()]
    counted = sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))
    assert int(stated.group(1).replace(" ", "")) == counted


def test_every_private_function_has_a_caller_in_src():
    # a helper only the tests call is code the package does not need: a
    # module-level `_name` function or constant (an assignment's target, so a
    # retired tolerance cannot stay behind) must be named somewhere in src
    # outside its own definition (a call, an import, or a module-global lookup)
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}

    def bound(f):
        if isinstance(f, ast.FunctionDef):
            return [f.name]
        targets = (f.targets if isinstance(f, ast.Assign)
                   else [f.target] if isinstance(f, ast.AnnAssign) else [])
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]

    defs = [(module, name, f) for module, tree in trees.items() for f in tree.body
            for name in bound(f) if name.startswith("_") and not name.startswith("__")]
    unused = []
    for module, name, f in defs:
        own = {id(node) for node in ast.walk(f)}
        named = (node for tree in trees.values() for node in ast.walk(tree)
                 if id(node) not in own)
        if not any(name in (getattr(node, "id", None), getattr(node, "attr", None))
                   or isinstance(node, ast.alias) and name == node.name
                   for node in named):
            unused.append(f"{module}:{name}")
    assert not unused, f"private functions or constants with no caller in loopgas: {unused}"


def test_every_parameter_is_read():
    # a parameter no code reads is a decision made elsewhere that the
    # signature still claims; a nested function's read counts for its
    # enclosing one, and dunder protocol methods keep their fixed signatures
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for f in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(f, (ast.FunctionDef, ast.Lambda)) or (
                    getattr(f, "name", "").startswith("__") and f.name.endswith("__")):
                continue
            a = f.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None]
            read = {node.id for node in ast.walk(f)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [f"{path.name}:{f.lineno} {getattr(f, 'name', 'lambda')}({name})"
                      for name in params if name not in read]
    assert not found, f"parameters no code reads: {found}"


def test_no_module_imports_dataclasses():
    # `dataclasses` pulls `inspect`, `ast`, `dis` and `tokenize` into every
    # process that imports it; the value classes are NamedTuples instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not found, f"dataclasses imported in loopgas: {found}"


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, env=env)


def test_cli_import_loads_only_what_partition_needs():
    # subtract a bare interpreter's modules, so that what `site` imports does
    # not count against the package
    listing = "import sys; print('\\n'.join(sys.modules))"
    bare = set(_python(listing).stdout.split())
    added = set(_python("import loopgas.cli; " + listing).stdout.split()) - bare
    assert "loopgas.annulus" in added and "loopgas.qseries" in added
    unwanted = {"dataclasses", "inspect", "statistics", "numpy", "loopgas.observables",
                "loopgas.characters", "loopgas.boundary"}
    assert not added & unwanted


def test_boundary_command_loads_numpy_itself():
    code = ("import sys, loopgas.cli as cli; before = 'numpy' in sys.modules; "
            "code = cli.main(sys.argv[1:]); "
            "print(before, 'numpy' in sys.modules, code, file=sys.stderr)")
    run = _python(code, "boundary", "--g", "1.5", "--alpha1", "0.3", "--alpha2", "0.1")
    assert run.stderr.split() == ["False", "True", "0"]
    # the bytes recorded for this command in test_cli.PINNED_STDOUT
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == (
        "645e38b8da636f6477cbc54dca5ab87cd86bb6429cde656d1be3a097855cf5bf")


PUBLIC_NAMES = [
    "AsymptoteFit", "Backend", "BackendMismatchError", "BoundaryCoupling",
    "CGParams", "ChannelEval", "CharacterSpec", "DecompositionError",
    "DomainError", "GenSeries", "IdentityError", "LoopGasError", "Phase",
    "RegulatorFitError", "SeriesTerm", "TailBoundError", "WrapWeight",
    "annulus", "as_phase", "asymptote_fit", "boundary", "boundary_g_factor",
    "c_effective", "central_charge_slope_at_zero", "characters",
    "crossing_probability", "decompose", "decomposition_to_json",
    "dedekind_eta_series", "default_wrap", "duality_check", "e0_zeta",
    "e1_cutoff", "e1_zeta", "electric_dimension", "errors", "eta_modular_check",
    "euler_inverse", "euler_product", "eval_at", "flux_sum", "leading_asymptote",
    "leg_exponent", "log_chain_scale", "log_partition", "log_partition_exact_core",
    "max_abs_coeff_diff", "observables", "params", "params_from_n",
    "partition_crossed", "partition_direct", "partition_direct_parity",
    "partition_naive", "pentagonal_series", "qseries", "rocha_caridi",
    "saw_loop_dense", "saw_loop_derivative_series", "saw_loop_dilute",
    "vortex_marginality_check", "wrap_coefficient", "wrap_count_generating",
    "wrap_weight",
]


def test_public_names_are_pinned():
    # in a fresh process, so that nothing has been resolved yet
    code = textwrap.dedent("""
        import json, loopgas
        listed = [n for n in dir(loopgas) if not n.startswith("_")]
        star = {}
        exec("from loopgas import *", star)
        kinds = {n: type(getattr(loopgas, n)).__name__ for n in loopgas.__all__}
        try:
            loopgas.no_such_name
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps([loopgas.__all__, listed,
                          sorted(n for n in star if not n.startswith("_")),
                          kinds, unknown]))
    """)
    all_, listed, star, kinds, unknown = json.loads(_python(code).stdout)
    assert len(PUBLIC_NAMES) == 64
    assert all_ == listed == star == PUBLIC_NAMES
    modules = {"annulus", "boundary", "characters", "errors", "observables", "params",
               "qseries"}
    assert {n for n, kind in kinds.items() if kind == "module"} == modules
    assert unknown == "AttributeError"
    # and in this process, whatever the other tests have imported by now
    assert sorted(loopgas.__all__) == PUBLIC_NAMES
    for name in set(PUBLIC_NAMES) - modules:
        assert getattr(loopgas, name).__module__.startswith("loopgas."), name
    with pytest.raises(AttributeError):
        loopgas.no_such_name
