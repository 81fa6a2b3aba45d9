"""Every public name in ``src/cgnet`` has a caller outside the test suite,
and every dataclass field has a reader.

A public top-level function or class, or a public method, that neither the
package nor the benchmark harness uses is either dead or serves only the
tests; test-only helpers belong under ``tests/``, such as ``_oracles.py``
or ``_formats.py``. No name is exempt. A top-level name counts as used when
it appears as a name or an attribute anywhere in ``src/cgnet`` or
``cgbench``; a method or property only when it is accessed as an attribute
there, since a local variable of the same name does not call it. Its own
definition does not count.

A dataclass field counts as read when its name is loaded as an attribute,
or appears as a string constant (``getattr``), anywhere in ``src/cgnet`` or
``cgbench``. Reads in the tests do not count, and neither do constructor
arguments and assignments: a field that only the tests read, or that is
only ever written, is dead.
"""

import ast
import importlib
import inspect
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "cgnet"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "cgbench").glob("*.py"))


def public_definitions(path):
    """(qualified name, name, is_member) of public top-level functions and
    classes and of public methods (properties too) of top-level classes."""
    tree = ast.parse(path.read_text())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def used_names():
    """(names, attributes) that appear anywhere in the package or harness."""
    names, attrs = set(), set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_name_is_used_outside_the_tests():
    names, attrs = used_names()
    unused = [f"{path.stem}.{qual}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qual, name, is_member in public_definitions(path)
              if name not in (attrs if is_member else names | attrs)]
    assert not unused, f"public names nothing in src/cgnet or cgbench uses: {unused}"


def dataclass_fields(path):
    """(qualified name, field name) of the annotated fields of every class
    the file decorates with ``dataclass``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield f"{node.name}.{item.target.id}", item.target.id


def read_names():
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_dataclass_field_is_read():
    read = read_names()
    unread = [f"{path.stem}.{qual}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qual, name in dataclass_fields(path)
              if name not in read]
    assert not unread, f"dataclass fields nothing in src/cgnet or cgbench reads: {unread}"


def test_oracles_name_no_private_cgnet_attribute():
    """The oracles stay independent of the implementation: they use no
    private helper of ``cgnet``, neither imported nor as a module attribute."""
    tree = ast.parse((REPO / "tests" / "_oracles.py").read_text())
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cgnet"):
            for alias in node.names:
                if node.module == "cgnet":
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cgnet"):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                private.append(f"{ast.unparse(node.value)}.{node.attr}")
    assert not private, f"tests/_oracles.py names private cgnet attributes: {private}"


def test_traced_functions_resolve():
    """Every ``(module, function)`` the benchmark's tracer wraps still names
    a function of ``cgnet``, so a rename fails here, not in a traced run."""
    tree = ast.parse((REPO / "cgbench" / "tracing.py").read_text())
    pairs = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED_FUNCTIONS"])
    assert pairs
    missing = [f"cgnet.{module}.{name}" for module, name in pairs
               if not inspect.isfunction(
                   getattr(importlib.import_module(f"cgnet.{module}"), name, None))]
    assert not missing, f"cgbench/tracing.py traces functions cgnet lacks: {missing}"


def test_training_reads_no_gate_kind():
    """The training graph walks the gate's edges (``GateState.edges()``): it
    reads neither the gate kind nor a band's thresholds by attribute, so a
    second code path per gate kind fails here."""
    tree = ast.parse((PACKAGE / "training.py").read_text())
    forbidden = {"two_sided", "delta_high", "delta_low", "bounds"}
    read = {node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load)}
    assert not read & forbidden, f"src/cgnet/training.py reads {sorted(read & forbidden)}"


def test_only_a_backward_reads_a_saved_context():
    """A layer's ``backward`` consumes its training context: its gradients
    overwrite the buffers they are computed from. So ``Layer._saved_ctx`` is
    read only inside methods named ``backward``; a reader anywhere else
    could run after the backward and read gradients as activations."""
    def readers(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else "<lambda>" if isinstance(child, ast.Lambda) else func
            if isinstance(child, ast.Attribute) and child.attr == "_saved_ctx":
                yield inner, child.lineno
            yield from readers(child, inner)

    outside = [f"{path.name}:{line} in {func}"
               for path in sorted(PACKAGE.glob("*.py"))
               for func, line in readers(ast.parse(path.read_text()), "<module>")
               if func != "backward"]
    assert not outside, f"Layer._saved_ctx read outside a backward: {outside}"


def test_no_reader_rederives_the_map_that_ran():
    """``DecisionMap.d`` is the map that ran, so every reduction in
    ``src/cgnet`` reads it directly: nothing calls ``.effective()``, which
    is kept for the benchmark harness, or a recount such as ``.taken()``."""
    calls = [f"{path.name}:{node.lineno} .{node.func.attr}()"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("effective", "taken")]
    assert not calls, f"src/cgnet re-derives the map that ran: {calls}"


def test_one_routine_builds_the_map_that_ran():
    """Both forwards build their ``DecisionMap`` through ``gating.gate_map``,
    and ``analysis.merge_layer_records`` concatenates the maps it built, so
    nothing else in ``src/cgnet`` constructs one: a second routine could
    apply the channel gate in one pass and not in the other."""
    allowed = {("gating", "gate_map"), ("analysis", "merge_layer_records")}

    def builders(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            if isinstance(child, ast.Call) and "DecisionMap" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield inner, child.lineno
            yield from builders(child, inner)

    outside = [f"{path.name}:{line} in {func}"
               for path in sorted(PACKAGE.glob("*.py"))
               for func, line in builders(ast.parse(path.read_text()), "<module>")
               if (path.stem, func) not in allowed]
    assert not outside, f"DecisionMap built outside gate_map: {outside}"


def test_only_a_layer_builds_its_inference_plan():
    """A convolution layer builds its inference plan in ``forward_infer`` and
    keeps it until something writes its arrays, so in ``src/cgnet``
    ``gating.inference_plan`` and ``nn.fold_bn`` are called only from
    ``network.py``'s layer classes, and ``fold_bn`` also from the gated
    plan's builder: a plan built anywhere else could outlive the arrays it
    was built from."""
    def callers(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in ("inference_plan", "fold_bn"):
                    yield name, ".".join(scope)
            yield from callers(child, inner)

    calls = {(path.stem, where, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for name, where in callers(ast.parse(path.read_text()), ())}
    assert calls == {("network", "ConvBlock.forward_infer", "fold_bn"),
                     ("network", "CgConvBlock.forward_infer", "inference_plan"),
                     ("gating", "inference_plan", "fold_bn")}, calls


def test_one_routine_hands_out_the_convolution_threads():
    """``nn._run_on_threads`` reads the band pool and hands a convolution's
    bands or groups to its threads, so nothing else in ``src/cgnet`` calls
    ``nn._band_pool``: a second hand-out could start a thread before the
    runs it needs are built, or fork on the thread count itself."""
    def callers(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            if isinstance(child, ast.Call) and "_band_pool" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield inner
            yield from callers(child, inner)

    calls = [(path.stem, func)
             for path in sorted(PACKAGE.glob("*.py"))
             for func in callers(ast.parse(path.read_text()), "<module>")]
    assert calls == [("nn", "_run_on_threads")], calls
