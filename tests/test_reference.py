"""The boundary of the reference stack's own code.

Everything only ``Machine(reference=True)`` runs that the production modules
do not contain is :mod:`repro.reference`, and :mod:`repro.machine` is the
only module that imports it; the production modules hold one implementation
per behaviour and do not know which stack they are on.  The other way round,
the reference is a client of production's public surface, not a subclass of
its internals: its engine and fabric derive from nothing, it imports no
private name, and the only private attributes it touches are the Event
protocol's.  Read off the source (``ast``), so
a forbidden import is caught whether or not it is reached.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: Defined in repro.reference and nowhere else (not ``flush``, the name of
#: production's cache flushes too, nor ``read_back``, a plain method of
#: ``PFSFile``: the read-backs are checked class by class below).  A name in
#: ``FLAT_NAMESAKES`` is also a production chain's, which must not be a
#: generator.
REFERENCE_ONLY = {
    "HeapSimulator",
    "AnyOf",
    "NaiveFabric",
    "fill_rates",
    "flush_batch",
    "read_local",
    "read_log",
    "write_sync",
    "_sync_rpc",
    "serve_write",
    "absorb",
}
FLAT_NAMESAKES = {"serve_write"}  # DataServer's write RPC, a callback chain


def modules():
    """``{dotted name: parsed tree}`` of every module under ``src/repro``."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = ast.parse(path.read_text(), filename=str(path))
    return out


def imports_reference(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.reference" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.reference":
                return True
            if node.module == "repro" and any(a.name == "reference" for a in node.names):
                return True
    return False


def test_only_the_machine_imports_the_reference_module():
    importers = {name for name, tree in modules().items() if imports_reference(tree)}
    assert importers == {"repro.machine"}


def test_only_the_machine_reads_which_stack_it_is():
    """No module but :mod:`repro.machine` loads an attribute named
    ``reference``: a component takes the stack from the engine and the
    fabric it is built on (``Simulator.inline_grants``,
    ``Simulator.shared_releases``, ``Fabric.bundles``), never from
    ``machine.reference`` or a copy of it."""
    readers = sorted(
        (name, node.lineno)
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "reference"
        and isinstance(node.ctx, ast.Load)
        and name != "repro.machine"
    )
    assert readers == []


def is_generator(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))


def test_no_production_module_defines_reference_code():
    for name, tree in modules().items():
        if name == "repro.reference":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in FLAT_NAMESAKES:
                assert not is_generator(node), (name, node.name, node.lineno)
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in REFERENCE_ONLY, (name, node.name, node.lineno)


def test_the_read_backs_have_no_generator_read():
    trees = modules()
    for module, cls in (
        ("repro.localfs.ext4", "LocalFileSystem"),
        ("repro.cache.nvmlog", "NVMMWriteLog"),
        ("repro.faults.recovery", "CacheJournal"),
    ):
        (body,) = [
            n.body for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls
        ]
        methods = {n.name for n in body if isinstance(n, ast.FunctionDef)}
        assert not methods & {"read", "read_back"}, (cls, methods)


def test_the_machine_sets_no_attribute_on_a_component():
    """``Machine.__init__`` assigns attributes of the machine (and attaches
    the profiler to its engine) only: each component takes what it needs
    from the engine and the fabric it is built on, not from flags set after
    the fact."""
    (machine,) = [
        n for n in modules()["repro.machine"].body if isinstance(n, ast.ClassDef)
    ]
    (init,) = [n for n in machine.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    for node in ast.walk(init):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                owner = ast.unparse(target.value)
                assert owner == "self" or ast.unparse(target) == "self.sim.profiler", owner


#: The only ``_``-prefixed attributes :mod:`repro.reference` touches on
#: anything but ``self``, each with its reason: the Event protocol.  No
#: fabric, engine or storage-chain internal is here: the reference engine
#: and fabric are clients of the Event protocol and of the fabric's public
#: surface, and the generator flush walks the server and its write-back
#: cache through their public methods.
ALLOWED_PRIVATE = {
    "_fired": "an engine marks the event it fires",
    "_ok": "an engine and a waiter read the outcome",
    "_value": "an engine and a waiter read the outcome",
    "_triggered": "an engine and a waiter read the outcome",
}


def reference_tree() -> ast.Module:
    return modules()["repro.reference"]


def test_the_reference_subclasses_no_production_class_but_events():
    """A reference class derives from nothing, or from an Event class: its
    engine and fabric share no code with production's."""
    from repro import reference
    from repro.sim.core import Event

    for node in ast.walk(reference_tree()):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                cls = eval(ast.unparse(base), vars(reference))  # a name it imported
                assert issubclass(cls, Event), (node.name, ast.unparse(base))


def test_the_reference_imports_no_private_name():
    for node in ast.walk(reference_tree()):
        if isinstance(node, ast.ImportFrom):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, (node.module, private)


def test_the_reference_touches_only_allowed_private_attributes():
    touched = {
        node.attr
        for node in ast.walk(reference_tree())
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    }
    assert touched <= ALLOWED_PRIVATE.keys(), touched - ALLOWED_PRIVATE.keys()


def test_production_has_one_engine():
    """``repro.sim.core`` defines one class with an event loop, and nothing
    there names a heap of events (``_heap``)."""
    tree = modules()["repro.sim.core"]
    engines = [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(n, ast.FunctionDef) and n.name == "run" for n in node.body)
    ]
    assert engines == ["Simulator"]
    assert not [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_heap"
    ]
