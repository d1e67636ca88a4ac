"""The metadata access analyzer (the headline protocol rule).

The paper's Figure 1 metadata — ``volatileTS``, ``glb_volatileTS``,
``glb_durableTS``, ``RDLock_Owner`` plus the WRLock — is the entire
shared state of the consistency/persistency protocol, and Table I's
verification conditions are all statements about who may touch which
field when.  :func:`engine_handlers` statically extracts, for every
handler in ``core/baseline/engine.py`` and ``core/offload/engine.py``:

* the read/write sets over those fields, mapped through the sanctioned
  :class:`RecordMeta` accessors, each raw access tagged with its
  mediation (the record's WRLock critical section, or a vFIFO/dFIFO
  drain callback serialized by the FIFO worker);
* the *durability witnesses*: NVM-log appends (``kv.persist`` /
  ``_durable_enqueue`` / ``_persist_record`` family), waits on a
  durability event (``all_ack_ps`` / ``all_acks`` /
  ``local_persist_done`` / a dFIFO entry's ``drained``), and dispatch
  tests on ``MsgType.VAL``/``VAL_P``.

The interprocedural ``flow-durable-order`` and ``flow-meta-race`` rules
(:mod:`repro.analysis.rules.flow`) check those facts across function
boundaries.  This rule gates one discipline itself:

* **meta-direct-write** — the four fields may be mutated *only* through
  the ``RecordMeta`` methods (``set_volatile``, ``set_glb_volatile``,
  ``set_glb_durable``, ``snatch_rdlock``, ``release_rdlock``).  A raw
  ``meta.glb_durable_ts = ts`` bypasses the monotonic-advance CAS
  semantics (§III-B) and the change gate that wakes spinning readers.

It also emits the full per-handler table (both engines, with the
baseline-vs-offload diff) under ``metadata_access`` in
``repro lint --json``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (ModuleSource, Project, Rule, dotted_name,
                                 enclosing_symbol, rule)
from repro.analysis.flow.callgraph import ARCH_FILES, engine_class_names
from repro.analysis.report import Finding

#: The Figure-1 metadata fields (RecordMeta attribute names).
META_FIELDS = ("volatile_ts", "glb_volatile_ts", "glb_durable_ts",
               "rdlock_owner", "wrlock")

#: Sanctioned RecordMeta mutators -> the field they advance.
META_SETTERS = {
    "set_volatile": "volatile_ts",
    "set_glb_volatile": "glb_volatile_ts",
    "set_glb_durable": "glb_durable_ts",
    "snatch_rdlock": "rdlock_owner",
    "release_rdlock": "rdlock_owner",
}

#: Sanctioned RecordMeta readers/spins -> the field they observe.
META_READERS = {
    "is_obsolete": "volatile_ts",
    "consistency_spin": "glb_volatile_ts",
    "persistency_spin": "glb_durable_ts",
    "wait_rdlock_free": "rdlock_owner",
    "rdlock_free": "rdlock_owner",
}

#: Method names whose call is (transitively) an NVM-log append.
LOG_APPEND_METHODS = {"_persist_record", "_local_persist",
                      "_durable_enqueue"}

#: Event attributes whose successful wait witnesses durability.
DURABILITY_EVENTS = {"all_ack_ps", "all_acks", "local_persist_done",
                     "drained"}

#: MsgType members whose dispatch attests global durability.
DURABILITY_MESSAGES = {"VAL", "VAL_P"}

#: The engine files the analyzer covers.
ENGINE_FILES = tuple(ARCH_FILES.values())

#: The module that owns the metadata fields (raw access sanctioned).
METADATA_MODULE = "repro/core/metadata.py"


@dataclass
class FieldAccess:
    """One access to a metadata field inside a handler."""

    fieldname: str
    mode: str            #: "read" | "write"
    line: int
    via: str             #: accessor name, or "raw"
    mediation: str       #: "accessor" | "wrlock" | "fifo-drain" | "none"


@dataclass
class HandlerAccess:
    """Extracted facts about one engine handler."""

    name: str
    engine: str
    path: str
    line: int
    accesses: List[FieldAccess] = field(default_factory=list)
    #: Lines of direct NVM-log appends.
    log_appends: List[int] = field(default_factory=list)
    #: Lines of durability-event waits / VAL dispatch tests.
    durability_witnesses: List[int] = field(default_factory=list)

    def reads(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for access in self.accesses:
            if access.mode == "read":
                out.setdefault(access.fieldname, []).append(access.line)
        return out

    def writes(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for access in self.accesses:
            if access.mode == "write":
                out.setdefault(access.fieldname, []).append(access.line)
        return out


def _is_meta_binding(node: ast.expr) -> bool:
    """Does *node* evaluate to a RecordMeta (``X.meta(key)`` or
    ``X.kv.meta(key)`` call)?"""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "meta")


class _HandlerScanner(ast.NodeVisitor):
    """Extract metadata accesses from one handler function."""

    def __init__(self, handler: HandlerAccess,
                 meta_params: Sequence[str]) -> None:
        self.handler = handler
        self.meta_vars: Set[str] = set(meta_params)
        #: Lines at which the WRLock was acquired/released, in order.
        self.wrlock_spans: List[Tuple[int, Optional[int]]] = []
        self.raw_accesses: List[FieldAccess] = []
        #: ``meta.wrlock`` receiver nodes of acquire()/release() calls —
        #: the lock operation itself, not a racy field read.
        self._lock_op_receivers: Set[int] = set()

    # -- bindings -----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_meta_binding(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.meta_vars.add(target.id)
        self._scan_store_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._scan_store_targets([node.target], node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _is_meta_binding(node.value):
            if isinstance(node.target, ast.Name):
                self.meta_vars.add(node.target.id)
        self._scan_store_targets([node.target], node.lineno)
        self.generic_visit(node)

    def _scan_store_targets(self, targets: Sequence[ast.expr],
                            line: int) -> None:
        for target in targets:
            elements = (target.elts if isinstance(target, ast.Tuple)
                        else [target])
            for element in elements:
                if (isinstance(element, ast.Attribute)
                        and element.attr in META_FIELDS
                        and self._is_meta_receiver(element.value)):
                    self.handler.accesses.append(FieldAccess(
                        fieldname=element.attr, mode="write", line=line,
                        via="raw", mediation="none"))
                    self.raw_accesses.append(self.handler.accesses[-1])

    def _is_meta_receiver(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in self.meta_vars:
            return True
        # ``self.kv.meta(key).field`` / chained forms.
        return _is_meta_binding(node)

    # -- calls --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            attr = func.attr
            if self._is_meta_receiver(receiver) and attr in META_SETTERS:
                self.handler.accesses.append(FieldAccess(
                    fieldname=META_SETTERS[attr], mode="write",
                    line=node.lineno, via=attr, mediation="accessor"))
            # meta.wrlock.acquire() / release(): critical-section marks.
            if (attr in ("acquire", "release")
                    and isinstance(receiver, ast.Attribute)
                    and receiver.attr == "wrlock"
                    and self._is_meta_receiver(receiver.value)):
                self._lock_op_receivers.add(id(receiver))
                if attr == "acquire":
                    self.wrlock_spans.append((node.lineno, None))
                elif self.wrlock_spans and \
                        self.wrlock_spans[-1][1] is None:
                    start, _ = self.wrlock_spans[-1]
                    self.wrlock_spans[-1] = (start, node.lineno)
            # NVM-log appends: X.kv.persist(...) or self.kv.persist(...)
            if attr == "persist":
                dotted = dotted_name(func)
                if ".kv.persist" in f".{dotted}":
                    self.handler.log_appends.append(node.lineno)
            if (isinstance(receiver, ast.Name) and receiver.id == "self"
                    and attr in LOG_APPEND_METHODS):
                self.handler.log_appends.append(node.lineno)
        self.generic_visit(node)

    # -- reads, witnesses ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.ctx, ast.Load)
                and node.attr in META_FIELDS
                and id(node) not in self._lock_op_receivers
                and self._is_meta_receiver(node.value)):
            self.handler.accesses.append(FieldAccess(
                fieldname=node.attr, mode="read", line=node.lineno,
                via="raw", mediation="none"))
            self.raw_accesses.append(self.handler.accesses[-1])
        elif (isinstance(node.ctx, ast.Load)
                and node.attr in META_READERS
                and self._is_meta_receiver(node.value)):
            # A reader call (meta.is_obsolete(ts)) or property
            # (meta.rdlock_free): counted here, once, for both forms.
            self.handler.accesses.append(FieldAccess(
                fieldname=META_READERS[node.attr], mode="read",
                line=node.lineno, via=node.attr, mediation="accessor"))
        if node.attr in DURABILITY_EVENTS:
            self.handler.durability_witnesses.append(node.lineno)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left, *node.comparators]:
            dotted = dotted_name(operand)
            if dotted.startswith("MsgType."):
                member = dotted.split(".", 1)[1]
                if member in DURABILITY_MESSAGES:
                    self.handler.durability_witnesses.append(node.lineno)
        self.generic_visit(node)

    # Nested defs: skip (they are separate handlers).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass


#: Names of FIFO drain callbacks (registered via ``start_drains``) and
#: their tails: accesses there are serialized by the FIFO worker.
def _fifo_drain_names(module: ModuleSource) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start_drains"):
            for arg in node.args:
                dotted = dotted_name(arg)
                if dotted.startswith("self."):
                    names.add(dotted.split(".", 1)[1])
    # Tails spawned from a drain callback inherit its serialization.
    tails = {name + "_tail" for name in names}
    return names | tails


def _scan_engine(module: ModuleSource) -> Dict[str, HandlerAccess]:
    handlers: Dict[str, HandlerAccess] = {}
    drains = _fifo_drain_names(module)
    engines = engine_class_names(module)
    for info in module.classes:
        if info.name not in engines:
            continue
        engine = info.name
        for stmt in info.node.body:
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            handler = HandlerAccess(name=stmt.name, engine=engine,
                                    path=module.rel, line=stmt.lineno)
            meta_params = [
                arg.arg for arg in stmt.args.args
                if arg.arg == "meta"
                or (arg.annotation is not None
                    and dotted_name(arg.annotation).endswith("RecordMeta"))
            ]
            scanner = _HandlerScanner(handler, meta_params)
            for child in stmt.body:  # not visit(stmt): the scanner's
                scanner.visit(child)  # FunctionDef hook skips nested defs
            # Mediation for raw accesses: wrlock span or drain worker.
            in_drain = stmt.name in drains
            for access in scanner.raw_accesses:
                if in_drain:
                    access.mediation = "fifo-drain"
                    continue
                for start, end in scanner.wrlock_spans:
                    if start <= access.line <= (end if end is not None
                                                else 10 ** 9):
                        access.mediation = "wrlock"
                        break
            handlers[f"{engine}.{stmt.name}"] = handler
    return handlers


def _scan_engines(project: Project) -> Dict[str, Dict[str, HandlerAccess]]:
    return {module.package_rel: _scan_engine(module)
            for module in project.modules
            if module.package_rel in ENGINE_FILES}


def engine_handlers(project: Project) -> Dict[str, Dict[str, HandlerAccess]]:
    """``Class.method`` -> :class:`HandlerAccess` per engine module
    (package-relative path), scanned once per lint run."""
    return project.shared("engine_handlers", _scan_engines)


def build_access_table(project: Project) -> Dict[str, object]:
    """The machine-readable per-handler access table for ``--json``."""
    engines: Dict[str, Dict[str, object]] = {}
    all_handlers: Dict[str, HandlerAccess] = {}
    for handlers in engine_handlers(project).values():
        all_handlers.update(handlers)
        for handler in handlers.values():
            engine_table = engines.setdefault(handler.engine, {})
            engine_table[handler.name] = {
                "line": handler.line,
                "reads": handler.reads(),
                "writes": handler.writes(),
                "mediation": sorted({access.mediation
                                     for access in handler.accesses}),
            }
    # Cross-engine diff: which handlers of each engine write each field.
    fields: Dict[str, Dict[str, List[str]]] = {}
    for fieldname in META_FIELDS:
        per_engine: Dict[str, List[str]] = {}
        for handler in all_handlers.values():
            if fieldname in handler.writes():
                per_engine.setdefault(handler.engine, []).append(
                    handler.name)
        fields[fieldname] = {engine: sorted(names)
                             for engine, names in per_engine.items()}
    return {"engines": engines, "field_writers": fields}


@rule
class MetadataAccessRule(Rule):
    id = "protocol"
    title = "RecordMeta access discipline and per-handler access table"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.package_rel == METADATA_MODULE:
                continue  # RecordMeta's own methods are the sanction
            for node in ast.walk(module.tree):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and target.attr in META_FIELDS):
                        continue
                    receiver = dotted_name(target.value)
                    tail = receiver.rsplit(".", 1)[-1]
                    if tail == "self" or tail == "meta" or \
                            _is_meta_binding(target.value):
                        if (receiver == "self" and module.package_rel
                                not in ENGINE_FILES):
                            # self.volatile_ts outside an engine: the
                            # class simply has a field of the same name.
                            continue
                        yield Finding(
                            rule="meta-direct-write", path=module.rel,
                            line=target.lineno,
                            symbol=enclosing_symbol(module, target),
                            message=f"raw write to {receiver}."
                                    f"{target.attr} bypasses the "
                                    f"RecordMeta accessors (monotonic "
                                    f"advance + change gate, §III-B); "
                                    f"use the set_*/snatch/release "
                                    f"methods")

    def tables(self, project: Project) -> Dict[str, object]:
        return {"metadata_access": build_access_table(project)}
