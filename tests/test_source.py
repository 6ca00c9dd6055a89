"""Static checks over the package source."""

import ast
import pathlib

import greendc
from greendc import engine

SRC = pathlib.Path(greendc.__file__).parent
TESTS = pathlib.Path(__file__).parent

# attributes the package assigns but only code outside it reads
READ_OUTSIDE = {
    "_sp_cache": "bench/run.py reports Topology._sp_cache's length as topology.bfs_sources",
}

# functions and methods the package defines but only code outside it calls
CALLED_OUTSIDE = {
    "allocate": "bench/spans.py wraps it",
    "kth_path": "bench/spans.py wraps it",
    "path_count": "bench/spans.py wraps it",
}


def test_every_assigned_attribute_is_read():
    """An attribute the package writes and never reads is state nothing
    depends on.  Attributes are matched by name across the whole package;
    getattr and hasattr with a literal name count as reads."""
    stored, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
                else:
                    read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    assert stored, "no attribute assignments found; is the source path right?"
    write_only = {name: where for name, where in stored.items()
                  if name not in read and name not in READ_OUTSIDE}
    assert write_only == {}
    # an allow-listed name the package starts reading needs no entry
    assert not (set(READ_OUTSIDE) & read)
    assert set(READ_OUTSIDE) <= set(stored)


def test_every_defined_function_is_called():
    """A function, method or class the package defines and never loads by
    name (as a name or an attribute) is a helper nothing calls, unless
    __all__ exports it.  Names are matched across the whole package; dunder
    names are called by the language and exempt."""
    defined, loaded, exported = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported.update(elt.value for elt in node.value.elts)
    assert defined, "no definitions found; is the source path right?"
    uncalled = {name: where for name, where in defined.items()
                if not (name.startswith("__") and name.endswith("__"))
                and name not in loaded and name not in exported
                and name not in CALLED_OUTSIDE}
    assert uncalled == {}
    # an allow-listed name the package starts calling needs no entry
    assert not (set(CALLED_OUTSIDE) & loaded)
    assert set(CALLED_OUTSIDE) <= set(defined)


# the dataclasses a scenario document sets, field by field
SCENARIO_CLASSES = ("ScenarioConfig", "ArchitectureSpec", "WorkloadSpec",
                    "SchedulerPolicy", "ServerPowerParams", "SwitchPowerParams")


def _loads_outside_post_init(node, out):
    """Add to out every attribute name loaded under node, but not inside a
    method named __post_init__ (a config class's own check)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name == "__post_init__":
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            out.add(child.attr)
        _loads_outside_post_init(child, out)


def test_every_scenario_field_is_read():
    """Every field a scenario document can set is loaded as an attribute
    somewhere in the package outside a __post_init__ method: a field that
    only its own check reads steers nothing, so a document setting it would
    not run as written.  Names are matched across the whole package."""
    declared, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in SCENARIO_CLASSES:
                declared.update((node.name, stmt.target.id) for stmt in node.body
                                if isinstance(stmt, ast.AnnAssign))
        _loads_outside_post_init(tree, read)
    assert {cls for cls, _ in declared} == set(SCENARIO_CLASSES)
    assert sorted((cls, name) for cls, name in declared if name not in read) == []


def test_configs_check_themselves_when_built():
    """Each config class checks its fields in __post_init__, so an invalid
    config cannot exist: the package defines no validate function and calls
    none, and nothing checks a config again before using it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            else:
                continue
            if name == "validate":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    posts = {node.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and node.name in SCENARIO_CLASSES
             and any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                     for f in node.body)}
    assert posts == set(SCENARIO_CLASSES)


def _imported_names(tree):
    """Name each import binds -> its line; __future__ imports bind nothing."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree):
    """Every name the module loads, the names inside quoted annotations
    (imports kept for type checking only) and the names __all__ exports."""
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def test_every_imported_name_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


# what the placement and sleep policies may ask of the engine's state: the
# placement query and the congestion query for place; the fabric, the awake
# servers, the node table (modes, flows and idle stamps) and the switches'
# liveness for dns_tick.  Peers, routes and the network are the engine's.
SCHEDULER_READS = {
    "placement_order", "transfers_congested", "topology",
    "awake_ids", "nodes", "switch_live",
}

# the flow network's own state, which the engine and the scheduler reach
# only through FlowNet's calls: the per-direction flow sets, rate sums and
# capacities, and the fill with its record lists
NET_STATE = {"dir_flows", "dir_sum", "cap"}
NET_FILL = {"records", "fill", "_recompute"}


def _self_attrs(cls_node):
    """Attribute names a class assigns on self."""
    return {node.attr for node in ast.walk(cls_node)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _class(path, name):
    return next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef) and node.name == name)


def test_scheduler_reads_the_engine_through_its_queries():
    """scheduler.py reads exactly the allowed SimState attributes, nothing
    of the network, and none of the reservation or transition bookkeeping
    that admission and release keep inside the engine."""
    tree = ast.parse((SRC / "scheduler.py").read_text())
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "state"}
    assert reads == SCHEDULER_READS, reads ^ SCHEDULER_READS
    net_reads = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                 and node.value.attr == "net"}
    assert net_reads == set()
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"cands", "waking_ids", "wakeable", "committed", "transition_until"}


def test_flow_state_stays_in_the_network():
    """engine.py and scheduler.py read none of the network's private state,
    and SimState keeps no attribute of the network's, nor an alias of one."""
    net_attrs = _self_attrs(_class(SRC / "fairshare.py", "FlowNet"))
    assert NET_STATE <= net_attrs
    for name in ("engine.py", "scheduler.py"):
        tree = ast.parse((SRC / name).read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & (NET_STATE | NET_FILL), (name, names & (NET_STATE | NET_FILL))
    state_attrs = _self_attrs(_class(SRC / "engine.py", "SimState"))
    assert "net" in state_attrs and not state_attrs & net_attrs, state_attrs & net_attrs
    flow_words = ("flow", "link", "dir_", "cap", "tier", "dvs")
    assert not [a for a in state_attrs if any(w in a for w in flow_words)]


def test_ports_are_priced_from_the_changes_the_network_reports():
    """engine.py reads the network's link up states and tiers only in
    SimState._ports_w, the from-scratch sum a switch's draw starts from;
    every later change is priced from the (link, old, new) changes that
    FlowNet.add, trim and set_link return."""
    readers = {name for name, func in _functions() if name.startswith("engine.")
               and any(isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                       and node.attr in ("link_up", "link_tier_idx")
                       for node in ast.walk(func))}
    assert readers == {"engine.SimState._ports_w"}


def test_only_the_engine_routes():
    """A job's transfers are listed in one place: .route( is called only in
    SimState.transfers, so neither placement nor a job's start can re-derive
    a transfer's peer, salt or path."""
    callers = {name for name, func in _functions() for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "route"}
    assert callers == {"engine.SimState.transfers"}


def test_only_the_job_start_adds_flows():
    """Jobs start as one step: net.add( is called only in engine._start_jobs,
    with all the transfers of the jobs starting, so no caller can start them
    one by one and refill between them."""
    callers = {name for name, func in _functions() for node in ast.walk(func)
               if isinstance(node, ast.Call)
               and ast.unparse(node.func).split(".")[-2:] == ["net", "add"]}
    assert callers == {"engine._start_jobs"}


# the one sleep/wake path: a node's transition starts in _begin_transition
# and completes in _handle_transition, and only those two (and the state's
# constructor) move the mode indexes
TRANSITION_WRITERS = {"engine._Node.__init__", "engine._begin_transition",
                      "engine._handle_transition"}
MODE_INDEXES = {"awake_ids", "waking_ids", "wakeable", "switch_live", "dark_switches"}
INDEX_WRITERS = {"engine.SimState.__init__", "engine._begin_transition",
                 "engine._handle_transition"}


def _functions():
    """(module.qualified name, def) for each module-level function and
    method of the package; a nested function counts as its outer one's."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _target_attrs(target):
    """Attribute names a store or del target changes, whole or by item."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return {a for elt in target.elts for a in _target_attrs(elt)}
    while isinstance(target, ast.Subscript):
        target = target.value
    return {target.attr} if isinstance(target, ast.Attribute) else set()


def _changed_attrs(func):
    """Attribute names func changes: by a del, an assignment or an augmented
    assignment, by insort, or by calling .add or .discard on them."""
    out = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "insort" and node.args:
            targets = node.args[:1]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("add", "discard"):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            out |= _target_attrs(target)
    return out


def test_one_sleep_wake_path():
    """transition_until is set only where a node is built and where its
    transition starts and completes; EV_TRANSITION is passed to a call
    (a push) only where a transition starts; and the mode indexes change
    only where SimState builds them and in those two functions."""
    setters, pushers, index_writers = set(), set(), set()
    for name, func in _functions():
        changed = _changed_attrs(func)
        if "transition_until" in changed:
            setters.add(name)
        if changed & MODE_INDEXES:
            index_writers.add(name)
        if any(isinstance(node, ast.Call)
               and any(isinstance(n, ast.Name) and n.id == "EV_TRANSITION"
                       for arg in node.args for n in ast.walk(arg))
               for node in ast.walk(func)):
            pushers.add(name)
    assert setters == TRANSITION_WRITERS
    assert pushers == {"engine._begin_transition"}
    assert index_writers == INDEX_WRITERS


def test_every_event_kind_is_produced_and_dispatched():
    """Each EV_* kind engine.py defines is produced, loaded somewhere other
    than in a comparison (a push, the arrival list, the flow network's end
    kind), and dispatched by a `kind == EV_...` branch in run, and
    EVENT_NAMES names each one: a kind nothing pushes keeps no slot."""
    tree = ast.parse((SRC / "engine.py").read_text())
    kinds = {t.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets for t in ast.walk(target)
             if isinstance(t, ast.Name) and t.id.startswith("EV_")}
    compared = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for n in ast.walk(node)}
    produced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load) and id(n) not in compared}
    run = dict(_functions())["engine.run"]
    dispatched = {test.comparators[0].id for node in ast.walk(run) if isinstance(node, ast.If)
                  and isinstance(test := node.test, ast.Compare)
                  and isinstance(test.left, ast.Name) and test.left.id == "kind"
                  and isinstance(test.ops[0], ast.Eq) and isinstance(test.comparators[0], ast.Name)}
    assert kinds, "no event kinds found; is the source path right?"
    assert sorted(kinds - produced) == [] and sorted(kinds - dispatched) == []
    assert len(engine.EVENT_NAMES) == len(kinds)
