"""Static checks over the package source."""

import ast
import pathlib

import greendc

SRC = pathlib.Path(greendc.__file__).parent
TESTS = pathlib.Path(__file__).parent

# attributes the package assigns but only code outside it reads
READ_OUTSIDE = {
    "_sp_cache": "bench/run.py reports Topology._sp_cache's length as topology.bfs_sources",
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
# placement query, peer choice, routing and congestion for place; the awake
# servers and the switches' liveness, idle stamps and connectivity rule for
# dns_tick
SCHEDULER_READS = {
    "placement_order", "internal_dst", "route", "path_congested", "topology",
    "awake_ids", "servers", "switches", "switch_live", "spine_sleep_ok",
}


def test_scheduler_reads_the_engine_through_its_queries():
    """scheduler.py reads only the allowed SimState attributes, and none of
    the reservation or transition bookkeeping that admission and release
    keep inside the engine."""
    tree = ast.parse((SRC / "scheduler.py").read_text())
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "state"}
    assert reads and reads <= SCHEDULER_READS, reads - SCHEDULER_READS
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"cands", "waking_ids", "sleeping", "committed", "transition_until"}
