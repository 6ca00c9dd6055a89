"""Static checks over the package source."""

import ast
import pathlib

import greendc

SRC = pathlib.Path(greendc.__file__).parent

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
