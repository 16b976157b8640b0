"""Where the package writes files: the run directory's tables go through
one CSV writer in the command line, snapshots through immersion.save_grid,
and every other module only computes.  Checked on the source with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kflow"


def _opens_for_writing(call):
    """True for open(path, mode) and path.open(mode) with a mode that
    writes (or one not written out), and for path.write_text/write_bytes."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(f, ast.Name) and f.id == "open":
        mode = call.args[1:2]
    elif isinstance(f, ast.Attribute) and f.attr == "open":
        mode = call.args[:1]
    else:
        return False
    mode = [k.value for k in call.keywords if k.arg == "mode"] or mode
    if not mode:
        return False
    m = mode[0]
    if not (isinstance(m, ast.Constant) and isinstance(m.value, str)):
        return True
    return bool(set(m.value) & set("wax+"))


class _Writes(ast.NodeVisitor):
    """The innermost enclosing function of every call that writes a file."""

    def __init__(self):
        self.scope, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if _opens_for_writing(node):
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def _modules():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_the_command_line_imports_csv():
    assert {name for name, tree in _modules().items() if "csv" in set(_imports(tree))} == {"cli.py"}


def test_files_are_written_only_by_the_command_line_and_save_grid():
    writes = set()
    for name, tree in _modules().items():
        visitor = _Writes()
        visitor.visit(tree)
        writes |= {(name, fn) for fn in visitor.found}
    assert {w for w in writes if w[0] != "cli.py"} == {("immersion.py", "save_grid")}
    assert ("cli.py", "_write_csv") in writes
