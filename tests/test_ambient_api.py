"""The ambient interface has no public method that nothing calls: every
public method or property defined on an ambient model class is an attribute
that some module of the package reads.  Checked on the source with ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kflow"


def _root(node):
    """The name an attribute chain such as np.linalg.norm starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _model_methods():
    """{(class, method)} of the public functions defined on AmbientModel and
    every class deriving from it in ambient.py."""
    tree = ast.parse((SRC / "ambient.py").read_text())
    models, methods = {"AmbientModel"}, set()
    for node in tree.body:  # a class follows its bases in the module
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name in models or any(isinstance(b, ast.Name) and b.id in models for b in node.bases):
            models.add(node.name)
            methods |= {
                (node.name, f.name)
                for f in node.body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            }
    return methods


def _read_attributes():
    """Attribute names read anywhere in the package, outside NumPy's."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and _root(node) != "np":
                names.add(node.attr)
    return names


def test_model_classes_are_found():
    classes = {cls for cls, _ in _model_methods()}
    assert classes == {"AmbientModel", "_FlatModel", "FlatC2", "FlatT4", "FubiniStudyCP2"}


def test_every_public_model_method_is_read_in_the_package():
    read = _read_attributes()
    unread = sorted(f"{cls}.{name}" for cls, name in _model_methods() if name not in read)
    assert not unread, f"public ambient methods nothing in src/kflow reads: {unread}"
