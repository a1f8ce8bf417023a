import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdar"

# Documented fixture makers: the tests and the fixtures build instances with
# them, and nothing in the package itself needs one.
FIXTURE_MAKERS = {("instances", "showcase9"), ("instances", "identity_instance")}


def test_every_function_in_src_is_read_in_src():
    # a top-level function or a method that no code in the package reads,
    # by name or as an attribute, serves only the tests: it belongs under
    # tests/ as a reference, not in the package
    defined = []
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.append((f"{path.stem}.{node.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(defined) > 100
    unread = [
        f"{owner}.{name}"
        for owner, name in defined
        if name not in read
        and not (name.startswith("__") and name.endswith("__"))
        and (owner, name) not in FIXTURE_MAKERS
    ]
    assert unread == []
