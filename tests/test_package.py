"""Contracts of the package as a whole: no dead code, and the README's example runs."""

import ast
import pathlib

import cas

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_module_level_definition_is_referenced():
    # cli.main is reached only through the console entry point in pyproject.toml
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cas").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in referenced and node.name not in cas.__all__
            and (module, node.name) != ("cli", "main")]
    assert dead == []


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(v) >= 0.0 for v in printed)
