"""Every public function and class of ``regulab`` is reached by a run.

A public module-level name that only tests call belongs in the tests. A name
counts as reached when code in ``src/regulab/`` outside its own definition,
or in ``scripts/``, names it; docstrings and comments do not count. The few
names kept for readers and tests alone are listed, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "pid.pid_step": "criterion 06's open-loop law",
    "variety.forward_apply": "criterion 08's feedforward map",
    "variety.inverse_apply": "criterion 08's feedback map",
    "variety.variety": "Ashby's variety",
    "relation.path_regulation_score": "reporting it would cost each relation run time",
    "procedural.run_expanding_goal": "reaching it needs a new CLI leaf with flags",
}


def names_in_code(node):
    """The names ``node`` refers to: bare names, attributes, and names
    imported from a module (``from . import m`` names a module, not a member)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom) and n.module:
            yield from (alias.name for alias in n.names)


def test_every_public_name_is_reached_or_kept_for_a_reason():
    package = ROOT / "src" / "regulab"
    named, public = set(), []
    for path in [*sorted(package.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.parent == package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                public.append(f"{path.stem}.{stmt.name}")
                named.update(n for n in names_in_code(stmt) if n != stmt.name)
            else:
                named.update(names_in_code(stmt))
    unreached = {name for name in public if name.split(".")[1] not in named}
    assert unreached == set(KEPT)
