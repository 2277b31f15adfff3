"""Every public function, class and class member of ``regulab`` is reached by a run.

A public name that only tests call belongs in the tests. A module-level
function or class counts as reached when code in ``src/regulab/`` outside its
own definition, or in ``scripts/``, names it. A public method or property of
a public class counts as reached when that code reads it as an attribute
(``x.name``) outside its own body: a bare name that happens to match, such as
a loop variable, does not reach a member. Docstrings and comments never
count. The few names kept for readers and tests alone are listed, each with
its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regulab"

KEPT = {
    "pid.pid_step": "criterion 06's open-loop law",
    "variety.forward_apply": "criterion 08's feedforward map",
    "variety.inverse_apply": "criterion 08's feedback map",
    "variety.variety": "Ashby's variety",
    "relation.path_regulation_score": "reporting it would cost each relation run time",
    "procedural.run_expanding_goal": "reaching it needs a new CLI leaf with flags",
}

KEPT_MEMBERS = {
    "procedural.ReachLearner.comp": "criterion 09's learned compensation",
    "relation.InternalModel.estimate": "the internal model's readout",
    "relation.InternalModel.observe_state": "the one-step reference for run_relation_carry's "
                                            "window",
}


def sources():
    """(path, parsed module) of every file in ``src/regulab/`` and ``scripts/``."""
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def is_public(stmt, kinds):
    return isinstance(stmt, kinds) and not stmt.name.startswith("_")


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


def attributes_read(node) -> Counter:
    """How often ``node`` reads each attribute name as ``x.name``."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_public_name_is_reached_or_kept_for_a_reason():
    named, public = set(), []
    for path, module in sources():
        for stmt in module.body:
            if path.parent == PACKAGE and is_public(stmt, (ast.FunctionDef, ast.ClassDef)):
                public.append(f"{path.stem}.{stmt.name}")
                named.update(n for n in names_in_code(stmt) if n != stmt.name)
            else:
                named.update(names_in_code(stmt))
    unreached = {name for name in public if name.split(".")[1] not in named}
    assert unreached == set(KEPT)


def test_every_public_member_is_read_or_kept_for_a_reason():
    read, members = Counter(), []
    for path, module in sources():
        read += attributes_read(module)
        if path.parent != PACKAGE:
            continue
        for cls in module.body:
            if is_public(cls, ast.ClassDef):
                members += [(f"{path.stem}.{cls.name}.{stmt.name}", stmt) for stmt in cls.body
                            if is_public(stmt, ast.FunctionDef)]
    unread = {name for name, body in members
              if read[body.name] == attributes_read(body)[body.name]}
    assert unread == set(KEPT_MEMBERS)
