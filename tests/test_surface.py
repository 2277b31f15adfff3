"""Every public function, class, class member, setting and returned field
of ``regulab`` is reached by a run.

A public name that only tests call belongs in the tests. A module-level
function or class counts as reached when code in ``src/regulab/`` outside its
own definition, or in ``scripts/``, names it. A public method or property of
a public class counts as reached when that code reads it as an attribute
(``x.name``) outside its own body: a bare name that happens to match, such as
a loop variable, does not reach a member. Docstrings and comments never
count.

A setting that only tests set is variety no run uses. Every parameter of a
public function or method, and every field of a public dataclass, that has
a default must be set by some call in that code: by keyword, by position,
or through ``replace(...)``. A field of a dataclass that a public function
returns must be read as an attribute outside its own class. The calls are
matched by name, as the members are.

The few names kept for readers and tests alone are listed, each with its
reason.
"""

import ast
import math
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
}

KEPT_SETTINGS = {
    "diffusion.synthetic_portrait.w": "tests draw small portraits; a run takes the 96x96 one",
    "diffusion.synthetic_portrait.h": "tests draw small portraits; a run takes the 96x96 one",
    "procedural.ReachLearner.fast": "run_trial sets it on the learner it builds without __init__",
    "procedural.ReachLearner.slow": "run_trial sets it on the learner it builds without __init__",
    "procedural.run_expanding_goal.dt": "run_expanding_goal is kept without a run, above",
}

KEPT_FIELDS = {
    "procedural.StageReport.visited": "run_expanding_goal's report, kept with it",
    "procedural.StageReport.total": "run_expanding_goal's report, kept with it",
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


def is_dataclass(cls):
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def field_defaults(cls):
    """(name, position in ``__init__``) of each field with a default; a
    field(init=False) takes no place there."""
    fields = [stmt for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    fields = [f for f in fields if not (isinstance(f.value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", None) is False for k in f.value.keywords))]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def parameter_defaults(fn, skip):
    """(name, position in a call) of each parameter of ``fn`` with a
    default, the first ``skip`` left out; a keyword-only one has no position."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return [*((a.arg, i - skip) for i, a in enumerate(positional) if i >= first),
            *((a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)]


def settings():
    """(qualified name, the name a call uses, position) of each setting with
    a default of a public function, dataclass or method of a public class."""
    for path, module in sources():
        if path.parent != PACKAGE:
            continue
        for stmt in module.body:
            owners = []
            if is_public(stmt, ast.FunctionDef):
                owners.append((stmt.name, stmt.name, parameter_defaults(stmt, 0)))
            elif is_public(stmt, ast.ClassDef):
                if is_dataclass(stmt):
                    owners.append((stmt.name, stmt.name, field_defaults(stmt)))
                owners += [(f"{stmt.name}.{m.name}", m.name, parameter_defaults(m, 1))
                           for m in stmt.body if is_public(m, ast.FunctionDef)]
            for owner, callee, defaults in owners:
                for name, position in defaults:
                    yield f"{path.stem}.{owner}.{name}", callee, name, position


def test_every_setting_is_set_by_a_run_or_kept_for_a_reason():
    # Per callee name: the most positional arguments a call passes (all, after
    # a *starred one) and the keywords. replace() sets its keywords on any
    # dataclass.
    positions, keywords = Counter(), set()
    for _, module in sources():
        for call in (n for n in ast.walk(module) if isinstance(n, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            positions[callee] = max(positions[callee], math.inf if starred else len(call.args))
            keywords.update((callee, k.arg) for k in call.keywords)
    unset = {qualified for qualified, callee, name, position in settings()
             if positions[callee] <= position
             and not {(callee, name), ("replace", name)} & keywords}
    assert unset == set(KEPT_SETTINGS)


def annotated_names(annotation):
    """The names in a return annotation, string annotations parsed."""
    for n in ast.walk(annotation):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from annotated_names(ast.parse(n.value, mode="eval"))


def test_every_returned_field_is_read_or_kept_for_a_reason():
    read, dataclasses, returned = Counter(), {}, set()
    for path, module in sources():
        read += attributes_read(module)
        if path.parent != PACKAGE:
            continue
        for stmt in module.body:
            if is_public(stmt, ast.ClassDef):
                if is_dataclass(stmt):
                    dataclasses[stmt.name] = f"{path.stem}.{stmt.name}", stmt
                functions = [m for m in stmt.body if is_public(m, ast.FunctionDef)]
            else:
                functions = [stmt] if is_public(stmt, ast.FunctionDef) else []
            for fn in functions:
                if fn.returns is not None:
                    returned.update(annotated_names(fn.returns))
    unread = {f"{qualified}.{stmt.target.id}"
              for qualified, cls in map(dataclasses.get, returned & set(dataclasses))
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
              if read[stmt.target.id] == attributes_read(cls)[stmt.target.id]}
    assert unread == set(KEPT_FIELDS)


def imported(module):
    """The last part of every module name and imported name in ``module``'s
    imports: ``from . import csvtext`` and ``from .csvtext import rows`` both
    give ``csvtext``."""
    for n in ast.walk(module):
        if isinstance(n, ast.ImportFrom) and n.module:
            yield n.module.rsplit(".", 1)[-1]
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in n.names)


def test_only_the_cli_imports_the_csv_writer():
    # One CSV path: every table is written through cli._csv.
    importers = {path.name for path, module in sources()
                 if path.parent == PACKAGE and "csvtext" in imported(module)}
    assert importers == {"cli.py"}
