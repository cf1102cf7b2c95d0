"""Shared AST inspection helpers for the lint rules.

Everything here is purely syntactic — no imports of the checked code —
so the rules work on fixture snippets and on trees that do not import.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with a ``_lint_parent`` backlink (idempotent)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_lint_parent", None)


def enclosing(node: ast.AST, *types: type) -> Optional[ast.AST]:
    """The nearest ancestor of one of ``types`` (``None`` at module level)."""
    current = parent_of(node)
    while current is not None:
        if isinstance(current, types):
            return current
        current = parent_of(current)
    return None


def decorator_name(node: ast.expr) -> str:
    """Dotted name of a decorator expression (call decorators unwrapped)."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(decorator_name(dec).split(".")[-1] == "dataclass"
               for dec in node.decorator_list)


def is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if decorator_name(dec).split(".")[-1] != "dataclass":
            continue
        if isinstance(dec, ast.Call):
            for keyword in dec.keywords:
                if (keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True):
                    return True
    return False


def class_def(tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
    """The top-level class definition named ``name``, if present."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """``(name, lineno)`` of each dataclass field (ClassVars excluded)."""
    fields: List[Tuple[str, int]] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if "ClassVar" in annotation.split("["):
            continue
        if annotation.startswith("ClassVar"):
            continue
        fields.append((statement.target.id, statement.lineno))
    return fields


def string_elements(node: ast.expr) -> Optional[List[str]]:
    """The string items of a tuple/list/set/frozenset literal, else None."""
    if isinstance(node, ast.Call) and decorator_name(node.func) in (
            "frozenset", "set", "tuple", "list") and node.args:
        return string_elements(node.args[0])
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items: List[str] = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            items.append(element.value)
        return items
    return None


def module_assignment(tree: ast.AST, name: str) -> Optional[ast.expr]:
    """The value of the last module-level ``name = ...`` assignment."""
    value: Optional[ast.expr] = None
    body = tree.body if isinstance(tree, ast.Module) else []
    for statement in body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            if (isinstance(statement.target, ast.Name)
                    and statement.target.id == name
                    and statement.value is not None):
                value = statement.value
    return value


def str_dict_literal(node: ast.expr) -> Optional[Dict[str, ast.expr]]:
    """A ``{str: value}`` mapping from a dict literal, else ``None``."""
    if not isinstance(node, ast.Dict):
        return None
    mapping: Dict[str, ast.expr] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        mapping[key.value] = value
    return mapping


def imported_modules(tree: ast.AST) -> List[Tuple[str, int]]:
    """Every imported module path with its line (``from x import y`` → x)."""
    imports: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            imports.append((node.module, node.lineno))
    return imports


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name → dotted origin for every import in the module.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from x import y as z``
    → ``{"z": "x.y"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Fully resolved dotted name of a call target through import aliases."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, FunctionNode):
            yield node


__all__ = [
    "FunctionNode", "attach_parents", "parent_of", "enclosing",
    "decorator_name", "is_dataclass", "is_frozen_dataclass", "class_def",
    "dataclass_fields", "string_elements", "module_assignment",
    "str_dict_literal", "imported_modules", "import_aliases", "dotted_name",
    "resolve_call_name", "functions",
]
