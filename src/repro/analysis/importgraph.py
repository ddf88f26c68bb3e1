"""Module-import-graph builder.

Maps every analyzed module to the set of in-tree (``repro.*``) modules it
imports, resolving relative imports against the importer's package.  The
architecture-conformance rules (layering, enclave boundary) consume this
graph instead of re-walking the AST themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

ROOT_PACKAGE = "repro"


def module_name_for(path: Path) -> str | None:
    """Dotted module name for *path*, found by walking up ``__init__.py``s.

    Returns ``None`` for a loose script that is not inside a package —
    such files still get the security rules, but no architecture rules.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts) if parts else None


def top_subpackage(module: str) -> str | None:
    """``repro.storage.merkle`` → ``storage``; ``repro`` itself → ``None``."""
    parts = module.split(".")
    # Package-name comparison, not authenticator bytes:
    if len(parts) < 2 or parts[0] != ROOT_PACKAGE:  # lint: disable=SEC001
        return None
    return parts[1]


@dataclass
class ImportRecord:
    """One resolved in-tree import site."""

    module: str  # resolved absolute dotted target, e.g. "repro.storage"
    names: tuple[str, ...]  # names bound by a from-import ("SecurePager",)
    # Where the import statement sits, named as ``ast`` names it so a rule
    # anchors a finding at a record exactly as at a node.
    lineno: int
    col_offset: int


@dataclass
class ImportGraph:
    """Resolved in-tree imports for every analyzed module."""

    _edges: dict[str, list[ImportRecord]] = field(default_factory=dict)

    def add_module(
        self, module: str | None, tree: ast.AST, *, is_package: bool = False
    ) -> list[ImportRecord]:
        """Record the in-tree imports of *module* and return them.

        *is_package* marks ``__init__`` modules, whose relative imports
        resolve against the module itself rather than its parent.
        """
        records: list[ImportRecord] = []
        package = self._package_of(module, is_package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name
                    if self._in_tree(target):
                        records.append(
                            ImportRecord(target, (), node.lineno, node.col_offset)
                        )
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_from(package, node)
                if target is not None and self._in_tree(target):
                    names = tuple(alias.name for alias in node.names)
                    records.append(
                        ImportRecord(target, names, node.lineno, node.col_offset)
                    )
        if module is not None:
            self._edges.setdefault(module, []).extend(records)
        return records

    def imports_of(self, module: str) -> list[ImportRecord]:
        return list(self._edges.get(module, ()))

    def imported_subpackages(self, module: str) -> set[str]:
        """Top-level ``repro`` subpackages *module* depends on."""
        out: set[str] = set()
        for record in self.imports_of(module):
            sub = top_subpackage(record.module)
            if sub is not None:
                out.add(sub)
        return out

    def modules(self) -> list[str]:
        return sorted(self._edges)

    # ------------------------------------------------------------------

    @staticmethod
    def _package_of(module: str | None, is_package: bool) -> list[str]:
        if module is None:
            return []
        parts = module.split(".")
        return parts if is_package else parts[:-1]

    @staticmethod
    def _in_tree(target: str) -> bool:
        # Package-name comparison, not authenticator bytes:
        return target == ROOT_PACKAGE or target.startswith(ROOT_PACKAGE + ".")  # lint: disable=SEC001

    @staticmethod
    def _resolve_from(package: list[str], node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # "from ..crypto import x" inside repro.storage.merkle:
        # level=2 strips one extra component off the package path.
        strip = node.level - 1
        if strip > len(package):
            return None  # relative import escaping the tree; not ours to resolve
        base = package[: len(package) - strip] if strip else list(package)
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None
