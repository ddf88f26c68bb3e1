"""Rule-plugin registry.

Rules are small classes registered with the :func:`register` decorator.
The engine never hard-codes a rule list; adding a check to the framework
is *only* writing a class, so future PRs can ship their own invariants
alongside the code they protect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ModuleContext


class Rule:
    """Base class for one analysis rule.

    Subclasses set ``rule_id`` (e.g. ``"SEC001"``), ``title`` and
    ``rationale``, and implement :meth:`check` over a single parsed
    module.  Rules must be stateless across modules: the engine reuses
    one instance for the whole run.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node, message: str) -> Finding:
        """Build a finding anchored at an AST node of *ctx*'s module."""
        return Finding(
            rule_id=self.rule_id,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def add_rule(rule: Rule) -> Rule:
    """Index a rule instance by its ``rule_id``."""
    if not rule.rule_id:
        raise ValueError(f"rule {type(rule).__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate a rule class and index it."""
    add_rule(cls())
    return cls


def all_rules() -> list[Rule]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}") from None


def select_rules(only: Iterable[str] | None = None) -> list[Rule]:
    """All rules, or the subset named in *only* (validated)."""
    if only is None:
        return all_rules()
    return [get_rule(rule_id) for rule_id in only]
