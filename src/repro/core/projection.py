"""Projection of history expressions on communication actions (Section 4).

The projection ``H!`` removes access events, policy framings and whole
inner service requests, keeping only the communication skeleton::

    (H·H')!   = H!·H'!          h!            = h
    φ[H]!     = H!              (μh.H)!       = μh.(H!)
    (Σ a_i.H_i)! = Σ a_i.(H_i!) (⊕ ā_i.H_i)!  = ⊕ ā_i.(H_i!)
    (open_{r,φ}·H·close_{r,φ})! = ε! = α! = ε

The result is a *behavioural contract* in the sense of Castagna, Gesbert
and Padovani [12]: internal choices guarded by outputs, external choices
guarded by inputs, guarded tail recursion only — hence finite state.
"""

from __future__ import annotations

from repro.core.syntax import (EPSILON, ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, free_variables, seq)

#: Nodes whose projection is ``ε``: events, whole requests and run-time
#: residuals.
_ERASED = (Epsilon, EventNode, ClosePending, Request, FrameClosePending)


def project(term: HistoryExpression) -> HistoryExpression:
    """The projection ``term!`` on communication actions.

    Closed terms project to closed terms.  Recursions whose body becomes
    trivial (no reachable communication guard) are simplified to ``ε``
    so that the projected contract stays well formed.

    One iterative post-order pass, so term depth is bounded by memory
    rather than the interpreter stack; each distinct node is projected
    once per call, however often the term shares it.
    """
    projected: dict[HistoryExpression, HistoryExpression] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if node in projected:
            stack.pop()
            continue
        pending = [child for child in _projected_children(node)
                   if child not in projected]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        projected[node] = _project_node(node, projected)
    return projected[term]


def _projected_children(node: HistoryExpression
                        ) -> tuple[HistoryExpression, ...]:
    """The children whose projections *node*'s projection is built from
    (none for erased nodes: a request's body is dropped with it)."""
    if isinstance(node, (Seq, ExternalChoice, InternalChoice, Mu, Framing)):
        return node.children()
    return ()


def _project_node(node: HistoryExpression,
                  projected: dict[HistoryExpression, HistoryExpression]
                  ) -> HistoryExpression:
    """The projection of *node*, given its children's in *projected*."""
    if isinstance(node, _ERASED):
        return EPSILON
    if isinstance(node, Var):
        return node
    if isinstance(node, Framing):
        return projected[node.body]
    if isinstance(node, Seq):
        return seq(projected[node.first], projected[node.second])
    if isinstance(node, (ExternalChoice, InternalChoice)):
        return type(node)(tuple((label, projected[cont])
                                for label, cont in node.branches))
    if isinstance(node, Mu):
        body = projected[node.body]
        if node.var not in free_variables(body):
            return body
        if _is_trivial_loop(body, node.var):
            return EPSILON
        return Mu(node.var, body)
    raise TypeError(f"unknown history expression node {node!r}")


def _is_trivial_loop(body: HistoryExpression, var: str) -> bool:
    """True iff ``μvar.body`` has no action before re-entering ``var``.

    Such degenerate loops (e.g. the projection of ``μh.(α·h)``) denote no
    communication behaviour at all and are simplified to ``ε``.  Guarded
    recursion in the source calculus — recursion guarded by communication
    actions, which survive projection — never produces them, but the
    simplification keeps :func:`project` total on all syntactically valid
    terms.
    """
    while True:
        if isinstance(body, Var):
            return body.name == var
        if isinstance(body, Seq):
            body = body.first
            continue
        if isinstance(body, Mu):
            body = body.body
            continue
        return False
