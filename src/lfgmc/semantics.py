"""Satisfaction and validity of formulas over tripartite models.

The clauses are sorted: category and word literals only ever hold at
tree nodes, atoms only at final feature nodes, feature modalities only
move inside the feature graph, ``up``/``down``/``bullet``/``zoomin`` only
act at tree nodes, and a path equality holds at a tree node exactly when
some feature node is reachable through both of its composite relation
paths.  Everything else is classical propositional logic.

Evaluation is set-at-a-time: ``_holds`` computes the set of nodes at
which a formula holds, each subformula once, on the nodes where it can
still matter (a modality on the successors of its nodes).  Left-nested
``&``/``|`` chains, such as the lexical disjunction over a whole lexicon,
and runs of prefix operators (``!``, ``<f>``, ``up``, ``down``,
``zoomin``), such as a long feature path, are walked iteratively rather
than by recursion.  The names a formula
uses are collected once per formula object; each call only checks them
against the model's signature.

A ``|`` chain is evaluated through its label index (:attr:`Or.by_label`,
built once per formula object): operands that can only hold at tree
nodes with a given label, and possibly given daughter labels, are tried
only on the nodes whose label and daughter labels match; the others on
every node.  The lexical axiom, one disjunct per lexicon entry, thus
tries about one entry per preterminal.  An indexed operand is false
wherever its labels do not match (an unlabelled node, a dangling
daughter), so the result is the same as trying every operand everywhere.

``valid(m, phi)`` evaluates ``phi`` on every node of both domains and,
when it fails somewhere, returns the least failing node in the
deterministic model order (``Model.node_order``, sorted once per model)
so counterexamples are stable.
``satisfies(m, n, phi)`` evaluates it on ``{n}``.
"""

from __future__ import annotations

from .errors import UnknownNodeError
from .formula import (
    And,
    AtomLit,
    Bullet,
    CatLit,
    CStructConst,
    Down,
    FalseF,
    Feat,
    Formula,
    FStructConst,
    Iff,
    Implies,
    Not,
    Or,
    PathEq,
    TrueF,
    Up,
    WordLit,
    Zoomin,
    _spine,
    validate_names,
)
from .model import Model, NodeId


def _patheq_image(m: Model, n: NodeId, tree_steps, feat_steps) -> set[NodeId]:
    """Feature nodes reachable from tree node ``n`` via the composite
    relation: tree steps, then zoomin, then feature steps."""
    cur = {n}
    for step in tree_steps:
        nxt: set[NodeId] = set()
        for t in cur:
            if step == "up":
                mo = m.cstruct.mother.get(t)
                if mo is not None:
                    nxt.add(mo)
            else:  # down is existential over daughters
                nxt.update(m.cstruct.daughters.get(t, ()))
        cur = nxt
    cur = {m.zoomin[t] for t in cur if t in m.zoomin}
    for feat in feat_steps:
        cur = {
            m.fstruct.trans[w][feat]
            for w in cur
            if feat in m.fstruct.trans.get(w, {})
        }
    return cur


def eval_patheq(m: Model, n: NodeId, spec: PathEq) -> bool:
    """Path equality at ``n``: both composite images share a feature node.

    False (not an error) at feature nodes, in line with the other sorted
    clauses.
    """
    if n not in m.cstruct.nodes:
        if n not in m.fstruct.nodes:
            raise UnknownNodeError("node %r is not in the model" % n)
        return False
    left = _patheq_image(m, n, spec.left_tree, spec.left_feats)
    if not left:
        return False
    right = _patheq_image(m, n, spec.right_tree, spec.right_feats)
    return bool(left & right)


_PREFIX = frozenset((Not, Feat, Up, Down, Zoomin))


def _holds(m: Model, f: Formula, dom):
    """The nodes of ``dom`` at which ``f`` holds.

    Each clause lifts the pointwise truth condition to a node set, so any
    id gets the same answer, even one a malformed model points to without
    declaring it.  Operands are only evaluated where they can still change
    the result.  Sets passed in or returned are never mutated."""
    if not dom:
        return dom
    cs, fs = m.cstruct, m.fstruct
    if isinstance(f, And):
        for g in _spine(f):
            dom = _holds(m, g, dom)
            if not dom:
                break
        return dom
    if isinstance(f, Or):
        plain, keyed = f.by_label
        out, rest = _holds_any(m, plain, dom)
        if keyed and rest:
            label_of = cs.label.get
            groups: dict[tuple, set[NodeId]] = {}
            for n in rest:
                label = label_of(n)
                if label in keyed:
                    key = (label, tuple(map(label_of, cs.daughters.get(n, ()))))
                    if key in groups:
                        groups[key].add(n)
                    else:
                        groups[key] = {n}
            for (label, kids), nodes in groups.items():
                by_kids = keyed[label]
                out |= _holds_any(m, by_kids.get(kids, []) + by_kids.get(None, []), nodes)[0]
        return out
    if isinstance(f, (CatLit, WordLit)):
        return {n for n in dom if n in cs.nodes and cs.label.get(n) == f.name}
    if isinstance(f, Bullet):
        alive = [
            n for n in dom
            if n in cs.nodes and len(cs.daughters.get(n, ())) == len(f.args)
        ]
        for pos, sub in enumerate(f.args):
            good = _holds(m, sub, {cs.daughters[n][pos] for n in alive})
            alive = [n for n in alive if cs.daughters[n][pos] in good]
            if not alive:
                break
        return set(alive)
    if isinstance(f, TrueF):
        return dom
    if isinstance(f, FalseF):
        return set()
    if isinstance(f, CStructConst):
        return dom & cs.nodes
    if isinstance(f, FStructConst):
        return dom & fs.nodes
    if isinstance(f, AtomLit):
        return {
            n for n in dom
            if n in fs.nodes and n in fs.final and fs.atomval.get(n) == f.name
        }
    if type(f) in _PREFIX:
        # a run of prefix operators, walked without recursion: map dom down
        # the run to the nodes its operand is needed on, evaluate the
        # operand there once, then map the result back up the run
        outer = []  # (type, nodes or successor map) of each operator above the last
        while True:
            t = type(f)
            if t is Not:
                seen = dom
            elif t is Down:
                seen = {n: cs.daughters.get(n, ()) for n in dom if n in cs.nodes}
                dom = {d for ds in seen.values() for d in ds}
            else:  # at most one successor
                if t is Feat:
                    seen = {n: fs.trans.get(n, {}).get(f.feat) for n in dom if n in fs.nodes}
                else:
                    step = (cs.mother if t is Up else m.zoomin).get
                    seen = {n: step(n) for n in dom if n in cs.nodes}
                dom = {w for w in seen.values() if w is not None}
            f = f.sub
            if not dom or type(f) not in _PREFIX:
                break
            outer.append((t, seen))
        good = _holds(m, f, dom)  # at once when dom is empty
        while True:
            if t is Not:
                good = seen - good
            elif t is Down:
                good = {n for n, ds in seen.items() if any(d in good for d in ds)}
            else:
                good = {n for n, w in seen.items() if w is not None and w in good}
            if not outer:
                return good
            t, seen = outer.pop()
    if isinstance(f, Implies):
        left = _holds(m, f.left, dom)
        return (dom - left) | _holds(m, f.right, left)
    if isinstance(f, Iff):
        return dom - (_holds(m, f.left, dom) ^ _holds(m, f.right, dom))
    if isinstance(f, PathEq):
        return {n for n in dom if n in cs.nodes and eval_patheq(m, n, f)}
    raise TypeError("not a formula: %r" % (f,))


def _holds_any(m: Model, ops, dom):
    """``(nodes of dom where some operand holds, the other nodes)``; each
    operand is tried, in order, only on the nodes not yet satisfied."""
    out, rest = set(), dom
    for g in ops:
        got = _holds(m, g, rest)
        if got:
            out |= got
            rest = rest - got
            if not rest:
                break
    return out, rest


def satisfies(m: Model, n: NodeId, phi: Formula) -> bool:
    """Truth of ``phi`` at node ``n`` (tree or feature node) of ``m``."""
    if n not in m.cstruct.nodes and n not in m.fstruct.nodes:
        raise UnknownNodeError("node %r is not in the model" % n)
    validate_names(phi, m.sig)
    return n in _holds(m, phi, {n})


def valid(m: Model, phi: Formula) -> NodeId | None:
    """None when ``phi`` holds at every node of both domains; otherwise
    the least falsifying node in model order."""
    validate_names(phi, m.sig)
    nodes = m.node_order
    good = _holds(m, phi, frozenset(nodes))
    return next((n for n in nodes if n not in good), None)
