"""Satisfaction and validity of formulas over tripartite models.

The clauses are sorted: category and word literals only ever hold at
tree nodes, atoms only at final feature nodes, feature modalities only
move inside the feature graph, ``up``/``down``/``bullet``/``zoomin`` only
act at tree nodes, and a path equality holds at a tree node exactly when
some feature node is reachable through both of its composite relation
paths.  Everything else is classical propositional logic.

Evaluation is set-at-a-time, through a *plan* per formula object: a
function ``(model, dom)`` returning the nodes of ``dom`` at which the
formula holds.  A plan is built on first use and cached on the formula,
as its ``names`` are, so what depends only on the formula is fixed
once: the operand lists of left-nested ``&``/``|`` chains (such as the
lexical disjunction over a whole lexicon) and each run of prefix
operators (``!``, ``<f>``, ``up``, ``down``, ``zoomin``,
such as a long feature path) as a list of steps.  Each formula
constructor has one plan, and a path equality is evaluated by one walk
of its two composite relations, whatever its steps.  Each subformula is
evaluated once per call, on the nodes where it can still matter (a
modality on the successors of its nodes).  Plans are built in
post-order on one explicit stack, a part shared by several parents
once, and a plan calls the plans of its parts directly, so
evaluation takes one Python frame per nesting level, runs of prefix
operators and chains none.  The names a formula uses are collected
once per formula object; each call only checks them against the
model's signature.  Plans are closures, which pickling (a flat list of
parts, see ``lfgmc.formula``) leaves out; they are built again on use.

A ``|`` chain is evaluated the way an ``&`` chain is, operand by operand
in chain order: each operand only on the nodes no earlier operand holds
at, as each conjunct only on the nodes every earlier one holds at.  The
lexical axiom of a compiled theory, one disjunct per lexicon entry, is
the one big chain; where it is still the compiled one, ``check_parse``
and the search evaluate at most its slice for the model's words (see
``lfgmc.search``).

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
    relation: tree steps (``up`` to the mother, ``down`` to any
    daughter), then zoomin, then feature steps.  Plain loops with
    membership tests, as this runs once per node and side."""
    mother, daughters = m.cstruct.mother, m.cstruct.daughters
    cur = {n}
    for step in tree_steps:
        nxt = set()
        if step == "up":
            for t in cur:
                if t in mother:
                    nxt.add(mother[t])
            nxt.discard(None)  # the root's mother
        else:
            for t in cur:
                if t in daughters:
                    nxt.update(daughters[t])
        cur = nxt
    zoomin, trans = m.zoomin, m.fstruct.trans
    nxt = set()
    for t in cur:
        if t in zoomin:
            nxt.add(zoomin[t])
    cur = nxt
    for feat in feat_steps:
        nxt = set()
        for w in cur:
            if w in trans and feat in trans[w]:
                nxt.add(trans[w][feat])
        cur = nxt
    return cur


def eval_patheq(m: Model, n: NodeId, spec: PathEq) -> bool:
    """Path equality at ``n``: both composite images share a feature node.

    False (not an error) at feature nodes, in line with the other sorted
    clauses.
    """
    if n not in m.cstruct.nodes and n not in m.fstruct.nodes:
        raise UnknownNodeError("node %r is not in the model" % n)
    return n in _plan(spec)(m, {n})


_PREFIX = frozenset((Not, Feat, Up, Down, Zoomin))
_NO_TRANS: dict = {}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _plan(f: Formula):
    """The plan of ``f``: a function ``(model, dom) -> nodes of dom where f
    holds``.  Built on first use and kept on the formula object, together
    with the plans it calls that are still missing.

    The plans are built in post-order on one stack: the top formula is
    built once all its parts have plans, and until then goes back, with
    its parts, under the parts missing one.  A formula that has its plan
    when first popped is skipped, so a shared part is built once.

    Each plan lifts the pointwise truth condition to a node set, so any id
    gets the same answer, even one a malformed model points to without
    declaring it.  Operands are only evaluated where they can still change
    the result.  Sets passed in or returned are never mutated."""
    stack = [(f, None)]
    while stack:
        g, parts = stack.pop()
        if parts is None:
            if type(g) not in _BUILD:
                raise TypeError("not a formula: %r" % (g,))
            if g._plan is not None:
                continue
            parts = _parts(g)
            missing = [(h, None) for h in parts if getattr(h, "_plan", None) is None]
            if missing:
                stack += [(g, parts), *missing]
                continue
        object.__setattr__(g, "_plan", _BUILD[type(g)](g, [h._plan for h in parts]))
    return f._plan


def _parts(f: Formula):
    """The subformulas whose plans the plan of ``f`` calls directly."""
    t = type(f)
    if t is And or t is Or:
        return _spine(f)
    if t is Implies or t is Iff:
        return (f.left, f.right)
    if t is Bullet:
        return f.args
    if t in _PREFIX:
        while type(f) in _PREFIX:
            f = f.sub
        return (f,)
    return ()


def _and_plan(f, plans):
    def plan(m, dom):
        for p in plans:
            dom = p(m, dom)
            if not dom:
                break
        return dom

    return plan


def _or_plan(f, plans):
    """Each operand is tried, in chain order, only on the nodes no earlier
    operand holds at."""

    def plan(m, dom):
        out, rest = set(), dom
        for p in plans:
            got = p(m, rest)
            if got:
                out |= got
                rest = rest - got
                if not rest:
                    break
        return out

    return plan


def _implies_plan(f, plans):
    left_plan, right_plan = plans

    def plan(m, dom):
        left = left_plan(m, dom)
        if not left:
            return dom
        if len(left) == len(dom):
            return right_plan(m, dom)
        return (dom - left) | right_plan(m, left)

    return plan


def _iff_plan(f, plans):
    left_plan, right_plan = plans

    def plan(m, dom):
        return dom - (left_plan(m, dom) ^ right_plan(m, dom))

    return plan


def _bullet_plan(f, plans):
    arity = len(plans)

    def plan(m, dom):
        daughters = m.cstruct.daughters
        get = daughters.get
        alive = [n for n in dom & m.cstruct.nodes if len(get(n, ())) == arity]
        for pos, p in enumerate(plans):
            if not alive:
                break
            good = p(m, {daughters[n][pos] for n in alive})
            alive = [n for n in alive if daughters[n][pos] in good]
        return set(alive)

    return plan


def _prefix_plan(f, plans):
    """A run of prefix operators as a list of steps: map dom down the run
    to the nodes its operand is needed on, evaluate the operand there once,
    then map the result back up the run.  Consecutive ``up``, ``zoomin``
    and ``<f>`` operators, which have at most one successor each, make one
    step that walks each node to the end of all of them."""
    (operand,) = plans
    steps = []  # Not, Down, or a walk: a list of (Up, Zoomin or Feat, feature)
    while type(f) in _PREFIX:
        t = type(f)
        if t is Not or t is Down:
            steps.append(t)
        elif steps and type(steps[-1]) is list:
            steps[-1].append((t, f.feat if t is Feat else None))
        else:
            steps.append([(t, f.feat if t is Feat else None)])
        f = f.sub

    def plan(m, dom):
        cs, fs = m.cstruct, m.fstruct
        taken = []  # (step, nodes or successor map) per step taken
        for step in steps:
            if step is Not:
                seen = dom
            elif step is Down:
                get = cs.daughters.get
                seen = {n: get(n, ()) for n in dom & cs.nodes}
                dom = {d for ds in seen.values() for d in ds}
            else:  # a walk: n -> the end of the walk from n
                tree, feats = cs.nodes, fs.nodes
                mother, zoomin, trans = cs.mother.get, m.zoomin.get, fs.trans.get
                seen = {}
                for n in dom & (feats if step[0][0] is Feat else tree):
                    w = n
                    for t, feat in step:
                        if t is Feat:
                            w = trans(w, _NO_TRANS).get(feat) if w in feats else None
                        elif w in tree:
                            w = mother(w) if t is Up else zoomin(w)
                        else:
                            w = None
                        if w is None:
                            break
                    else:
                        seen[n] = w
                dom = set(seen.values())
            taken.append((step, seen))
            if not dom:
                break
        good = operand(m, dom) if dom else dom
        for step, seen in reversed(taken):
            if step is Not:
                good = seen - good
            elif step is Down:
                good = {n for n, ds in seen.items() if not good.isdisjoint(ds)}
            else:
                good = {n for n, w in seen.items() if w in good}
        return good

    return plan


def _patheq_plan(f, plans):
    """The tree nodes of dom where the two images share a feature node;
    the right image is computed only where the left one is not empty."""
    left, right = (f.left_tree, f.left_feats), (f.right_tree, f.right_feats)

    def plan(m, dom):
        out = set()
        for n in dom & m.cstruct.nodes:
            image = _patheq_image(m, n, *left)
            if image and not image.isdisjoint(_patheq_image(m, n, *right)):
                out.add(n)
        return out

    return plan


def _literal_plan(f, plans):
    name = f.name

    def plan(m, dom):
        nodes, label = m.cstruct.nodes, m.cstruct.label.get
        return {n for n in dom & nodes if label(n) == name}

    return plan


def _atom_plan(f, plans):
    name = f.name

    def plan(m, dom):
        fs = m.fstruct
        final, atomval = fs.final, fs.atomval.get
        return {n for n in dom if n in fs.nodes and n in final and atomval(n) == name}

    return plan


def _all(m, dom):
    return dom


def _none(m, dom):
    return set()


def _tree_nodes(m, dom):
    return dom & m.cstruct.nodes


def _feature_nodes(m, dom):
    return dom & m.fstruct.nodes


#: formula type -> ``(formula, plans of its parts) -> its plan``
_BUILD = {
    And: _and_plan,
    Or: _or_plan,
    Implies: _implies_plan,
    Iff: _iff_plan,
    Bullet: _bullet_plan,
    PathEq: _patheq_plan,
    CatLit: _literal_plan,
    WordLit: _literal_plan,
    AtomLit: _atom_plan,
    TrueF: lambda f, plans: _all,
    FalseF: lambda f, plans: _none,
    CStructConst: lambda f, plans: _tree_nodes,
    FStructConst: lambda f, plans: _feature_nodes,
    **{t: _prefix_plan for t in _PREFIX},
}


def satisfies(m: Model, n: NodeId, phi: Formula) -> bool:
    """Truth of ``phi`` at node ``n`` (tree or feature node) of ``m``."""
    if n not in m.cstruct.nodes and n not in m.fstruct.nodes:
        raise UnknownNodeError("node %r is not in the model" % n)
    validate_names(phi, m.sig)
    return n in _plan(phi)(m, {n})


def valid(m: Model, phi: Formula) -> NodeId | None:
    """None when ``phi`` holds at every node of both domains; otherwise
    the least falsifying node in model order."""
    validate_names(phi, m.sig)
    return _least_failing(m, phi)


def _least_failing(m: Model, phi: Formula, nodes=None) -> NodeId | None:
    """``valid`` for a formula whose names ``m.sig`` declares, over
    ``nodes`` in their order when given, else over the whole model."""
    nodes = m.node_order if nodes is None else nodes
    dom = frozenset(nodes)  # an id in both domains is listed twice in nodes
    good = _plan(phi)(m, dom)
    if len(good) == len(dom):
        return None
    return next(n for n in nodes if n not in good)
