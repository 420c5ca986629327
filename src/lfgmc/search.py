"""Parsing as bounded model finding.

``parse_sentence`` enumerates, up to explicit bounds, the models of a
compiled theory whose tree yield equals the input tokens and whose root
carries the start category.  The strategy is the classical two-phase
one:

1. enumerate candidate trees from the context-free skeleton of the
   rules (annotations ignored), each token sitting under a preterminal
   licensed by a lexical entry.  A budget-free chart holds the edges
   (cat, i, j) as the ascending ends of each category at each start.
   It is built once by agenda-driven deduction (Earley 1970; Shieber,
   Schabes & Pereira 1995), start by start from right to left, so its
   work grows with the edges, not with the spans.  It is the
   enumerator's only table: a rule element's ends are those from which
   the later elements reach the span's end, read off the chart when a
   key needs them.  The derivations of each (cat, i, j, budget) are
   computed once on an explicit stack, so candidates share
   sub-derivations.  A derivation is the grammar's own data, which
   checked its shape when built (see ``lfgmc.grammar``): a preterminal's
   is its ``LexEntry``, a phrase's the tuple ``(rule, children)``.  Each
   comes with its tree shape and entries, made from its children's;
2. read the annotations off the chosen rules and entries as defining
   equations over f-structure variables, and close them under
   union-find-style identification with congruence.  A clash (two
   distinct atoms, or an atom on a node with outgoing transitions) kills
   the candidate; otherwise the closure *is* the least solution, i.e.
   the candidate f-structure contains nothing the equations do not
   force.  The lexical variants of one tree shape share its tree and
   phrase equations, which are built and solved once; the entries then
   follow one preterminal at a time over a trie of the variants' entry
   tuples, so a clash under a shared prefix rejects all of its variants
   at once (after Maxwell & Kaplan 1991).  Each candidate still meets
   its equations in the order it would alone, and each class keeps its
   least member, so the class order holds.  ``(up p)=down``, ``p``
   possibly empty, is one ``link``: its end (the mother's variable, or
   the last step of ``p`` from it), when missing, becomes the daughter's
   class (made there if new, one class for both sides); a present end
   becomes the daughter's variable when it has none; only two made sides
   are united, so no class is made only to be merged.  Only a step or
   link out of a valued class, an atom on a class with transitions, or
   a union leaving both on one root sets ``mixed``; only then does
   ``_close`` scan for uniqueness.

Semantic forms get one special reading, mirroring how argument lists
behave in LFG proper: ``walk(subj)`` makes the slot ``pred subj`` exist,
and when the local ``subj`` path is itself defined by the other
equations the slot is identified with it (re-entrancy), in passes over
the slots until one links none or none waits for its path; a linked
slot stays linked, so a later pass walks only the waiting ones.  The
slot never *creates* the local path; a missing governed function is
left for the completeness axiom to flag.

A solved candidate is read off its union-find once, in canonical names:
tree nodes are numbered in preorder as the tree is built, and one walk
names the classes ``f0..`` as ``canonicalize`` numbers f-nodes and
builds the tables in the order the model's text lists them.  A model
built from a grammar that compiles (so its signature has no violations)
holds by construction the licensing and lexical axioms compiled from it
and all of ``validate_model`` but reachability: preorder ids ``n<k>``
with the mothers ``CStructure.build`` would derive, labels from the
declared categories and the input words, which the signature keeps
apart, ``f<k>`` ids, features and atoms from the schemata, and valued
classes that ``_close`` keeps free of transitions.  Only preterminals
have a word daughter, so the lexical antecedent holds exactly at them
and the licensing one (a grandchild) at phrase nodes; the f-structure
solves the equations, so a phrase node satisfies its rule's disjunct and
a preterminal its entry's under ``up zoomin`` (a root preterminal's
entry has no schemata, or else it clashed).  A class the naming walk
misses is rejected as ``fstruct-unreachable``.  Tree nodes and valued
classes have no feature transitions, so only a class with ``pred`` can
fail completeness[g] (``pred g`` resolves, ``g`` does not) or
coherence[g] (``g`` resolves, ``pred g`` does not), which the walk's
tables decide, as they name every class once reachability holds.

Each label is decided one way (``_deciders``).  ``compile_grammar``
records its grammar as ``theory.source`` and every field as kept
(``theory.compiled``); ``replace`` drops the fields it changes.  Under
the grammar being parsed, a kept licensing or lexical label holds by
construction and a kept principle (``gf`` kept too) is decided on the
tables; any other label is evaluated on the model read off, built only
then or for a survivor, a kept lexical one on its slice.  Another theory
has the grammar compiled once, for its checks.  Two lemmas serve
``check_parse`` too.  First, a kept label uses only names its source's
signature declares (compilation checks each name of the rules and
entries, the lexical antecedent lists the declared words, and the
principles use ``pred`` and the ``gf`` steps, which must be declared
features), so the names walk of ``valid`` is skipped for it on a model
whose signature contains the source's (a *covered* model); any other
label's names are walked first, raising the first error ``valid`` would.
Second, for the declared words W that label a node, the *slice* (the
lexical axiom over W and W's entries, ``true`` for no W, consequent
``FALSE`` for no entries) fails where the whole axiom does, on any
model: a literal or disjunct for a word outside W holds nowhere.  So the
whole axiom is built only for an uncovered model's names walk, or when
lexical is not kept.

Models that fail the theory are reported as rejections with the failing
formula label and counterexample node; a failing f-node is named as the
least under the class-order names ``w0, w1, ..`` (the order the classes
were made in).  The principles are decided over the classes in that
order, and a label evaluated on the model once, over the tree nodes in
model order and then the classes: a tree node it gives is the
counterexample, a class is named by its place.  Survivors are
deduplicated by their text, the first candidate of a text kept, and
returned sorted by it, but only what decides the order is written.
The text is an f-structure part, whose last lines are ``    ]`` and
``  },``, then a tail.  A line ``    ]`` ends the node list and occurs
nowhere else in a part (rows are indented deeper, strings are escaped),
so no part is a proper prefix of another, and sorting by (part, tail)
sorts by the text.  Names are canonical, so equal
f-structures have equal parts: survivors are grouped by theirs and a
group's part is written once, if there are two.  Tails in a group share
the signature.  A tree row ends in ``\\n      }``, found nowhere else in
it, so no row is a proper prefix of another, and a node list ends in
``\\n    ]``, so a list that runs out first sorts first: tails compare
row by row, each row written when first reached, and root and zoomin
only for equal rows.  Minimality is a property of this search, not of
the satisfaction relation: ``valid`` accepts models with junk.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import count

from .errors import GrammarError, SignatureError
from .formula import TRUE, _NAME_KINDS, validate_names
from .grammar import (AtomValueSchema, Grammar, LexEntry, PathEqSchema, PRED_FEAT, REL_FEAT,
                      Theory, _lexical_axiom, compile_grammar)
from .model import (CStructure, FStructure, Model, NodeId, _Frozen, _fstruct_text, _model_tail,
                    _tree_row)
from .semantics import _least_failing


class SearchBounds(_Frozen):
    """Limits on one parse: tree nodes per candidate, f-nodes per model,
    and models returned; each an int (not a bool), at least 1."""

    _fields = ("max_tree_nodes", "max_f_nodes", "max_models")

    def __init__(self, max_tree_nodes: int = 40, max_f_nodes: int = 80, max_models: int = 10):
        self.__dict__.update(max_tree_nodes=max_tree_nodes, max_f_nodes=max_f_nodes,
                             max_models=max_models)
        for name, value in zip(self._fields, self._values()):
            if type(value) is not int:
                raise TypeError("%s must be an int, not %s" % (name, type(value).__name__))
            if value < 1:
                raise ValueError("%s must be at least 1" % name)


class Rejection(_Frozen):
    """Why a candidate was not returned: ``reason`` is "clash", "structure"
    or "formula", ``detail`` a description or the failing formula label."""

    _fields = ("reason", "detail", "node")

    def __init__(self, reason: str, detail: str, node: NodeId | None = None):
        self.__dict__.update(reason=reason, detail=detail, node=node)


class ParseOutcome(_Frozen):
    """The models found, sorted by their text, whether a bound cut the
    search, and the rejected candidates in candidate order."""

    _fields = ("models", "bound_exceeded", "rejections")

    def __init__(self, models: tuple[Model, ...], bound_exceeded: bool,
                 rejections: tuple[Rejection, ...] = ()):
        self.__dict__.update(models=tuple(models), bound_exceeded=bound_exceeded,
                             rejections=tuple(rejections))


# ---------------------------------------------------------------------------
# Context-free skeleton enumeration
# ---------------------------------------------------------------------------


def _live_ends(ends, cats, pos: int, j: int) -> list[int]:
    """The ends ``e``, ascending, of the chart edges (cats[0], pos, e) from
    which the later categories ``cats[1:]`` have live ends in turn, the
    last one ``j``: the ends of a rule element that can complete the span."""
    found, later = ends[pos].get(cats[0], ()), cats[1:]
    if not later:
        return [j] if j in found else []
    return [e for e in found if e < j and _live_ends(ends, later, e, j)]


def _chart(grammar: Grammar, tokens):
    """Budget-free derivability: ``ends[i][cat]`` lists, ascending, the
    ends ``j`` of the edges (cat, i, j), the spans tokens[i:j] that ``cat``
    derives.  Starts come from right to left, and each is closed by an
    agenda seeded with its token's lexical edges.  A popped edge (c, i, k)
    extends only the rules whose first element is ``c``; every rule
    element covers at least one token, so the later elements start at or
    after ``k`` and their ends are read off rows already finished.  A
    per-start seen set absorbs unary rule cycles.  The work grows with
    the edges found, not with the spans."""
    by_first: dict[str, list] = {}  # first element category -> (rule, later categories)
    for rule in grammar.rules:
        by_first.setdefault(rule.rhs[0].cat, []).append((rule, [e.cat for e in rule.rhs[1:]]))
    n = len(tokens)
    ends: list[dict[str, list[int]]] = [{} for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = ends[i]
        seen = set()
        agenda = [(entry.cat, i + 1) for entry in grammar.entries_for(tokens[i])]
        while agenda:
            edge = agenda.pop()
            if edge in seen:
                continue
            seen.add(edge)
            cat, k = edge
            row.setdefault(cat, []).append(k)
            for rule, later in by_first.get(cat, ()):
                reached = (k,)
                for c in later:
                    reached = {j for pos in reached for j in ends[pos].get(c, ())}
                agenda.extend((rule.lhs, j) for j in reached)
        for found in row.values():
            found.sort()
    return ends


class _SkeletonEnumerator:
    def __init__(self, grammar: Grammar, tokens):
        self.grammar = grammar
        self.tokens = tokens
        self.bound_hit = False
        self.ends = _chart(grammar, tokens)
        self.rules: dict[str, list] = {}  # lhs -> (rule, its element categories), in order
        for rule in grammar.rules:
            self.rules.setdefault(rule.lhs, []).append((rule, tuple(e.cat for e in rule.rhs)))
        self.memo: dict[tuple[str, int, int, int], list] = {}
        self.shapes: dict[tuple, int] = {}  # (id(rule),) + children's shapes -> shape id

    def derive(self, cat: str, i: int, j: int, budget: int):
        """All derivations of ``cat`` over tokens[i:j] using at most
        ``budget`` tree nodes, as (derivation, node count, shape, entries)
        records: a preterminal's shape is its category, a phrase's an int
        interned from its rule and its children's shapes (so one tree, one
        shape), and the entries are its ``LexEntry`` leaves in token order.

        Results are memoised per (cat, i, j, budget), so sub-derivations
        are shared objects across parents and the returned list must not
        be mutated.  Only what can complete a tree is entered: a span with
        an edge in the chart, and each rule element's ends, ascending, from
        which the later elements reach the span's end (``_live_ends``, on
        the chart alone); a rule derives the span when its first element
        has such an end.  So a bound cut always loses a tree, and
        ``bound_hit`` is set only then.  The keys under computation are
        kept on an explicit stack, innermost last; a key needs only keys of
        smaller budgets, so it never recurs while it is computed."""
        if j not in self.ends[i].get(cat, ()):
            return []
        key = (cat, i, j, budget)
        out = self.memo.get(key)
        if out is not None:
            return out
        # each frame's generator yields the keys it needs but the memo
        # lacks, is sent their lists, and returns its own list
        frames = [(key, self._derivations(*key))]
        sent = None
        while True:
            key, frame = frames[-1]
            try:
                need = frame.send(sent)
            except StopIteration as done:
                self.memo[key] = sent = done.value
                frames.pop()
                if not frames:
                    return sent
            else:
                frames.append((need, self._derivations(*need)))
                sent = None

    def _derivations(self, cat, i, j, budget):
        """The list ``derive`` returns for one key, in order: the lexical
        entries, then each rule's child sequences, chosen element by
        element by ascending end and then in the order of the children's
        own lists."""
        memo, shapes = self.memo, self.shapes
        out = []
        if j - i == 1:
            entries = [e for e in self.grammar.entries_for(self.tokens[i]) if e.cat == cat]
            if entries:
                if budget >= 2:
                    out.extend((e, 2, e.cat, (e,)) for e in entries)
                else:
                    self.bound_hit = True
        for rule, cats in self.rules.get(cat, ()):
            if budget < 1 + 2 * (j - i):  # no tree fits: a cut if the rule derives the span
                self.bound_hit = self.bound_hit or bool(_live_ends(self.ends, cats, i, j))
                continue
            # (children so far, shape key, entries, their end, budget left)
            partial = [((), (id(rule),), (), i, budget - 1)]
            for idx, c in enumerate(cats):
                grown = []
                for kids, key, ents, pos, avail in partial:
                    for end in _live_ends(self.ends, cats[idx:], pos, j):
                        reserve = 2 * (j - end)  # least any continuation can cost
                        need = (c, pos, end, avail - reserve)
                        derivs = memo.get(need)
                        if derivs is None:
                            derivs = yield need
                        for d, n, shape, more in derivs:
                            grown.append((kids + (d,), key + (shape,), ents + more, end, avail - n))
                partial = grown
            out.extend(((rule, kids), budget - avail, shapes.setdefault(key, len(shapes)), ents)
                       for kids, key, ents, _, avail in partial)
        return out


def _build_tree(deriv):
    """Materialize a derivation as a CStructure with preorder node ids,
    recording each node's mother as the node is made.

    Returns the structure plus the instantiation points: (node, rule,
    daughter ids) triples in postorder and the preterminals' mothers in
    token order (None for a root preterminal).
    """
    labels: dict[NodeId, str] = {}
    mother: dict[NodeId, NodeId] = {}
    daughters: dict[NodeId, tuple[NodeId, ...]] = {}
    phrases = []
    mothers = []
    # (derivation, its mother's id, its siblings' ids) to enter, or
    # (node id, rule, its daughters' ids) to leave once they are built
    stack = [(deriv, None, [])]
    while stack:
        d, up, ids = stack.pop()
        if type(d) is str:
            daughters[d] = kids = tuple(ids)
            phrases.append((d, up, kids))
            continue
        nid = "n%d" % len(labels)
        ids.append(nid)
        if up is not None:
            mother[nid] = up
        if type(d) is tuple:
            rule, children = d
            labels[nid] = rule.lhs
            kids = []
            stack.append((nid, rule, kids))
            stack.extend((c, nid, kids) for c in reversed(children))
        else:
            leaf = "n%d" % (len(labels) + 1)
            labels[nid] = d.cat
            labels[leaf] = d.word
            mother[leaf] = nid
            daughters[nid] = (leaf,)
            daughters[leaf] = ()
            mothers.append(up)
    return CStructure(frozenset(labels), "n0", mother, daughters, labels), phrases, mothers


# ---------------------------------------------------------------------------
# Equation solving (union-find with congruence)
# ---------------------------------------------------------------------------


class _Clash(Exception):
    """The equations have no solution; the one argument says why."""


class _UnionFind:
    """f-structure skeleton under construction: classes with functional
    transition tables and optional atoms, merged with congruence, plus
    the tree nodes' variables and the semantic-form slots to close.  A
    schema is an atom (``walk`` then ``set_atom``), ``(up p)=(down q)``
    (two walks and a ``union``) or ``(up p)=down`` (``link``).
    ``mixed`` is set once a root may hold an atom and transitions."""

    def __init__(self):
        self.parent: list[int] = []
        self.trans: list[dict[str, int]] = []
        self.atom: list[str | None] = []
        self.zvar: dict[NodeId, int] = {}
        self.semform_args: list[tuple[int, tuple[str, ...]]] = []
        self.mixed = False

    def copy(self) -> _UnionFind:
        c = _UnionFind()
        c.parent, c.atom, c.semform_args = self.parent[:], self.atom[:], self.semform_args[:]
        c.trans, c.zvar, c.mixed = [t.copy() for t in self.trans], self.zvar.copy(), self.mixed
        return c

    def make(self) -> int:
        self.parent.append(len(self.parent))
        self.trans.append({})
        self.atom.append(None)
        return len(self.parent) - 1

    def z(self, n: NodeId) -> int:
        if n not in self.zvar:
            self.zvar[n] = self.make()
        return self.zvar[n]

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        queue = [(i, j)]
        while queue:
            a, b = queue.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            self.parent[rb] = ra
            if self.atom[rb] is not None:
                self.set_atom(ra, self.atom[rb])
            for feat, tgt in self.trans[rb].items():
                if feat in self.trans[ra]:
                    queue.append((self.trans[ra][feat], tgt))
                else:
                    self.trans[ra][feat] = tgt
            if self.atom[ra] is not None and self.trans[ra]:
                self.mixed = True

    def walk(self, i: int, path, create: bool):
        """Follow ``path`` from ``i``, making missing steps if ``create`` (else None)."""
        for feat in path:
            r = self.find(i)
            i = self.trans[r].get(feat)
            if i is not None:
                i = self.find(i)
            elif not create:
                return None
            else:
                i = self.trans[r][feat] = self.make()
                self.mixed = self.mixed or self.atom[r] is not None
        return i

    def link(self, n: NodeId, path, d: NodeId):
        """``(up path)=down`` for mother ``n`` and daughter ``d``, ``path``
        possibly empty (see the module docstring)."""
        if path:
            r = self.find(self.walk(self.z(n), path[:-1], create=True))
            end = self.trans[r].get(path[-1])
        else:
            end = self.zvar.get(n)
        if end is None and path:
            self.trans[r][path[-1]] = self.z(d)
            self.mixed = self.mixed or self.atom[r] is not None
        elif end is None:
            self.zvar[n] = self.z(d)
        elif d in self.zvar:
            self.union(end, self.zvar[d])
        else:
            self.zvar[d] = end

    def set_atom(self, i: int, value: str):
        r = self.find(i)
        self.mixed = self.mixed or bool(self.trans[r])
        if self.atom[r] is None:
            self.atom[r] = value
        elif self.atom[r] != value:
            raise _Clash("distinct atoms %r and %r forced onto one node" % (self.atom[r], value))


def _solve_phrases(phrases) -> _UnionFind:
    """The union-find of a tree shape's rule equations, or raise _Clash."""
    uf = _UnionFind()
    for n, rule, kids in phrases:
        for elem, kid in zip(rule.rhs, kids):
            for schema in elem.schemata:
                if not isinstance(schema, PathEqSchema):
                    uf.set_atom(uf.walk(uf.z(n), schema.path, create=True), schema.value)
                elif schema.down_path:
                    uf.union(uf.walk(uf.z(n), schema.up_path, create=True),
                             uf.walk(uf.z(kid), schema.down_path, create=True))
                else:
                    uf.link(n, schema.up_path, kid)
    return uf


def _solve_entry(uf: _UnionFind, mother: NodeId | None, entry: LexEntry):
    """Add one preterminal's lexical equations; ``mother`` is the node
    above the preterminal."""
    if not entry.schemata:
        return
    if mother is None:
        raise _Clash("lexical schemata of %r need a node above the preterminal" % entry.word)
    base = uf.z(mother)
    for schema in entry.schemata:
        if isinstance(schema, AtomValueSchema):
            uf.set_atom(uf.walk(base, schema.path, create=True), schema.value)
        else:
            uf.set_atom(uf.walk(base, (PRED_FEAT, REL_FEAT), create=True), schema.rel)
            for g in schema.args:
                uf.walk(base, (PRED_FEAT,) + g, create=True)
                uf.semform_args.append((base, g))


def _close(uf: _UnionFind):
    """Link the semantic-form slots and check uniqueness, or raise _Clash."""
    # argument slots link up with local paths that the other equations
    # define; a linked slot stays linked, so a further pass walks only the
    # slots still waiting, and only after a union that may have defined one
    waiting, changed = uf.semform_args, True
    while changed and waiting:
        slots, waiting, changed = waiting, [], False
        for base, g in slots:
            slot = uf.walk(base, (PRED_FEAT,) + g, create=False)
            local = uf.walk(base, g, create=False)
            if local is None:
                waiting.append((base, g))
            elif uf.find(slot) != uf.find(local):
                uf.union(slot, local)
                changed = True

    # uniqueness: an atom may not share a node with outgoing transitions
    for i in range(len(uf.parent)) if uf.mixed else ():
        r = uf.find(i)
        if uf.atom[r] is not None and uf.trans[r]:
            raise _Clash("atom %r forced onto a node with outgoing transitions" % uf.atom[r])


def _solve_shape(phrases, mothers, members):
    """Solve every lexical variant of one tree shape (step 2 above) from
    its ``_build_tree`` parts.  ``members`` are (candidate index, entries)
    pairs; yields (members, union-find or clash Rejection) pairs.  The
    union-find is copied only where the trie of entry tuples branches."""
    # (union-find, k, members): the members share entries[:k], all
    # added to the union-find except the last one (or the phrases, k=0)
    stack = [(None, 0, members)]
    while stack:
        uf, k, members = stack.pop()
        entries = members[0][1]
        try:
            if uf is None:
                uf = _solve_phrases(phrases)
            else:
                _solve_entry(uf, mothers[k - 1], entries[k - 1])
            while len(members) == 1 and k < len(mothers):  # no branch below
                _solve_entry(uf, mothers[k], entries[k])
                k += 1
            if k == len(mothers):
                _close(uf)
                yield members, uf
                continue
        except _Clash as clash:
            yield members, Rejection("clash", clash.args[0])
            continue
        groups: dict[int, list] = {}
        for m in members:
            groups.setdefault(id(m[1][k]), []).append(m)
        *branches, last = groups.values()
        stack.extend((uf.copy(), k + 1, group) for group in branches)
        stack.append((uf, k + 1, last))  # after the copies: changed in place


def _principle_failures(gf, tables, names) -> list[int | None]:
    """For completeness[g], each ``g`` of ``gf``, then coherence[g] likewise
    (``Theory.labeled``'s order): the index in ``names`` of the first
    f-node whose table fails it, or None (see the module docstring)."""
    first: list[int | None] = [None] * (2 * len(gf))
    for k, w in enumerate(names):
        pred = tables[w].get(PRED_FEAT)
        if pred is None:
            continue
        for i, g in enumerate(gf):
            has_g, has_pred_g = w, pred
            for feat in g:
                has_g = has_g and tables[has_g].get(feat)
                has_pred_g = has_pred_g and tables[has_pred_g].get(feat)
            if (has_g is None) != (has_pred_g is None):
                label = i + len(gf) * (has_g is not None)  # the coherence labels come second
                if first[label] is None:
                    first[label] = k
    return first


def _read_off(cstruct, uf: _UnionFind, bounds):
    """The first rejection among the entry point (the root node's class,
    else the one class without incoming transitions), the f-node bound (None
    past it) and reachability; else ``(name, tables, atomval)`` in canonical
    names, ``name`` mapping the classes, in class order, to f-nodes.  One
    walk, breadth-first over sorted features, names the classes as
    ``fnode_names`` numbers nodes and builds the tables in walk order, the
    order the model's text lists them."""
    if not uf.parent:
        uf.make()  # no equations: the f-structure is one empty node
    trans, atoms = uf.trans, uf.atom
    rep = list(map(uf.find, range(len(uf.parent))))
    name = dict.fromkeys(rep)  # the classes in class order
    root_var = uf.zvar.get(cstruct.root)
    if root_var is not None:
        entry = rep[root_var]
    else:
        incoming = {rep[t] for r in name for t in trans[r].values()}
        sources = [r for r in name if r not in incoming]
        if len(sources) != 1:
            return Rejection("structure", "no unique entry point into the f-structure")
        entry = sources[0]
    if len(name) > bounds.max_f_nodes:
        return None
    name[entry] = "f0"
    queue, tables, atomval = [entry], {}, {}
    for r in queue:  # grows while it is walked
        table = tables[name[r]] = {}
        for feat, t in sorted(trans[r].items()):
            t = rep[t]
            w = name[t]
            if w is None:
                w = name[t] = "f%d" % len(queue)
                queue.append(t)
            table[feat] = w
        if atoms[r] is not None:
            atomval[name[r]] = atoms[r]
    if len(queue) < len(name):
        return Rejection("structure", "fstruct-unreachable")
    return name, tables, atomval


def _model(sig, cstruct, uf: _UnionFind, name, tables, atomval) -> Model:
    """The least-solution model that ``_read_off`` named."""
    fstruct = FStructure(frozenset(tables), "f0", tables, frozenset(atomval), atomval)
    return Model(sig, cstruct, fstruct, {n: name[uf.find(v)] for n, v in uf.zvar.items()})


def _check(deciders, gf, sig, cstruct, uf, bounds):
    """The outcome of one solved candidate: the rejection ``_read_off``
    gives (None past the f-node bound), else one under the first label
    that fails as ``deciders`` decide it, else its model, built at the
    first label evaluated on it or for a survivor."""
    read = _read_off(cstruct, uf, bounds)
    if not isinstance(read, tuple):
        return read
    name, tables, _atomval = read
    failures = model = nodes = None
    for label, walk, decider in deciders:
        if decider is None:
            continue  # holds by construction
        if type(decider) is int:
            failures = failures or _principle_failures(gf, tables, name.values())
            node = failures[decider]
        else:
            if model is None:
                model = _model(sig, cstruct, uf, *read)
                # the tree nodes in model order, then the classes in class order
                nodes = model.node_order[: len(cstruct.nodes)] + tuple(name.values())
            if walk is not None:
                validate_names(walk, sig)  # the error valid would raise
            node = _least_failing(model, decider, nodes)
            if node in cstruct.nodes:
                return Rejection("formula", label, node)
            if node is not None:
                node = nodes.index(node) - len(cstruct.nodes)
        if node is not None:
            return Rejection("formula", label, "w%d" % node)
    return model or _model(sig, cstruct, uf, *read)


def _text_order(models):
    """``models`` deduplicated by their text, the first of a text kept, and
    sorted by it (see the module docstring)."""
    ties, by_lengths = [], {}  # each f-structure's models; its tables' lengths -> those lists
    for m in models:
        bucket = by_lengths.setdefault(tuple(map(len, m.fstruct.trans.values())), [])
        tied = next((t for t in bucket if t[0].fstruct == m.fstruct), None)
        if tied is None:
            bucket.append(tied := [])
            ties.append(tied)
        tied.append(m)
    if len(ties) > 1:
        ties.sort(key=lambda tied: _fstruct_text(tied[0].fstruct, tied[0].fstruct.trans))
    rows: dict[int, list[str]] = {}  # id(tree) -> its rows written so far, asked for in order

    def row(c, k):
        written = rows.setdefault(id(c), [])
        if k == len(written) < len(c.label):
            written.append(_tree_row(c, "n%d" % k))  # preorder ids: the node order
        return written[k] if k < len(written) else ""

    def cmp(a, b):
        x = y = None
        for k in count() if a.cstruct is not b.cstruct else ():
            x, y = row(a.cstruct, k), row(b.cstruct, k)  # "" sorts before every row
            if x != y or not x:
                break
        if x == y:  # equal tree rows: the root and zoomin decide
            x, y = _model_tail(a, ""), _model_tail(b, "")
        return (x > y) - (x < y)

    out = []
    for tied in ties:
        if len(tied) > 1:
            tied = sorted(tied, key=cmp_to_key(cmp))  # stable: the first of a text leads
            tied = [m for k, m in enumerate(tied) if k == 0 or cmp(tied[k - 1], m)]
        out.extend(tied)
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_sentence(
    theory: Theory, grammar: Grammar, tokens, bounds: SearchBounds = SearchBounds()
) -> ParseOutcome:
    """All minimal models of ``theory`` with the given yield, root label
    equal to the grammar's start category, within ``bounds``."""
    tokens = list(tokens)
    if not tokens:
        raise GrammarError("no tokens to parse")
    for tok in tokens:
        if tok not in grammar.sig.words:
            raise SignatureError("unknown token %r" % tok)
    if theory.source is not grammar:
        compile_grammar(grammar)  # raises what the grammar breaks, else its structure holds
    deciders = _deciders(theory, grammar, grammar.sig, tokens)

    enum = _SkeletonEnumerator(grammar, tokens)
    derivations = enum.derive(grammar.start, 0, len(tokens), bounds.max_tree_nodes)
    bound_exceeded = enum.bound_hit
    del enum  # its memo holds every sub-derivation's entries: free them before solving

    shapes: dict[int | str, list] = {}
    for idx, (_deriv, _count, shape, entries) in enumerate(derivations):
        shapes.setdefault(shape, []).append((idx, entries))
    # each candidate's outcome: a Rejection, None when it exceeds the
    # f-node bound, or its canonical model
    outcomes: list = [None] * len(derivations)
    for members in shapes.values():
        cstruct, phrases, mothers = _build_tree(derivations[members[0][0]][0])
        for group, solved in _solve_shape(phrases, mothers, members):
            for idx, _entries in group:
                outcomes[idx] = (
                    solved if isinstance(solved, Rejection)
                    else _check(deciders, theory.gf, grammar.sig, cstruct, solved, bounds)
                )

    models = _text_order([m for m in outcomes if isinstance(m, Model)])
    bound_exceeded = bound_exceeded or len(models) > bounds.max_models or any(
        m is None for m in outcomes)
    return ParseOutcome(models[: bounds.max_models], bound_exceeded,
                        [r for r in outcomes if isinstance(r, Rejection)])


class CheckEntry(_Frozen):
    """One theory label and its least counterexample (None if valid)."""

    _fields = ("label", "counterexample")

    def __init__(self, label: str, counterexample: NodeId | None):
        self.__dict__.update(label=label, counterexample=counterexample)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class CheckReport(_Frozen):
    """The entries of ``check_parse``, one per theory label in order."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[CheckEntry, ...]):
        self.__dict__["entries"] = tuple(entries)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def __iter__(self):
        return iter(self.entries)


def _covers(sig, inner) -> bool:
    """Whether ``sig`` declares every name ``inner`` declares."""
    return sig is inner or all(getattr(inner, k) <= getattr(sig, k) for k in _NAME_KINDS)


def _deciders(theory: Theory, grammar, sig, words):
    """Each label of ``theory`` in order as ``(label, walk, decider)`` (see
    the module docstring).  ``walk``: the formula whose names ``valid``
    would check, None for a kept label when ``sig`` covers the source's.
    ``decider``: None when the label holds by construction, the principle's
    index when the read-off tables decide it, else the formula to evaluate,
    for a kept lexical label its slice for the declared words in ``words``."""
    g = theory.source
    kept = theory.compiled if g is not None else frozenset()
    named = kept if kept and _covers(sig, g.sig) else frozenset()
    built = kept if g is grammar else frozenset()
    if "lexical" in built:
        lexical = None
    elif "lexical" in kept:
        words = g.sig.words.intersection(words)
        entries = [e for e in g.lexicon if e.word in words]
        lexical = _lexical_axiom(entries, words) if g.lexicon and words else TRUE
    else:
        lexical = theory.lexical
    out = [("licensing", None if "licensing" in named else theory.licensing,
            None if "licensing" in built else theory.licensing),
           ("lexical", None if "lexical" in named else theory.lexical, lexical)]
    for k, (label, f) in enumerate(theory.principles()):
        field = "completeness" if k < len(theory.gf) else "coherence"
        out.append((label, None if field in named else f, k if {field, "gf"} <= built else f))
    return out


def check_parse(theory: Theory, model: Model) -> CheckReport:
    """Re-verify a model against every theory formula (see the module
    docstring)."""
    sig, entries = model.sig, []
    for label, walk, f in _deciders(theory, None, sig, model.cstruct.label.values()):
        if walk is not None:
            validate_names(walk, sig)  # the error valid would raise
        entries.append(CheckEntry(label, _least_failing(model, f)))
    return CheckReport(tuple(entries))
