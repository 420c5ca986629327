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
   work grows with the edges, not with the spans.  The enumerator reads
   the child ends off the chart, computes the derivations of each
   (cat, i, j, budget) once on an explicit stack, and so shares
   sub-derivations between candidates.  A derivation is the grammar's
   own data: a preterminal's is its ``LexEntry``, a phrase's the tuple
   ``(rule, children)``.  The pieces checked their shape when built
   (see ``lfgmc.grammar``), so the search takes them as they are;
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
   its equations in the order it would alone.

Semantic forms get one special reading, mirroring how argument lists
behave in LFG proper: ``walk(subj)`` makes the slot ``pred subj`` exist,
and when the local ``subj`` path is itself defined by the other
equations the slot is identified with it (re-entrancy).  The slot never
*creates* the local path; a missing governed function is left for the
completeness axiom to flag.

Every surviving candidate's model is extracted already in the canonical
naming: tree nodes are numbered in preorder as the tree is built, and the
union-find classes are named ``f0..`` by ``model.fnode_names``, the
numbering ``canonicalize`` uses.  That one model is checked against the
theory, printed and returned, with no second renaming pass.

A model built from the grammar the theory was compiled from
(``theory.source is grammar``, set by ``compile_grammar`` only for a
signature without violations that every rule and entry compiled against)
holds by construction the licensing and lexical axioms and all of
``validate_model`` but reachability.  Its tree is preorder
``CStructure.build`` output with ids ``n<k>``, labelled by declared
categories and input words, which the signature keeps apart; f-node ids
are ``f<k>``, features and atoms come from the schemata, and ``_close``
keeps valued classes free of transitions.  Only preterminals have a word
daughter, so the lexical antecedent holds exactly at them and the
licensing one (a grandchild) at phrase nodes.  The f-structure solves
the equations, so a phrase node satisfies its rule's disjunct and a
preterminal its entry's under ``up zoomin``; a root preterminal's entry
has no schemata, or else it clashed.  A class the walk of
``fnode_names`` misses is rejected as ``fstruct-unreachable``, and only
completeness and coherence are evaluated.  Any other theory (built by
hand or by ``dataclasses.replace``, or compiled from an equal but
separate ``Grammar``) is checked in full.

``check_parse`` rests on a smaller lemma: a compiled theory uses only
names its grammar's signature declares.  Compilation checks each name of
the rules and entries, the lexical antecedent lists the declared words,
and the completeness and coherence axioms use ``pred`` (which
``compile_grammar`` requires beside ``gf``) and the ``gf`` steps (which a
signature without violations declares).  So ``validate_names`` is skipped
when the model's signature contains the grammar's.

Models that fail the theory are reported as rejections
with the failing formula label and counterexample node; a failing f-node
is named as the least under the class-order names ``w0, w1, ..`` (the
order the classes were made in), which the rejection lines have always
used.  Survivors are deduplicated by their text and returned sorted by
it.  Minimality is a property of this search, not of the satisfaction
relation: ``valid`` itself happily accepts models with junk material.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import GrammarError, SignatureError
from .formula import _NAME_KINDS
from .grammar import (
    AtomValueSchema,
    Grammar,
    LexEntry,
    PathEqSchema,
    PRED_FEAT,
    REL_FEAT,
    Theory,
)
from .model import (
    CStructure,
    FStructure,
    Model,
    NodeId,
    fnode_names,
    model_to_text,
    validate_model,
)
from .semantics import _least_failing, satisfies, valid


@dataclass(frozen=True)
class SearchBounds:
    max_tree_nodes: int = 40
    max_f_nodes: int = 80
    max_models: int = 10

    def __post_init__(self):
        for name in ("max_tree_nodes", "max_f_nodes", "max_models"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1" % name)


@dataclass(frozen=True)
class Rejection:
    """Why a candidate structure was not returned."""

    reason: str  # "clash" | "structure" | "formula"
    detail: str  # description, or the failing formula label
    node: NodeId | None = None


@dataclass(frozen=True)
class ParseOutcome:
    models: tuple[Model, ...]
    bound_exceeded: bool
    rejections: tuple[Rejection, ...] = ()


# ---------------------------------------------------------------------------
# Context-free skeleton enumeration
# ---------------------------------------------------------------------------


def _element_ends(found: list[int], j: int, remaining: int) -> list[int]:
    """The ends in the ascending list ``found`` that a rule element can
    take with ``remaining`` more elements before the span ends at ``j``:
    the last element ends at ``j``, the others leave a token for each
    element after them."""
    lo = j if remaining == 0 else 0
    return found[bisect_left(found, lo):bisect_right(found, j - remaining)]


def _chart(grammar: Grammar, tokens) -> list[dict[str, list[int]]]:
    """Budget-free derivability: ``ends[i][cat]`` lists, ascending, the
    ends ``j`` of the edges (cat, i, j), the spans tokens[i:j] that ``cat``
    derives.  Starts come from right to left, and each is closed by an
    agenda seeded with its token's lexical edges.  A popped edge (c, i, k)
    extends only the rules whose first element is ``c``; every rule
    element covers at least one token, so the later elements start at or
    after ``k`` and their ends are read off rows already finished.  A
    per-start seen set absorbs unary rule cycles.  The work grows with the
    edges found, not with the spans."""
    by_first: dict[str, list] = {}  # first element category -> (lhs, later categories)
    for rule in grammar.rules:
        by_first.setdefault(rule.rhs[0].cat, []).append((rule.lhs, [e.cat for e in rule.rhs[1:]]))
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
            for lhs, later in by_first.get(cat, ()):
                reached = (k,)
                for c in later:
                    reached = {j for pos in reached for j in ends[pos].get(c, ())}
                agenda.extend((lhs, j) for j in reached)
        for found in row.values():
            found.sort()
    return ends


class _SkeletonEnumerator:
    def __init__(self, grammar: Grammar, tokens):
        self.grammar = grammar
        self.tokens = tokens
        self.bound_hit = False
        self.ends = _chart(grammar, tokens)
        self.memo: dict[tuple[str, int, int, int], list] = {}

    def derive(self, cat: str, i: int, j: int, budget: int):
        """All derivations of ``cat`` over tokens[i:j] using at most
        ``budget`` tree nodes, as (derivation, node count) pairs.

        Results are memoised per (cat, i, j, budget), so sub-derivations
        are shared objects across parents and the returned list must not
        be mutated.  Spans without an edge in the chart are not entered:
        they have no derivations at any budget, so no bound cut below them
        can lose one.  Each child's ends are bisected out of the chart's
        ascending lists.  The keys under computation are kept on an explicit
        stack, innermost last; a key needs only keys of smaller budgets,
        so it never recurs while it is computed."""
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
        memo = self.memo
        out = []
        if j - i == 1:
            entries = [e for e in self.grammar.entries_for(self.tokens[i]) if e.cat == cat]
            if entries:
                if budget >= 2:
                    out.extend((e, 2) for e in entries)
                else:
                    self.bound_hit = True
        for rule in self.grammar.rules:
            if rule.lhs != cat:
                continue
            if budget < 1 + 2 * (j - i):
                self.bound_hit = True
                continue
            # (children so far, their end, budget left, nodes used)
            partial = [((), i, budget - 1, 0)]
            for idx, elem in enumerate(rule.rhs):
                remaining = len(rule.rhs) - 1 - idx
                grown = []
                for children, pos, avail, used in partial:
                    for end in _element_ends(self.ends[pos].get(elem.cat, []), j, remaining):
                        reserve = 2 * (j - end)  # least any continuation can cost
                        need = (elem.cat, pos, end, avail - reserve)
                        derivs = memo.get(need)
                        if derivs is None:
                            derivs = yield need
                        for d, c in derivs:
                            grown.append((children + (d,), end, avail - c, used + c))
                partial = grown
            out.extend(((rule, children), 1 + used) for children, _, _, used in partial)
        return out


def _shape(deriv):
    """A derivation's tree shape (rules by identity and preterminal
    categories, in preorder) and its entries in token order.  The lexical
    variants of one shape share their ``CStructure`` and phrase equations."""
    key, entries, stack = [], [], [deriv]
    while stack:
        d = stack.pop()
        if type(d) is tuple:
            key.append(id(d[0]))
            stack.extend(reversed(d[1]))
        else:
            key.append(d.cat)
            entries.append(d)
    return tuple(key), tuple(entries)


def _build_tree(deriv):
    """Materialize a derivation as a CStructure with preorder node ids.

    Returns the structure plus the instantiation points: (node, rule,
    daughter ids) triples in postorder and the preterminals in token
    order.
    """
    labels: dict[NodeId, str] = {}
    daughters: dict[NodeId, tuple[NodeId, ...]] = {}
    phrases = []
    preterminals = []
    # (derivation, its siblings' ids) to enter, or (node id, (rule, its
    # daughters' ids)) to leave once the daughters are built
    stack = [(deriv, [])]
    while stack:
        d, ids = stack.pop()
        if type(d) is str:
            rule, kids = ids
            daughters[d] = kids = tuple(kids)
            phrases.append((d, rule, kids))
            continue
        nid = "n%d" % len(labels)
        ids.append(nid)
        if type(d) is tuple:
            rule, children = d
            labels[nid] = rule.lhs
            kids = []
            stack.append((nid, (rule, kids)))
            stack.extend((c, kids) for c in reversed(children))
        else:
            leaf = "n%d" % (len(labels) + 1)
            labels[nid] = d.cat
            labels[leaf] = d.word
            daughters[nid] = (leaf,)
            daughters[leaf] = ()
            preterminals.append(nid)
    return CStructure.build("n0", daughters, labels), phrases, preterminals


# ---------------------------------------------------------------------------
# Equation solving (union-find with congruence)
# ---------------------------------------------------------------------------


class _Clash(Exception):
    """The equations have no solution; the one argument says why."""


class _UnionFind:
    """f-structure skeleton under construction: classes with functional
    transition tables and optional atoms, merged with congruence, plus
    the tree nodes' variables and the semantic-form slots to close."""

    def __init__(self):
        self.parent: list[int] = []
        self.trans: list[dict[str, int]] = []
        self.atom: list[str | None] = []
        self.zvar: dict[NodeId, int] = {}
        self.semform_args: list[tuple[int, tuple[str, ...]]] = []

    def copy(self) -> _UnionFind:
        c = _UnionFind()
        c.parent, c.atom, c.semform_args = self.parent[:], self.atom[:], self.semform_args[:]
        c.trans, c.zvar = [t.copy() for t in self.trans], self.zvar.copy()
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
        return i

    def set_atom(self, i: int, value: str):
        r = self.find(i)
        if self.atom[r] is None:
            self.atom[r] = value
        elif self.atom[r] != value:
            raise _Clash(
                "distinct atoms %r and %r forced onto one node"
                % (self.atom[r], value)
            )


def _solve_phrases(phrases) -> _UnionFind:
    """The union-find of a tree shape's rule equations, or raise _Clash."""
    uf = _UnionFind()
    for n, rule, kids in phrases:
        for elem, kid in zip(rule.rhs, kids):
            for schema in elem.schemata:
                if isinstance(schema, PathEqSchema):
                    a = uf.walk(uf.z(n), schema.up_path, create=True)
                    b = uf.walk(uf.z(kid), schema.down_path, create=True)
                    uf.union(a, b)
                else:
                    uf.set_atom(uf.walk(uf.z(n), schema.path, create=True), schema.value)
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
    # define; iterate because one identification can define another path
    changed = True
    while changed:
        changed = False
        for base, g in uf.semform_args:
            slot = uf.walk(base, (PRED_FEAT,) + g, create=False)
            local = uf.walk(base, g, create=False)
            if local is not None and uf.find(slot) != uf.find(local):
                uf.union(slot, local)
                changed = True

    # uniqueness: an atom may not share a node with outgoing transitions
    for i in range(len(uf.parent)):
        r = uf.find(i)
        if uf.atom[r] is not None and uf.trans[r]:
            raise _Clash("atom %r forced onto a node with outgoing transitions" % uf.atom[r])


def _solve_shape(cstruct, phrases, preterminals, members):
    """Solve every lexical variant of one tree shape (step 2 above).
    ``members`` are (candidate index, entries) pairs; yields (members,
    union-find or clash Rejection) pairs.  The union-find is copied only
    where the trie of entry tuples branches."""
    mothers = [cstruct.mother.get(p) for p in preterminals]
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


def _extract_model(sig, cstruct, uf: _UnionFind) -> tuple[Model, list[NodeId], int] | Rejection:
    """Build the least-solution model, its f-nodes already named in the
    canonical scheme (``fnode_names``; trees from ``_build_tree`` are in
    preorder).  Returns the model, its f-node names in union-find class
    order and how many of them the walk from ``f0`` reaches, or a
    structure Rejection when no sensible f-structure exists (entry point
    missing or not unique)."""
    roots: list[int] = []
    seen = set()
    for i in range(len(uf.parent)):
        r = uf.find(i)
        if r not in seen:
            seen.add(r)
            roots.append(r)

    if not roots:
        fstruct = FStructure(frozenset(["f0"]), "f0", {"f0": {}})
        return Model(sig, cstruct, fstruct, {}), ["f0"], 1

    succ = {r: {feat: uf.find(t) for feat, t in sorted(uf.trans[r].items())} for r in roots}
    root_var = uf.zvar.get(cstruct.root)
    if root_var is not None:
        initial = uf.find(root_var)
    else:
        incoming = {t for s in succ.values() for t in s.values()}
        sources = [r for r in roots if r not in incoming]
        if len(sources) != 1:
            return Rejection("structure", "no unique entry point into the f-structure")
        initial = sources[0]

    name = fnode_names(initial, succ)
    reached = len(name)
    for r in roots:
        name.setdefault(r, "f%d" % len(name))
    trans = {name[r]: {feat: name[t] for feat, t in s.items()} for r, s in succ.items()}
    atomval = {name[r]: uf.atom[r] for r in roots if uf.atom[r] is not None}
    fstruct = FStructure(
        frozenset(name.values()), "f0", trans, frozenset(atomval), atomval
    )
    zoomin = {n: name[uf.find(v)] for n, v in uf.zvar.items()}
    return Model(sig, cstruct, fstruct, zoomin), [name[r] for r in roots], reached


def _check(labels, trusted, sig, cstruct, uf, bounds):
    """The outcome of one solved candidate under ``labels`` (see ``parse_sentence``)."""
    extracted = _extract_model(sig, cstruct, uf)
    if isinstance(extracted, Rejection):
        return extracted
    model, classes, reached = extracted
    if len(model.fstruct.nodes) > bounds.max_f_nodes:
        return None
    if not trusted:
        report = validate_model(model)
        if not report.ok:
            return Rejection("structure", "; ".join(sorted(report.codes())))
    elif reached < len(classes):
        return Rejection("structure", "fstruct-unreachable")
    for label, f in labels:
        node = valid(model, f)
        if node is not None:
            if node in model.fstruct.nodes:
                # rejections name f-nodes w0, w1, .. in the order the
                # union-find made the classes, not by the canonical names
                node = next(
                    "w%d" % k for k, w in enumerate(classes) if not satisfies(model, w, f)
                )
            return Rejection("formula", label, node)
    return model_to_text(model), model


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

    enum = _SkeletonEnumerator(grammar, tokens)
    derivations = enum.derive(grammar.start, 0, len(tokens), bounds.max_tree_nodes)
    bound_exceeded = enum.bound_hit
    trusted = theory.source is grammar
    labels = theory.labeled()[2:] if trusted else theory.labeled()  # licensing, lexical first

    shapes: dict[tuple, list] = {}
    for idx, (deriv, _count) in enumerate(derivations):
        key, entries = _shape(deriv)
        shapes.setdefault(key, []).append((idx, entries))
    # each candidate's outcome: a Rejection, None when it exceeds the
    # f-node bound, or its canonical (text, model) pair
    outcomes: list = [None] * len(derivations)
    for members in shapes.values():
        cstruct, phrases, preterminals = _build_tree(derivations[members[0][0]][0])
        for group, solved in _solve_shape(cstruct, phrases, preterminals, members):
            for idx, _entries in group:
                outcomes[idx] = (
                    solved if isinstance(solved, Rejection)
                    else _check(labels, trusted, grammar.sig, cstruct, solved, bounds)
                )

    rejections: list[Rejection] = []
    found: dict[str, Model] = {}
    for outcome in outcomes:
        if outcome is None:
            bound_exceeded = True
        elif isinstance(outcome, Rejection):
            rejections.append(outcome)
        else:
            found.setdefault(*outcome)

    models = [found[k] for k in sorted(found)]
    if len(models) > bounds.max_models:
        models = models[: bounds.max_models]
        bound_exceeded = True
    return ParseOutcome(tuple(models), bound_exceeded, tuple(rejections))


@dataclass(frozen=True)
class CheckEntry:
    label: str
    counterexample: NodeId | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class CheckReport:
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def __iter__(self):
        return iter(self.entries)


def check_parse(theory: Theory, model: Model) -> CheckReport:
    """Re-verify a model against every theory formula."""
    g, sig = theory.source, model.sig
    covered = g is not None and all(getattr(g.sig, k) <= getattr(sig, k) for k in _NAME_KINDS)
    check = _least_failing if covered else valid
    return CheckReport(tuple(CheckEntry(label, check(model, f)) for label, f in theory.labeled()))
