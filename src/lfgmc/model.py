"""Tripartite models: tree, feature graph, and the zoomin link.

A :class:`Model` bundles the three ingredients of an LFG-style analysis:

* a :class:`CStructure`, a finite ordered tree whose nodes carry
  syntactic categories (internal nodes) or word forms (leaves),
* an :class:`FStructure`, a finite rooted graph whose transitions are
  partial functions named by features, with atomic values only on
  designated final nodes,
* ``zoomin``, a partial map from tree nodes to feature nodes.

Structures are immutable records on :class:`_Frozen`, the one record
base of the package, and nothing is enforced at construction time.  A
constructor keeps the very dicts it is given, so their owner must not
change them afterwards; only ``nodes`` and ``final`` go through
``frozenset`` (a no-op on a frozenset), so that set algebra works on a
model built from a set or a list.
:func:`validate_model` inspects a candidate model and reports every
violated invariant as data, so deliberately broken structures can be
built and shown to be caught.  The uniqueness principle (one value per
attribute) is built into the representation: transition tables map a
(node, feature) pair to at most one successor, and values live on final
nodes only.

Node ids are opaque strings.  All operations that need an order use
:func:`node_key`, which sorts by (length, text) so that ``n2`` precedes
``n10``; a model's nodes are enumerated tree nodes first, then feature
nodes.  This is the "serialization order" used for counterexamples and
for the JSON format at the bottom of this module.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

from .errors import ModelFormatError, SignatureError, UnknownNodeError

NodeId = str

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Names that the concrete formula syntax claims for itself.  Category,
#: atom and feature names must avoid these (words may collide because
#: they can always be quoted).
RESERVED_WORDS = frozenset(
    ["true", "false", "cstruct", "fstruct", "up", "down", "zoomin", "bullet"]
)


def node_key(node: NodeId):
    """Sort key for node ids: by length, then text."""
    return (len(node), node)


class _Frozen:
    """An immutable record: ``__init__`` writes the fields named in
    ``_fields`` into ``__dict__`` once, and they are compared, hashed and
    printed in that order (``Name(field=value, ...)``).  Other keys are
    caches; pickling and ``copy.copy`` keep the whole ``__dict__``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[k] for k in self._fields])

    _key = _values  # what == compares and hash hashes

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join(map("%s=%r".__mod__, zip(self._fields, self._values()))))

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, built by the constructor,
        so its conversions and checks run again."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # loaded only to be raised

    raise FrozenInstanceError("cannot %s field %r" % (verb, name))


class Violation(_Frozen):
    """One violated invariant, with the offending node ids."""

    _fields = ("code", "message", "nodes")

    def __init__(self, code: str, message: str, nodes: tuple[NodeId, ...] = ()):
        self.__dict__.update(code=code, message=message, nodes=tuple(nodes))

    def __str__(self):
        where = " [%s]" % ", ".join(self.nodes) if self.nodes else ""
        return "%s: %s%s" % (self.code, self.message, where)


class ValidationReport(_Frozen):
    """The invariants a model violates; empty when it is valid."""

    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        self.__dict__["violations"] = tuple(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)


class Signature(_Frozen):
    """The symbol inventory every other structure is read against.

    ``gf`` lists the governable grammatical functions as feature-name
    sequences (most are one step, e.g. ``("subj",)``; oblique ones may
    be longer, e.g. ``("obl", "obj")``).  ``words`` holds the terminal
    word forms; it may be empty, as may ``gf``.
    """

    _fields = ("cats", "atoms", "feats", "gf", "words")

    def __init__(self, cats: frozenset[str], atoms: frozenset[str], feats: frozenset[str],
                 gf: tuple[tuple[str, ...], ...] = (), words: frozenset[str] = frozenset()):
        self.__dict__.update(cats=frozenset(cats), atoms=frozenset(atoms), feats=frozenset(feats),
                             gf=tuple(map(tuple, gf)), words=frozenset(words))

    def violations(self) -> list[Violation]:
        out = []
        for a, b, aname, bname in [
            (self.cats, self.atoms, "cat", "atom"),
            (self.cats, self.feats, "cat", "feat"),
            (self.atoms, self.feats, "atom", "feat"),
            (self.words, self.cats, "word", "cat"),
        ]:
            shared = a & b
            if shared:
                out.append(
                    Violation(
                        "signature-overlap",
                        "names used as both %s and %s: %s"
                        % (aname, bname, ", ".join(sorted(shared))),
                    )
                )
        for name, s in [("cat", self.cats), ("atom", self.atoms), ("feat", self.feats)]:
            if not s:
                out.append(Violation("signature-empty", "%s set is empty" % name))
        for seq in self.gf:
            if not seq:
                out.append(Violation("signature-gf-feature", "empty gf sequence"))
            for f in seq:
                if f not in self.feats:
                    out.append(
                        Violation(
                            "signature-gf-feature",
                            "gf step %r is not a declared feature" % f,
                        )
                    )
        return out

    def kind_of(self, name: str):
        """Classify a bare identifier as it is read in formulas.

        Categories shadow nothing (they are disjoint from atoms); atoms
        shadow words, since words can always be quoted instead.
        """
        if name in self.cats:
            return "cat"
        if name in self.atoms:
            return "atom"
        if name in self.words:
            return "word"
        return None

    @cached_property
    def _text_block(self) -> str:
        """The ``"signature"`` object of the model text, rendered once per
        signature (its fields are frozen)."""
        pad = " " * 4
        return _text_object(
            [
                ("atoms", _text_array([_quote(a) for a in sorted(self.atoms)], pad)),
                ("cats", _text_array([_quote(c) for c in sorted(self.cats)], pad)),
                ("feats", _text_array([_quote(f) for f in sorted(self.feats)], pad)),
                ("gf", _text_array(
                    [_text_array([_quote(f) for f in seq], pad + "  ") for seq in self.gf], pad
                )),
                ("words", _text_array([_quote(w) for w in sorted(self.words)], pad)),
            ],
            "  ",
        )


class CStructure(_Frozen):
    """A finite ordered tree with labelled nodes.

    ``mother`` and ``daughters`` are stored separately (and redundantly)
    so that the validator can detect disagreement between them.  Use
    :meth:`build` to derive ``mother`` and ``nodes`` from a daughter map.
    """

    _fields = ("nodes", "root", "mother", "daughters", "label")

    def __init__(self, nodes: frozenset[NodeId], root: NodeId, mother: dict[NodeId, NodeId],
                 daughters: dict[NodeId, tuple[NodeId, ...]], label: dict[NodeId, str]):
        self.__dict__.update(nodes=frozenset(nodes), root=root, mother=mother,
                             daughters=daughters, label=label)

    @classmethod
    def build(cls, root: NodeId, daughters: dict, label: dict) -> "CStructure":
        nodes = dict.fromkeys([root, *label])  # first seen first: no hash order
        mother = {}
        for n, ds in daughters.items():
            nodes[n] = None
            for d in ds:
                nodes[d] = None
                mother[d] = n
        full = {n: tuple(daughters.get(n, ())) for n in nodes}
        return cls(frozenset(nodes), root, mother, full, label)


class FStructure(_Frozen):
    """A finite rooted feature graph.

    ``trans[w]`` maps feature names to the unique successor of ``w``
    under that feature; the dict representation is what makes every
    feature a partial function.  ``final`` is the set of value-bearing
    nodes and ``atomval`` their atomic values (a new empty dict when not
    given).
    """

    _fields = ("nodes", "initial", "trans", "final", "atomval")

    def __init__(self, nodes: frozenset[NodeId], initial: NodeId,
                 trans: dict[NodeId, dict[str, NodeId]], final: frozenset[NodeId] = frozenset(),
                 atomval: dict[NodeId, str] | None = None):
        self.__dict__.update(nodes=frozenset(nodes), initial=initial, trans=trans,
                             final=frozenset(final), atomval={} if atomval is None else atomval)


class Model(_Frozen):
    """A signature, a tree, a feature graph, and the zoomin link."""

    _fields = ("sig", "cstruct", "fstruct", "zoomin")

    def __init__(self, sig: Signature, cstruct: CStructure, fstruct: FStructure,
                 zoomin: dict[NodeId, NodeId]):
        self.__dict__.update(sig=sig, cstruct=cstruct, fstruct=fstruct, zoomin=zoomin)

    @cached_property
    def node_order(self) -> tuple[NodeId, ...]:
        """Every node of both domains, in the deterministic model order;
        sorted once per model (both node sets are frozen).  An id in both
        domains appears twice, so the first ``len(cstruct.nodes)`` entries
        are the tree nodes."""
        return tuple(sorted(sorted(self.cstruct.nodes), key=len)) + tuple(
            sorted(sorted(self.fstruct.nodes), key=len)
        )

    def all_nodes(self) -> list[NodeId]:
        """Every node of both domains, in the deterministic model order;
        an id in both domains is listed once, among the tree nodes."""
        return list(dict.fromkeys(self.node_order))


def tree_relatives(c: CStructure, n: NodeId):
    """Return ``(mother, daughters)`` for a node; mother is None at the root."""
    if n not in c.nodes:
        raise UnknownNodeError("unknown tree node %r" % n)
    return c.mother.get(n), tuple(c.daughters.get(n, ()))


def feature_image(f: FStructure, start: NodeId, path, sig: Signature):
    """Follow a feature path from ``start``; None as soon as a step is undefined.

    The empty path is the identity.  Path members must be declared
    features of ``sig``.
    """
    for name in path:
        if name not in sig.feats:
            raise SignatureError("unknown feature %r" % name)
    if start not in f.nodes:
        raise UnknownNodeError("unknown f-structure node %r" % start)
    cur = start
    for name in path:
        cur = f.trans.get(cur, {}).get(name)
        if cur is None:
            return None
    return cur


def validate_model(m: Model) -> ValidationReport:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not failures: arbitrary candidate structures
    are accepted and each broken clause is reported with the offending
    node ids.
    """
    out: list[Violation] = m.sig.violations()

    c, f, sig = m.cstruct, m.fstruct, m.sig
    tree_order = m.node_order[: len(c.nodes)]

    def add(code, message, nodes=()):
        out.append(Violation(code, message, nodes))

    def ordered(ids):
        return tuple(sorted(ids, key=node_key))

    shared = c.nodes & f.nodes
    if shared:
        add("duplicate-node-id", "ids used in both tree and f-structure", ordered(shared))

    # --- tree shape ---
    if c.root not in c.nodes:
        add("tree-root-unknown", "root %r is not a node" % c.root)
    bad_refs = set()
    for n, ds in c.daughters.items():
        if n not in c.nodes:
            bad_refs.add(n)
        bad_refs.update(d for d in ds if d not in c.nodes)
        seen = set()
        for d in ds:
            if d in seen:
                add("tree-duplicate-daughter", "node occurs twice among the daughters of %r" % n,
                    (d,))
            seen.add(d)
    for d, mo in c.mother.items():
        if d not in c.nodes or mo not in c.nodes:
            bad_refs.update(x for x in (d, mo) if x not in c.nodes)
    if bad_refs:
        add("tree-unknown-ref", "links mention ids that are not tree nodes", ordered(bad_refs))

    for n in tree_order:
        if n not in c.label:
            add("tree-label-missing", "node has no label", (n,))

    # mother and daughters must tell the same story
    for n, ds in c.daughters.items():
        for d in ds:
            if c.mother.get(d) != n:
                add("tree-mother-daughters-mismatch",
                    "%r is listed as a daughter of %r but records a different mother" % (d, n),
                    (d, n))
    for d, mo in c.mother.items():
        if d not in c.daughters.get(mo, ()):
            add("tree-mother-daughters-mismatch",
                "%r records mother %r but is not among its daughters" % (d, mo), (d, mo))

    if c.mother.get(c.root) is not None:
        add("tree-root-has-mother", "root has a mother", (c.root,))
    for n in tree_order:
        if n != c.root and n not in c.mother:
            add("tree-orphan", "non-root node has no mother", (n,))

    # connectivity and acyclicity, walked from the root
    if c.root in c.nodes:
        visited: set[NodeId] = set()
        on_path: set[NodeId] = set()
        cyclic: set[NodeId] = set()

        stack: list[tuple[NodeId, int]] = [(c.root, 0)]
        on_path.add(c.root)
        visited.add(c.root)
        while stack:
            n, i = stack.pop()
            ds = c.daughters.get(n, ())
            if i < len(ds):
                stack.append((n, i + 1))
                d = ds[i]
                if d in on_path:
                    cyclic.add(d)
                elif d in c.nodes and d not in visited:
                    visited.add(d)
                    on_path.add(d)
                    stack.append((d, 0))
            else:
                on_path.discard(n)
        if cyclic:
            add("tree-cycle", "daughter links form a cycle", ordered(cyclic))
        unreached = c.nodes - visited
        if unreached:
            add("tree-disconnected", "nodes not reachable from the root", ordered(unreached))

    for n in tree_order:
        lab = c.label.get(n)
        if lab in sig.words and c.daughters.get(n, ()):
            add("tree-word-label-internal", "word form %r labels a node with daughters" % lab, (n,))
        if lab is not None and lab not in sig.cats and lab not in sig.words:
            add("label-not-in-signature", "label %r is neither a category nor a word form" % lab,
                (n,))

    # --- feature graph ---
    if not f.nodes:
        add("fstruct-empty", "f-structure has no nodes")
    else:
        if f.initial not in f.nodes:
            add("fstruct-initial-unknown", "initial node %r is not a node" % f.initial)
        bad = set()
        for w, table in f.trans.items():
            if w not in f.nodes:
                bad.add(w)
            for feat, w2 in table.items():
                if w2 not in f.nodes:
                    bad.add(w2)
                if feat not in sig.feats:
                    add("feat-not-in-signature", "transition uses undeclared feature %r" % feat,
                        (w,))
        bad.update(w for w in f.final if w not in f.nodes)
        bad.update(w for w in f.atomval if w not in f.nodes)
        if bad:
            add("fstruct-unknown-ref", "links mention ids that are not f-structure nodes",
                ordered(bad))

        if f.initial in f.nodes:
            reach = {f.initial}
            frontier = [f.initial]
            while frontier:
                w = frontier.pop()
                for w2 in f.trans.get(w, {}).values():
                    if w2 in f.nodes and w2 not in reach:
                        reach.add(w2)
                        frontier.append(w2)
            unreached = f.nodes - reach
            if unreached:
                add("fstruct-unreachable", "nodes not reachable from the initial node",
                    ordered(unreached))

        for w in sorted(f.final, key=node_key):
            if f.trans.get(w):
                add("fstruct-final-transition", "final node has outgoing transitions", (w,))
        for w in sorted(f.atomval, key=node_key):
            if w not in f.final:
                add("fstruct-valuation-nonfinal", "valuation on non-final node", (w,))
        for w in sorted(f.final, key=node_key):
            if w not in f.atomval:
                add("fstruct-final-unvalued", "final node carries no atomic value", (w,))
        for w, a in sorted(f.atomval.items(), key=lambda kv: node_key(kv[0])):
            if a not in sig.atoms:
                add("atom-not-in-signature", "atomic value %r is not declared" % a, (w,))

    # --- zoomin ---
    for t, w in sorted(m.zoomin.items(), key=lambda kv: node_key(kv[0])):
        if t not in c.nodes:
            add("zoomin-domain", "zoomin defined on a non-tree id", (t,))
        if w not in f.nodes:
            add("zoomin-range", "zoomin target is not an f-structure node", (t, w))

    return ValidationReport(tuple(out))


def fnode_names(initial, trans) -> dict:
    """The canonical f-node numbering of the nodes reachable from
    ``initial``: ``f0`` for ``initial``, then ``f1..`` in breadth-first
    order, following each node's transitions ``trans[w]`` (feature ->
    successor), given in sorted feature order.  ``canonicalize`` renames
    feature nodes by it (the unreached ones after these), and the search's
    read-off numbers its classes alike."""
    names, queue = {initial: "f0"}, [initial]
    for w in queue:  # grows while it is walked
        table = trans.get(w)
        if table:
            for w2 in table.values():
                if w2 not in names:
                    names[w2] = "f%d" % len(names)
                    queue.append(w2)
    return names


def canonicalize(m: Model) -> Model:
    """Rename nodes into the canonical scheme: tree nodes ``n0..`` by
    preorder, f-nodes ``f0..`` by :func:`fnode_names` (breadth-first from
    the initial node following features in sorted order).

    Intended for valid models; unreachable f-nodes, if any, are appended
    in their old order.  A tree node reached twice from the root has no
    single preorder name, so it raises :class:`ModelFormatError`: daughter
    links that form a cycle name the node that closes it, and a shared
    daughter is named itself.  So does an id that names no node, the first
    of: the initial f-node, the transition sources, the final f-nodes and
    the atoms' f-nodes (in node order), the zoomin sources (tree nodes) and
    targets (f-nodes); then an id of the mother, daughter, label or zoomin
    tables the root does not reach, and a transition target (from an
    f-node the initial one does not reach) that is no f-node.
    """
    c, f = m.cstruct, m.fstruct

    # preorder from the root; a node met again while its walk is open
    # closes a cycle, the first met again once closed is shared
    tmap: dict[NodeId, NodeId] = {}
    closed, shared = set(), None
    stack: list[tuple[NodeId, bool]] = [(c.root, True)]
    while stack:
        n, entering = stack.pop()
        if not entering:
            closed.add(n)
        elif n not in tmap:
            tmap[n] = "n%d" % len(tmap)
            stack.append((n, False))
            stack.extend((d, True) for d in reversed(c.daughters.get(n, ())))
        elif n not in closed:
            raise ModelFormatError("daughter links form a cycle through node %r" % n)
        elif shared is None:
            shared = n
    if shared is not None:
        raise ModelFormatError("tree node %r is reached twice from the root" % shared)

    by_feat = {w: dict(sorted(t.items())) for w, t in f.trans.items()}
    fmap = fnode_names(f.initial, by_feat)
    for w in sorted(f.nodes, key=node_key):
        fmap.setdefault(w, "f%d" % len(fmap))
    fids = (f.initial, *f.trans, *sorted(f.final, key=node_key), *sorted(f.atomval, key=node_key))
    tids = (*c.mother, *c.mother.values(), *c.daughters, *c.label, *m.zoomin)
    targets = [w for t in f.trans.values() for w in t.values()]
    for ids, nodes, kind in ((fids, f.nodes, "is not an f-node"),
                             (m.zoomin, c.nodes, "is not a tree node"),
                             (m.zoomin.values(), f.nodes, "is not an f-node"),
                             (tids, tmap, "is not reached from the root"),
                             (targets, fmap, "is not an f-node")):
        for w in ids:
            if w not in nodes:
                raise ModelFormatError("%r %s" % (w, kind))

    cstruct = CStructure(
        nodes=frozenset(tmap.values()),
        root=tmap[c.root],
        mother={tmap[d]: tmap[mo] for d, mo in c.mother.items()},
        daughters={tmap[n]: tuple(tmap[d] for d in ds) for n, ds in c.daughters.items()},
        label={tmap[n]: lab for n, lab in c.label.items()},
    )
    fstruct = FStructure(
        nodes=frozenset(fmap.values()),
        initial=fmap[f.initial],
        trans={fmap[w]: {ft: fmap[w2] for ft, w2 in t.items()} for w, t in f.trans.items()},
        final=frozenset(fmap[w] for w in f.final),
        atomval={fmap[w]: a for w, a in f.atomval.items()},
    )
    zoomin = {tmap[t]: fmap[w] for t, w in m.zoomin.items()}
    return Model(m.sig, cstruct, fstruct, zoomin)


# ---------------------------------------------------------------------------
# JSON serialization.
#
# The document layout is fixed: top-level keys "signature", "tree",
# "fstruct" and "zoomin"; tree nodes as {"id", "label", "daughters"} plus
# "root"; f-structure nodes as {"id", "trans"} with an optional "atom",
# plus "initial"; zoomin as a flat {treeId: fnodeId} object.  Unknown keys
# are rejected.  Final nodes are exactly the nodes carrying an "atom" key.
#
# The model text is byte-exact: what json.dumps(doc, indent=2,
# sort_keys=True) + "\n" prints for the document, with every key sorted
# as a plain string (so "trans" and "zoomin" keys are not in node_key
# order), lists of nodes in node order, strings in ASCII escapes, and
# [] / {} for empty containers.  _fstruct_text and _model_tail write its
# two halves directly, because with an indent json.dumps runs its
# pure-Python encoder; model_to_text joins them for any model, and
# parse_sentence orders its survivors on single _fnode_row and _tree_row rows.
# ---------------------------------------------------------------------------


def model_to_json(m: Model) -> dict:
    """The model document: the parse of :func:`model_to_text`, its one
    writer."""
    return json.loads(model_to_text(m))


def _text_array(items: list[str], pad: str) -> str:
    """A JSON array of rendered ``items`` whose closing bracket is
    indented by ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _text_object(pairs, pad: str) -> str:
    """A JSON object of ``(key, rendered value)`` pairs, keys already in
    sorted order, whose closing brace is indented by ``pad``."""
    if not pairs:
        return "{}"
    inner = pad + "  "
    return "{\n" + ",\n".join(
        "%s%s: %s" % (inner, _quote(k), v) for k, v in pairs
    ) + "\n" + pad + "}"


def _tree_row(c: CStructure, n: NodeId) -> str:
    """The row of tree node ``n`` in the tree's node list; it ends in
    ``\\n      }``, which occurs nowhere else in a row."""
    ds = c.daughters.get(n)
    return '{\n        "daughters": %s,\n        "id": %s,\n        "label": %s\n      }' % (
        "[\n          %s\n        ]" % ",\n          ".join(map(_quote, ds)) if ds else "[]",
        _quote(n), _quote(c.label.get(n, "")))


def _tree_rows(c: CStructure, order) -> str:
    """The text of the tree's node list: a row per node of ``order``."""
    return _text_array([_tree_row(c, n) for n in order], " " * 4)


def _fnode_row(f: FStructure, w: NodeId, table) -> str:
    """The row of f-node ``w``, with the transitions ``table`` lists in sorted
    feature order; it ends in ``\\n      }``, found nowhere else in a row."""
    return '{\n        %s"id": %s,\n        "trans": %s\n      }' % (
        '"atom": %s,\n        ' % _quote(f.atomval[w]) if w in f.atomval else "",
        _quote(w),
        "{\n          %s\n        }" % ",\n          ".join(
            [_quote(feat) + ": " + _quote(w2) for feat, w2 in table.items()]
        ) if table else "{}",
    )


def _fstruct_text(f: FStructure, trans) -> str:
    """The model text up to and with its ``"fstruct"`` member: a row per
    f-node of ``trans``, in its order.  With a row its last lines are
    ``    ]``, ``  },``."""
    rows = [_fnode_row(f, w, table) for w, table in trans.items()]
    return '{\n  "fstruct": {\n    "initial": %s,\n    "nodes": %s\n  },\n' % (
        _quote(f.initial), _text_array(rows, " " * 4))


def _model_tail(m: Model, tree_rows: str) -> str:
    """The model text after :func:`_fstruct_text`: the signature,
    ``tree_rows``, the root and zoomin."""
    zoomin = _text_object([(t, _quote(w)) for t, w in sorted(m.zoomin.items())], "  ")
    return ('  "signature": %s,\n  "tree": {\n    "nodes": %s,\n    "root": %s\n  },\n'
            '  "zoomin": %s\n}\n') % (m.sig._text_block, tree_rows, _quote(m.cstruct.root), zoomin)


def model_to_text(m: Model) -> str:
    """The model's canonical JSON text (see the layout above)."""
    c, f = m.cstruct, m.fstruct
    order = m.node_order
    trans = {w: dict(sorted(f.trans.get(w, {}).items())) for w in order[len(c.nodes):]}
    return _fstruct_text(f, trans) + _model_tail(m, _tree_rows(c, order[: len(c.nodes)]))


def _need(obj: dict, keys: set[str], what: str, optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ModelFormatError("%s must be an object" % what)
    unknown = set(obj) - keys - optional
    if unknown:
        raise ModelFormatError(
            "unknown key(s) in %s: %s" % (what, ", ".join(sorted(unknown)))
        )
    missing = keys - set(obj)
    if missing:
        raise ModelFormatError(
            "missing key(s) in %s: %s" % (what, ", ".join(sorted(missing)))
        )


def _str_list(x, what: str) -> list[str]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise ModelFormatError("%s must be a list of strings" % what)
    return x


def _spelling_fault(kind: str, names) -> str | None:
    """Why a printed formula or model file cannot spell a ``kind`` name in
    ``names`` (the first such name, in iteration order), or None."""
    if all(map(_IDENT_RE.match, names)) and RESERVED_WORDS.isdisjoint(names):
        return None
    for name in names:
        if not _IDENT_RE.match(name):
            return "%s name %r is not an identifier" % (kind, name)
        if name in RESERVED_WORDS:
            return "%s name %r collides with reserved formula syntax" % (kind, name)
    return None


def model_from_json(doc) -> Model:
    """The model a parsed JSON document describes; it keeps the
    document's ``trans`` and ``zoomin`` dicts."""
    _need(doc, {"signature", "tree", "fstruct", "zoomin"}, "model document")

    sig_doc = doc["signature"]
    _need(sig_doc, {"cats", "atoms", "feats", "gf", "words"}, "signature")
    cats = _str_list(sig_doc["cats"], "signature.cats")
    atoms = _str_list(sig_doc["atoms"], "signature.atoms")
    feats = _str_list(sig_doc["feats"], "signature.feats")
    words = _str_list(sig_doc["words"], "signature.words")
    for kind, names in [("category", cats), ("atom", atoms), ("feature", feats)]:
        fault = _spelling_fault(kind, names)
        if fault:
            raise ModelFormatError(fault)
    gf_doc = sig_doc["gf"]
    if not isinstance(gf_doc, list):
        raise ModelFormatError("signature.gf must be a list of feature-name lists")
    gf = tuple(tuple(_str_list(seq, "signature.gf entry")) for seq in gf_doc)
    sig = Signature(frozenset(cats), frozenset(atoms), frozenset(feats), gf, frozenset(words))

    tree_doc = doc["tree"]
    _need(tree_doc, {"root", "nodes"}, "tree")
    if not isinstance(tree_doc["nodes"], list):
        raise ModelFormatError("tree.nodes must be a list")
    label: dict[NodeId, str] = {}
    daughters: dict[NodeId, tuple[NodeId, ...]] = {}
    tnodes: set[NodeId] = set()
    for nd in tree_doc["nodes"]:
        _need(nd, {"id", "label", "daughters"}, "tree node")
        nid = nd["id"]
        if not isinstance(nid, str) or not isinstance(nd["label"], str):
            raise ModelFormatError("tree node id and label must be strings")
        if nid in tnodes:
            raise ModelFormatError("tree node %r declared twice" % nid)
        tnodes.add(nid)
        label[nid] = nd["label"]
        daughters[nid] = tuple(_str_list(nd["daughters"], "tree node daughters"))
    root = tree_doc["root"]
    if not isinstance(root, str):
        raise ModelFormatError("tree.root must be a string")
    mother = {}
    for n, ds in daughters.items():
        for d in ds:
            mother[d] = n
    cstruct = CStructure(frozenset(tnodes), root, mother, daughters, label)

    f_doc = doc["fstruct"]
    _need(f_doc, {"initial", "nodes"}, "fstruct")
    if not isinstance(f_doc["nodes"], list):
        raise ModelFormatError("fstruct.nodes must be a list")
    trans: dict[NodeId, dict[str, NodeId]] = {}
    atomval: dict[NodeId, str] = {}
    fnodes: set[NodeId] = set()
    for nd in f_doc["nodes"]:
        _need(nd, {"id", "trans"}, "fstruct node", optional={"atom"})
        wid = nd["id"]
        if not isinstance(wid, str):
            raise ModelFormatError("fstruct node id must be a string")
        if wid in fnodes:
            raise ModelFormatError("fstruct node %r declared twice" % wid)
        fnodes.add(wid)
        t = nd["trans"]
        if not isinstance(t, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in t.items()
        ):
            raise ModelFormatError("fstruct node trans must map strings to strings")
        trans[wid] = t
        if "atom" in nd:
            if not isinstance(nd["atom"], str):
                raise ModelFormatError("fstruct node atom must be a string")
            atomval[wid] = nd["atom"]
    initial = f_doc["initial"]
    if not isinstance(initial, str):
        raise ModelFormatError("fstruct.initial must be a string")
    fstruct = FStructure(
        frozenset(fnodes), initial, trans, frozenset(atomval), atomval
    )

    z_doc = doc["zoomin"]
    if not isinstance(z_doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in z_doc.items()
    ):
        raise ModelFormatError("zoomin must map tree ids to f-structure ids")

    return Model(sig, cstruct, fstruct, z_doc)


def model_from_text(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("not valid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise ModelFormatError("not valid JSON: nested too deeply") from exc
    return model_from_json(doc)
