"""Tripartite models: tree, feature graph, and the zoomin link.

A :class:`Model` bundles the three ingredients of an LFG-style analysis:

* a :class:`CStructure`, a finite ordered tree whose nodes carry
  syntactic categories (internal nodes) or word forms (leaves),
* an :class:`FStructure`, a finite rooted graph whose transitions are
  partial functions named by features, with atomic values only on
  designated final nodes,
* ``zoomin``, a partial map from tree nodes to feature nodes.

Structures are plain immutable data and nothing is enforced at
construction time.  :func:`validate_model` inspects a candidate model
and reports every violated invariant as data, so deliberately broken
structures can be built and shown to be caught.  The uniqueness
principle (one value per attribute) is built into the representation:
transition tables map a (node, feature) pair to at most one successor,
and values live on final nodes only.

Node ids are opaque strings.  All operations that need an order use
:func:`node_key`, which sorts by (length, text) so that ``n2`` precedes
``n10``; a model's nodes are enumerated tree nodes first, then feature
nodes.  This is the "serialization order" used for counterexamples and
for the JSON format at the bottom of this module.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with the offending node ids."""

    code: str
    message: str
    nodes: tuple[NodeId, ...] = ()

    def __str__(self):
        where = " [%s]" % ", ".join(self.nodes) if self.nodes else ""
        return "%s: %s%s" % (self.code, self.message, where)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)


@dataclass(frozen=True)
class Signature:
    """The symbol inventory every other structure is read against.

    ``gf`` lists the governable grammatical functions as feature-name
    sequences (most are one step, e.g. ``("subj",)``; oblique ones may
    be longer, e.g. ``("obl", "obj")``).  ``words`` holds the terminal
    word forms; it may be empty, as may ``gf``.
    """

    cats: frozenset[str]
    atoms: frozenset[str]
    feats: frozenset[str]
    gf: tuple[tuple[str, ...], ...] = ()
    words: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "cats", frozenset(self.cats))
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        object.__setattr__(self, "feats", frozenset(self.feats))
        object.__setattr__(self, "gf", tuple(tuple(g) for g in self.gf))
        object.__setattr__(self, "words", frozenset(self.words))

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


@dataclass(frozen=True)
class CStructure:
    """A finite ordered tree with labelled nodes.

    ``mother`` and ``daughters`` are stored separately (and redundantly)
    so that the validator can detect disagreement between them.  Use
    :meth:`build` to derive ``mother`` and ``nodes`` from a daughter map.
    """

    nodes: frozenset[NodeId]
    root: NodeId
    mother: dict[NodeId, NodeId]
    daughters: dict[NodeId, tuple[NodeId, ...]]
    label: dict[NodeId, str]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "mother", dict(self.mother))
        object.__setattr__(
            self, "daughters", {n: tuple(ds) for n, ds in self.daughters.items()}
        )
        object.__setattr__(self, "label", dict(self.label))

    @classmethod
    def build(cls, root: NodeId, daughters: dict, label: dict) -> "CStructure":
        nodes = {root} | set(label)
        for n, ds in daughters.items():
            nodes.add(n)
            nodes.update(ds)
        mother = {}
        for n, ds in daughters.items():
            for d in ds:
                mother[d] = n
        full = {n: tuple(daughters.get(n, ())) for n in nodes}
        return cls(frozenset(nodes), root, mother, full, dict(label))


@dataclass(frozen=True)
class FStructure:
    """A finite rooted feature graph.

    ``trans[w]`` maps feature names to the unique successor of ``w``
    under that feature; the dict representation is what makes every
    feature a partial function.  ``final`` is the set of value-bearing
    nodes and ``atomval`` their atomic values.
    """

    nodes: frozenset[NodeId]
    initial: NodeId
    trans: dict[NodeId, dict[str, NodeId]]
    final: frozenset[NodeId] = frozenset()
    atomval: dict[NodeId, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(
            self, "trans", {n: dict(t) for n, t in self.trans.items()}
        )
        object.__setattr__(self, "final", frozenset(self.final))
        object.__setattr__(self, "atomval", dict(self.atomval))


@dataclass(frozen=True)
class Model:
    """A signature, a tree, a feature graph, and the zoomin link."""

    sig: Signature
    cstruct: CStructure
    fstruct: FStructure
    zoomin: dict[NodeId, NodeId]

    def __post_init__(self):
        object.__setattr__(self, "zoomin", dict(self.zoomin))

    @cached_property
    def node_order(self) -> tuple[NodeId, ...]:
        """Every node of both domains, in the deterministic model order;
        sorted once per model (both node sets are frozen).  An id in both
        domains appears twice, so the first ``len(cstruct.nodes)`` entries
        are the tree nodes."""
        return tuple(sorted(self.cstruct.nodes, key=node_key)) + tuple(
            sorted(self.fstruct.nodes, key=node_key)
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

    shared = c.nodes & f.nodes
    if shared:
        out.append(
            Violation(
                "duplicate-node-id",
                "ids used in both tree and f-structure",
                tuple(sorted(shared, key=node_key)),
            )
        )

    # --- tree shape ---
    if c.root not in c.nodes:
        out.append(Violation("tree-root-unknown", "root %r is not a node" % c.root))
    bad_refs = set()
    for n, ds in c.daughters.items():
        if n not in c.nodes:
            bad_refs.add(n)
        bad_refs.update(d for d in ds if d not in c.nodes)
        seen = set()
        for d in ds:
            if d in seen:
                out.append(
                    Violation(
                        "tree-duplicate-daughter",
                        "node occurs twice among the daughters of %r" % n,
                        (d,),
                    )
                )
            seen.add(d)
    for d, mo in c.mother.items():
        if d not in c.nodes or mo not in c.nodes:
            bad_refs.update(x for x in (d, mo) if x not in c.nodes)
    if bad_refs:
        out.append(
            Violation(
                "tree-unknown-ref",
                "links mention ids that are not tree nodes",
                tuple(sorted(bad_refs, key=node_key)),
            )
        )

    for n in tree_order:
        if n not in c.label:
            out.append(Violation("tree-label-missing", "node has no label", (n,)))

    # mother and daughters must tell the same story
    for n, ds in c.daughters.items():
        for d in ds:
            if c.mother.get(d) != n:
                out.append(
                    Violation(
                        "tree-mother-daughters-mismatch",
                        "%r is listed as a daughter of %r but records a "
                        "different mother" % (d, n),
                        (d, n),
                    )
                )
    for d, mo in c.mother.items():
        if d not in c.daughters.get(mo, ()):
            out.append(
                Violation(
                    "tree-mother-daughters-mismatch",
                    "%r records mother %r but is not among its daughters" % (d, mo),
                    (d, mo),
                )
            )

    if c.mother.get(c.root) is not None:
        out.append(Violation("tree-root-has-mother", "root has a mother", (c.root,)))
    for n in tree_order:
        if n != c.root and n not in c.mother:
            out.append(
                Violation("tree-orphan", "non-root node has no mother", (n,))
            )

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
            out.append(
                Violation(
                    "tree-cycle",
                    "daughter links form a cycle",
                    tuple(sorted(cyclic, key=node_key)),
                )
            )
        unreached = c.nodes - visited
        if unreached:
            out.append(
                Violation(
                    "tree-disconnected",
                    "nodes not reachable from the root",
                    tuple(sorted(unreached, key=node_key)),
                )
            )

    for n in tree_order:
        lab = c.label.get(n)
        if lab in sig.words and c.daughters.get(n, ()):
            out.append(
                Violation(
                    "tree-word-label-internal",
                    "word form %r labels a node with daughters" % lab,
                    (n,),
                )
            )
        if lab is not None and lab not in sig.cats and lab not in sig.words:
            out.append(
                Violation(
                    "label-not-in-signature",
                    "label %r is neither a category nor a word form" % lab,
                    (n,),
                )
            )

    # --- feature graph ---
    if not f.nodes:
        out.append(Violation("fstruct-empty", "f-structure has no nodes"))
    else:
        if f.initial not in f.nodes:
            out.append(
                Violation(
                    "fstruct-initial-unknown",
                    "initial node %r is not a node" % f.initial,
                )
            )
        bad = set()
        for w, table in f.trans.items():
            if w not in f.nodes:
                bad.add(w)
            for feat, w2 in table.items():
                if w2 not in f.nodes:
                    bad.add(w2)
                if feat not in sig.feats:
                    out.append(
                        Violation(
                            "feat-not-in-signature",
                            "transition uses undeclared feature %r" % feat,
                            (w,),
                        )
                    )
        bad.update(w for w in f.final if w not in f.nodes)
        bad.update(w for w in f.atomval if w not in f.nodes)
        if bad:
            out.append(
                Violation(
                    "fstruct-unknown-ref",
                    "links mention ids that are not f-structure nodes",
                    tuple(sorted(bad, key=node_key)),
                )
            )

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
                out.append(
                    Violation(
                        "fstruct-unreachable",
                        "nodes not reachable from the initial node",
                        tuple(sorted(unreached, key=node_key)),
                    )
                )

        for w in sorted(f.final, key=node_key):
            if f.trans.get(w):
                out.append(
                    Violation(
                        "fstruct-final-transition",
                        "final node has outgoing transitions",
                        (w,),
                    )
                )
        for w in sorted(f.atomval, key=node_key):
            if w not in f.final:
                out.append(
                    Violation(
                        "fstruct-valuation-nonfinal",
                        "valuation on non-final node",
                        (w,),
                    )
                )
        for w in sorted(f.final, key=node_key):
            if w not in f.atomval:
                out.append(
                    Violation(
                        "fstruct-final-unvalued",
                        "final node carries no atomic value",
                        (w,),
                    )
                )
        for w, a in sorted(f.atomval.items(), key=lambda kv: node_key(kv[0])):
            if a not in sig.atoms:
                out.append(
                    Violation(
                        "atom-not-in-signature",
                        "atomic value %r is not declared" % a,
                        (w,),
                    )
                )

    # --- zoomin ---
    for t, w in sorted(m.zoomin.items(), key=lambda kv: node_key(kv[0])):
        if t not in c.nodes:
            out.append(
                Violation("zoomin-domain", "zoomin defined on a non-tree id", (t,))
            )
        if w not in f.nodes:
            out.append(
                Violation(
                    "zoomin-range", "zoomin target is not an f-structure node", (t, w)
                )
            )

    return ValidationReport(tuple(out))


def fnode_names(initial, trans) -> dict:
    """The canonical f-node numbering of the nodes reachable from
    ``initial`` (none when it is None): ``f0`` for ``initial``, then
    ``f1..`` in breadth-first order, following each node's transitions
    ``trans[w]`` (feature -> successor) in sorted feature order.  Callers
    name the unreached nodes ``f<k>..`` after these, in an order of their
    own.  ``canonicalize`` renames feature nodes by it and the search
    names union-find classes by it as it extracts a model, so the two
    agree without a second renaming pass."""
    names = {}
    if initial is not None:
        names[initial] = "f0"
        queue = [initial]
        for w in queue:  # grows while it is walked
            table = trans.get(w)
            if table:
                for feat in sorted(table):
                    w2 = table[feat]
                    if w2 not in names:
                        names[w2] = "f%d" % len(names)
                        queue.append(w2)
    return names


def canonicalize(m: Model) -> Model:
    """Rename nodes into the canonical scheme: tree nodes ``n0..`` by
    preorder, f-nodes ``f0..`` by :func:`fnode_names` (breadth-first from
    the initial node following features in sorted order).

    Intended for valid models; unreachable f-nodes, if any, are appended
    in their old order so the operation is total.  A tree node reached
    twice from the root has no single preorder name, so it raises
    :class:`ModelFormatError`: daughter links that form a cycle name the
    node that closes it, and a shared daughter is named itself.
    """
    c, f = m.cstruct, m.fstruct

    tmap: dict[NodeId, NodeId] = {}
    stack = [c.root]
    while stack:
        n = stack.pop()
        if n in tmap:
            cycle_at = _first_cycle_node(c)
            if cycle_at is not None:
                raise ModelFormatError("daughter links form a cycle through node %r" % cycle_at)
            raise ModelFormatError("tree node %r is reached twice from the root" % n)
        tmap[n] = "n%d" % len(tmap)
        stack.extend(reversed(c.daughters.get(n, ())))

    fmap = fnode_names(f.initial if f.initial in f.nodes else None, f.trans)
    for w in sorted(f.nodes, key=node_key):
        fmap.setdefault(w, "f%d" % len(fmap))

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


def _first_cycle_node(c: CStructure) -> NodeId | None:
    """The first node, in preorder from the root, that a daughter link
    leads back to while it is still open (an ancestor of that link's
    source or its source itself); None when the links form no cycle."""
    state: dict[NodeId, bool] = {}  # True while open, False once closed
    stack: list[tuple[NodeId, bool]] = [(c.root, True)]
    while stack:
        n, entering = stack.pop()
        if not entering:
            state[n] = False
        elif state.get(n) is None:
            state[n] = True
            stack.append((n, False))
            stack.extend((d, True) for d in reversed(c.daughters.get(n, ())))
        elif state[n]:
            return n
    return None


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
# [] / {} for empty containers.  model_to_text writes it directly, because
# with an indent json.dumps runs its pure-Python encoder, and the text is
# also the dedup and sort key of parse_sentence; model_to_json parses it.
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


def model_to_text(m: Model) -> str:
    """The model's canonical JSON text (see the layout above)."""
    c, f = m.cstruct, m.fstruct
    order = m.node_order
    tree_nodes = [
        '{\n        "daughters": %s,\n        "id": %s,\n        "label": %s\n      }' % (
            _text_array([_quote(d) for d in c.daughters.get(n, ())], " " * 8),
            _quote(n),
            _quote(c.label.get(n, "")),
        )
        for n in order[: len(c.nodes)]
    ]
    f_nodes = []
    for w in order[len(c.nodes) :]:
        trans = _text_object(
            [(feat, _quote(w2)) for feat, w2 in sorted(f.trans.get(w, {}).items())], " " * 8
        )
        atom = '"atom": %s,\n        ' % _quote(f.atomval[w]) if w in f.atomval else ""
        f_nodes.append(
            '{\n        %s"id": %s,\n        "trans": %s\n      }' % (atom, _quote(w), trans)
        )
    return (
        '{\n  "fstruct": {\n    "initial": %s,\n    "nodes": %s\n  },\n'
        '  "signature": %s,\n'
        '  "tree": {\n    "nodes": %s,\n    "root": %s\n  },\n'
        '  "zoomin": %s\n}\n'
    ) % (
        _quote(f.initial),
        _text_array(f_nodes, " " * 4),
        m.sig._text_block,
        _text_array(tree_nodes, " " * 4),
        _quote(c.root),
        _text_object([(t, _quote(w)) for t, w in sorted(m.zoomin.items())], "  "),
    )


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
        trans[wid] = dict(t)
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

    return Model(sig, cstruct, fstruct, dict(z_doc))


def model_from_text(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("not valid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise ModelFormatError("not valid JSON: nested too deeply") from exc
    return model_from_json(doc)
