"""Seeded random structures and single-invariant corruptors for tests."""

import random

from lfgmc import (
    And,
    AtomLit,
    Bullet,
    CatLit,
    CStructure,
    CSTRUCT,
    Down,
    FALSE,
    Feat,
    FStructure,
    FSTRUCT,
    Iff,
    Implies,
    Model,
    Not,
    Or,
    PathEq,
    Signature,
    TRUE,
    Up,
    WordLit,
    Zoomin,
)

RAND_SIG = Signature(
    cats={"S", "NP", "VP", "Det", "N", "V"},
    atoms={"a", "sing", "pl", "pst", "girl", "walk"},
    feats={"subj", "obj", "spec", "num", "pred", "tense", "rel"},
    gf=(("subj",), ("obj",)),
    words={"a", "girl", "walks"},
)


def rand_model(rng: random.Random, sig: Signature = RAND_SIG, max_tree=8, max_f=8) -> Model:
    """A random valid model: random ordered tree, random reachable
    feature graph (re-entrancy and cycles allowed), random partial zoomin."""
    n_tree = rng.randint(1, max_tree)
    tree_ids = ["t%d" % k for k in range(n_tree)]
    daughters = {tree_ids[0]: []}
    for nid in tree_ids[1:]:
        parent = rng.choice(tree_ids[: tree_ids.index(nid)])
        pos = rng.randint(0, len(daughters[parent]))
        daughters[parent].insert(pos, nid)
        daughters[nid] = []
    label = {}
    cats = sorted(sig.cats)
    words = sorted(sig.words)
    for nid in tree_ids:
        if not daughters[nid] and words and rng.random() < 0.4:
            label[nid] = rng.choice(words)
        else:
            label[nid] = rng.choice(cats)
    cstruct = CStructure.build(tree_ids[0], {n: tuple(d) for n, d in daughters.items()}, label)

    n_f = rng.randint(1, max_f)
    f_ids = ["w%d" % k for k in range(n_f)]
    feats = sorted(sig.feats)
    atoms = sorted(sig.atoms)
    trans = {f_ids[0]: {}}
    attached = [f_ids[0]]
    for w in f_ids[1:]:
        # attach to an already-reachable node through a still-free feature
        slots = [(src, f) for src in attached for f in feats if f not in trans[src]]
        if not slots:
            break
        src, f = rng.choice(slots)
        trans[src][f] = w
        trans[w] = {}
        attached.append(w)
    f_ids = attached
    for _ in range(rng.randint(0, 3)):
        src = rng.choice(f_ids)
        free = [f for f in feats if f not in trans[src]]
        if free:
            trans[src][rng.choice(free)] = rng.choice(f_ids)
    atomval = {}
    for w in f_ids:
        if not trans[w] and rng.random() < 0.7:
            atomval[w] = rng.choice(atoms)
    fstruct = FStructure(
        frozenset(f_ids), f_ids[0], trans, frozenset(atomval), atomval
    )

    zoomin = {}
    for t in tree_ids:
        if rng.random() < 0.4:
            zoomin[t] = rng.choice(f_ids)
    return Model(sig, cstruct, fstruct, zoomin)


def rand_formula(rng: random.Random, sig: Signature = RAND_SIG, depth=5):
    feats = sorted(sig.feats)

    def leaf():
        pick = rng.randrange(8)
        if pick == 0:
            return TRUE
        if pick == 1:
            return FALSE
        if pick == 2:
            return CSTRUCT
        if pick == 3:
            return FSTRUCT
        if pick == 4:
            return CatLit(rng.choice(sorted(sig.cats)))
        if pick == 5:
            return AtomLit(rng.choice(sorted(sig.atoms)))
        if pick == 6 and sig.words:
            return WordLit(rng.choice(sorted(sig.words)))
        return PathEq(
            tuple(rng.choice(["up", "down"]) for _ in range(rng.randint(0, 2))),
            tuple(rng.choice(feats) for _ in range(rng.randint(0, 2))),
            tuple(rng.choice(["up", "down"]) for _ in range(rng.randint(0, 2))),
            tuple(rng.choice(feats) for _ in range(rng.randint(0, 2))),
        )

    def rec(d):
        if d <= 0 or rng.random() < 0.3:
            return leaf()
        pick = rng.randrange(10)
        if pick == 0:
            return Not(rec(d - 1))
        if pick == 1:
            return And(rec(d - 1), rec(d - 1))
        if pick == 2:
            return Or(rec(d - 1), rec(d - 1))
        if pick == 3:
            return Implies(rec(d - 1), rec(d - 1))
        if pick == 4:
            return Iff(rec(d - 1), rec(d - 1))
        if pick == 5:
            return Feat(rng.choice(feats), rec(d - 1))
        if pick == 6:
            return Up(rec(d - 1))
        if pick == 7:
            return Down(rec(d - 1))
        if pick == 8:
            return Zoomin(rec(d - 1))
        return Bullet(tuple(rec(d - 1) for _ in range(rng.randint(1, 3))))

    return rec(depth)


def rand_grammar(rng: random.Random, adjunct: bool = False) -> str:
    """The text of a small random grammar over the words u, v, w: every
    word has one to three entries, often of one category with different
    schemata, so candidates come in lexical variants of one tree shape;
    rule elements carry path equations and atom assignments (the empty
    path included); entries carry atoms and semantic forms; rules may be
    unary, cycles included.  With ``adjunct`` the grammar also has the
    adjunction rule ``S -> S {up=down} Y {(up f)=down}``, ``Y`` most often
    ``S``, whose attachment ambiguity gives one sentence many models, and
    the governable function ``g.f`` of two steps; both are drawn after the
    rest, so a seed gives the same other statements in either mode."""
    cats = ["S", "A", "B"]

    def path(*must):
        return " ".join(must or [rng.choice("fg") for _ in range(rng.randint(0, 2))])

    def side(kw, p):
        return "(%s %s)" % (kw, p) if p else kw

    def rule_schema():
        if rng.random() < 0.7:
            return "%s=%s" % (side("up", path()), side("down", path()))
        return "%s=%s" % (side("up", path() if rng.random() < 0.2 else path("f")), rng.choice("ab"))

    def atom_schema():
        return "%s=%s" % (side("up", path() if rng.random() < 0.2 else path("g")), rng.choice("ab"))

    def block(make, semform=False):
        parts = [make() for _ in range(rng.choice((0, 1, 1, 2)))]
        if semform and rng.random() < 0.5:
            args = rng.sample(["f", "g"], rng.randint(0, 2))
            parts.append("(up pred)=%s(%s)" % (rng.choice("pq"), ", ".join(args)))
        return " {%s}" % "; ".join(parts) if parts else ""

    lines = [
        "signature { cat: S A B; atom: a b p q; feat: f g pred rel; gf: f g; }",
        "start S;",
    ]
    for k in range(rng.randint(2, 6)):
        lhs = "S" if k == 0 else rng.choice(cats)
        rhs = " ".join(rng.choice(cats) + block(rule_schema) for _ in range(rng.choice((1, 2, 2, 3))))
        lines.append("rule %s -> %s;" % (lhs, rhs))
    for word in "uvw":
        cat = rng.choice(cats)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                cat = rng.choice(cats)
            lines.append('lex "%s" %s%s;' % (word, cat, block(atom_schema, semform=True)))
    if adjunct:
        lines[0] = lines[0].replace("gf: f g;", "gf: f g g.f;")
        lines.append("rule S -> S {up=down} %s {(up f)=down};" % rng.choice(["S"] + cats))
    return "\n".join(lines) + "\n"


def embedding_grammar_text(nouns):
    """The sentential-embedding grammar ("the N said that ... the N
    slept") with one noun entry per name in ``nouns``."""
    lines = [
        "signature {",
        "  cat: S NP VP CP Det N V C;",
        "  atom: the say sleep %s;" % " ".join(nouns),
        "  feat: subj comp spec pred rel;",
        "  gf: subj comp;",
        "}",
        "start S;",
        "rule S -> NP {(up subj)=down} VP {up=down};",
        "rule NP -> Det N;",
        "rule VP -> V {up=down} CP {(up comp)=down};",
        "rule VP -> V {up=down};",
        "rule CP -> C {up=down} S {up=down};",
        'lex "the" Det {(up spec)=the};',
        'lex "said" V {(up pred)=say(subj, comp)};',
        'lex "slept" V {(up pred)=sleep(subj)};',
        'lex "that" C;',
    ]
    lines += ['lex "%s" N {(up pred)=%s()};' % (n, n) for n in nouns]
    return "\n".join(lines) + "\n"


def chain_model_doc(lexicon, nouns, swap=None):
    """The model document of "the N said that ... the N slept" under
    ``embedding_grammar_text(lexicon)``, one clause per name in ``nouns``,
    written out by hand in the documented JSON layout (the construction
    of the benchmark's check-models inputs).  ``swap=(clause, word)``
    replaces that clause's noun leaf by another word, which breaks the
    lexical axiom at the clause's N preterminal.  Returns (document, N
    preterminal id of the swapped clause or None)."""
    tree = []
    fnodes = {}
    zoomin = {}
    counter = {"n": 0, "f": 0}
    failing = None

    def tnode(label, daughters):
        # ids follow creation order, so node "nK" is tree[K]
        nid = "n%d" % counter["n"]
        counter["n"] += 1
        tree.append({"id": nid, "label": label, "daughters": daughters})
        return nid

    def fnode(atom=None):
        wid = "f%d" % counter["f"]
        counter["f"] += 1
        fnodes[wid] = {"id": wid, "trans": {}}
        if atom is not None:
            fnodes[wid]["atom"] = atom
        return wid

    def pre(cat, word):
        # preorder ids: the preterminal before its leaf
        nid = tnode(cat, [])
        leaf = tnode(word, [])
        tree[-2]["daughters"] = [leaf]
        return nid

    clause_f = [fnode() for _ in nouns]
    for i, noun in enumerate(nouns):
        f = clause_f[i]
        last = i == len(nouns) - 1
        s = tnode("S", [])
        np_ = tnode("NP", [])
        det = pre("Det", "the")
        word = swap[1] if swap is not None and swap[0] == i else noun
        n = pre("N", word)
        if word != noun:
            failing = n
        tree[int(np_[1:])]["daughters"] = [det, n]
        vp = tnode("VP", [])
        v = pre("V", "slept" if last else "said")
        tree[int(s[1:])]["daughters"] = [np_, vp]
        g = fnode()
        gpred = fnode()
        fnodes[g]["trans"] = {"pred": gpred, "spec": fnode("the")}
        fnodes[gpred]["trans"] = {"rel": fnode(noun)}
        pred = fnode()
        fnodes[f]["trans"] = {"pred": pred, "subj": g}
        fnodes[pred]["trans"] = {"rel": fnode("sleep" if last else "say"), "subj": g}
        zoomin.update({s: f, np_: g, vp: f, v: f})
        if last:
            tree[int(vp[1:])]["daughters"] = [v]
        else:
            cp = tnode("CP", [])
            c = pre("C", "that")
            tree[int(vp[1:])]["daughters"] = [v, cp]
            # the next clause's S is created next, so its id is known
            tree[int(cp[1:])]["daughters"] = [c, "n%d" % counter["n"]]
            nxt = clause_f[i + 1]
            fnodes[f]["trans"]["comp"] = nxt
            fnodes[pred]["trans"]["comp"] = nxt
            zoomin.update({cp: nxt, c: nxt})
    doc = {
        "signature": {
            "cats": sorted("S NP VP CP Det N V C".split()),
            "atoms": sorted({"the", "say", "sleep"} | set(lexicon)),
            "feats": sorted("subj comp spec pred rel".split()),
            "gf": [["subj"], ["comp"]],
            "words": sorted({"the", "said", "slept", "that"} | set(lexicon)),
        },
        "tree": {"root": "n0", "nodes": tree},
        "fstruct": {"initial": clause_f[0], "nodes": list(fnodes.values())},
        "zoomin": zoomin,
    }
    return doc, failing


# ---------------------------------------------------------------------------
# Corruptors: each flips one invariant and names the violation class the
# validator must report.  A corruptor takes any model, valid or already
# corrupted, and returns None when it does not offer the needed material
# (it is then skipped).
# ---------------------------------------------------------------------------


def _internal_nodes(m):
    return [n for n in sorted(m.cstruct.nodes) if m.cstruct.daughters.get(n)]


def _corrupt_sig_overlap(rng, m):
    cat = rng.choice(sorted(m.sig.cats))
    sig = Signature(m.sig.cats, m.sig.atoms | {cat}, m.sig.feats, m.sig.gf, m.sig.words)
    return Model(sig, m.cstruct, m.fstruct, m.zoomin)


def _corrupt_sig_empty(rng, m):
    if m.fstruct.atomval:
        return None
    sig = Signature(m.sig.cats, frozenset(), m.sig.feats, m.sig.gf, m.sig.words)
    return Model(sig, m.cstruct, m.fstruct, m.zoomin)


def _corrupt_gf(rng, m):
    sig = Signature(
        m.sig.cats, m.sig.atoms, m.sig.feats, m.sig.gf + (("bogusfeat",),), m.sig.words
    )
    return Model(sig, m.cstruct, m.fstruct, m.zoomin)


def _corrupt_label(rng, m):
    n = rng.choice(sorted(m.cstruct.nodes))
    label = dict(m.cstruct.label)
    label[n] = "Bogus_Label_77"
    c = m.cstruct
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, c.mother, c.daughters, label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_word_internal(rng, m):
    internals = _internal_nodes(m)
    if not internals or not m.sig.words:
        return None
    n = rng.choice(internals)
    label = dict(m.cstruct.label)
    label[n] = rng.choice(sorted(m.sig.words))
    c = m.cstruct
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, c.mother, c.daughters, label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_label_missing(rng, m):
    labelled = sorted(n for n in m.cstruct.nodes if n in m.cstruct.label)
    if not labelled:
        return None
    n = rng.choice(labelled)
    label = dict(m.cstruct.label)
    del label[n]
    c = m.cstruct
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, c.mother, c.daughters, label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_mismatch(rng, m):
    c = m.cstruct
    candidates = [n for n in sorted(c.nodes) if n != c.root]
    if len(c.nodes) < 3 or not candidates:
        return None
    n = rng.choice(candidates)
    others = [x for x in sorted(c.nodes) if x not in (n, c.mother.get(n))]
    if not others:
        return None
    mother = dict(c.mother)
    mother[n] = rng.choice(others)
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, mother, c.daughters, c.label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_duplicate_daughter(rng, m):
    internals = _internal_nodes(m)
    if not internals:
        return None
    n = rng.choice(internals)
    c = m.cstruct
    ds = c.daughters[n]
    daughters = dict(c.daughters)
    daughters[n] = ds + (ds[0],)
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, c.mother, daughters, c.label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_disconnected(rng, m):
    c = m.cstruct
    nodes = set(c.nodes) | {"t_extra"}
    label = dict(c.label)
    label["t_extra"] = sorted(m.sig.cats)[0]
    daughters = dict(c.daughters)
    daughters["t_extra"] = ()
    return Model(
        m.sig,
        CStructure(frozenset(nodes), c.root, c.mother, daughters, label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_cycle(rng, m):
    c = m.cstruct
    leaves = [n for n in sorted(c.nodes) if not c.daughters.get(n)]
    if not leaves or len(c.nodes) < 2:
        return None
    leaf = rng.choice(leaves)
    daughters = dict(c.daughters)
    daughters[leaf] = (c.root,)
    mother = dict(c.mother)
    mother[c.root] = leaf
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, mother, daughters, c.label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_duplicate_id(rng, m):
    if not m.fstruct.nodes:
        return None
    old = rng.choice(sorted(m.fstruct.nodes))
    new = rng.choice(sorted(m.cstruct.nodes))

    def sub(x):
        return new if x == old else x

    f = m.fstruct
    fstruct = FStructure(
        frozenset(sub(w) for w in f.nodes),
        sub(f.initial),
        {sub(w): {ft: sub(t) for ft, t in tab.items()} for w, tab in f.trans.items()},
        frozenset(sub(w) for w in f.final),
        {sub(w): a for w, a in f.atomval.items()},
    )
    zoomin = {t: sub(w) for t, w in m.zoomin.items()}
    return Model(m.sig, m.cstruct, fstruct, zoomin)


def _corrupt_unreachable(rng, m):
    f = m.fstruct
    fstruct = FStructure(
        f.nodes | {"w_island"},
        f.initial,
        {**{w: dict(t) for w, t in f.trans.items()}, "w_island": {}},
        f.final,
        f.atomval,
    )
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_final_transition(rng, m):
    f = m.fstruct
    finals = sorted(f.final)
    if not finals:
        return None
    w = rng.choice(finals)
    trans = {x: dict(t) for x, t in f.trans.items()}
    trans.setdefault(w, {})[sorted(m.sig.feats)[0]] = f.initial
    fstruct = FStructure(f.nodes, f.initial, trans, f.final, f.atomval)
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_valuation_nonfinal(rng, m):
    f = m.fstruct
    nonfinal = [w for w in sorted(f.nodes) if w not in f.final]
    if not nonfinal or not m.sig.atoms:
        return None
    w = rng.choice(nonfinal)
    atomval = dict(f.atomval)
    atomval[w] = sorted(m.sig.atoms)[0]
    fstruct = FStructure(f.nodes, f.initial, f.trans, f.final, atomval)
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_final_unvalued(rng, m):
    f = m.fstruct
    finals = sorted(f.final)
    if not finals:
        return None
    w = rng.choice(finals)
    atomval = dict(f.atomval)
    atomval.pop(w, None)
    fstruct = FStructure(f.nodes, f.initial, f.trans, f.final, atomval)
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_bad_atom(rng, m):
    f = m.fstruct
    if not f.atomval:
        return None
    w = rng.choice(sorted(f.atomval))
    atomval = dict(f.atomval)
    atomval[w] = "bogusatom"
    fstruct = FStructure(f.nodes, f.initial, f.trans, f.final, atomval)
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_bad_feat(rng, m):
    f = m.fstruct
    sources = [w for w in sorted(f.nodes) if f.trans.get(w)]
    if not sources:
        return None
    w = rng.choice(sources)
    trans = {x: dict(t) for x, t in f.trans.items()}
    feat = rng.choice(sorted(trans[w]))
    trans[w]["bogusfeat"] = trans[w].pop(feat)
    fstruct = FStructure(f.nodes, f.initial, trans, f.final, f.atomval)
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_zoomin_domain(rng, m):
    if not m.fstruct.nodes:
        return None
    zoomin = dict(m.zoomin)
    zoomin["t_ghost"] = sorted(m.fstruct.nodes)[0]
    return Model(m.sig, m.cstruct, m.fstruct, zoomin)


def _corrupt_zoomin_range(rng, m):
    zoomin = dict(m.zoomin)
    zoomin[m.cstruct.root] = "w_ghost"
    return Model(m.sig, m.cstruct, m.fstruct, zoomin)


def _corrupt_initial(rng, m):
    f = m.fstruct
    fstruct = FStructure(f.nodes, "w_ghost", f.trans, f.final, f.atomval)
    return Model(m.sig, m.cstruct, fstruct, m.zoomin)


def _corrupt_empty_fstruct(rng, m):
    fstruct = FStructure(frozenset(), "w_ghost", {}, frozenset(), {})
    return Model(m.sig, m.cstruct, fstruct, {})


def _corrupt_unknown_ref(rng, m):
    internals = _internal_nodes(m)
    if not internals:
        return None
    n = rng.choice(internals)
    c = m.cstruct
    daughters = dict(c.daughters)
    daughters[n] = daughters[n] + ("t_ghost",)
    return Model(
        m.sig,
        CStructure(c.nodes, c.root, c.mother, daughters, c.label),
        m.fstruct,
        m.zoomin,
    )


def _corrupt_root_unknown(rng, m):
    c = m.cstruct
    return Model(
        m.sig,
        CStructure(c.nodes, "t_ghost", c.mother, c.daughters, c.label),
        m.fstruct,
        m.zoomin,
    )


#: (expected violation class, corruptor)
CORRUPTORS = [
    ("signature-overlap", _corrupt_sig_overlap),
    ("signature-empty", _corrupt_sig_empty),
    ("signature-gf-feature", _corrupt_gf),
    ("label-not-in-signature", _corrupt_label),
    ("tree-word-label-internal", _corrupt_word_internal),
    ("tree-label-missing", _corrupt_label_missing),
    ("tree-mother-daughters-mismatch", _corrupt_mismatch),
    ("tree-duplicate-daughter", _corrupt_duplicate_daughter),
    ("tree-disconnected", _corrupt_disconnected),
    ("tree-cycle", _corrupt_cycle),
    ("tree-unknown-ref", _corrupt_unknown_ref),
    ("tree-root-unknown", _corrupt_root_unknown),
    ("duplicate-node-id", _corrupt_duplicate_id),
    ("fstruct-unreachable", _corrupt_unreachable),
    ("fstruct-final-transition", _corrupt_final_transition),
    ("fstruct-valuation-nonfinal", _corrupt_valuation_nonfinal),
    ("fstruct-final-unvalued", _corrupt_final_unvalued),
    ("fstruct-initial-unknown", _corrupt_initial),
    ("fstruct-empty", _corrupt_empty_fstruct),
    ("atom-not-in-signature", _corrupt_bad_atom),
    ("feat-not-in-signature", _corrupt_bad_feat),
    ("zoomin-domain", _corrupt_zoomin_domain),
    ("zoomin-range", _corrupt_zoomin_range),
]
