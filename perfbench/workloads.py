"""Seeded inputs for the four workloads.

Every workload is a ladder of input sizes.  The seed picks lexical
material only (word spellings, which nouns fill a sentence, which leaf
of a model is perturbed); the shapes, and therefore every expected
count, are the same for every seed.
"""

from __future__ import annotations

import random

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
FEATS = ("subj", "obj", "comp", "adj", "spec", "pred", "rel", "num")
RESERVED = {"true", "false", "cstruct", "fstruct", "up", "down", "zoomin", "bullet"}

# C(k+1): attachment ambiguity of "V NP (P NP)^k" with NP and VP attachment.
CATALAN = (1, 2, 5, 14, 42)

PP_LADDER = (0, 1, 2, 3, 4)
AGREE_LADDER = (0, 1, 2, 3)
EMBED_LADDER = (1, 2, 3, 4)
EMBED_NOUNS = 500
CHECK_DEPTH = 12
CHECK_MODELS = 8  # half of them perturbed
PROBE_SIZES = (500, 1500, 5000)
PROBE_DEPTH = 2


def pseudo_words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct lowercase CVCVCV identifiers."""
    out: list[str] = []
    seen = set(FEATS) | RESERVED | {"sg", "pl"}
    while len(out) < count:
        w = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


class Case:
    """One distinct input of a parse workload and its hand-derived
    expectation."""

    def __init__(self, point: int, tokens: list[str], models: int, clashes: int):
        self.point = point
        self.tokens = tokens
        self.models = models
        self.clashes = clashes


# ---------------------------------------------------------------------------
# pp-ladder and agree-clash
# ---------------------------------------------------------------------------


def pp_grammar(rng: random.Random, agree: bool):
    """PP-attachment grammar and its vocabulary.  With ``agree`` every
    noun is ambiguous between num sg and pl and the determiner fixes one
    of them, so all but one lexical choice per tree clash."""
    det, subj_n, verb, obj_n, prep, pp_n = pseudo_words(rng, 6)
    det_num = rng.choice(("sg", "pl"))
    atoms = sorted({det, subj_n, verb, obj_n, prep, pp_n} | ({"sg", "pl"} if agree else set()))
    feats = "subj obj adj spec pred rel" + (" num" if agree else "")
    lines = [
        "signature {",
        "  cat: S NP VP PP Det N V P;",
        "  atom: %s;" % " ".join(atoms),
        "  feat: %s;" % feats,
        "  gf: subj obj;",
        "}",
        "start S;",
        "rule S -> NP {(up subj)=down} VP {up=down};",
        "rule NP -> Det N;",
        "rule NP -> NP {up=down} PP {(up adj)=down};",
        "rule VP -> V {up=down} NP {(up obj)=down};",
        "rule VP -> VP {up=down} PP {(up adj)=down};",
        "rule PP -> P {up=down} NP {(up obj)=down};",
    ]
    det_num_schema = "; (up num)=%s" % det_num if agree else ""
    lines.append('lex "%s" Det {(up spec)=%s%s};' % (det, det, det_num_schema))
    for noun in sorted({subj_n, obj_n, pp_n}):
        for num in ("sg", "pl") if agree else (None,):
            extra = "; (up num)=%s" % num if num else ""
            lines.append('lex "%s" N {(up pred)=%s()%s};' % (noun, noun, extra))
    lines.append('lex "%s" V {(up pred)=%s(subj, obj)};' % (verb, verb))
    lines.append('lex "%s" P {(up pred)=%s(obj)};' % (prep, prep))
    text = "\n".join(lines) + "\n"
    ladder = AGREE_LADDER if agree else PP_LADDER
    cases = []
    for k in ladder:
        tokens = [det, subj_n, verb, det, obj_n] + [prep, det, pp_n] * k
        models = CATALAN[k]
        nouns = 2 + k
        clashes = models * (2**nouns - 1) if agree else 0
        cases.append(Case(k, tokens, models, clashes))
    return text, cases


# ---------------------------------------------------------------------------
# embed-lexicon, check-models and the lexicon-size probe
# ---------------------------------------------------------------------------


class EmbedVocab:
    """Seeded spellings for the embedding grammar: determiner, "said",
    "slept", "that", the atom of say's pred, and ``nouns`` nouns."""

    def __init__(self, rng: random.Random, nouns: int):
        words = pseudo_words(rng, nouns + 5)
        self.det, self.said, self.slept, self.that, self.say_rel = words[:5]
        self.sleep_rel = self.slept
        # alphabetical, so a noun's place in the lexicon and in the
        # sorted word alphabet agree
        self.nouns = sorted(words[5:])

    def spread_nouns(self, rng: random.Random, count: int) -> list[str]:
        """``count`` nouns, one from each of ``count`` equal slices of
        the lexicon, in shuffled order.  Scans over the lexicon then cost
        about the same whatever the seed."""
        size = len(self.nouns)
        picks = [self.nouns[(i * size + rng.randrange(size)) // count] for i in range(count)]
        rng.shuffle(picks)
        return picks

    def grammar_text(self) -> str:
        atoms = [self.det, self.say_rel, self.sleep_rel] + self.nouns
        lines = [
            "signature {",
            "  cat: S NP VP CP Det N V C;",
            "  atom: %s;" % " ".join(atoms),
            "  feat: subj comp spec pred rel;",
            "  gf: subj comp;",
            "}",
            "start S;",
            "rule S -> NP {(up subj)=down} VP {up=down};",
            "rule NP -> Det N;",
            "rule VP -> V {up=down} CP {(up comp)=down};",
            "rule VP -> V {up=down};",
            "rule CP -> C {up=down} S {up=down};",
            'lex "%s" Det {(up spec)=%s};' % (self.det, self.det),
            'lex "%s" V {(up pred)=%s(subj, comp)};' % (self.said, self.say_rel),
            'lex "%s" V {(up pred)=%s(subj)};' % (self.slept, self.sleep_rel),
            'lex "%s" C;' % self.that,
        ]
        lines += ['lex "%s" N {(up pred)=%s()};' % (n, n) for n in self.nouns]
        return "\n".join(lines) + "\n"

    def chain(self, nouns: list[str]) -> list[str]:
        """"the N said that ... the N slept" with one clause per noun."""
        tokens: list[str] = []
        for noun in nouns[:-1]:
            tokens += [self.det, noun, self.said, self.that]
        return tokens + [self.det, nouns[-1], self.slept]


def embed_cases(rng: random.Random, vocab: EmbedVocab, variants: int) -> list[list[Case]]:
    """``variants`` rounds of the depth ladder; each round draws fresh
    nouns from the lexicon, one per clause."""
    rounds = []
    for _ in range(variants):
        rounds.append(
            [Case(d, vocab.chain(vocab.spread_nouns(rng, d + 1)), 1, 0) for d in EMBED_LADDER]
        )
    return rounds


def chain_model_doc(vocab: EmbedVocab, nouns: list[str], swap: tuple[int, str] | None):
    """Model document of the chain over ``nouns``, written out by hand
    in the documented JSON layout.  ``swap=(clause, word)`` replaces that
    clause's noun leaf by another word, which breaks the lexical axiom
    at the clause's N preterminal.  Returns (document, N preterminal id
    of the swapped clause or None)."""
    tree: list[dict] = []
    fnodes: dict[str, dict] = {}
    zoomin: dict[str, str] = {}
    counter = {"n": 0, "f": 0}
    failing = None

    def tnode(label: str, daughters: list[str]) -> str:
        # ids follow creation order, so node "nK" is tree[K]
        nid = "n%d" % counter["n"]
        counter["n"] += 1
        tree.append({"id": nid, "label": label, "daughters": daughters})
        return nid

    def fnode(atom: str | None = None) -> str:
        wid = "f%d" % counter["f"]
        counter["f"] += 1
        fnodes[wid] = {"id": wid, "trans": {}}
        if atom is not None:
            fnodes[wid]["atom"] = atom
        return wid

    def pre(cat: str, word: str) -> str:
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
        det = pre("Det", vocab.det)
        word = swap[1] if swap is not None and swap[0] == i else noun
        n = pre("N", word)
        if word != noun:
            failing = n
        tree[int(np_[1:])]["daughters"] = [det, n]
        vp = tnode("VP", [])
        v = pre("V", vocab.slept if last else vocab.said)
        tree[int(s[1:])]["daughters"] = [np_, vp]
        g = fnode()
        gpred = fnode()
        fnodes[g]["trans"] = {"pred": gpred, "spec": fnode(vocab.det)}
        fnodes[gpred]["trans"] = {"rel": fnode(noun)}
        pred = fnode()
        fnodes[f]["trans"] = {"pred": pred, "subj": g}
        fnodes[pred]["trans"] = {"rel": fnode(vocab.sleep_rel if last else vocab.say_rel), "subj": g}
        zoomin.update({s: f, np_: g, vp: f, v: f})
        if last:
            tree[int(vp[1:])]["daughters"] = [v]
        else:
            cp = tnode("CP", [])
            c = pre("C", vocab.that)
            tree[int(vp[1:])]["daughters"] = [v, cp]
            # the next clause's S is created next, so its id is known
            tree[int(cp[1:])]["daughters"] = [c, "n%d" % counter["n"]]
            nxt = clause_f[i + 1]
            fnodes[f]["trans"]["comp"] = nxt
            fnodes[pred]["trans"]["comp"] = nxt
            zoomin.update({cp: nxt, c: nxt})
    atoms = sorted({vocab.det, vocab.say_rel, vocab.sleep_rel} | set(vocab.nouns))
    doc = {
        "signature": {
            "cats": sorted("S NP VP CP Det N V C".split()),
            "atoms": atoms,
            "feats": sorted("subj comp spec pred rel".split()),
            "gf": [["subj"], ["comp"]],
            "words": sorted({vocab.det, vocab.said, vocab.slept, vocab.that} | set(vocab.nouns)),
        },
        "tree": {"root": "n0", "nodes": tree},
        "fstruct": {"initial": clause_f[0], "nodes": list(fnodes.values())},
        "zoomin": zoomin,
    }
    return doc, failing


def check_inputs(rng: random.Random, vocab: EmbedVocab):
    """``CHECK_MODELS`` chain models with ``CHECK_DEPTH`` embedded
    clauses.  Every second one has the noun leaf of its last clause
    swapped for another noun, so the lexical axiom fails there and
    nowhere else; the last clause keeps the check about as long as on
    an intact model.  Returns (document, failing N preterminal or None)
    pairs."""
    out = []
    for k in range(CHECK_MODELS):
        nouns = vocab.spread_nouns(rng, CHECK_DEPTH + 1)
        swap = None
        if k % 2:
            other = rng.choice([w for w in vocab.nouns if w not in nouns])
            swap = (len(nouns) - 1, other)
        out.append(chain_model_doc(vocab, nouns, swap))
    return out


def doc_to_model(lf, doc):
    """A model document turned into a ``Model`` with the constructors,
    for the reference check (the program's own reader is under test)."""
    s = doc["signature"]
    sig = lf.Signature(s["cats"], s["atoms"], s["feats"], [tuple(g) for g in s["gf"]], s["words"])
    nodes = doc["tree"]["nodes"]
    cstruct = lf.CStructure.build(
        doc["tree"]["root"],
        {n["id"]: tuple(n["daughters"]) for n in nodes},
        {n["id"]: n["label"] for n in nodes},
    )
    fnodes = doc["fstruct"]["nodes"]
    trans = {w["id"]: dict(w["trans"]) for w in fnodes}
    atomval = {w["id"]: w["atom"] for w in fnodes if "atom" in w}
    fstruct = lf.FStructure(
        frozenset(trans), doc["fstruct"]["initial"], trans, frozenset(atomval), atomval
    )
    return lf.Model(sig, cstruct, fstruct, dict(doc["zoomin"]))
