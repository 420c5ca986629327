"""Independent reference implementations used only by the tests.

Nothing here shares code with the satisfaction relation or the search
pipeline it checks:

* ``denotation`` evaluates formulas bottom-up as node sets, with path
  equalities done by explicit relation composition over pair sets;
  ``oracle_valid`` derives validity from it.
* ``pointwise_sat`` is the original one-node-at-a-time truth relation,
  kept verbatim as a reference for models the validator rejects (the
  denotation oracle clips to the two domains, so it cannot speak about
  dangling ids).
* ``oracle_parse`` re-does parsing from the *compiled theory* instead of
  the grammar source: candidate trees come from matching licensing and
  lexical disjuncts over spans, and the defining equations are solved by
  naive saturation over explicit path-term equivalence classes (batch
  component recomputation, no union-find).  Validity filtering uses the
  denotation oracle.
* ``reference_g_tokenize`` is the original character-at-a-time grammar
  tokenizer, kept verbatim apart from its name, as the reference for the
  regular-expression scanner that replaced it; it has its own token type.
* ``reference_parse_grammar`` is the original method-per-construct
  grammar parser, kept verbatim apart from its class name and run on
  ``reference_g_tokenize``, as the reference for the token-dispatch
  parser that replaced it.
* ``reference_parse_formula`` is the original formula reader: a
  character-at-a-time tokenizer that builds a positioned token object per
  token, and the recursive parser over those tokens with its own nesting
  limit (``MAX_NESTING``, ``_GROUP_LEVELS``), kept verbatim apart from
  names, as the reference for the formula parser that reads through the
  scanner it shares with the grammar reader.
* ``reference_names`` and ``reference_validate_names`` are the original
  generic pre-order names walk (``_children`` and ``_own_names`` per
  subformula) and the first-undeclared-name check built on it, kept
  verbatim, as the references for ``Formula.names`` and
  ``validate_names``.
* ``reference_render_formula`` is the original renderer, which loops
  over a run of prefix operators and recurses through the operands of
  every other connective, kept verbatim apart from names, as the
  reference for the renderer that writes through one explicit stack.
* ``reference_model_to_text`` is the original serializer, which builds
  the JSON document and hands it to ``json.dumps``, and
  ``reference_canonicalize`` the original renaming that always rebuilds
  both structures; both are kept verbatim apart from their names, as the
  references for the direct text writer and for ``canonicalize``.
  ``oracle_parse`` and ``blind_parse`` use them, so the benchmark's
  reference digests do not share the writer under test.
* ``reference_validate_model`` is the original structural validator,
  which walks and sorts the nodes of every group of checks, with its own
  copy of the signature checks and its own node order, kept verbatim
  apart from those and its name, as the reference for ``validate_model``
  (whose reports on corrupted and near-miss models must equal its own)
  and for the search's construction-time structure check, which calls
  no validator on well-declared grammars; ``oracle_parse``,
  ``blind_parse`` and ``reference_two_phase_parse`` use it.
* ``reference_two_phase_parse`` is the original candidate loop of
  ``parse_sentence``, with its skeleton enumerator, recursive tree
  builder, union-find and one-candidate-at-a-time equation solver, kept
  verbatim apart from names, as the reference for the solver that shares
  a tree shape's phrase equations and lexical prefixes across
  candidates.  It returns its own outcome and rejection types and uses
  ``reference_canonicalize`` and ``reference_model_to_text``.
* ``blind_parse`` enumerates every preterminal-form tree, every
  f-structure and every zoomin map within tiny bounds, filters by
  validity, and keeps the subsumption-minimal models per tree.  Only
  usable for very small signatures; it backstops the other two.
"""

import json
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import NamedTuple

from lfgmc import (
    And,
    AnnotatedRule,
    AtomLit,
    AtomValueSchema,
    Bullet,
    CatLit,
    CSTRUCT,
    CStructConst,
    CStructure,
    Down,
    FALSE,
    FalseF,
    Feat,
    Formula,
    FormulaSyntaxError,
    FSTRUCT,
    FStructConst,
    FStructure,
    Grammar,
    GrammarSyntaxError,
    Iff,
    Implies,
    LexEntry,
    Model,
    Not,
    Or,
    PathEq,
    PathEqSchema,
    RuleElement,
    SemForm,
    Signature,
    SignatureError,
    TRUE,
    TrueF,
    Up,
    WordLit,
    Zoomin,
)
from lfgmc.errors import GrammarError
from lfgmc.grammar import PRED_FEAT, REL_FEAT
from lfgmc.model import NodeId, ValidationReport, Violation
from lfgmc.semantics import valid

# ---------------------------------------------------------------------------
# Denotation-set semantics
# ---------------------------------------------------------------------------


def _compose(pairs, step):
    index = defaultdict(set)
    for a, b in step:
        index[a].add(b)
    return {(a, c) for (a, b) in pairs for c in index[b]}


def _walk_pairs(m, tree_steps, feat_steps):
    pairs = {(t, t) for t in m.cstruct.nodes}
    for s in tree_steps:
        if s == "up":
            step = {(d, mo) for d, mo in m.cstruct.mother.items()}
        else:
            step = {
                (n, d) for n, ds in m.cstruct.daughters.items() for d in ds
            }
        pairs = _compose(pairs, step)
    pairs = _compose(pairs, set(m.zoomin.items()))
    for feat in feat_steps:
        step = {
            (w, table[feat])
            for w, table in m.fstruct.trans.items()
            if feat in table
        }
        pairs = _compose(pairs, step)
    return pairs


def denotation(m, phi) -> frozenset:
    """The set of nodes of both domains at which ``phi`` holds."""
    tree = frozenset(m.cstruct.nodes)
    fset = frozenset(m.fstruct.nodes)
    alln = tree | fset
    if isinstance(phi, TrueF):
        return alln
    if isinstance(phi, FalseF):
        return frozenset()
    if isinstance(phi, CStructConst):
        return tree
    if isinstance(phi, FStructConst):
        return fset
    if isinstance(phi, (CatLit, WordLit)):
        return frozenset(t for t in tree if m.cstruct.label.get(t) == phi.name)
    if isinstance(phi, AtomLit):
        return frozenset(
            w
            for w in fset
            if w in m.fstruct.final and m.fstruct.atomval.get(w) == phi.name
        )
    if isinstance(phi, Not):
        return alln - denotation(m, phi.sub)
    if isinstance(phi, And):
        return denotation(m, phi.left) & denotation(m, phi.right)
    if isinstance(phi, Or):
        return denotation(m, phi.left) | denotation(m, phi.right)
    if isinstance(phi, Implies):
        return (alln - denotation(m, phi.left)) | denotation(m, phi.right)
    if isinstance(phi, Iff):
        left, right = denotation(m, phi.left), denotation(m, phi.right)
        return (left & right) | ((alln - left) & (alln - right))
    if isinstance(phi, Feat):
        sub = denotation(m, phi.sub)
        return frozenset(
            w
            for w in fset
            if m.fstruct.trans.get(w, {}).get(phi.feat) in sub
        )
    if isinstance(phi, Up):
        sub = denotation(m, phi.sub)
        return frozenset(t for t in tree if m.cstruct.mother.get(t) in sub)
    if isinstance(phi, Down):
        sub = denotation(m, phi.sub)
        return frozenset(
            t for t in tree if any(d in sub for d in m.cstruct.daughters.get(t, ()))
        )
    if isinstance(phi, Zoomin):
        sub = denotation(m, phi.sub)
        return frozenset(t for t in tree if m.zoomin.get(t) in sub)
    if isinstance(phi, Bullet):
        subs = [denotation(m, a) for a in phi.args]
        out = set()
        for t in tree:
            ds = m.cstruct.daughters.get(t, ())
            if len(ds) == len(subs) and all(d in s for d, s in zip(ds, subs)):
                out.add(t)
        return frozenset(out)
    if isinstance(phi, PathEq):
        left = _walk_pairs(m, phi.left_tree, phi.left_feats)
        right = _walk_pairs(m, phi.right_tree, phi.right_feats)
        lmap, rmap = defaultdict(set), defaultdict(set)
        for a, b in left:
            lmap[a].add(b)
        for a, b in right:
            rmap[a].add(b)
        return frozenset(t for t in tree if lmap[t] & rmap[t])
    raise TypeError(phi)


def oracle_valid(m, phi):
    """None when the denotation covers every node; else the least gap."""
    den = denotation(m, phi)
    for n in m.all_nodes():
        if n not in den:
            return n
    return None


# ---------------------------------------------------------------------------
# Pointwise truth relation
# ---------------------------------------------------------------------------


def _pointwise_image(m, n, tree_steps, feat_steps):
    cur = {n}
    for step in tree_steps:
        nxt = set()
        for t in cur:
            if step == "up":
                mo = m.cstruct.mother.get(t)
                if mo is not None:
                    nxt.add(mo)
            else:
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


def pointwise_sat(m, n, f) -> bool:
    """Truth of ``f`` at the id ``n``, by recursion on ``f`` one node at a
    time.  Defined for any id, so it also fixes what happens at the
    dangling targets of a malformed model."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, CStructConst):
        return n in m.cstruct.nodes
    if isinstance(f, FStructConst):
        return n in m.fstruct.nodes
    if isinstance(f, (CatLit, WordLit)):
        return n in m.cstruct.nodes and m.cstruct.label.get(n) == f.name
    if isinstance(f, AtomLit):
        return (
            n in m.fstruct.nodes
            and n in m.fstruct.final
            and m.fstruct.atomval.get(n) == f.name
        )
    if isinstance(f, Not):
        return not pointwise_sat(m, n, f.sub)
    if isinstance(f, And):
        return pointwise_sat(m, n, f.left) and pointwise_sat(m, n, f.right)
    if isinstance(f, Or):
        return pointwise_sat(m, n, f.left) or pointwise_sat(m, n, f.right)
    if isinstance(f, Implies):
        return (not pointwise_sat(m, n, f.left)) or pointwise_sat(m, n, f.right)
    if isinstance(f, Iff):
        return pointwise_sat(m, n, f.left) == pointwise_sat(m, n, f.right)
    if isinstance(f, Feat):
        if n not in m.fstruct.nodes:
            return False
        w = m.fstruct.trans.get(n, {}).get(f.feat)
        return w is not None and pointwise_sat(m, w, f.sub)
    if isinstance(f, Up):
        if n not in m.cstruct.nodes:
            return False
        mo = m.cstruct.mother.get(n)
        return mo is not None and pointwise_sat(m, mo, f.sub)
    if isinstance(f, Down):
        if n not in m.cstruct.nodes:
            return False
        return any(pointwise_sat(m, d, f.sub) for d in m.cstruct.daughters.get(n, ()))
    if isinstance(f, Zoomin):
        if n not in m.cstruct.nodes:
            return False
        w = m.zoomin.get(n)
        return w is not None and pointwise_sat(m, w, f.sub)
    if isinstance(f, Bullet):
        if n not in m.cstruct.nodes:
            return False
        ds = m.cstruct.daughters.get(n, ())
        if len(ds) != len(f.args):
            return False
        return all(pointwise_sat(m, d, sub) for d, sub in zip(ds, f.args))
    if isinstance(f, PathEq):
        if n not in m.cstruct.nodes:
            return False
        left = _pointwise_image(m, n, f.left_tree, f.left_feats)
        right = _pointwise_image(m, n, f.right_tree, f.right_feats)
        return bool(left & right)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Grammar tokenizer, one character at a time
# ---------------------------------------------------------------------------

_G_OPS = ("->", "=c", "{", "}", "(", ")", ";", ":", ",", ".", "=")


class _GTok(NamedTuple):
    kind: str  # IDENT STRING OP EOF
    value: str
    line: int
    col: int


def reference_g_tokenize(text: str) -> list[_GTok]:
    toks: list[_GTok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise GrammarSyntaxError("unterminated string literal", line, col)
            toks.append(_GTok("STRING", text[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_GTok("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        for op in _G_OPS:
            if text.startswith(op, i):
                if op == "=c" and i + 2 < n and (text[i + 2].isalnum() or text[i + 2] == "_"):
                    continue  # '=cat' is '=' followed by a name
                toks.append(_GTok("OP", op, start_line, start_col))
                i += len(op)
                col += len(op)
                break
        else:
            raise GrammarSyntaxError("unexpected character %r" % ch, line, col)
    toks.append(_GTok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Grammar file parser, method by method over the reference tokens
# ---------------------------------------------------------------------------

#: The names the formula language reserves, and the semantic-form features.
RESERVED_WORDS = frozenset(
    ["true", "false", "cstruct", "fstruct", "up", "down", "zoomin", "bullet"]
)
REL_FEAT = "rel"
PRED_FEAT = "pred"


class _ReferenceGParser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.cats: list[str] = []
        self.atoms: list[str] = []
        self.feats: list[str] = []
        self.gf: list[tuple[str, ...]] = []
        self.rules: list[AnnotatedRule] = []
        self.lexicon: list[LexEntry] = []
        self.start: str | None = None
        self.have_signature = False

    @property
    def cur(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind, value=None):
        t = self.cur
        return t.kind == kind and (value is None or t.value == value)

    def err(self, msg, tok=None):
        tok = tok or self.cur
        raise GrammarSyntaxError(msg, tok.line, tok.col)

    def expect(self, kind, value=None):
        if not self.at(kind, value):
            self.err(
                "expected %s, got %r" % (value or kind, self.cur.value or "end of input")
            )
        return self.advance()

    def ident(self, what):
        if self.cur.kind != "IDENT":
            self.err("expected %s, got %r" % (what, self.cur.value or "end of input"))
        return self.advance().value

    # -- declarations ------------------------------------------------------

    def parse(self) -> Grammar:
        while not self.at("EOF"):
            if self.at("IDENT", "signature"):
                self.parse_signature()
            elif self.at("IDENT", "rule"):
                self.parse_rule()
            elif self.at("IDENT", "lex"):
                self.parse_lex()
            elif self.at("IDENT", "start"):
                self.advance()
                tok = self.cur
                self.start = self.ident("a category name")
                if self.start not in self.cats:
                    self.err("unknown start category %r" % self.start, tok)
                self.expect("OP", ";")
            else:
                self.err(
                    "expected 'signature', 'rule', 'lex' or 'start', got %r"
                    % (self.cur.value or "end of input")
                )
        if not self.have_signature:
            self.err("grammar has no signature block")
        words = sorted({e.word for e in self.lexicon})
        feats = list(self.feats)
        # semantic forms and the well-formedness axioms rely on pred/rel
        if any(isinstance(s, SemForm) for e in self.lexicon for s in e.schemata):
            for needed in (PRED_FEAT, REL_FEAT):
                if needed not in feats:
                    feats.append(needed)
        if self.gf and PRED_FEAT not in feats:
            feats.append(PRED_FEAT)
        sig = Signature(
            frozenset(self.cats),
            frozenset(self.atoms),
            frozenset(feats),
            tuple(self.gf),
            frozenset(words),
        )
        start = self.start or (self.rules[0].lhs if self.rules else "")
        return Grammar(sig, start, tuple(self.rules), tuple(self.lexicon))

    def parse_signature(self):
        if self.have_signature:
            self.err("duplicate signature block")
        self.advance()
        self.expect("OP", "{")
        seen = set()
        while not self.at("OP", "}"):
            tok = self.cur
            section = self.ident("a section name (cat, atom, feat or gf)")
            if section not in ("cat", "atom", "feat", "gf"):
                self.err("unknown signature section %r" % section, tok)
            if section in seen:
                self.err("duplicate %r section" % section, tok)
            seen.add(section)
            self.expect("OP", ":")
            if section == "gf":
                while not self.at("OP", ";"):
                    seq = [self.sig_name("feature")]
                    while self.at("OP", "."):
                        self.advance()
                        seq.append(self.sig_name("feature"))
                    self.gf.append(tuple(seq))
            else:
                target = {"cat": self.cats, "atom": self.atoms, "feat": self.feats}[section]
                while not self.at("OP", ";"):
                    target.append(self.sig_name(section))
            self.expect("OP", ";")
        self.expect("OP", "}")
        for required in ("cat", "atom", "feat"):
            if required not in seen:
                self.err("signature block lacks a %r section" % required)
        for seq in self.gf:
            for f in seq:
                if f not in self.feats:
                    self.err("gf step %r is not a declared feature" % f)
        self.have_signature = True

    def sig_name(self, what):
        tok = self.cur
        name = self.ident("a %s name" % what)
        if name in RESERVED_WORDS:
            self.err("%r is reserved syntax and cannot name a %s" % (name, what), tok)
        return name

    def need_signature(self):
        if not self.have_signature:
            self.err("the signature block must precede rules and lexical entries")

    def category(self):
        tok = self.cur
        name = self.ident("a category name")
        if name not in self.cats:
            self.err("unknown category %r" % name, tok)
        return name

    def feature(self):
        tok = self.cur
        name = self.ident("a feature name")
        if name not in self.feats:
            # the semantic-form features may be used without declaration
            if name in (PRED_FEAT, REL_FEAT):
                self.feats.append(name)
            else:
                self.err("unknown feature %r" % name, tok)
        return name

    def parse_rule(self):
        self.need_signature()
        self.advance()
        lhs = self.category()
        self.expect("OP", "->")
        elements = []
        while not self.at("OP", ";"):
            cat = self.category()
            schemata = ()
            if self.at("OP", "{"):
                schemata = self.parse_schemata(lexical=False)
            elements.append(RuleElement(cat, schemata))
        self.expect("OP", ";")
        if not elements:
            self.err("rule for %r has no right-hand side" % lhs)
        self.rules.append(AnnotatedRule(lhs, tuple(elements)))

    def parse_lex(self):
        self.need_signature()
        self.advance()
        word = self.expect("STRING").value
        if not word:
            self.err("empty word form")
        cat = self.category()
        schemata = ()
        if self.at("OP", "{"):
            schemata = self.parse_schemata(lexical=True)
        self.expect("OP", ";")
        self.lexicon.append(LexEntry(word, cat, schemata))

    def parse_schemata(self, lexical: bool):
        self.expect("OP", "{")
        out = []
        while not self.at("OP", "}"):
            out.append(self.parse_schema(lexical))
            if self.at("OP", ";"):
                self.advance()
            elif not self.at("OP", "}"):
                self.err("expected ';' or '}' after a schema")
        self.expect("OP", "}")
        return tuple(out)

    def parse_updown_path(self, keyword):
        # 'up' | '(' 'up' feature* ')'
        if self.at("IDENT", keyword):
            self.advance()
            return ()
        self.expect("OP", "(")
        tok = self.cur
        head = self.ident("'%s'" % keyword)
        if head != keyword:
            self.err("expected %r, got %r" % (keyword, head), tok)
        path = []
        while not self.at("OP", ")"):
            path.append(self.feature())
        self.expect("OP", ")")
        return tuple(path)

    def parse_schema(self, lexical: bool):
        up_path = self.parse_updown_path("up")
        if self.at("OP", "=c"):
            self.err(
                "constraining equations (=c) are not supported; only defining "
                "equations can be stated"
            )
        self.expect("OP", "=")
        # right-hand side: down form, atom, or semantic form
        if self.at("IDENT", "down") or (self.at("OP", "(") and self._peek_down()):
            if lexical:
                self.err("'down' cannot appear in a lexical schema")
            down_path = self.parse_updown_path("down")
            return PathEqSchema(up_path, down_path)
        tok = self.cur
        name = self.ident("an atom or semantic form")
        if self.at("OP", "("):
            if not lexical:
                self.err("semantic forms are only allowed in lexical entries", tok)
            if up_path != (PRED_FEAT,):
                self.err("a semantic form can only be the value of (up %s)" % PRED_FEAT, tok)
            if name not in self.atoms:
                self.err("unknown atom %r" % name, tok)
            self.advance()
            args = []
            while not self.at("OP", ")"):
                seq = [self.feature()]
                while self.at("OP", "."):
                    self.advance()
                    seq.append(self.feature())
                args.append(tuple(seq))
                if self.at("OP", ","):
                    self.advance()
                elif not self.at("OP", ")"):
                    self.err("expected ',' or ')' in semantic-form arguments")
            self.expect("OP", ")")
            for seq in args:
                if tuple(seq) not in [tuple(g) for g in self.gf]:
                    self.err(
                        "semantic-form argument %r is not a declared grammatical "
                        "function" % ".".join(seq),
                        tok,
                    )
            return SemForm(name, tuple(args))
        if name not in self.atoms:
            self.err("unknown atom %r" % name, tok)
        return AtomValueSchema(up_path, name)

    def _peek_down(self) -> bool:
        nxt = self.toks[self.pos + 1]
        return nxt.kind == "IDENT" and nxt.value == "down"


def reference_parse_grammar(text: str) -> Grammar:
    return _ReferenceGParser(reference_g_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Formula reader: character-at-a-time tokenizer and its recursive parser
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_KEYWORDS = RESERVED_WORDS  # true false cstruct fstruct up down zoomin bullet


@dataclass(frozen=True)
class _FTok:
    kind: str  # KW OP IDENT STRING FEATMOD EOF
    value: str
    line: int
    col: int


def _reference_tokenize(text: str) -> list[_FTok]:
    toks: list[_FTok] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg, l=None, c=None):
        raise FormulaSyntaxError(msg, l if l is not None else line, c if c is not None else col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch == "<":
            if text.startswith("<->", i):
                toks.append(_FTok("OP", "<->", start_line, start_col))
                i += 3
                col += 3
                continue
            j = i + 1
            while j < n and text[j] not in ">\n":
                j += 1
            if j >= n or text[j] != ">":
                err("unterminated '<'")
            name = text[i + 1 : j].strip()
            if not _IDENT_RE.match(name):
                err("expected a feature name inside '<...>', got %r" % name)
            if name in ("up", "down", "zoomin"):
                toks.append(_FTok("KW", name, start_line, start_col))
            else:
                toks.append(_FTok("FEATMOD", name, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if text.startswith("->", i):
            toks.append(_FTok("OP", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "!&|(),~":
            toks.append(_FTok("OP", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                err("unterminated string literal")
            toks.append(_FTok("STRING", text[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KW" if word in _KEYWORDS else "IDENT"
            toks.append(_FTok(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        err("unexpected character %r" % ch)
    toks.append(_FTok("EOF", "", line, col))
    return toks


#: Deepest nesting a formula may have, in levels.  A ``!``, ``<f>`` or
#: ``zoomin`` prefix and a pending right operand of ``->`` or ``<->`` take
#: one level each, and the evaluator recurses once through each; a
#: parenthesised group or ``bullet`` argument list takes
#: ``_GROUP_LEVELS``.  ``up`` and ``down`` steps are free.  This admits
#: every formula that fits Python's default stack of 1000 frames when
#: parsed by plain recursive descent (six frames a group, one a prefix or
#: right operand), and evaluating one still fits that stack under the CLI.
MAX_NESTING = 991
_GROUP_LEVELS = 6

# binary operators: precedence (loosest first), right associativity, node
_BINARY = {
    "<->": (1, True, Iff),
    "->": (2, True, Implies),
    "|": (3, False, Or),
    "&": (4, False, And),
}


class _ReferenceParser:
    def __init__(self, toks: list[_FTok], sig: Signature):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.depth = 0

    @property
    def cur(self) -> _FTok:
        return self.toks[self.pos]

    def advance(self) -> _FTok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind, value=None) -> bool:
        t = self.cur
        return t.kind == kind and (value is None or t.value == value)

    def expect(self, kind, value=None) -> _FTok:
        if not self.at(kind, value):
            raise FormulaSyntaxError(
                "expected %s, got %r" % (value or kind, self.cur.value or "end of input"),
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def err(self, msg):
        raise FormulaSyntaxError(msg, self.cur.line, self.cur.col)

    def nest(self, tok: _FTok, levels: int = 1):
        """Enter ``levels`` more levels of nesting, opened by ``tok``."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(
                "formula nested too deeply (more than %d levels)" % MAX_NESTING,
                tok.line,
                tok.col,
            )

    def parse_formula(self) -> Formula:
        """Operands joined by binary operators, grouped by precedence with
        an operator stack, so that chains of any length do not recurse."""
        depth = self.depth
        operands = [self.parse_unary()]
        ops: list[str] = []
        while self.cur.kind == "OP" and self.cur.value in _BINARY:
            prec, right, _node = _BINARY[self.cur.value]
            while ops:
                top, top_right, _node = _BINARY[ops[-1]]
                if top < prec or (top == prec and right):
                    break
                _reduce(operands, ops.pop())
                self.depth -= top_right  # a right operand is no longer pending
            if right:
                self.nest(self.cur)
            ops.append(self.advance().value)
            operands.append(self.parse_unary())
        while ops:
            _reduce(operands, ops.pop())
        self.depth = depth
        return operands[0]

    def parse_unary(self) -> Formula:
        """Prefix operators, collected in a loop and applied to their
        operand innermost first."""
        depth = self.depth
        wrap: list = []
        while True:
            if self.at("OP", "!"):
                self.nest(self.cur)
                self.advance()
                wrap.append(Not)
                continue
            if self.cur.kind == "FEATMOD":
                self.nest(self.cur)
                t = self.advance()
                if t.value not in self.sig.feats:
                    raise SignatureError("unknown feature %r" % t.value, t.line, t.col)
                wrap.append(partial(Feat, t.value))
                continue
            if not (self.at("KW", "up") or self.at("KW", "down") or self.at("KW", "zoomin")):
                sub = self.parse_primary()
                break
            steps = self.tree_steps()
            modal = [Up if step == "up" else Down for step in steps]
            if not self.at("KW", "zoomin"):
                wrap.extend(modal)  # a plain modal chain like "up down phi"
                continue
            zoomin = self.advance()
            feats = self.feature_path()
            if self.at("OP", "~"):
                self.advance()
                rtree = self.tree_steps()
                self.expect("KW", "zoomin")
                sub = PathEq(steps, feats, rtree, self.feature_path())
                break
            if feats:
                self.err("expected '~' after the feature path of a path equality")
            # modal chain ending in a zoomin modality
            self.nest(zoomin)
            wrap.extend(modal)
            wrap.append(Zoomin)
        for make in reversed(wrap):
            sub = make(sub)
        self.depth = depth
        return sub

    def tree_steps(self) -> tuple[str, ...]:
        steps = []
        while self.at("KW", "up") or self.at("KW", "down"):
            steps.append(self.advance().value)
        return tuple(steps)

    def feature_path(self) -> tuple[str, ...]:
        feats = []
        while self.cur.kind == "IDENT" and self.cur.value in self.sig.feats:
            feats.append(self.advance().value)
        return tuple(feats)

    def parse_primary(self) -> Formula:
        t = self.cur
        if t.kind == "KW":
            if t.value == "true":
                self.advance()
                return TRUE
            if t.value == "false":
                self.advance()
                return FALSE
            if t.value == "cstruct":
                self.advance()
                return CSTRUCT
            if t.value == "fstruct":
                self.advance()
                return FSTRUCT
            if t.value == "bullet":
                self.advance()
                self.nest(self.expect("OP", "("), _GROUP_LEVELS)
                args = [self.parse_formula()]
                while self.at("OP", ","):
                    self.advance()
                    args.append(self.parse_formula())
                self.expect("OP", ")")
                self.depth -= _GROUP_LEVELS
                return Bullet(tuple(args))
            self.err("unexpected keyword %r" % t.value)
        if t.kind == "OP" and t.value == "(":
            self.nest(self.advance(), _GROUP_LEVELS)
            f = self.parse_formula()
            self.expect("OP", ")")
            self.depth -= _GROUP_LEVELS
            return f
        if t.kind == "STRING":
            self.advance()
            if t.value not in self.sig.words:
                raise SignatureError("unknown word form %r" % t.value, t.line, t.col)
            return WordLit(t.value)
        if t.kind == "IDENT":
            self.advance()
            kind = self.sig.kind_of(t.value)
            if kind == "cat":
                return CatLit(t.value)
            if kind == "atom":
                return AtomLit(t.value)
            if kind == "word":
                return WordLit(t.value)
            if t.value in self.sig.feats:
                raise SignatureError(
                    "feature %r cannot stand alone; write <%s> phi or use it "
                    "inside a path equality" % (t.value, t.value),
                    t.line,
                    t.col,
                )
            raise SignatureError("unknown name %r" % t.value, t.line, t.col)
        self.err("expected a formula, got %r" % (t.value or "end of input"))


def _reduce(operands: list[Formula], op: str):
    """Replace the last two operands by their combination under ``op``."""
    right = operands.pop()
    operands[-1] = _BINARY[op][2](operands[-1], right)


def reference_parse_formula(text: str, sig: Signature) -> Formula:
    """Parse concrete syntax into an AST, resolving names against ``sig``."""
    parser = _ReferenceParser(_reference_tokenize(text), sig)
    f = parser.parse_formula()
    if parser.cur.kind != "EOF":
        parser.err("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# The names a formula uses, by generic pre-order walk
# ---------------------------------------------------------------------------


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    if isinstance(f, (Not, Feat, Up, Down, Zoomin)):
        return (f.sub,)
    if isinstance(f, Bullet):
        return f.args
    return ()


def _preorder(f: Formula):
    """``f`` and its subformulas in pre-order, left to right, iteratively."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


def _preorder(f):
    """``f`` and its subformulas in pre-order, left to right, iteratively."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


#: Signature field -> how an undeclared name of that kind is reported.
_NAME_KINDS = {"cats": "category", "atoms": "atom", "words": "word form", "feats": "feature"}
_LITERAL_FIELD = {CatLit: "cats", AtomLit: "atoms", WordLit: "words"}


def _own_names(f: Formula) -> tuple[tuple[str, str], ...]:
    """(signature field, name) pairs used by ``f`` itself, not its operands."""
    if type(f) in _LITERAL_FIELD:
        return ((_LITERAL_FIELD[type(f)], f.name),)
    if isinstance(f, Feat):
        return (("feats", f.feat),)
    if isinstance(f, PathEq):
        return tuple(("feats", name) for name in f.left_feats + f.right_feats)
    return ()


def reference_names(f) -> dict[str, frozenset[str]]:
    used = [pair for g in _preorder(f) for pair in _own_names(g)]
    return {kind: frozenset(n for k, n in used if k == kind) for kind in _NAME_KINDS}


def reference_validate_names(f, sig: Signature) -> None:
    if all(names <= getattr(sig, kind) for kind, names in reference_names(f).items()):
        return
    for g in _preorder(f):
        for kind, name in _own_names(g):
            if name not in getattr(sig, kind):
                raise SignatureError("unknown %s %r" % (_NAME_KINDS[kind], name))


# ---------------------------------------------------------------------------
# The renderer with a prefix-run loop and recursion through operands
# ---------------------------------------------------------------------------

_REF_LEAVES = (TrueF, FalseF, CStructConst, FStructConst, CatLit, AtomLit, WordLit)


def _ref_leaf_text(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, CStructConst):
        return "cstruct"
    if isinstance(f, FStructConst):
        return "fstruct"
    if isinstance(f, (CatLit, AtomLit)):
        return f.name
    if isinstance(f, WordLit):
        return '"%s"' % f.name  # quoting keeps words distinct from atom/cat names
    raise TypeError(f)


_REF_CHAIN_OPS = {And: "&", Or: "|"}
_REF_PREFIX_TEXT = {Up: "up ", Down: "down ", Zoomin: "zoomin "}


def reference_render_formula(f: Formula) -> str:
    """Render to concrete syntax; the output re-parses to an equal AST.

    A left-nested ``&``/``|`` chain, such as the lexical disjunction over
    a whole lexicon, is printed flat along its spine, as ``(a | b | c)``
    and not ``((a | b) | c)``: both operators group to the left, so the
    text reads back as the same chain, and a chain of any length costs
    the reader one parenthesised group.  A run of prefix operators
    (``!``, ``<f>``, ``up``, ``down``, ``zoomin``) is rendered in a loop,
    so neither recurses."""
    opened: list[str] = []  # text before the operand of a prefix run
    closes = 0  # parentheses that text leaves open
    while True:
        t = type(f)
        if t is Not:
            opened.append("!(")
        elif t is Feat or t in _REF_PREFIX_TEXT:
            opened.append("<%s> " % f.feat if t is Feat else _REF_PREFIX_TEXT[t])
            if isinstance(f.sub, _REF_LEAVES):
                f = f.sub
                break  # a leaf operand goes without parentheses
            opened.append("(")
        else:
            break
        closes += 1
        f = f.sub
    return "".join(opened) + _ref_render_operand(f) + ")" * closes


def _ref_render_operand(f: Formula) -> str:
    """``f`` rendered, when it is not a prefix operator."""
    if isinstance(f, _REF_LEAVES):
        return _ref_leaf_text(f)
    if type(f) in _REF_CHAIN_OPS:
        sep = " %s " % _REF_CHAIN_OPS[type(f)]
        return "(%s)" % sep.join(map(reference_render_formula, _ref_spine(f)))
    if isinstance(f, Implies):
        return "(%s -> %s)" % (reference_render_formula(f.left), reference_render_formula(f.right))
    if isinstance(f, Iff):
        return "(%s <-> %s)" % (reference_render_formula(f.left), reference_render_formula(f.right))
    if isinstance(f, Bullet):
        return "bullet(%s)" % ", ".join(reference_render_formula(a) for a in f.args)
    if isinstance(f, PathEq):
        left = " ".join(list(f.left_tree) + ["zoomin"] + list(f.left_feats))
        right = " ".join(list(f.right_tree) + ["zoomin"] + list(f.right_feats))
        return "(%s ~ %s)" % (left, right)
    raise TypeError("not a formula: %r" % (f,))


def _ref_spine(f: Formula) -> list[Formula]:
    """Operands of the left-nested ``type(f)`` chain at ``f``, in order."""
    kind, ops = type(f), []
    while type(f) is kind:
        ops.append(f.right)
        f = f.left
    return [f] + ops[::-1]


# ---------------------------------------------------------------------------
# Canonical renaming and the JSON text, through json.dumps
# ---------------------------------------------------------------------------


def _node_key(node):
    return (len(node), node)


def reference_canonicalize(m: Model) -> Model:
    c, f = m.cstruct, m.fstruct

    tmap = {}
    stack = [c.root]
    while stack:
        n = stack.pop()
        tmap[n] = "n%d" % len(tmap)
        stack.extend(reversed(c.daughters.get(n, ())))

    fmap = {}
    if f.initial in f.nodes:
        fmap[f.initial] = "f0"
        queue = [f.initial]
        while queue:
            w = queue.pop(0)
            for feat in sorted(f.trans.get(w, {})):
                w2 = f.trans[w][feat]
                if w2 not in fmap:
                    fmap[w2] = "f%d" % len(fmap)
                    queue.append(w2)
    for w in sorted(f.nodes, key=_node_key):
        if w not in fmap:
            fmap[w] = "f%d" % len(fmap)

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


def _reference_model_json(m: Model) -> dict:
    c, f = m.cstruct, m.fstruct
    tree_nodes = []
    for n in sorted(c.nodes, key=_node_key):
        tree_nodes.append(
            {
                "id": n,
                "label": c.label.get(n, ""),
                "daughters": list(c.daughters.get(n, ())),
            }
        )
    f_nodes = []
    for w in sorted(f.nodes, key=_node_key):
        entry = {"id": w, "trans": dict(sorted(f.trans.get(w, {}).items()))}
        if w in f.atomval:
            entry["atom"] = f.atomval[w]
        f_nodes.append(entry)
    return {
        "signature": {
            "cats": sorted(m.sig.cats),
            "atoms": sorted(m.sig.atoms),
            "feats": sorted(m.sig.feats),
            "gf": [list(g) for g in m.sig.gf],
            "words": sorted(m.sig.words),
        },
        "tree": {"root": c.root, "nodes": tree_nodes},
        "fstruct": {"initial": f.initial, "nodes": f_nodes},
        "zoomin": dict(sorted(m.zoomin.items(), key=lambda kv: _node_key(kv[0]))),
    }


def reference_model_to_text(m: Model) -> str:
    return json.dumps(_reference_model_json(m), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Theory-driven parsing oracle (saturation solver over path terms)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# The structural validator that walks and sorts every group of checks
# ---------------------------------------------------------------------------


def _reference_sig_violations(sig) -> list[Violation]:
    out = []
    for a, b, aname, bname in [
        (sig.cats, sig.atoms, "cat", "atom"),
        (sig.cats, sig.feats, "cat", "feat"),
        (sig.atoms, sig.feats, "atom", "feat"),
        (sig.words, sig.cats, "word", "cat"),
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
    for name, s in [("cat", sig.cats), ("atom", sig.atoms), ("feat", sig.feats)]:
        if not s:
            out.append(Violation("signature-empty", "%s set is empty" % name))
    for seq in sig.gf:
        if not seq:
            out.append(Violation("signature-gf-feature", "empty gf sequence"))
        for f in seq:
            if f not in sig.feats:
                out.append(
                    Violation(
                        "signature-gf-feature",
                        "gf step %r is not a declared feature" % f,
                    )
                )
    return out


def reference_validate_model(m: Model) -> ValidationReport:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not failures: arbitrary candidate structures
    are accepted and each broken clause is reported with the offending
    node ids.
    """
    out: list[Violation] = []
    out.extend(_reference_sig_violations(m.sig))

    c, f = m.cstruct, m.fstruct
    tree_order = sorted(c.nodes, key=_node_key)

    shared = c.nodes & f.nodes
    if shared:
        out.append(
            Violation(
                "duplicate-node-id",
                "ids used in both tree and f-structure",
                tuple(sorted(shared, key=_node_key)),
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
                tuple(sorted(bad_refs, key=_node_key)),
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
                    tuple(sorted(cyclic, key=_node_key)),
                )
            )
        unreached = c.nodes - visited
        if unreached:
            out.append(
                Violation(
                    "tree-disconnected",
                    "nodes not reachable from the root",
                    tuple(sorted(unreached, key=_node_key)),
                )
            )

    for n in tree_order:
        lab = c.label.get(n)
        if lab in m.sig.words and c.daughters.get(n, ()):
            out.append(
                Violation(
                    "tree-word-label-internal",
                    "word form %r labels a node with daughters" % lab,
                    (n,),
                )
            )
        if lab is not None and lab not in m.sig.cats and lab not in m.sig.words:
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
                if feat not in m.sig.feats:
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
                    tuple(sorted(bad, key=_node_key)),
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
                        tuple(sorted(unreached, key=_node_key)),
                    )
                )

        for w in sorted(f.final, key=_node_key):
            if f.trans.get(w):
                out.append(
                    Violation(
                        "fstruct-final-transition",
                        "final node has outgoing transitions",
                        (w,),
                    )
                )
        for w in sorted(f.atomval, key=_node_key):
            if w not in f.final:
                out.append(
                    Violation(
                        "fstruct-valuation-nonfinal",
                        "valuation on non-final node",
                        (w,),
                    )
                )
        for w in sorted(f.final, key=_node_key):
            if w not in f.atomval:
                out.append(
                    Violation(
                        "fstruct-final-unvalued",
                        "final node carries no atomic value",
                        (w,),
                    )
                )
        for w, a in sorted(f.atomval.items(), key=lambda kv: _node_key(kv[0])):
            if a not in m.sig.atoms:
                out.append(
                    Violation(
                        "atom-not-in-signature",
                        "atomic value %r is not declared" % a,
                        (w,),
                    )
                )

    # --- zoomin ---
    for t, w in sorted(m.zoomin.items(), key=lambda kv: _node_key(kv[0])):
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


class OracleDead(Exception):
    """The candidate cannot carry a model (unsatisfiable constraint)."""


class Unsupported(Exception):
    """A compiled formula shape this oracle does not know."""


def unfold_or(f):
    if isinstance(f, Or):
        return unfold_or(f.left) + unfold_or(f.right)
    return [f]


def unfold_and(f):
    if isinstance(f, And):
        return unfold_and(f.left) + unfold_and(f.right)
    return [f]


def phrase_disjuncts(theory):
    """[(lhs, ((cat, constraints), ...)), ...] read off the licensing axiom."""
    if not isinstance(theory.licensing, Implies):
        raise Unsupported("licensing axiom is not an implication")
    out = []
    for d in unfold_or(theory.licensing.right):
        parts = unfold_and(d)
        if len(parts) != 2 or not isinstance(parts[0], CatLit) or not isinstance(parts[1], Bullet):
            raise Unsupported("odd licensing disjunct")
        elems = []
        for arg in parts[1].args:
            aparts = unfold_and(arg)
            if not isinstance(aparts[0], CatLit):
                raise Unsupported("daughter spec without category")
            elems.append((aparts[0].name, tuple(aparts[1:])))
        out.append((parts[0].name, tuple(elems)))
    return out


def lex_disjuncts(theory):
    """[(cat, word, constraints), ...] read off the lexical axiom."""
    if isinstance(theory.lexical, TrueF):
        return []
    if not isinstance(theory.lexical, Implies):
        raise Unsupported("lexical axiom is not an implication")
    out = []
    for d in unfold_or(theory.lexical.right):
        parts = unfold_and(d)
        if (
            len(parts) < 2
            or not isinstance(parts[0], CatLit)
            or not isinstance(parts[1], Bullet)
            or len(parts[1].args) != 1
            or not isinstance(parts[1].args[0], WordLit)
        ):
            raise Unsupported("odd lexical disjunct")
        out.append((parts[0].name, parts[1].args[0].name, tuple(parts[2:])))
    return out


class _Constraints:
    def __init__(self):
        self.terms = set()  # (tree node, feature path)
        self.eqs = []
        self.atoms = []
        self.semargs = []

    def add_term(self, term):
        base, path = term
        for k in range(len(path) + 1):
            self.terms.add((base, path[:k]))

    def eq(self, t1, t2):
        self.add_term(t1)
        self.add_term(t2)
        self.eqs.append((t1, t2))

    def atom(self, term, value):
        self.add_term(term)
        self.atoms.append((term, value))

    def exists(self, term):
        self.add_term(term)


def _interpret(con, node, cstruct, sink):
    """Turn one compiled constraint formula, to be evaluated at ``node``,
    into defining-equation material."""
    if isinstance(con, PathEq):
        left = _tree_target(node, con.left_tree, cstruct)
        right = _tree_target(node, con.right_tree, cstruct)
        sink.eq((left, con.left_feats), (right, con.right_feats))
        return
    if isinstance(con, Up) and isinstance(con.sub, Zoomin):
        mo = cstruct.mother.get(node)
        if mo is None:
            raise OracleDead("schema needs a mother above %r" % node)
        _zoom_chain(mo, con.sub.sub, sink)
        return
    raise Unsupported("constraint shape %r" % (con,))


def _tree_target(node, steps, cstruct):
    cur = node
    for s in steps:
        if s != "up":
            raise Unsupported("tree step %r in a compiled constraint" % s)
        cur = cstruct.mother.get(cur)
        if cur is None:
            raise OracleDead("tree walk fell off the root")
    return cur


def _zoom_chain(base, f, sink):
    path = []
    tail = f
    while isinstance(tail, Feat) and not (
        tail.feat == "pred" and isinstance(tail.sub, And)
    ):
        path.append(tail.feat)
        tail = tail.sub
    if isinstance(tail, AtomLit):
        sink.atom((base, tuple(path)), tail.name)
        return
    if isinstance(tail, TrueF):
        sink.exists((base, tuple(path)))
        return
    if isinstance(tail, Feat) and tail.feat == "pred" and isinstance(tail.sub, And):
        if path:
            raise Unsupported("nested semantic form")
        parts = unfold_and(tail.sub)
        head = parts[0]
        if not (isinstance(head, Feat) and isinstance(head.sub, AtomLit)):
            raise Unsupported("semantic form without relation")
        sink.atom((base, ("pred", head.feat)), head.sub.name)
        for part in parts[1:]:
            g = []
            cur = part
            while isinstance(cur, Feat):
                g.append(cur.feat)
                cur = cur.sub
            if not isinstance(cur, TrueF):
                raise Unsupported("semantic-form argument shape")
            sink.exists((base, ("pred",) + tuple(g)))
            sink.semargs.append((base, tuple(g)))
        return
    raise Unsupported("zoomin chain shape %r" % (f,))


def _components(terms, pairs):
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    comp = {}
    for t in sorted(terms):
        if t in comp:
            continue
        comp[t] = t
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in comp:
                    comp[v] = t
                    frontier.append(v)
    return comp


def _ext_index(terms):
    """term -> sorted list of (feature, extension term) present in the universe."""
    ext = defaultdict(list)
    for base, path in terms:
        if path:
            ext[(base, path[:-1])].append((path[-1], (base, path)))
    for lst in ext.values():
        lst.sort()
    return ext


def _saturate(sink):
    """Close the equations under congruence and semantic-form argument
    linking; raises OracleDead on a uniqueness clash.

    The term universe is fixed up front (all mentioned terms and their
    prefixes); saturation only ever merges classes, recomputing the
    partition from scratch each round."""
    terms = set(sink.terms)
    ext = _ext_index(terms)
    pairs = set(sink.eqs)
    while True:
        comp = _components(terms, pairs)
        members = defaultdict(list)
        for t in sorted(terms):
            members[comp[t]].append(t)
        changed = False
        # congruence: equal nodes have equal feature successors
        for ts in members.values():
            succ = defaultdict(set)
            for t in ts:
                for feat, cand in ext[t]:
                    succ[feat].add(comp[cand])
            for classes in succ.values():
                if len(classes) > 1:
                    reps = sorted(classes)
                    for other in reps[1:]:
                        pairs.add((reps[0], other))
                    changed = True
        # argument slots link to local paths once those are defined
        for base, g in sink.semargs:
            slot = comp[(base, ("pred",) + g)]
            local = _quotient_walk((base, ()), g, comp, members, ext)
            if local is not None and local != slot:
                pairs.add((slot, local))
                changed = True
        if not changed:
            break
    class_atom = {}
    for term, value in sink.atoms:
        cls = comp[term]
        if class_atom.get(cls, value) != value:
            raise OracleDead("atom clash")
        class_atom[cls] = value
    # uniqueness: a valued node may not have successors
    for cls in class_atom:
        if any(ext[t] for t in members[cls]):
            raise OracleDead("atom on a node with transitions")
    return comp, class_atom, members, ext


def _quotient_walk(start_term, path, comp, members, ext):
    cur = comp.get(start_term)
    if cur is None:
        return None
    for feat in path:
        nxt = None
        for t in members[cur]:
            for f, cand in ext[t]:
                if f == feat:
                    nxt = comp[cand]
                    break
            if nxt is not None:
                break
        if nxt is None:
            return None
        cur = nxt
    return cur


def _oracle_model(sig, cstruct, sink):
    comp, class_atom, members, ext = _saturate(sink)
    classes = sorted(set(comp.values()))
    if not classes:
        fstruct = FStructure(frozenset(["w0"]), "w0", {"w0": {}})
        return Model(sig, cstruct, fstruct, {})
    name = {cls: "w%d" % k for k, cls in enumerate(classes)}
    trans = {name[cls]: {} for cls in classes}
    for cls in classes:
        for t in members[cls]:
            for feat, cand in ext[t]:
                trans[name[cls]][feat] = name[comp[cand]]
    atomval = {name[cls]: v for cls, v in class_atom.items()}
    root_term = (cstruct.root, ())
    if root_term in comp:
        initial = name[comp[root_term]]
    else:
        incoming = set()
        for w, table in trans.items():
            incoming.update(table.values())
        sources = [w for w in trans if w not in incoming]
        if len(sources) != 1:
            raise OracleDead("no unique entry point")
        initial = sources[0]
    fstruct = FStructure(
        frozenset(name.values()), initial, trans, frozenset(atomval), atomval
    )
    zoomin = {}
    for n in cstruct.nodes:
        if (n, ()) in comp:
            zoomin[n] = name[comp[(n, ())]]
    return Model(sig, cstruct, fstruct, zoomin)


def oracle_parse(theory, sig, start, tokens, max_tree=40, max_f=80):
    """Canonical minimal models, re-derived from the compiled theory.

    Candidate trees are assembled by matching licensing and lexical
    disjuncts over spans; each candidate's equations are solved by
    saturation and the result filtered through the denotation oracle.
    Returns a sorted list of canonical serializations.
    """
    phrases = phrase_disjuncts(theory)
    lexes = lex_disjuncts(theory)
    tokens = list(tokens)

    def derive(cat, i, j, budget):
        out = []
        if j - i == 1 and budget >= 2:
            for c, w, cons in lexes:
                if c == cat and w == tokens[i]:
                    out.append((("lex", c, w, cons), 2))
        for lhs, elems in phrases:
            if lhs != cat or budget < 1 + 2 * (j - i):
                continue
            for kids, used in seq(elems, 0, i, j, budget - 1):
                out.append((("phrase", lhs, elems, kids), 1 + used))
        return out

    def seq(elems, idx, pos, j, avail):
        if idx == len(elems):
            if pos == j:
                yield (), 0
            return
        rest = len(elems) - idx - 1
        for end in range(pos + 1, j - rest + 1):
            for d, c in derive(elems[idx][0], pos, end, avail - 2 * (j - end)):
                for tail, used in seq(elems, idx + 1, end, j, avail - c):
                    yield (d,) + tail, c + used

    found = set()
    for deriv, _ in derive(start, 0, len(tokens), max_tree):
        cstruct, attach = _oracle_tree(deriv)
        sink = _Constraints()
        try:
            for node, cons in attach:
                for con in cons:
                    _interpret(con, node, cstruct, sink)
            model = _oracle_model(sig, cstruct, sink)
        except OracleDead:
            continue
        if len(model.fstruct.nodes) > max_f:
            continue
        if not reference_validate_model(model).ok:
            continue
        if any(oracle_valid(model, f) is not None for _, f in theory.labeled()):
            continue
        found.add(reference_model_to_text(reference_canonicalize(model)))
    return sorted(found)


def _oracle_tree(deriv):
    labels = {}
    daughters = {}
    attach = []
    counter = [0]

    def walk(d):
        nid = "k%d" % counter[0]
        counter[0] += 1
        if d[0] == "lex":
            _, cat, word, cons = d
            leaf = "k%d" % counter[0]
            counter[0] += 1
            labels[nid] = cat
            labels[leaf] = word
            daughters[nid] = (leaf,)
            daughters[leaf] = ()
            attach.append((nid, cons))
        else:
            _, lhs, elems, kids = d
            labels[nid] = lhs
            ids = []
            for (cat, cons), kid in zip(elems, kids):
                kid_id = walk(kid)
                ids.append(kid_id)
                attach.append((kid_id, cons))
            daughters[nid] = tuple(ids)
        return nid

    root = walk(deriv)
    return CStructure.build(root, daughters, labels), attach


# ---------------------------------------------------------------------------
# Blind whole-space enumeration (tiny signatures only)
# ---------------------------------------------------------------------------


def all_trees(sig, tokens, start, max_nodes):
    """Every preterminal-form tree over the tokens with root ``start``."""
    cats = sorted(sig.cats)

    def shapes(i, j, budget):
        if budget < 2 * (j - i):
            return
        if j - i == 1:
            yield ("pre", i), 2
        for parts in _compositions(i, j):
            if len(parts) == 1 and parts[0] == (i, j):
                # unary wrap around the whole span
                for sub, c in shapes(i, j, budget - 1):
                    if sub[0] == "node" or sub[0] == "pre":
                        yield ("node", (sub,)), c + 1
                continue
            for kids, cost in _shape_seq(parts, 0, budget - 1, shapes):
                yield ("node", kids), cost + 1

    def _shape_seq(parts, idx, avail, rec):
        if idx == len(parts):
            yield (), 0
            return
        a, b = parts[idx]
        for sub, c in rec(a, b, avail):
            for tail, used in _shape_seq(parts, idx + 1, avail - c, rec):
                yield (sub,) + tail, c + used

    def label_shape(shape):
        if shape[0] == "pre":
            for cat in cats:
                yield ("pre", cat, shape[1])
        else:
            kid_options = [list(label_shape(s)) for s in shape[1]]
            for cat in cats:
                for kids in product(*kid_options):
                    yield ("node", cat, kids)

    def build(labelled):
        labels, daughters = {}, {}
        counter = [0]

        def walk(t):
            nid = "t%d" % counter[0]
            counter[0] += 1
            if t[0] == "pre":
                leaf = "t%d" % counter[0]
                counter[0] += 1
                labels[nid] = t[1]
                labels[leaf] = tokens[t[2]]
                daughters[nid] = (leaf,)
                daughters[leaf] = ()
            else:
                labels[nid] = t[1]
                daughters[nid] = tuple(walk(k) for k in t[2])
            return nid

        root = walk(labelled)
        return CStructure.build(root, daughters, labels)

    for shape, _cost in shapes(0, len(tokens), max_nodes):
        for labelled in label_shape(shape):
            if labelled[1] == start:
                yield build(labelled)


def _compositions(i, j):
    """All ordered splits of span (i, j) into one or more parts."""
    if i == j:
        return
    for first in range(i + 1, j + 1):
        if first == j:
            yield ((i, j),)
        else:
            for rest in _compositions(first, j):
                yield ((i, first),) + rest


def all_fstructs(sig, max_nodes):
    """Every f-structure up to ``max_nodes`` whose final nodes are
    exactly its valued nodes (valid models satisfy that anyway)."""
    feats = sorted(sig.feats)
    atoms = sorted(sig.atoms)
    for n in range(1, max_nodes + 1):
        nodes = ["u%d" % k for k in range(n)]
        slots = [(w, f) for w in nodes for f in feats]
        for targets in product([None] + nodes, repeat=len(slots)):
            trans = {w: {} for w in nodes}
            for (w, f), tgt in zip(slots, targets):
                if tgt is not None:
                    trans[w][f] = tgt
            for values in product([None] + atoms, repeat=n):
                atomval = {w: v for w, v in zip(nodes, values) if v is not None}
                for initial in nodes:
                    yield FStructure(
                        frozenset(nodes),
                        initial,
                        trans,
                        frozenset(atomval),
                        atomval,
                    )


def all_zoomins(tree_nodes, f_nodes):
    tn = sorted(tree_nodes)
    for targets in product([None] + sorted(f_nodes), repeat=len(tn)):
        yield {t: w for t, w in zip(tn, targets) if w is not None}


def subsumes(ma: Model, mb: Model) -> bool:
    """True when ``ma`` is at most as informative as ``mb``.

    Both must share the same c-structure (same node ids) and be valid;
    the witnessing map is unique because every f-node is reachable from
    the initial node, so this is a linear check rather than a search.
    """
    h = {ma.fstruct.initial: mb.fstruct.initial}
    queue = [ma.fstruct.initial]
    while queue:
        wa = queue.pop()
        wb = h[wa]
        for feat, ta in ma.fstruct.trans.get(wa, {}).items():
            tb = mb.fstruct.trans.get(wb, {}).get(feat)
            if tb is None:
                return False
            if ta in h:
                if h[ta] != tb:
                    return False
            else:
                h[ta] = tb
                queue.append(ta)
    for wa, val in ma.fstruct.atomval.items():
        if wa not in h or mb.fstruct.atomval.get(h[wa]) != val:
            return False
    for t, wa in ma.zoomin.items():
        if t not in mb.zoomin or mb.zoomin[t] != h.get(wa):
            return False
    return True


def _initial_convention(m: Model) -> bool:
    """The designated initial node is invisible to formulas, so the
    enumeration pins it the way the parser does: the root's image when
    the root has one, otherwise the unique transition-less-from-above
    entry point."""
    root = m.cstruct.root
    if root in m.zoomin:
        return m.fstruct.initial == m.zoomin[root]
    incoming = set()
    for table in m.fstruct.trans.values():
        incoming.update(table.values())
    sources = [w for w in m.fstruct.nodes if w not in incoming]
    return len(sources) == 1 and m.fstruct.initial == sources[0]


def blind_parse(theory, sig, start, tokens, max_tree, max_f):
    """Exhaustive enumerate-and-filter parsing at micro scale.

    Filters: structural validity, the initial-node convention, validity
    of every theory formula (denotation oracle), and subsumption
    minimality among the valid models sharing a tree.  Returns sorted
    canonical serializations.
    """
    results = []
    for cstruct in all_trees(sig, tokens, start, max_tree):
        valid_here = []
        for fstruct in all_fstructs(sig, max_f):
            for zoomin in all_zoomins(cstruct.nodes, fstruct.nodes):
                m = Model(sig, cstruct, fstruct, zoomin)
                if not reference_validate_model(m).ok:
                    continue
                if not _initial_convention(m):
                    continue
                if any(
                    oracle_valid(m, f) is not None for _, f in theory.labeled()
                ):
                    continue
                valid_here.append(m)
        for m in valid_here:
            if any(
                other is not m and subsumes(other, m) and not subsumes(m, other)
                for other in valid_here
            ):
                continue
            results.append(reference_model_to_text(reference_canonicalize(m)))
    return sorted(set(results))


# ---------------------------------------------------------------------------
# Two-phase parsing, one candidate at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRejection:
    reason: str
    detail: str
    node: NodeId | None = None


@dataclass(frozen=True)
class ReferenceOutcome:
    models: tuple
    bound_exceeded: bool
    rejections: tuple = ()


@dataclass(frozen=True)
class _RefDLex:
    entry: LexEntry


@dataclass(frozen=True)
class _RefDPhrase:
    rule: AnnotatedRule
    children: tuple


def _ref_ends(remaining: int, pos: int, j: int) -> range:
    """End positions of a rule element at ``pos`` with ``remaining`` more
    elements (one token each at least) before the span ends at ``j``."""
    return range(j if remaining == 0 else pos + 1, j - remaining + 1)


class _RefSkeletonEnumerator:
    def __init__(self, grammar: Grammar, tokens):
        self.grammar = grammar
        self.tokens = tokens
        self.bound_hit = False
        self.derivable = self._derivable_table()
        self.memo: dict[tuple[str, int, int, int], list] = {}

    def _derivable_table(self):
        """Budget-free derivability of (cat, i, j), built bottom-up by
        span length.  Every rule element covers at least one token, so a
        span needs only shorter spans, plus unary rules over itself;
        those are closed by a local fixpoint (unary rule cycles)."""
        n = len(self.tokens)
        table: set[tuple[str, int, int]] = set()
        for i, tok in enumerate(self.tokens):
            for entry in self.grammar.entries_for(tok):
                table.add((entry.cat, i, i + 1))
        for length in range(1, n + 1):
            for i in range(n - length + 1):
                j = i + length
                changed = True
                while changed:
                    changed = False
                    for rule in self.grammar.rules:
                        if (rule.lhs, i, j) in table:
                            continue
                        if self._completes(rule, 0, i, j, table):
                            table.add((rule.lhs, i, j))
                            changed = True
        return table

    def _completes(self, rule, idx, pos, j, table) -> bool:
        """Whether the elements of ``rule`` from ``idx`` on can span
        tokens[pos:j] by spans in ``table``."""
        if idx == len(rule.rhs):
            return pos == j
        for end in _ref_ends(len(rule.rhs) - idx - 1, pos, j):
            if (rule.rhs[idx].cat, pos, end) in table and self._completes(
                rule, idx + 1, end, j, table
            ):
                return True
        return False

    def derive(self, cat: str, i: int, j: int, budget: int):
        """All derivations of ``cat`` over tokens[i:j] using at most
        ``budget`` tree nodes, as (derivation, node count) pairs.

        Results are memoised per (cat, i, j, budget), so sub-derivations
        are shared objects across parents and the returned list must not
        be mutated; a recursive call always has a smaller budget, so a key
        never recurs while it is computed.  Spans outside the derivability
        table are not entered, nor rules that cannot span tokens[i:j], nor
        an element's end from which the later elements cannot reach
        ``j``: no bound cut there can lose a tree."""
        if (cat, i, j) not in self.derivable:
            return []
        key = (cat, i, j, budget)
        out = self.memo.get(key)
        if out is not None:
            return out
        out = self.memo[key] = []
        if j - i == 1:
            entries = [e for e in self.grammar.entries_for(self.tokens[i]) if e.cat == cat]
            if entries:
                if budget >= 2:
                    out.extend((_RefDLex(e), 2) for e in entries)
                else:
                    self.bound_hit = True
        for rule in self.grammar.rules:
            if rule.lhs != cat or not self._completes(rule, 0, i, j, self.derivable):
                continue
            if budget < 1 + 2 * (j - i):
                self.bound_hit = True
                continue
            for children, used in self._sequences(rule, 0, i, j, budget - 1):
                out.append((_RefDPhrase(rule, children), 1 + used))
        return out

    def _sequences(self, rule, idx, pos, j, avail):
        if idx == len(rule.rhs):
            yield (), 0
            return
        for end in _ref_ends(len(rule.rhs) - idx - 1, pos, j):
            if not self._completes(rule, idx + 1, end, j, self.derivable):
                continue
            reserve = 2 * (j - end)  # least any continuation can cost
            for d, c in self.derive(rule.rhs[idx].cat, pos, end, avail - reserve):
                for rest, used in self._sequences(rule, idx + 1, end, j, avail - c):
                    yield (d,) + rest, c + used


def _ref_build_tree(deriv):
    """Materialize a derivation as a CStructure with preorder node ids.

    Returns the structure plus the instantiation points: (node, rule,
    daughter ids) triples and (preterminal, entry) pairs.
    """
    labels: dict[NodeId, str] = {}
    daughters: dict[NodeId, tuple[NodeId, ...]] = {}
    phrases = []
    preterminals = []
    counter = [0]

    def walk(d) -> NodeId:
        nid = "n%d" % counter[0]
        counter[0] += 1
        if isinstance(d, _RefDLex):
            leaf = "n%d" % counter[0]
            counter[0] += 1
            labels[nid] = d.entry.cat
            labels[leaf] = d.entry.word
            daughters[nid] = (leaf,)
            daughters[leaf] = ()
            preterminals.append((nid, d.entry))
        else:
            labels[nid] = d.rule.lhs
            kids = tuple(walk(c) for c in d.children)
            daughters[nid] = kids
            phrases.append((nid, d.rule, kids))
        return nid

    root = walk(deriv)
    return CStructure.build(root, daughters, labels), phrases, preterminals


# ---------------------------------------------------------------------------
# Equation solving (union-find with congruence)
# ---------------------------------------------------------------------------


class _RefClash(Exception):
    def __init__(self, detail):
        super().__init__(detail)
        self.detail = detail


class _RefUnionFind:
    """f-structure skeleton under construction: classes with functional
    transition tables and optional atoms, merged with congruence."""

    def __init__(self):
        self.parent: list[int] = []
        self.trans: list[dict[str, int]] = []
        self.atom: list[str | None] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        self.trans.append({})
        self.atom.append(None)
        return len(self.parent) - 1

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
                if self.atom[ra] is None:
                    self.atom[ra] = self.atom[rb]
                elif self.atom[ra] != self.atom[rb]:
                    raise _RefClash(
                        "distinct atoms %r and %r forced onto one node"
                        % (self.atom[ra], self.atom[rb])
                    )
            for feat, tgt in self.trans[rb].items():
                if feat in self.trans[ra]:
                    queue.append((self.trans[ra][feat], tgt))
                else:
                    self.trans[ra][feat] = tgt

    def step(self, i: int, feat: str, create: bool):
        r = self.find(i)
        tgt = self.trans[r].get(feat)
        if tgt is not None:
            return self.find(tgt)
        if not create:
            return None
        w = self.make()
        self.trans[r][feat] = w
        return w

    def walk(self, i: int, path, create: bool):
        cur = i
        for feat in path:
            cur = self.step(cur, feat, create)
            if cur is None:
                return None
        return cur

    def set_atom(self, i: int, value: str):
        r = self.find(i)
        if self.atom[r] is None:
            self.atom[r] = value
        elif self.atom[r] != value:
            raise _RefClash(
                "distinct atoms %r and %r forced onto one node"
                % (self.atom[r], value)
            )


def _ref_solve(cstruct, phrases, preterminals):
    """Instantiate the defining equations for one derivation and return
    (union-find, zoom-variable map), or raise _RefClash."""
    uf = _RefUnionFind()
    zvar: dict[NodeId, int] = {}

    def z(n: NodeId) -> int:
        if n not in zvar:
            zvar[n] = uf.make()
        return zvar[n]

    semform_args: list[tuple[int, tuple[str, ...]]] = []

    for n, rule, kids in phrases:
        for elem, kid in zip(rule.rhs, kids):
            for schema in elem.schemata:
                if isinstance(schema, PathEqSchema):
                    a = uf.walk(z(n), schema.up_path, create=True)
                    b = uf.walk(z(kid), schema.down_path, create=True)
                    uf.union(a, b)
                elif isinstance(schema, AtomValueSchema):
                    uf.set_atom(uf.walk(z(n), schema.path, create=True), schema.value)
                else:
                    raise GrammarError("semantic forms are only allowed in lexical entries")

    for p, entry in preterminals:
        if not entry.schemata:
            continue
        mo = cstruct.mother.get(p)
        if mo is None:
            raise _RefClash("lexical schemata of %r need a node above the preterminal" % entry.word)
        base = z(mo)
        for schema in entry.schemata:
            if isinstance(schema, AtomValueSchema):
                uf.set_atom(uf.walk(base, schema.path, create=True), schema.value)
            elif isinstance(schema, SemForm):
                uf.set_atom(
                    uf.walk(base, (PRED_FEAT, REL_FEAT), create=True), schema.rel
                )
                for g in schema.args:
                    uf.walk(base, (PRED_FEAT,) + g, create=True)
                    semform_args.append((base, g))
            else:
                raise GrammarError("'down' cannot appear in a lexical schema")

    # argument slots link up with local paths that the other equations
    # define; iterate because one identification can define another path
    changed = True
    while changed:
        changed = False
        for base, g in semform_args:
            slot = uf.walk(base, (PRED_FEAT,) + g, create=False)
            local = uf.walk(base, g, create=False)
            if local is not None and uf.find(slot) != uf.find(local):
                uf.union(slot, local)
                changed = True

    # uniqueness: an atom may not share a node with outgoing transitions
    for i in range(len(uf.parent)):
        r = uf.find(i)
        if uf.atom[r] is not None and uf.trans[r]:
            raise _RefClash(
                "atom %r forced onto a node with outgoing transitions" % uf.atom[r]
            )

    return uf, zvar


def _ref_extract_model(sig, cstruct, uf: _RefUnionFind, zvar) -> tuple[Model | None, str | None]:
    """Build the least-solution model; (None, reason) when no sensible
    f-structure exists (entry point missing or not unique)."""
    roots: list[int] = []
    seen = set()
    for i in range(len(uf.parent)):
        r = uf.find(i)
        if r not in seen:
            seen.add(r)
            roots.append(r)

    if not roots:
        fstruct = FStructure(frozenset(["w0"]), "w0", {"w0": {}})
        return Model(sig, cstruct, fstruct, {}), None

    name = {r: "w%d" % k for k, r in enumerate(roots)}

    root_var = zvar.get(cstruct.root)
    if root_var is not None:
        initial = uf.find(root_var)
    else:
        incoming = set()
        for r in roots:
            for tgt in uf.trans[r].values():
                incoming.add(uf.find(tgt))
        sources = [r for r in roots if r not in incoming]
        if len(sources) != 1:
            return None, "no unique entry point into the f-structure"
        initial = sources[0]

    trans = {
        name[r]: {feat: name[uf.find(t)] for feat, t in sorted(uf.trans[r].items())}
        for r in roots
    }
    atomval = {name[r]: uf.atom[r] for r in roots if uf.atom[r] is not None}
    fstruct = FStructure(
        frozenset(name.values()), name[initial], trans, frozenset(atomval), atomval
    )
    zoomin = {n: name[uf.find(v)] for n, v in zvar.items()}
    return Model(sig, cstruct, fstruct, zoomin), None


def reference_two_phase_parse(theory, grammar, tokens, bounds):
    """All minimal models of ``theory`` with the given yield, root label
    equal to the grammar's start category, within ``bounds``; every
    candidate tree is built and solved on its own."""
    tokens = list(tokens)
    if not tokens:
        raise GrammarError("no tokens to parse")
    for tok in tokens:
        if tok not in grammar.sig.words:
            raise SignatureError("unknown token %r" % tok)

    enum = _RefSkeletonEnumerator(grammar, tokens)
    derivations = enum.derive(grammar.start, 0, len(tokens), bounds.max_tree_nodes)
    bound_exceeded = enum.bound_hit

    rejections: list[ReferenceRejection] = []
    found: dict[str, Model] = {}
    for deriv, _count in derivations:
        cstruct, phrases, preterminals = _ref_build_tree(deriv)
        try:
            uf, zvar = _ref_solve(cstruct, phrases, preterminals)
        except _RefClash as clash:
            rejections.append(ReferenceRejection("clash", clash.detail))
            continue
        model, why = _ref_extract_model(grammar.sig, cstruct, uf, zvar)
        if model is None:
            rejections.append(ReferenceRejection("structure", why))
            continue
        if len(model.fstruct.nodes) > bounds.max_f_nodes:
            bound_exceeded = True
            continue
        report = reference_validate_model(model)
        if not report.ok:
            rejections.append(
                ReferenceRejection("structure", "; ".join(sorted(report.codes())))
            )
            continue
        bad = None
        for label, f in theory.labeled():
            node = valid(model, f)
            if node is not None:
                bad = ReferenceRejection("formula", label, node)
                break
        if bad is not None:
            rejections.append(bad)
            continue
        cm = reference_canonicalize(model)
        found.setdefault(reference_model_to_text(cm), cm)

    models = [found[k] for k in sorted(found)]
    if len(models) > bounds.max_models:
        models = models[: bounds.max_models]
        bound_exceeded = True
    return ReferenceOutcome(tuple(models), bound_exceeded, tuple(rejections))
