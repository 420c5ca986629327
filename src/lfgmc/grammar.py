"""Annotated phrase-structure grammars and their compilation to theories.

A grammar file declares a signature, annotated rules, lexical entries
and an optional start symbol:

    signature {
      cat: S NP VP Det N V;
      atom: a sing pst girl walk;
      feat: subj spec num pred tense rel;
      gf: subj;
    }
    start S;
    rule S -> NP {(up subj)=down} VP {up=down};
    rule NP -> Det N;
    rule VP -> V {up=down};
    lex "a" Det {(up spec)=a; (up num)=sing};
    lex "girl" N {(up pred)=girl(); (up num)=sing};
    lex "walks" V {(up pred)=walk(subj); (up tense)=pst};

``#`` starts a comment.  Rule schemata annotate the element they follow
and come in two shapes: a path equation ``(up p...) = (down q...)``
(``up`` / ``down`` abbreviate the empty-path forms) and an atomic value
assignment ``(up p...) = atom``.  Lexical schemata allow the atomic
form and semantic forms ``rel(gf, ...)``, whose arguments must be
declared grammatical functions (multi-step ones are written
``obl.obj``).  Only defining equations exist here; the check-only
``=c`` variant is rejected at parse time.

Compilation produces a :class:`Theory`:

* one licensing axiom: any tree node with at least one grandchild must
  match some rule, where a rule ``X -> Y1 {s...} ... Yk {s...}`` becomes
  ``X & bullet(Y1 & ..., ..., Yk & ...)``;
* one lexical axiom: any preterminal (sole daughter is a word leaf) must
  match some entry ``cat & bullet("word") & ...``;
* completeness and coherence axioms, one pair per grammatical function.

Annotation compilation targets the annotated element: ``(up p)=(down q)``
becomes the path equality ``up zoomin p ~ zoomin q`` and ``(up p)=a``
becomes ``up zoomin <p...> a``.  The ``up`` of a *lexical* schema
denotes the f-structure of the preterminal's mother, so entry schemata
also compile under ``up zoomin``; entries whose word never occurs under
a suitable preterminal simply fail to license it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import GrammarError, GrammarSyntaxError, SignatureError
from .formula import (
    And,
    AtomLit,
    Bullet,
    CatLit,
    CSTRUCT,
    Down,
    Feat,
    Formula,
    Implies,
    Or,
    PathEq,
    TRUE,
    TrueF,
    Up,
    WordLit,
    Zoomin,
)
from .model import RESERVED_WORDS, Signature

#: Feature holding the relation name inside a compiled semantic form.
REL_FEAT = "rel"
#: Feature holding the semantic form itself.
PRED_FEAT = "pred"


@dataclass(frozen=True)
class PathEqSchema:
    """``(up up_path) = (down down_path)``; both paths may be empty."""

    up_path: tuple[str, ...] = ()
    down_path: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "up_path", tuple(self.up_path))
        object.__setattr__(self, "down_path", tuple(self.down_path))


@dataclass(frozen=True)
class AtomValueSchema:
    """``(up path) = value`` with an atomic right-hand side."""

    path: tuple[str, ...]
    value: str

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))


@dataclass(frozen=True)
class SemForm:
    """``(up pred) = rel(gf, ...)``: a relation plus governed functions."""

    rel: str
    args: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(tuple(a) for a in self.args))


@dataclass(frozen=True)
class RuleElement:
    cat: str
    schemata: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "schemata", tuple(self.schemata))


@dataclass(frozen=True)
class AnnotatedRule:
    lhs: str
    rhs: tuple[RuleElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))


@dataclass(frozen=True)
class LexEntry:
    word: str
    cat: str
    schemata: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "schemata", tuple(self.schemata))


@dataclass(frozen=True)
class Grammar:
    sig: Signature
    start: str
    rules: tuple[AnnotatedRule, ...]
    lexicon: tuple[LexEntry, ...]

    def entries_for(self, word: str) -> tuple[LexEntry, ...]:
        """The entries for ``word``, in lexicon order."""
        return self._by_word.get(word, ())

    @cached_property
    def _by_word(self) -> dict[str, tuple[LexEntry, ...]]:
        by_word: dict[str, list[LexEntry]] = {}
        for e in self.lexicon:
            by_word.setdefault(e.word, []).append(e)
        return {w: tuple(es) for w, es in by_word.items()}


@dataclass(frozen=True)
class Theory:
    """The compiled constraint set whose joint validity is grammaticality."""

    licensing: Formula
    lexical: Formula
    completeness: tuple[Formula, ...] = ()
    coherence: tuple[Formula, ...] = ()
    gf: tuple[tuple[str, ...], ...] = ()

    def labeled(self) -> tuple[tuple[str, Formula], ...]:
        out = [("licensing", self.licensing), ("lexical", self.lexical)]
        for seq, f in zip(self.gf, self.completeness):
            out.append(("completeness[%s]" % ".".join(seq), f))
        for seq, f in zip(self.gf, self.coherence):
            out.append(("coherence[%s]" % ".".join(seq), f))
        return tuple(out)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _and_fold(parts: list[Formula]) -> Formula:
    f = parts[0]
    for p in parts[1:]:
        f = And(f, p)
    return f


def _or_fold(parts: list[Formula]) -> Formula:
    f = parts[0]
    for p in parts[1:]:
        f = Or(f, p)
    return f


def _feat_chain(path, inner: Formula) -> Formula:
    f = inner
    for name in reversed(tuple(path)):
        f = Feat(name, f)
    return f


def _check_feats(path, sig: Signature):
    for name in path:
        if name not in sig.feats:
            raise SignatureError("unknown feature %r" % name)


def _compile_schema(schema, sig: Signature) -> Formula:
    """One annotation, compiled for evaluation at the annotated node."""
    if isinstance(schema, PathEqSchema):
        _check_feats(schema.up_path, sig)
        _check_feats(schema.down_path, sig)
        return PathEq(("up",), schema.up_path, (), schema.down_path)
    if isinstance(schema, AtomValueSchema):
        _check_feats(schema.path, sig)
        if schema.value not in sig.atoms:
            raise SignatureError("unknown atom %r" % schema.value)
        return Up(Zoomin(_feat_chain(schema.path, AtomLit(schema.value))))
    if isinstance(schema, SemForm):
        if schema.rel not in sig.atoms:
            raise SignatureError("unknown atom %r" % schema.rel)
        if REL_FEAT not in sig.feats or PRED_FEAT not in sig.feats:
            raise SignatureError(
                "semantic forms need the %r and %r features" % (PRED_FEAT, REL_FEAT)
            )
        parts: list[Formula] = [Feat(REL_FEAT, AtomLit(schema.rel))]
        for g in schema.args:
            if g not in sig.gf:
                raise SignatureError(
                    "semantic-form argument %r is not a declared grammatical "
                    "function" % ".".join(g)
                )
            parts.append(_feat_chain(g, TRUE))
        return Up(Zoomin(Feat(PRED_FEAT, _and_fold(parts))))
    raise TypeError("not a schema: %r" % (schema,))


def compile_rule(rule: AnnotatedRule, sig: Signature) -> Formula:
    """A rule as one licensing disjunct: ``lhs & bullet(elem1, ..., elemk)``
    where each element is its category conjoined with its compiled
    schemata."""
    if rule.lhs not in sig.cats:
        raise SignatureError("unknown category %r" % rule.lhs)
    if not rule.rhs:
        raise GrammarError("rule for %r has an empty right-hand side" % rule.lhs)
    args = []
    for elem in rule.rhs:
        if elem.cat not in sig.cats:
            raise SignatureError("unknown category %r" % elem.cat)
        parts: list[Formula] = [CatLit(elem.cat)]
        for schema in elem.schemata:
            if isinstance(schema, SemForm):
                raise GrammarError("semantic forms are only allowed in lexical entries")
            parts.append(_compile_schema(schema, sig))
        args.append(_and_fold(parts))
    return And(CatLit(rule.lhs), Bullet(tuple(args)))


def compile_lexicon(lexicon, sig: Signature) -> Formula:
    """The lexical axiom: every preterminal must match some entry.

    A preterminal is a tree node whose single daughter is a word leaf;
    the antecedent recognizes that shape with an arity-one bullet over
    the word alphabet.  Words without entries make the axiom fail at
    check time rather than erroring here.
    """
    lexicon = tuple(lexicon)
    if not lexicon:
        raise GrammarError("lexicon is empty")
    if not sig.words:
        raise GrammarError("signature declares no word forms")
    word_shape = Bullet((_or_fold([WordLit(w) for w in sorted(sig.words)]),))
    disjuncts = []
    for entry in lexicon:
        if entry.cat not in sig.cats:
            raise SignatureError("unknown category %r" % entry.cat)
        if entry.word not in sig.words:
            raise SignatureError("word form %r is not declared" % entry.word)
        parts: list[Formula] = [CatLit(entry.cat), Bullet((WordLit(entry.word),))]
        for schema in entry.schemata:
            if isinstance(schema, PathEqSchema):
                raise GrammarError("'down' cannot appear in a lexical schema")
            parts.append(_compile_schema(schema, sig))
        disjuncts.append(_and_fold(parts))
    return Implies(And(CSTRUCT, word_shape), _or_fold(disjuncts))


def completeness_axioms(sig: Signature) -> list[Formula]:
    """One axiom per grammatical function: a function governed by the
    local pred must itself be present."""
    out = []
    for g in sig.gf:
        out.append(
            Implies(Feat(PRED_FEAT, _feat_chain(g, TRUE)), _feat_chain(g, TRUE))
        )
    return out


def coherence_axioms(sig: Signature) -> list[Formula]:
    """One axiom per grammatical function: a function that is present,
    where a pred exists, must be governed by that pred."""
    out = []
    for g in sig.gf:
        out.append(
            Implies(
                And(_feat_chain(g, TRUE), Feat(PRED_FEAT, TRUE)),
                Feat(PRED_FEAT, _feat_chain(g, TRUE)),
            )
        )
    return out


def compile_grammar(grammar: Grammar) -> Theory:
    """Compile rules, lexicon and well-formedness conditions.

    The licensing antecedent is "tree node with at least one grandchild":
    with word leaves confined to preterminals this picks out exactly the
    phrase-level nodes, and preterminals are licensed by the separate
    lexical axiom instead.
    """
    if not grammar.rules:
        raise GrammarError("grammar has no rules")
    licensing = Implies(
        And(CSTRUCT, Down(Down(TRUE))),
        _or_fold([compile_rule(r, grammar.sig) for r in grammar.rules]),
    )
    if grammar.lexicon:
        lexical = compile_lexicon(grammar.lexicon, grammar.sig)
    else:
        lexical = TrueF()
    return Theory(
        licensing=licensing,
        lexical=lexical,
        completeness=tuple(completeness_axioms(grammar.sig)),
        coherence=tuple(coherence_axioms(grammar.sig)),
        gf=grammar.sig.gf,
    )


# ---------------------------------------------------------------------------
# Grammar file parser
# ---------------------------------------------------------------------------


class _GTok(NamedTuple):
    kind: str  # IDENT STRING OP EOF
    value: str
    line: int
    col: int


#: One token of a line, after blanks.  An identifier starts with a letter
#: or ``_`` (re-checked in Python, because ``[^\W\d]`` also admits digits
#: that are not decimal) and continues with ``\w``, which is
#: ``str.isalnum()`` or ``_``; ``=c`` is an operator unless a name
#: character follows (``=cat`` is ``=`` then ``cat``).  A ``"`` that opens
#: no complete string, and any other character, is ``BAD``.
_G_TOKEN_RE = re.compile(
    r"""[ \t\r]*
    (?: (?P<IDENT>[^\W\d]\w*)
      | (?P<STRING>"[^"\n]*")
      | (?P<OP>->|=c(?!\w)|[{}();:,.=])
      | (?P<COMMENT>\#.*)
      | (?P<BAD>.)
      | \Z )""",
    re.VERBOSE,
)


def _g_tokenize(text: str) -> list[_GTok]:
    toks: list[_GTok] = []
    for line, row in enumerate(text.split("\n"), start=1):
        col = len(row) + 1  # where the input ends, if it ends on this row
        for m in _G_TOKEN_RE.finditer(row):
            kind = m.lastgroup
            if kind is None:  # blanks up to the end of the row
                break
            start = m.start(kind)
            if kind == "COMMENT":
                col = start + 1
                break
            value = m.group(kind)
            if kind == "BAD" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
                if value[0] == '"':
                    raise GrammarSyntaxError("unterminated string literal", line, start + 1)
                raise GrammarSyntaxError("unexpected character %r" % value[0], line, start + 1)
            toks.append(_GTok(kind, value[1:-1] if kind == "STRING" else value, line, start + 1))
    toks.append(_GTok("EOF", "", line, col))
    return toks


class _GParser:
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


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar file into its source representation."""
    return _GParser(_g_tokenize(text)).parse()
