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
form and semantic forms, ``(up pred) = rel(gf, ...)`` on that upside
only, whose arguments must be declared grammatical functions
(multi-step ones are written ``obl.obj``).  Only defining equations
exist here; the check-only ``=c`` variant is rejected at parse time.

Each piece, a plain immutable class as a formula node is (see
``lfgmc.formula``), checks its shape once, when built: a rule has an
element, semantic forms annotate entries only and ``down`` rule elements
only (:class:`GrammarError`; any other schema object is a ``TypeError``).
Compilation and the search take the pieces as they are; the reader
checks the same first, so that its errors carry a position.

The file is read in one pass by the reader the formula syntax uses too
(see ``lfgmc.formula``): one ``findall`` over the whole text yields the
tokens as plain strings, and a parser holding the current token and the
declared names in sets reads them front to back.  A ``lex`` statement of
the common shapes, with only spaces and tabs inside, is one *statement
token*, whose entry is built from its text after the checks its plain
tokens get.  On any doubt, a failed check or any error, the text is read
again with plain tokens only.  So a syntax or name error is always that
reader's :class:`GrammarSyntaxError` at the first token that cannot be
read; only then is its position found, by scanning the text again up to it.

Compilation produces a :class:`Theory`:

* one licensing axiom: any tree node with at least one grandchild must
  match some rule, where a rule ``X -> Y1 {s...} ... Yk {s...}`` becomes
  ``X & bullet(Y1 & ..., ..., Yk & ...)``;
* one lexical axiom: any preterminal (sole daughter is a word leaf) must
  match some entry ``cat & bullet("word") & ...``, built when first read;
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
from functools import cached_property, partial, reduce

from .errors import GrammarError, GrammarSyntaxError, SignatureError
from .formula import (
    And,
    AtomLit,
    Bullet,
    CatLit,
    CSTRUCT,
    Down,
    FALSE,
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
    _is_name,
    _Reader,
)
from .model import RESERVED_WORDS, Signature, _Frozen, _spelling_fault

#: Feature holding the relation name inside a compiled semantic form.
REL_FEAT = "rel"
#: Feature holding the semantic form itself.
PRED_FEAT = "pred"


class PathEqSchema(_Frozen):
    """``(up up_path) = (down down_path)``; both paths may be empty."""

    _fields = ("up_path", "down_path")

    def __init__(self, up_path: tuple[str, ...] = (), down_path: tuple[str, ...] = ()):
        self.__dict__.update(up_path=tuple(up_path), down_path=tuple(down_path))


class AtomValueSchema(_Frozen):
    """``(up path) = value`` with an atomic right-hand side."""

    _fields = ("path", "value")

    def __init__(self, path: tuple[str, ...], value: str):
        self.__dict__.update(path=tuple(path), value=value)


class SemForm(_Frozen):
    """``(up pred) = rel(gf, ...)``: a relation plus governed functions."""

    _fields = ("rel", "args")

    def __init__(self, rel: str, args: tuple[tuple[str, ...], ...] = ()):
        self.__dict__.update(rel=rel, args=tuple(map(tuple, args)))


def _held_schemata(schemata, allowed: tuple, message: str) -> tuple:
    """``schemata`` as a tuple of ``allowed`` schemata: another schema
    raises ``GrammarError(message)``, any other object ``TypeError``."""
    schemata = tuple(schemata)
    for s in schemata:
        if not isinstance(s, allowed):
            if isinstance(s, (PathEqSchema, AtomValueSchema, SemForm)):
                raise GrammarError(message)
            raise TypeError("not a schema: %r" % (s,))
    return schemata


class RuleElement(_Frozen):
    _fields = ("cat", "schemata")

    def __init__(self, cat: str, schemata: tuple = ()):
        schemata = _held_schemata(schemata, (PathEqSchema, AtomValueSchema),
                                  "semantic forms are only allowed in lexical entries")
        self.__dict__.update(cat=cat, schemata=schemata)


class AnnotatedRule(_Frozen):
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: str, rhs: tuple[RuleElement, ...]):
        rhs = tuple(rhs)
        self.__dict__.update(lhs=lhs, rhs=rhs)
        if not rhs:
            raise GrammarError("rule for %r has an empty right-hand side" % lhs)


class LexEntry(_Frozen):
    _fields = ("word", "cat", "schemata")

    def __init__(self, word: str, cat: str, schemata: tuple = ()):
        schemata = _held_schemata(schemata, (AtomValueSchema, SemForm),
                                  "'down' cannot appear in a lexical schema")
        self.__dict__.update(word=word, cat=cat, schemata=schemata)


class Grammar(_Frozen):
    """A signature, a start category, annotated rules and a lexicon."""

    _fields = ("sig", "start", "rules", "lexicon")

    def __init__(self, sig: Signature, start: str, rules: tuple[AnnotatedRule, ...],
                 lexicon: tuple[LexEntry, ...]):
        self.__dict__.update(sig=sig, start=start, rules=tuple(rules), lexicon=tuple(lexicon))

    def entries_for(self, word: str) -> tuple[LexEntry, ...]:
        """The entries for ``word``, in lexicon order."""
        return self._by_word.get(word, ())

    @cached_property
    def _by_word(self) -> dict[str, tuple[LexEntry, ...]]:
        by_word: dict[str, list[LexEntry]] = {}
        for e in self.lexicon:
            by_word.setdefault(e.word, []).append(e)
        return {w: tuple(es) for w, es in by_word.items()}

    @cached_property
    def _plan(self) -> _ParsePlan:
        return _ParsePlan(self)

    def __getstate__(self):  # a copy's pieces have other ids: it builds its own plan
        return {k: v for k, v in self.__dict__.items() if k != "_plan"}


ATOM_OP, EQ_OP, LINK_OP = range(3)  # the kinds of a rule's ops in a _ParsePlan


class _ParsePlan:
    """What the search reads of a grammar, built once per grammar:
    ``ops[id(piece)]``, a rule's or an entry's schemata as ops, in schema
    order, and the rules in order by their first element's category
    (``by_first``, with the later elements' categories) and by their
    left-hand side (``by_lhs``, with all their elements' categories)."""

    def __init__(self, grammar: Grammar):
        self.ops, self.by_first, self.by_lhs = {}, {}, {}
        for rule in grammar.rules:
            cats = tuple(e.cat for e in rule.rhs)
            self.by_first.setdefault(cats[0], []).append((rule, cats[1:]))
            self.by_lhs.setdefault(rule.lhs, []).append((rule, cats))
            # k indexes the annotated element; LINK_OP is (up p)=down
            self.ops[id(rule)] = tuple(
                (ATOM_OP, k, s.path, s.value) if isinstance(s, AtomValueSchema)
                else (EQ_OP, k, s.up_path, s.down_path) if s.down_path
                else (LINK_OP, k, s.up_path, None)
                for k, e in enumerate(rule.rhs) for s in e.schemata)
        for entry in grammar.lexicon:
            ops = []  # (path, value, None) for an atom, ((pred,) + g, None, g) for a slot
            for s in entry.schemata:
                if isinstance(s, AtomValueSchema):
                    ops.append((s.path, s.value, None))
                else:
                    ops.append(((PRED_FEAT, REL_FEAT), s.rel, None))
                    ops.extend(((PRED_FEAT,) + g, None, g) for g in s.args)
            self.ops[id(entry)] = tuple(ops)


class Theory(_Frozen):
    """The compiled constraint set whose joint validity is grammaticality.
    Outside the fields, ``source`` is the grammar ``compile_grammar``
    compiled it from (None for a theory built otherwise) and ``compiled``
    names the fields still as it made them; ``replace`` keeps ``source``
    and drops each field given another object (by identity: ``==`` would
    walk the lexical axiom).  The search decides each label by them (see
    ``lfgmc.search``).  ``compile_grammar`` gives ``lexical`` as a
    ``partial`` that builds it when first read (by ``labeled``, ``==``,
    ``hash`` or ``repr`` too); until then the theory pickles and
    ``replace`` copies without it."""

    _fields = ("licensing", "lexical", "completeness", "coherence", "gf")
    source: Grammar | None = None
    compiled: frozenset[str] = frozenset()

    def __init__(self, licensing: Formula, lexical: Formula, completeness: tuple[Formula, ...] = (),
                 coherence: tuple[Formula, ...] = (), gf: tuple[tuple[str, ...], ...] = ()):
        d = self.__dict__
        d.update(licensing=licensing, completeness=tuple(completeness),
                 coherence=tuple(coherence), gf=tuple(map(tuple, gf)))
        d["_lexical" if type(lexical) is partial else "lexical"] = lexical
        for name in ("completeness", "coherence"):  # one axiom per grammatical function
            if len(d[name]) != len(d["gf"]):
                raise ValueError("%s has %d formulas for %d grammatical functions"
                                 % (name, len(d[name]), len(d["gf"])))

    @cached_property
    def lexical(self) -> Formula:
        return self.__dict__.pop("_lexical")()

    def _values(self) -> tuple:
        self.lexical  # built now, if it was given unbuilt
        return super()._values()

    _key = _values

    def replace(self, **changes):
        """``_Frozen.replace``, keeping ``source`` and the ``compiled``
        fields that ``changes`` gives no other object for."""
        d = self.__dict__
        old = {k: d[k] if k in d else d["_lexical"] for k in self._fields}
        copy = type(self)(**{**old, **changes})
        changed = {k for k, v in changes.items() if v is not old[k]}
        copy.__dict__.update(source=self.source, compiled=self.compiled - changed)
        return copy

    def labeled(self) -> tuple[tuple[str, Formula], ...]:
        return (("licensing", self.licensing), ("lexical", self.lexical), *self.principles())

    def principles(self) -> tuple[tuple[str, Formula], ...]:
        """The completeness and coherence axioms with their labels."""
        gf = [".".join(seq) for seq in self.gf]
        return (*(("completeness[%s]" % g, f) for g, f in zip(gf, self.completeness)),
                *(("coherence[%s]" % g, f) for g, f in zip(gf, self.coherence)))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _feat_chain(path, inner: Formula) -> Formula:
    f = inner
    for name in reversed(tuple(path)):
        f = Feat(name, f)
    return f


def _check_schema(schema, sig: Signature):
    """Raise the ``SignatureError`` of the first name ``schema`` uses that
    ``sig`` does not declare; compiling it then cannot fail."""
    if isinstance(schema, SemForm):
        if schema.rel not in sig.atoms:
            raise SignatureError("unknown atom %r" % schema.rel)
        if REL_FEAT not in sig.feats or PRED_FEAT not in sig.feats:
            raise SignatureError("semantic forms need the %r and %r features"
                                 % (PRED_FEAT, REL_FEAT))
        for g in schema.args:
            if g not in sig.gf:
                raise SignatureError("semantic-form argument %r is not a declared "
                                     "grammatical function" % ".".join(g))
        return
    value = isinstance(schema, AtomValueSchema)
    for name in schema.path if value else schema.up_path + schema.down_path:
        if name not in sig.feats:
            raise SignatureError("unknown feature %r" % name)
    if value and schema.value not in sig.atoms:
        raise SignatureError("unknown atom %r" % schema.value)


def _compile_schema(schema) -> Formula:
    """One checked annotation, compiled for evaluation at the annotated node."""
    if isinstance(schema, PathEqSchema):
        return PathEq(("up",), schema.up_path, (), schema.down_path)
    if isinstance(schema, AtomValueSchema):
        return Up(Zoomin(_feat_chain(schema.path, AtomLit(schema.value))))
    # a semantic form
    parts: list[Formula] = [Feat(REL_FEAT, AtomLit(schema.rel))]
    parts += [_feat_chain(g, TRUE) for g in schema.args]
    return Up(Zoomin(Feat(PRED_FEAT, reduce(And, parts))))


def compile_rule(rule: AnnotatedRule, sig: Signature) -> Formula:
    """A rule as one licensing disjunct: ``lhs & bullet(elem1, ..., elemk)``
    where each element is its category conjoined with its compiled
    schemata."""
    if rule.lhs not in sig.cats:
        raise SignatureError("unknown category %r" % rule.lhs)
    args = []
    for elem in rule.rhs:
        if elem.cat not in sig.cats:
            raise SignatureError("unknown category %r" % elem.cat)
        for schema in elem.schemata:
            _check_schema(schema, sig)
        args.append(reduce(And, [CatLit(elem.cat), *map(_compile_schema, elem.schemata)]))
    return And(CatLit(rule.lhs), Bullet(tuple(args)))


def _check_lexicon(lexicon: tuple[LexEntry, ...], sig: Signature):
    """Raise the first error ``compile_lexicon`` would raise on ``lexicon``."""
    if not lexicon:
        raise GrammarError("lexicon is empty")
    if not sig.words:
        raise GrammarError("signature declares no word forms")
    for entry in lexicon:
        if entry.cat not in sig.cats:
            raise SignatureError("unknown category %r" % entry.cat)
        if entry.word not in sig.words:
            raise SignatureError("word form %r is not declared" % entry.word)
        for schema in entry.schemata:
            _check_schema(schema, sig)


def compile_lexicon(lexicon, sig: Signature) -> Formula:
    """The lexical axiom: every preterminal must match some entry.

    A preterminal is a tree node whose single daughter is a word leaf;
    the antecedent recognizes that shape with an arity-one bullet over
    the word alphabet.  Words without entries make the axiom fail at
    check time rather than erroring here.  ``compile_grammar`` checks the
    entries at once but builds the axiom when it is first read, and a
    covered ``check_parse`` builds only its slice for the model's words.
    """
    lexicon = tuple(lexicon)
    _check_lexicon(lexicon, sig)
    return _lexical_axiom(lexicon, sig.words)


def _lexical_axiom(entries, words) -> Formula:
    """The lexical axiom over checked ``entries`` and the word alphabet
    ``words`` (not empty); with no entries its consequent is ``FALSE``."""
    word_shape = Bullet((reduce(Or, [WordLit(w) for w in sorted(words)]),))
    disjuncts = [
        reduce(And, [CatLit(e.cat), Bullet((WordLit(e.word),)), *map(_compile_schema, e.schemata)])
        for e in entries
    ]
    return Implies(And(CSTRUCT, word_shape), reduce(Or, disjuncts) if disjuncts else FALSE)


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
    if grammar.sig.gf and PRED_FEAT not in grammar.sig.feats:
        raise SignatureError("grammatical functions need the %r feature" % PRED_FEAT)
    sig = grammar.sig
    if faults := sig.violations():
        raise SignatureError(faults[0].message)
    for kind, names in [("category", sig.cats), ("atom", sig.atoms), ("feature", sig.feats)]:
        if _spelling_fault(kind, names):  # report the least such name
            raise SignatureError(_spelling_fault(kind, sorted(names)))
    licensing = Implies(
        And(CSTRUCT, Down(Down(TRUE))),
        reduce(Or, [compile_rule(r, grammar.sig) for r in grammar.rules]),
    )
    if grammar.lexicon:  # checked now, built when first read
        _check_lexicon(grammar.lexicon, sig)
    theory = Theory(
        licensing=licensing,
        lexical=partial(_lexical_axiom, grammar.lexicon, sig.words) if grammar.lexicon else TrueF(),
        completeness=tuple(completeness_axioms(grammar.sig)),
        coherence=tuple(coherence_axioms(grammar.sig)),
        gf=grammar.sig.gf,
    )
    theory.__dict__.update(source=grammar, compiled=frozenset(Theory._fields))
    return theory


# ---------------------------------------------------------------------------
# Grammar file parser
# ---------------------------------------------------------------------------


#: One token after blanks, newlines and ``#`` comments; the end of input
#: is ``""``.  A name starts with a letter or ``_`` and continues with
#: ``\w`` (``str.isalnum()`` or ``_``); ``[^\W\d]`` also admits digits that
#: are not decimal, which :meth:`_Reader.scan` rejects.  ``=c`` is an
#: operator unless a name character follows (``=cat`` is ``=`` then
#: ``cat``).  A lone ``"`` and any other character are bad tokens.
_G_TOKEN = r"""(?:[ \t\r\n]|\#[^\n]*)*
    ( %s->|=c(?!\w)|[{}();:,.=]
    | "[^"\n]*"
    | [^\W\d]\w*
    | .
    | \Z )"""
_G_TOKEN_RE = re.compile(_G_TOKEN % "", re.VERBOSE)

#: ``_G_TOKEN_RE`` with one more first alternative, a statement token:
#: ``lex "w" C;`` or ``lex "w" C {S; ...};`` with a word that is not empty
#: and only spaces and tabs between its plain tokens, each schema ``<s>``
#: either ``(up f ...)=atom`` or ``(up pred)=rel(g, ...)`` (``<a>`` an
#: argument, ``<n>`` a name).  A name ends where the plain scanner ends it,
#: and ``=`` is not read where it reads ``=c``.
_G_STATEMENT_RE = re.compile(_G_TOKEN % (
    r'lex[ \t]*"[^"\n]+"[ \t]*<n>[ \t]*(?:\{[ \t]*<s>(?:[ \t]*;[ \t]*<s>)*[ \t]*\}[ \t]*)?;|'
    .replace("<s>", r"\([ \t]*up(?:[ \t]+<n>)*[ \t]*\)[ \t]*=(?!c(?!\w))[ \t]*<n>"
                    r"(?:[ \t]*\([ \t]*(?:<a>(?:[ \t]*,[ \t]*<a>)*)?[ \t]*\))?")
    .replace("<a>", r"<n>(?:[ \t]*\.[ \t]*<n>)*").replace("<n>", r"[^\W\d]\w*")), re.VERBOSE)

#: The parts of each schema of a statement token: the path after ``up``,
#: the atom or relation, and a semantic form's ``(`` and arguments.
_SCHEMA_PARTS_RE = re.compile(r"\([ \t]*up([^)]*)\)[ \t]*=[ \t]*(\w+)[ \t]*(?:(\()([^)]*))?")


class _GParser(_Reader):
    """Reads a grammar file, holding the signature's names in sets: with
    plain tokens only, or, as :class:`_GStatementParser`, with statement
    tokens too, which a name is never taken for."""

    TOKEN_RE = _G_TOKEN_RE
    OPS = frozenset(("->", "=c", "{", "}", "(", ")", ";", ":", ",", ".", "="))
    ERROR = GrammarSyntaxError

    def __init__(self, text: str):
        super().__init__(text)
        self.cats: set[str] = set()
        self.atoms: set[str] = set()
        self.feats: set[str] = set()
        self.gf: list[tuple[str, ...]] = []
        self.rules: list[AnnotatedRule] = []
        self.lexicon: list[LexEntry] = []
        self.start: str | None = None
        self.have_signature = False

    def ident(self, what) -> str:
        if not _is_name(self.tok) or '"' in self.tok:  # nor a statement token
            self.err_got(what)
        return self.advance()

    # -- declarations ------------------------------------------------------

    def parse(self) -> Grammar:
        while self.tok:
            if self.tok[-1] == ";" != self.tok:  # a statement token
                self.parse_lex_statement()
            elif self.tok == "lex":
                self.parse_lex()
            elif self.tok == "rule":
                self.parse_rule()
            elif self.tok == "signature":
                self.parse_signature()
            elif self.tok == "start":
                self.advance()
                self.start = self.ident("a category name")
                if self.start not in self.cats:
                    self.err("unknown start category %r" % self.start, self.pos - 1)
                self.expect(";")
            else:
                self.err_got("'signature', 'rule', 'lex' or 'start'")
        if not self.have_signature:
            self.err("grammar has no signature block")
        # semantic forms and the well-formedness axioms rely on pred/rel
        if any(isinstance(s, SemForm) for e in self.lexicon for s in e.schemata):
            self.feats.update((PRED_FEAT, REL_FEAT))
        if self.gf:
            self.feats.add(PRED_FEAT)
        sig = Signature(self.cats, self.atoms, self.feats, self.gf, {e.word for e in self.lexicon})
        start = self.start or (self.rules[0].lhs if self.rules else "")
        return Grammar(sig, start, tuple(self.rules), tuple(self.lexicon))

    def parse_signature(self):
        if self.have_signature:
            self.err("duplicate signature block")
        self.advance()
        self.expect("{")
        seen = set()
        while self.tok != "}":
            section = self.ident("a section name (cat, atom, feat or gf)")
            if section not in ("cat", "atom", "feat", "gf"):
                self.err("unknown signature section %r" % section, self.pos - 1)
            if section in seen:
                self.err("duplicate %r section" % section, self.pos - 1)
            seen.add(section)
            self.expect(":")
            if section == "gf":
                while self.tok != ";":
                    self.gf.append(self.dotted(lambda: self.sig_name("feature")))
            else:
                target = {"cat": self.cats, "atom": self.atoms, "feat": self.feats}[section]
                while self.tok != ";":
                    target.add(self.sig_name(section))
            self.expect(";")
        self.expect("}")
        for required in ("cat", "atom", "feat"):
            if required not in seen:
                self.err("signature block lacks a %r section" % required)
        for seq in self.gf:
            for f in seq:
                if f not in self.feats:
                    self.err("gf step %r is not a declared feature" % f)
        self.have_signature = True

    def sig_name(self, what) -> str:
        name = self.ident("a %s name" % what)
        if name in RESERVED_WORDS:
            self.err("%r is reserved syntax and cannot name a %s" % (name, what), self.pos - 1)
        return name

    def dotted(self, name) -> tuple[str, ...]:
        """``name ('.' name)*``, each read by ``name()``."""
        seq = [name()]
        while self.tok == ".":
            self.advance()
            seq.append(name())
        return tuple(seq)

    def need_signature(self):
        if not self.have_signature:
            self.err("the signature block must precede rules and lexical entries")

    def category(self) -> str:
        if self.tok not in self.cats:
            self.err("unknown category %r" % self.ident("a category name"), self.pos - 1)
        return self.advance()

    def feature(self) -> str:
        if self.tok not in self.feats:
            name = self.ident("a feature name")
            # the semantic-form features may be used without declaration
            if name != PRED_FEAT and name != REL_FEAT:
                self.err("unknown feature %r" % name, self.pos - 1)
            self.feats.add(name)
            return name
        return self.advance()

    def parse_rule(self):
        self.need_signature()
        self.advance()
        lhs = self.category()
        self.expect("->")
        elements = []
        while self.tok != ";":
            cat = self.category()
            schemata = self.parse_schemata(lexical=False) if self.tok == "{" else ()
            elements.append(RuleElement(cat, schemata))
        self.advance()
        if not elements:
            self.err("rule for %r has no right-hand side" % lhs)
        self.rules.append(AnnotatedRule(lhs, tuple(elements)))

    def parse_lex(self):
        self.need_signature()
        self.advance()
        if self.tok[:1] != '"':
            self.err_got("STRING")
        word = self.advance()[1:-1]
        if not word:
            self.err("empty word form")
        cat = self.category()
        schemata = self.parse_schemata(lexical=True) if self.tok == "{" else ()
        self.expect(";")
        self.lexicon.append(LexEntry(word, cat, schemata))

    def parse_lex_statement(self):
        """A statement token, read as ``parse_lex`` reads its plain tokens;
        a failed check raises a bare error, and the text is read again."""
        _, word, rest = self.advance().split('"')
        cat, _, body = rest.partition("{")
        cat = cat.strip(" \t;")
        ok = cat in self.cats  # so the signature came first
        schemata = []
        for path, name, semantic, args in _SCHEMA_PARTS_RE.findall(body):
            path = tuple(path.split())
            if not self.feats.issuperset(path):  # pred and rel are declared by their use
                ok = ok and not set(path) - self.feats - {PRED_FEAT, REL_FEAT}
                self.feats.update(path)
            ok = ok and name in self.atoms
            if semantic:
                args = "".join(args.split())
                args = [tuple(a.split(".")) for a in args.split(",")] if args else ()
                ok = ok and path == (PRED_FEAT,) and all(map(self.gf.__contains__, args))
                schemata.append(SemForm(name, args))
            else:
                schemata.append(AtomValueSchema(path, name))
        if not ok:
            raise self.ERROR("a statement token fails a check")
        self.lexicon.append(LexEntry(word, cat, schemata))

    def parse_schemata(self, lexical: bool):
        self.advance()  # the '{' the caller saw
        out = []
        while self.tok != "}":
            out.append(self.parse_schema(lexical))
            if self.tok == ";":
                self.advance()
            elif self.tok != "}":
                self.err("expected ';' or '}' after a schema")
        self.advance()
        return tuple(out)

    def parse_updown_path(self, keyword):
        # 'up' | '(' 'up' feature* ')'
        if self.tok == keyword:
            self.advance()
            return ()
        self.expect("(")
        if self.tok != keyword:
            self.err_got(repr(keyword))
        self.advance()
        path = []
        while self.tok != ")":
            path.append(self.feature())
        self.advance()
        return tuple(path)

    def parse_schema(self, lexical: bool):
        up_path = self.parse_updown_path("up")
        if self.tok == "=c":
            self.err("constraining equations (=c) are not supported; only defining "
                     "equations can be stated")
        self.expect("=")
        # right-hand side: down form, atom, or semantic form
        if self.tok == "down" or self.tok == "(" and self.toks[self.pos + 1] == "down":
            if lexical:
                self.err("'down' cannot appear in a lexical schema")
            return PathEqSchema(up_path, self.parse_updown_path("down"))
        at = self.pos
        name = self.ident("an atom or semantic form")
        semantic = self.tok == "("
        if semantic and not lexical:
            self.err("semantic forms are only allowed in lexical entries", at)
        if semantic and up_path != (PRED_FEAT,):
            self.err("a semantic form can only be the value of (up %s)" % PRED_FEAT, at)
        if name not in self.atoms:
            self.err("unknown atom %r" % name, at)
        if not semantic:
            return AtomValueSchema(up_path, name)
        self.advance()
        args = []
        while self.tok != ")":
            args.append(self.dotted(self.feature))
            if self.tok == ",":
                self.advance()
            elif self.tok != ")":
                self.err("expected ',' or ')' in semantic-form arguments")
        self.advance()
        for seq in args:
            if seq not in self.gf:
                msg = "semantic-form argument %r is not a declared grammatical function"
                self.err(msg % ".".join(seq), at)
        return SemForm(name, tuple(args))


class _GStatementParser(_GParser):
    TOKEN_RE = _G_STATEMENT_RE  # a statement token reads as one string


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar file into its source representation."""
    try:
        return _GStatementParser(text).parse()
    except GrammarSyntaxError:  # the plain reader names the error
        return _GParser(text).parse()
