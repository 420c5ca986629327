"""The constraint language: AST, concrete syntax, parser and renderer.

Formulas are immutable trees built from boolean connectives, three tree
modalities (``up``, ``down`` and the variable-arity ``bullet``), one
feature modality per feature name, the ``zoomin`` modality crossing from
the tree into the feature graph, and a path-equality construct that
relates a tree-walk-then-zoomin-then-feature-walk on its left to the
same kind of composite on its right.

Concrete syntax (EBNF; also in the README):

    formula   = iff ;
    iff       = implies , [ "<->" , iff ] ;
    implies   = or , [ "->" , implies ] ;
    or        = and , { "|" , and } ;
    and       = unary , { "&" , unary } ;
    unary     = "!" , unary
              | treewalk                    (* path equality or modal chain *)
              | "<" , FEAT , ">" , unary
              | primary ;
    treewalk  = { "up" | "down" } , "zoomin" , { FEAT } ,
                [ "~" , { "up" | "down" } , "zoomin" , { FEAT } ]
              | ( "up" | "down" ) , unary ;
    primary   = "true" | "false" | "cstruct" | "fstruct"
              | "bullet" , "(" , formula , { "," , formula } , ")"
              | "(" , formula , ")"
              | IDENT | QUOTED ;

A treewalk that reaches ``~`` is a path equality; otherwise the
collected steps are ordinary modalities (and in that case no bare
feature names may follow ``zoomin``).  Bare identifiers are resolved
against the signature: category first, then atom, then word form.
Quoted strings are always word forms.  ``<up>``, ``<down>`` and
``<zoomin>`` are accepted as alternate spellings of the bare keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .errors import FormulaSyntaxError, SignatureError
from .model import _IDENT_RE, RESERVED_WORDS, Signature


@dataclass(frozen=True)
class Formula:
    #: the evaluation plan lfgmc.semantics builds on first use (not a field)
    _plan = None

    @cached_property
    def names(self) -> dict[str, frozenset[str]]:
        """The names used anywhere in the formula, per :class:`Signature`
        field; computed once per formula object, without recursion."""
        used: dict[str, set[str]] = {kind: set() for kind in _NAME_KINDS}
        for kind, name in _used_names(self):
            used[kind].add(name)
        return {kind: frozenset(names) for kind, names in used.items()}

    def __getstate__(self):
        # the evaluation plan cached by lfgmc.semantics is a closure; it is
        # left out and built again on first use after unpickling
        return {k: v for k, v in self.__dict__.items() if k != "_plan"}


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class CStructConst(Formula):
    pass


@dataclass(frozen=True)
class FStructConst(Formula):
    pass


@dataclass(frozen=True)
class CatLit(Formula):
    name: str


@dataclass(frozen=True)
class AtomLit(Formula):
    name: str


@dataclass(frozen=True)
class WordLit(Formula):
    """Terminal word form used as a literal; true at leaves carrying it."""

    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    @cached_property
    def by_label(self) -> tuple[list[Formula], dict]:
        """The operands of the left-nested ``|`` chain at this node, as
        ``(plain, keyed)``; computed once per formula object.

        ``keyed[label][daughters]`` lists the operands that can only hold
        at tree nodes carrying ``label`` whose daughters carry exactly the
        labels ``daughters``, and ``keyed[label][None]`` those that can
        only hold at nodes carrying ``label``.  ``plain`` holds all other
        operands.  Every list keeps chain order."""
        plain, keyed = [], {}
        for op in _spine(self):
            # one pass over the operand's conjuncts: the first literal
            # gives the label, the first bullet whose arguments all have
            # literal labels the daughter labels
            label = kids = None
            for g in _spine(op) if type(op) is And else (op,):
                t = type(g)
                if t is CatLit or t is WordLit:
                    if label is None:
                        label = g.name
                elif t is Bullet and kids is None:
                    kids = tuple(map(_literal_label, g.args))
                    if None in kids:
                        kids = None
            if label is None:
                plain.append(op)
            else:
                keyed.setdefault(label, {}).setdefault(kids, []).append(op)
        return plain, keyed


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Feat(Formula):
    feat: str
    sub: Formula


@dataclass(frozen=True)
class Up(Formula):
    sub: Formula


@dataclass(frozen=True)
class Down(Formula):
    sub: Formula


@dataclass(frozen=True)
class Zoomin(Formula):
    sub: Formula


@dataclass(frozen=True)
class Bullet(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 1:
            raise ValueError("bullet needs at least one argument")


@dataclass(frozen=True)
class PathEq(Formula):
    """``left_tree zoomin left_feats ~ right_tree zoomin right_feats``.

    Tree parts are sequences over {"up", "down"}; feature parts are
    feature-name sequences.  All four may be empty.
    """

    left_tree: tuple[str, ...] = ()
    left_feats: tuple[str, ...] = ()
    right_tree: tuple[str, ...] = ()
    right_feats: tuple[str, ...] = ()

    def __post_init__(self):
        for attr in ("left_tree", "left_feats", "right_tree", "right_feats"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        for step in self.left_tree + self.right_tree:
            if step not in ("up", "down"):
                raise ValueError("tree step must be 'up' or 'down', got %r" % step)


TRUE = TrueF()
FALSE = FalseF()
CSTRUCT = CStructConst()
FSTRUCT = FStructConst()


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = RESERVED_WORDS  # true false cstruct fstruct up down zoomin bullet


@dataclass(frozen=True)
class _Tok:
    kind: str  # KW OP IDENT STRING FEATMOD EOF
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
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
                toks.append(_Tok("OP", "<->", start_line, start_col))
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
                toks.append(_Tok("KW", name, start_line, start_col))
            else:
                toks.append(_Tok("FEATMOD", name, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if text.startswith("->", i):
            toks.append(_Tok("OP", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "!&|(),~":
            toks.append(_Tok("OP", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                err("unterminated string literal")
            toks.append(_Tok("STRING", text[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KW" if word in _KEYWORDS else "IDENT"
            toks.append(_Tok(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        err("unexpected character %r" % ch)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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


class _Parser:
    def __init__(self, toks: list[_Tok], sig: Signature):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.depth = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind, value=None) -> bool:
        t = self.cur
        return t.kind == kind and (value is None or t.value == value)

    def expect(self, kind, value=None) -> _Tok:
        if not self.at(kind, value):
            raise FormulaSyntaxError(
                "expected %s, got %r" % (value or kind, self.cur.value or "end of input"),
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def err(self, msg):
        raise FormulaSyntaxError(msg, self.cur.line, self.cur.col)

    def nest(self, tok: _Tok, levels: int = 1):
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


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse concrete syntax into an AST, resolving names against ``sig``."""
    parser = _Parser(_tokenize(text), sig)
    f = parser.parse_formula()
    if parser.cur.kind != "EOF":
        parser.err("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

_LEAVES = (TrueF, FalseF, CStructConst, FStructConst, CatLit, AtomLit, WordLit)


def _leaf_text(f: Formula) -> str:
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


_CHAIN_OPS = {And: "&", Or: "|"}
_PREFIX_TEXT = {Up: "up ", Down: "down ", Zoomin: "zoomin "}


def render_formula(f: Formula) -> str:
    """Render to concrete syntax; the output re-parses to an equal AST.

    A left-nested ``&``/``|`` chain, such as the lexical disjunction over
    a whole lexicon, is rendered along its spine, and a run of prefix
    operators (``!``, ``<f>``, ``up``, ``down``, ``zoomin``) in a loop,
    so neither recurses."""
    opened: list[str] = []  # text before the operand of a prefix run
    closes = 0  # parentheses that text leaves open
    while True:
        t = type(f)
        if t is Not:
            opened.append("!(")
        elif t is Feat or t in _PREFIX_TEXT:
            opened.append("<%s> " % f.feat if t is Feat else _PREFIX_TEXT[t])
            if isinstance(f.sub, _LEAVES):
                f = f.sub
                break  # a leaf operand goes without parentheses
            opened.append("(")
        else:
            break
        closes += 1
        f = f.sub
    return "".join(opened) + _render_operand(f) + ")" * closes


def _render_operand(f: Formula) -> str:
    """``f`` rendered, when it is not a prefix operator."""
    if isinstance(f, _LEAVES):
        return _leaf_text(f)
    if type(f) in _CHAIN_OPS:
        first, *rest = _spine(f)
        sep = " %s " % _CHAIN_OPS[type(f)]
        return "(" * len(rest) + render_formula(first) + "".join(
            "%s%s)" % (sep, render_formula(g)) for g in rest
        )
    if isinstance(f, Implies):
        return "(%s -> %s)" % (render_formula(f.left), render_formula(f.right))
    if isinstance(f, Iff):
        return "(%s <-> %s)" % (render_formula(f.left), render_formula(f.right))
    if isinstance(f, Bullet):
        return "bullet(%s)" % ", ".join(render_formula(a) for a in f.args)
    if isinstance(f, PathEq):
        left = " ".join(list(f.left_tree) + ["zoomin"] + list(f.left_feats))
        right = " ".join(list(f.right_tree) + ["zoomin"] + list(f.right_feats))
        return "(%s ~ %s)" % (left, right)
    raise TypeError("not a formula: %r" % (f,))


def _spine(f: Formula) -> list[Formula]:
    """Operands of the left-nested ``type(f)`` chain at ``f``, in order."""
    kind, ops = type(f), []
    while type(f) is kind:
        ops.append(f.right)
        f = f.left
    return [f] + ops[::-1]


def _literal_label(f: Formula) -> str | None:
    """The label a tree node must carry for ``f`` to hold there, when
    ``f`` is a category or word literal or an ``&`` chain with one among
    its conjuncts; otherwise None."""
    for g in _spine(f) if type(f) is And else (f,):
        if type(g) is CatLit or type(g) is WordLit:
            return g.name
    return None


#: Signature field -> how an undeclared name of that kind is reported.
_NAME_KINDS = {"cats": "category", "atoms": "atom", "words": "word form", "feats": "feature"}
_LITERAL_FIELD = {CatLit: "cats", AtomLit: "atoms", WordLit: "words"}
_TWO_OPERANDS = frozenset((And, Or, Implies, Iff))
_ONE_OPERAND = frozenset((Not, Up, Down, Zoomin))  # and Feat, which names a feature


def _used_names(f: Formula) -> list[tuple[str, str]]:
    """``(signature field, name)`` for each literal and feature step in
    ``f``, in pre-order, left to right; one iterative walk."""
    used: list[tuple[str, str]] = []
    add = used.append
    stack = [f]
    pop, push = stack.pop, stack.append
    while stack:
        g = pop()
        t = type(g)
        if t in _TWO_OPERANDS:
            push(g.right)
            push(g.left)
        elif t is Feat:
            add(("feats", g.feat))
            push(g.sub)
        elif t in _ONE_OPERAND:
            push(g.sub)
        elif t in _LITERAL_FIELD:
            add((_LITERAL_FIELD[t], g.name))
        elif t is Bullet:
            stack.extend(reversed(g.args))
        elif t is PathEq:
            used.extend(("feats", name) for name in g.left_feats + g.right_feats)
    return used


def validate_names(f: Formula, sig: Signature) -> None:
    """Raise :class:`SignatureError` unless every name in ``f`` is declared.

    Four subset tests against the cached :attr:`Formula.names`; only if one
    fails are the names walked again, in pre-order, to report the first
    undeclared one."""
    if all(names <= getattr(sig, kind) for kind, names in f.names.items()):
        return
    for kind, name in _used_names(f):
        if name not in getattr(sig, kind):
            raise SignatureError("unknown %s %r" % (_NAME_KINDS[kind], name))
