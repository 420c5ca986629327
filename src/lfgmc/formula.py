"""The constraint language: AST, concrete syntax, parser and renderer.

Formulas are immutable trees built from boolean connectives, three tree
modalities (``up``, ``down`` and the variable-arity ``bullet``), one
feature modality per feature name, the ``zoomin`` modality crossing from
the tree into the feature graph, and a path-equality construct that
relates a tree-walk-then-zoomin-then-feature-walk on its left to the
same kind of composite on its right.

The node classes are immutable records on ``lfgmc.model._Frozen``: a
changed copy is built by ``replace`` or by the constructor.  A formula
compares, hashes, prints and pickles without recursion, through one flat
post-order list of its parts.

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

Both concrete syntaxes, formulas here and grammar files in
``lfgmc.grammar``, are read by one reader, :class:`_Reader`, which a
syntax gives its token pattern, its operators and its error class.  One
``findall`` over the whole text yields the tokens as plain strings (a
string literal keeps its quotes, ``""`` is the end of input); the first
bad token in the text is an error at once, and a parser then reads the
tokens front to back through the reader's ``advance``, ``expect`` and
``err``.  A position ``(line, col)`` is found only when an error is
raised, by scanning the text again up to the token's index.
"""

from __future__ import annotations

import re
from functools import cached_property, partial
from itertools import islice
from operator import itemgetter

from .errors import FormulaSyntaxError, SignatureError
from .model import _IDENT_RE, RESERVED_WORDS, Signature, _Frozen


class Formula(_Frozen):
    """A formula node.  ``==``, ``hash`` and pickling go through :func:`_flat`,
    and ``repr`` prints along one stack (a shared part at each of its
    places), so no depth makes them recurse."""

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

    def _key(self):
        return tuple(_flat(self))

    def __hash__(self):
        # kept under "_hash", which pickling leaves out
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash(self._key())
        return self.__dict__["_hash"]

    def __reduce__(self):
        return _unflatten, (_flat(self),)

    def __repr__(self):
        text: list[str] = []
        stack: list = [self]  # text, and formulas still to print
        while stack:
            f = stack.pop()
            if type(f) is str:
                text.append(f)
            elif type(f) is Bullet:  # its one field: a tuple of formulas, never empty
                out = ["Bullet(args=("]
                for g in f.args:
                    out += (g if isinstance(g, Formula) else repr(g), ", ")
                out[-1] = ",))" if len(f.args) == 1 else "))"  # in place of the last ", "
                stack += reversed(out)
            else:
                out = [type(f).__qualname__ + "("]
                for k, v in zip(f._fields, f._values()):
                    out += ("%s=" % k if len(out) == 1 else ", %s=" % k,
                            v if isinstance(v, Formula) else repr(v))
                stack += reversed(out + [")"])
        return "".join(text)


def _flat(f: Formula) -> list[tuple]:
    """Each distinct formula under ``f``, then ``f``, in post-order, as
    ``(type, *fields)`` with a formula in a field (or in a tuple field)
    written as its place in this list.  Equal formulas give equal lists,
    however their parts are shared; a shared part is entered once."""
    place: dict[int, int] = {}  # id of a formula entered -> its place
    table: dict[tuple, int] = {}  # entry -> its place
    stack = [(f, None)]
    while stack:
        g, values = stack.pop()
        if id(g) in place:
            continue
        if values is None:  # first met: its parts go on top, to be placed first
            values = g._values()
            stack.append((g, values))
            stack += [(h, None) for v in values for h in (v if type(v) is tuple else (v,))
                      if isinstance(h, Formula) and id(h) not in place]
            continue
        entry = (type(g), *[_place(v, place) for v in values])
        place[id(g)] = table.setdefault(entry, len(table))
    return list(table)


def _place(v, place: dict[int, int]):
    """A field value as :func:`_flat` writes it; a name stays a string."""
    if isinstance(v, Formula):
        return place[id(v)]
    if type(v) is tuple:
        return tuple([_place(x, place) for x in v])
    if type(v) is not str:
        raise TypeError("not a formula: %r" % (v,))
    return v


def _unflatten(entries: list[tuple]) -> Formula:
    """The formula :func:`_flat` wrote as ``entries``."""
    built: list[Formula] = []

    def value(v):
        if type(v) is int:
            return built[v]
        return tuple(map(value, v)) if type(v) is tuple else v

    for cls, *values in entries:
        built.append(cls(*map(value, values)))
    return built[-1]


class TrueF(Formula):
    pass


class FalseF(Formula):
    pass


class CStructConst(Formula):
    pass


class FStructConst(Formula):
    pass


class _Named(Formula):
    _fields = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class CatLit(_Named):
    pass


class AtomLit(_Named):
    pass


class WordLit(_Named):
    """Terminal word form used as a literal; true at leaves carrying it."""


class _OneOperand(Formula):
    _fields = ("sub",)

    def __init__(self, sub: Formula):
        self.__dict__["sub"] = sub


class Not(_OneOperand):
    pass


class _TwoOperands(Formula):
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.__dict__.update(left=left, right=right)


class And(_TwoOperands):
    pass


class Or(_TwoOperands):
    pass


class Implies(_TwoOperands):
    pass


class Iff(_TwoOperands):
    pass


class Feat(Formula):
    _fields = ("feat", "sub")

    def __init__(self, feat: str, sub: Formula):
        self.__dict__.update(feat=feat, sub=sub)


class Up(_OneOperand):
    pass


class Down(_OneOperand):
    pass


class Zoomin(_OneOperand):
    pass


class Bullet(Formula):
    _fields = ("args",)

    def __init__(self, args: tuple[Formula, ...]):
        self.__dict__["args"] = args = tuple(args)
        if len(args) < 1:
            raise ValueError("bullet needs at least one argument")


class PathEq(Formula):
    """``left_tree zoomin left_feats ~ right_tree zoomin right_feats``.

    Tree parts are sequences over {"up", "down"}; feature parts are
    feature-name sequences.  All four may be empty.
    """

    _fields = ("left_tree", "left_feats", "right_tree", "right_feats")

    def __init__(self, left_tree: tuple[str, ...] = (), left_feats: tuple[str, ...] = (),
                 right_tree: tuple[str, ...] = (), right_feats: tuple[str, ...] = ()):
        left_tree, right_tree = tuple(left_tree), tuple(right_tree)
        self.__dict__.update(left_tree=left_tree, left_feats=tuple(left_feats),
                             right_tree=right_tree, right_feats=tuple(right_feats))
        for step in left_tree + right_tree:
            if step not in ("up", "down"):
                raise ValueError("tree step must be 'up' or 'down', got %r" % step)


TRUE = TrueF()
FALSE = FalseF()
CSTRUCT = CStructConst()
FSTRUCT = FStructConst()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_CONSTANTS = {"true": TRUE, "false": FALSE, "cstruct": CSTRUCT, "fstruct": FSTRUCT}
_LITERALS = {"cat": CatLit, "atom": AtomLit, "word": WordLit}


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_modality(tok: str) -> bool:
    return tok[:1] == "<" and tok != "<->"


class _Reader:
    """Reads the tokens of one concrete syntax front to back, holding the
    current token string.  A subclass gives the syntax: ``TOKEN_RE``, one
    token after blanks, with ``""`` for the end of input; ``OPS``, its
    operators; and ``ERROR``, the class of its syntax errors.  A string
    literal keeps its quotes, so no other token can equal an operator."""

    TOKEN_RE: re.Pattern
    OPS: frozenset[str]
    ERROR: type

    def __init__(self, text: str):
        self.text = text
        self.toks = self.scan(text)
        self.pos = 0
        self.tok = self.toks[0]

    @classmethod
    def scan(cls, text: str) -> list[str]:
        """The tokens of the whole text as plain strings: operators, names,
        string literals with their quotes, and ``""`` for the end of input.
        The first bad token in the text is a syntax error."""
        toks = cls.TOKEN_RE.findall(text)
        if toks[-2:] == ["", ""]:  # blanks at the end match, then the end again
            del toks[-1]
        distinct = set(toks) - cls.OPS
        firsts = "".join(set(map(itemgetter(slice(1)), distinct)) - {"_", '"'})
        odd = [  # neither an operator, nor a string literal, nor a name
            tok for tok in distinct
            if tok[:1] != '"' and not tok[:1].isalpha() and tok[:1] != "_" or tok == '"'
        ] if firsts and not firsts.isalpha() or '"' in distinct else ()  # else none can be
        bad = [tok for tok in odd if cls.fault(tok)]
        if bad:
            at = min(map(toks.index, bad))
            raise cls.ERROR(cls.fault(toks[at]), *cls.position(text, at))
        return toks

    @classmethod
    def fault(cls, tok: str) -> str | None:
        """Why ``tok``, neither an operator nor a name nor a string
        literal, is a bad token; None for the end of input."""
        if tok == '"':
            return "unterminated string literal"
        return "unexpected character %r" % tok[0] if tok else None

    @classmethod
    def position(cls, text: str, index: int) -> tuple[int, int]:
        """``(line, column)`` of token ``index`` of :meth:`scan`, found by
        scanning the text again up to it.  The end of input sits where a
        comment on the last line starts."""
        m = next(islice(cls.TOKEN_RE.finditer(text), index, None))
        at = m.start(1)
        if not m[1]:
            comment = text.find("#", max(m.start(), text.rfind("\n") + 1))
            at = at if comment < 0 else comment
        return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)

    def advance(self) -> str:
        """Step past the current token and return it."""
        tok = self.tok
        self.pos = pos = self.pos + 1
        self.tok = self.toks[pos]
        return tok

    def err(self, msg, at=None, error=None):
        """Raise ``error`` (by default the syntax error) at token ``at`` (by
        default the current one)."""
        line_col = self.position(self.text, self.pos if at is None else at)
        raise (error or self.ERROR)(msg, *line_col)

    def err_got(self, what):
        got = self.tok[1:-1] if self.tok[:1] == '"' or _is_modality(self.tok) else self.tok
        self.err("expected %s, got %r" % (what, got or "end of input"))

    def expect(self, op):
        if self.tok != op:
            self.err_got(op)
        self.advance()


#: One formula token after blanks and newlines; the end of input is ``""``.
#: A name reads as in grammar files.  ``<...>`` up to the end of the line
#: is a feature modality, whose name :meth:`_Parser.fault` checks; a lone
#: ``"`` and any other character are bad tokens.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*
    ( <->|->|[!&|(),~]
    | "[^"\n]*"
    | <[^>\n]*>?
    | [^\W\d]\w*
    | .
    | \Z )""",
    re.VERBOSE,
)


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


class _Parser(_Reader):
    TOKEN_RE = _TOKEN_RE
    OPS = frozenset(("<->", "->", "!", "&", "|", "(", ")", ",", "~"))
    ERROR = FormulaSyntaxError

    def __init__(self, text: str, sig: Signature):
        super().__init__(text)
        self.sig = sig
        self.depth = 0

    @classmethod
    def scan(cls, text: str) -> list[str]:
        """As for every syntax; a feature modality reads ``<name>``
        without blanks, and ``<up>``, ``<down>`` and ``<zoomin>`` read as
        the bare keyword."""
        toks = super().scan(text)
        spelled = {}
        for tok in set(toks):
            if _is_modality(tok):
                name = tok[1:-1].strip()
                spelled[tok] = name if name in ("up", "down", "zoomin") else "<%s>" % name
        return [spelled.get(tok, tok) for tok in toks] if spelled else toks

    @classmethod
    def fault(cls, tok: str) -> str | None:
        """As for every syntax, and why a ``<...>`` token is not a
        feature modality."""
        if not _is_modality(tok):
            return super().fault(tok)
        if tok[-1] != ">":
            return "unterminated '<'"
        name = tok[1:-1].strip()
        if not _IDENT_RE.match(name):
            return "expected a feature name inside '<...>', got %r" % name
        return None

    def nest(self, at: int, levels: int = 1):
        """Enter ``levels`` more levels of nesting, opened by token ``at``."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            self.err("formula nested too deeply (more than %d levels)" % MAX_NESTING, at)

    def parse_formula(self) -> Formula:
        """Operands joined by binary operators, grouped by precedence with
        an operator stack, so that chains of any length do not recurse."""
        depth = self.depth
        operands = [self.parse_unary()]
        ops: list[str] = []
        while self.tok in _BINARY:
            prec, right, _node = _BINARY[self.tok]
            while ops:
                top, top_right, _node = _BINARY[ops[-1]]
                if top < prec or (top == prec and right):
                    break
                _reduce(operands, ops.pop())
                self.depth -= top_right  # a right operand is no longer pending
            if right:
                self.nest(self.pos)
            ops.append(self.advance())
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
            tok = self.tok
            if tok == "!":
                self.nest(self.pos)
                self.advance()
                wrap.append(Not)
                continue
            if _is_modality(tok):
                self.nest(self.pos)
                if tok[1:-1] not in self.sig.feats:
                    self.err("unknown feature %r" % tok[1:-1], error=SignatureError)
                self.advance()
                wrap.append(partial(Feat, tok[1:-1]))
                continue
            if tok != "up" and tok != "down" and tok != "zoomin":
                sub = self.parse_primary()
                break
            steps = self.tree_steps()
            modal = [Up if step == "up" else Down for step in steps]
            if self.tok != "zoomin":
                wrap.extend(modal)  # a plain modal chain like "up down phi"
                continue
            zoomin = self.pos
            self.advance()
            feats = self.feature_path()
            if self.tok == "~":
                self.advance()
                rtree = self.tree_steps()
                self.expect("zoomin")
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
        while self.tok == "up" or self.tok == "down":
            steps.append(self.advance())
        return tuple(steps)

    def feature_path(self) -> tuple[str, ...]:
        feats = []  # bare names, not keywords, that name features
        while self.tok in self.sig.feats and _is_name(self.tok) and self.tok not in RESERVED_WORDS:
            feats.append(self.advance())
        return tuple(feats)

    def parse_primary(self) -> Formula:
        tok = self.tok
        if tok in _CONSTANTS:
            self.advance()
            return _CONSTANTS[tok]
        if tok == "bullet" or tok == "(":
            self.advance()
            if tok == "bullet":
                self.expect("(")
            self.nest(self.pos - 1, _GROUP_LEVELS)
            args = [self.parse_formula()]
            while tok == "bullet" and self.tok == ",":
                self.advance()
                args.append(self.parse_formula())
            self.expect(")")
            self.depth -= _GROUP_LEVELS
            return Bullet(tuple(args)) if tok == "bullet" else args[0]
        if tok[:1] == '"':
            if tok[1:-1] not in self.sig.words:
                self.err("unknown word form %r" % tok[1:-1], error=SignatureError)
            self.advance()
            return WordLit(tok[1:-1])
        if not _is_name(tok):
            self.err_got("a formula")
        kind = self.sig.kind_of(tok)
        if kind is None:
            if tok in self.sig.feats:
                self.err(
                    "feature %r cannot stand alone; write <%s> phi or use it "
                    "inside a path equality" % (tok, tok),
                    error=SignatureError,
                )
            self.err("unknown name %r" % tok, error=SignatureError)
        self.advance()
        return _LITERALS[kind](tok)


def _reduce(operands: list[Formula], op: str):
    """Replace the last two operands by their combination under ``op``."""
    right = operands.pop()
    operands[-1] = _BINARY[op][2](operands[-1], right)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse concrete syntax into an AST, resolving names against ``sig``."""
    parser = _Parser(text, sig)
    f = parser.parse_formula()
    if parser.tok:
        parser.err("trailing input after formula")
    return f


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

_CONSTANT_TEXT = {TrueF: "true", FalseF: "false", CStructConst: "cstruct", FStructConst: "fstruct"}
_LEAVES = frozenset((*_CONSTANT_TEXT, CatLit, AtomLit, WordLit))
_HEAD_TEXT = {Up: "up ", Down: "down ", Zoomin: "zoomin "}
_INFIX_TEXT = {And: " & ", Or: " | ", Implies: " -> ", Iff: " <-> "}


def render_formula(f: Formula) -> str:
    """Render to concrete syntax; the output re-parses to an equal AST as
    long as it nests no deeper than :data:`MAX_NESTING` levels (a long
    enough feature path prints a text the reader refuses).

    A left-nested ``&``/``|`` chain, such as the lexical disjunction over
    a whole lexicon, is printed flat along its spine, as ``(a | b | c)``
    and not ``((a | b) | c)``: both operators group to the left, so the
    text reads back as the same chain, and a chain of any length costs
    the reader one parenthesised group.  The text is written through one
    explicit stack of strings and formulas still to render, so no
    formula recurses, whatever its depth."""
    text: list[str] = []
    stack: list = [f]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            text.append(piece)
        else:
            stack.extend(reversed(_pieces(piece)))
    return "".join(text)


def _pieces(f: Formula) -> list:
    """The text of ``f`` alone: strings, with its subformulas in place."""
    t = type(f)
    if t in _CONSTANT_TEXT:
        return [_CONSTANT_TEXT[t]]
    if t is CatLit or t is AtomLit:
        return [f.name]
    if t is WordLit:
        return ['"%s"' % f.name]  # quoting keeps words distinct from atom/cat names
    if t is Not:
        return ["!(", f.sub, ")"]
    if t is Feat or t in _HEAD_TEXT:
        head = "<%s> " % f.feat if t is Feat else _HEAD_TEXT[t]
        if type(f.sub) in _LEAVES:
            return [head, f.sub]  # a leaf operand goes without parentheses
        return [head + "(", f.sub, ")"]
    if t is PathEq:
        left = " ".join(f.left_tree + ("zoomin",) + f.left_feats)
        right = " ".join(f.right_tree + ("zoomin",) + f.right_feats)
        return ["(%s ~ %s)" % (left, right)]
    if t in _INFIX_TEXT:
        out, sep = ["("], _INFIX_TEXT[t]
        operands = _spine(f) if t is And or t is Or else (f.left, f.right)
    elif t is Bullet:
        out, sep, operands = ["bullet("], ", ", f.args
    else:
        raise TypeError("not a formula: %r" % (f,))
    for g in operands:
        out += (g, sep)
    out[-1] = ")"  # in place of the last separator
    return out


def _spine(f: Formula) -> list[Formula]:
    """Operands of the left-nested ``type(f)`` chain at ``f``, in order."""
    kind, ops = type(f), []
    while type(f) is kind:
        ops.append(f.right)
        f = f.left
    return [f] + ops[::-1]


#: Signature field -> how an undeclared name of that kind is reported.
_NAME_KINDS = {"cats": "category", "atoms": "atom", "words": "word form", "feats": "feature"}
_LITERAL_FIELD = {CatLit: "cats", AtomLit: "atoms", WordLit: "words"}


def _used_names(f: Formula) -> list[tuple[str, str]]:
    """``(signature field, name)`` for each literal and feature step in
    ``f``, in pre-order, left to right; one iterative walk, which enters a
    part shared by several parents only where it first occurs."""
    used: list[tuple[str, str]] = []
    add = used.append
    seen: set[int] = set()
    stack = [f]
    pop, push = stack.pop, stack.append
    while stack:
        g = pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        t = type(g)
        if isinstance(g, _TwoOperands):
            push(g.right)
            push(g.left)
        elif t is Feat:
            add(("feats", g.feat))
            push(g.sub)
        elif isinstance(g, _OneOperand):
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
