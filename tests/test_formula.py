import random
import string

import pytest

from lfgmc import (
    And,
    AtomLit,
    Bullet,
    CatLit,
    CStructConst,
    Down,
    Feat,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    PathEq,
    Signature,
    SignatureError,
    TRUE,
    WordLit,
    compile_grammar,
    parse_formula,
    parse_grammar,
    render_formula,
    validate_names,
)

from generators import RAND_SIG, rand_formula


def test_parse_conjunction_with_modal(fig_sig):
    f = parse_formula("cstruct & down true", fig_sig)
    assert f == And(CStructConst(), Down(TRUE))


def test_parse_angle_bracket_tree_modality(fig_sig):
    # <down> is an accepted alternate spelling of the bare keyword
    f = parse_formula("cstruct & <down> true", fig_sig)
    assert f == And(CStructConst(), Down(TRUE))


def test_parse_path_equality(fig_sig):
    f = parse_formula("up zoomin subj ~ zoomin", fig_sig)
    assert f == PathEq(("up",), ("subj",), (), ())


def test_parse_bullet(fig_sig):
    f = parse_formula("bullet(NP, VP & true)", fig_sig)
    assert f == Bullet((CatLit("NP"), And(CatLit("VP"), TRUE)))


def test_render_not_true():
    assert render_formula(Not(TRUE)) == "!(true)"


def test_render_feat_modality():
    assert render_formula(Feat("pred", TRUE)) == "<pred> true"


def test_parse_modal_chain_vs_patheq(fig_sig):
    from lfgmc import Up, Zoomin

    assert parse_formula("up zoomin true", fig_sig) == Up(Zoomin(TRUE))
    assert parse_formula("zoomin ~ zoomin", fig_sig) == PathEq((), (), (), ())
    assert parse_formula("up down zoomin subj num ~ zoomin", fig_sig) == PathEq(
        ("up", "down"), ("subj", "num"), (), ()
    )


def test_parse_precedence(fig_sig):
    from lfgmc import Iff, Implies, Or

    f = parse_formula("true | false & cstruct -> fstruct <-> true", fig_sig)
    # & over |, both over ->, -> over <->
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.right, And)


def test_parse_associativity(fig_sig):
    from lfgmc import Iff, Implies, Or

    t, f, c = TRUE, parse_formula("false", fig_sig), CStructConst()
    assert parse_formula("true -> false -> cstruct", fig_sig) == Implies(t, Implies(f, c))
    assert parse_formula("true <-> false <-> cstruct", fig_sig) == Iff(t, Iff(f, c))
    assert parse_formula("true | false | cstruct", fig_sig) == Or(Or(t, f), c)
    assert parse_formula("true & false & cstruct", fig_sig) == And(And(t, f), c)
    assert parse_formula("true -> false <-> cstruct -> true", fig_sig) == Iff(
        Implies(t, f), Implies(c, t)
    )


def _depth(f, kind):
    n = 0
    while isinstance(f, kind):
        f, n = f.sub, n + 1
    return n


@pytest.mark.parametrize(
    "text",
    [
        "(" * 165 + "true" + ")" * 165,
        "bullet(" * 165 + "true" + ")" * 165,
        "!" * 991 + "true",
        "<subj>" * 991 + "true",
        "zoomin " * 991 + "true",
        "true -> " * 991 + "true",
        "up down " * 3000 + "true",
        "true & " * 3000 + "true",
        "(!" * 141 + "true" + ")" * 141,
    ],
    ids=["parens", "bullets", "not", "feat", "zoomin", "implies", "tree-steps", "and-chain", "mixed"],
)
def test_deepest_accepted_nesting(fig_sig, text):
    # the most a formula could nest when the parser recursed on every level
    f = parse_formula(text, fig_sig)
    if text.startswith("!"):
        assert _depth(f, Not) == 991


@pytest.mark.parametrize(
    "text",
    [
        "(" * 166 + "true" + ")" * 166,
        "(" * 3000 + "true" + ")" * 3000,
        "bullet(" * 166 + "true" + ")" * 166,
        "!" * 992 + "true",
        "!" * 3000 + "true",
        "<subj>" * 3000 + "true",
        "zoomin " * 3000 + "true",
        "true -> " * 3000 + "true",
        "true <-> " * 3000 + "true",
        "(!" * 142 + "true" + ")" * 142,
    ],
    ids=["parens-166", "parens-3000", "bullets", "not-992", "not-3000", "feat", "zoomin",
         "implies", "iff", "mixed"],
)
def test_nesting_beyond_the_limit_is_a_syntax_error(fig_sig, text):
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula(text, fig_sig)


def test_nesting_error_position(fig_sig):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("true &\n" + "(" * 200 + "true" + ")" * 200, fig_sig)
    assert (err.value.line, err.value.col) == (2, 166)


def test_word_literals_quote_and_resolve(fig_sig):
    # "a" is both an atom and a word; bare identifiers resolve to the atom,
    # the quoted form always means the word
    assert parse_formula("a", fig_sig) == AtomLit("a")
    assert parse_formula('"a"', fig_sig) == WordLit("a")
    rendered = render_formula(Bullet((WordLit("a"),)))
    assert rendered == 'bullet("a")'
    assert parse_formula(rendered, fig_sig) == Bullet((WordLit("a"),))


def test_unknown_names_have_positions(fig_sig):
    with pytest.raises(SignatureError) as err:
        parse_formula("cstruct & nonsense", fig_sig)
    assert err.value.line == 1
    assert err.value.col == 11
    with pytest.raises(SignatureError):
        parse_formula("<nosuchfeat> true", fig_sig)


def test_bare_feature_name_rejected(fig_sig):
    with pytest.raises(SignatureError):
        parse_formula("subj", fig_sig)


def test_syntax_error_positions(fig_sig):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("bullet(NP,, VP)", fig_sig)
    assert err.value.line == 1
    with pytest.raises(FormulaSyntaxError):
        parse_formula("true &", fig_sig)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("up zoomin subj true", fig_sig)


def test_bullet_needs_arguments(fig_sig):
    with pytest.raises(FormulaSyntaxError):
        parse_formula("bullet()", fig_sig)
    with pytest.raises(ValueError):
        Bullet(())


def test_pathe_eq_rejects_bad_steps():
    with pytest.raises(ValueError):
        PathEq(("sideways",), (), (), ())


def test_validate_names_catches_handbuilt_errors(fig_sig):
    with pytest.raises(SignatureError):
        validate_names(CatLit("Nope"), fig_sig)
    with pytest.raises(SignatureError):
        validate_names(Feat("nope", TRUE), fig_sig)
    with pytest.raises(SignatureError):
        validate_names(PathEq((), ("nope",), (), ()), fig_sig)
    validate_names(PathEq(("up",), ("subj",), (), ()), fig_sig)


def test_round_trip_random():
    rng = random.Random(2024)
    for _ in range(2000):
        f = rand_formula(rng, RAND_SIG, depth=5)
        text = render_formula(f)
        assert parse_formula(text, RAND_SIG) == f, text


def test_render_long_prefix_runs():
    from lfgmc import AtomLit, Up, Zoomin

    pairs = TRUE
    for _ in range(3000):
        pairs = Up(Down(pairs))
    assert render_formula(pairs) == "up (down (" * 2999 + "up (down true" + ")" * 5999
    negated = CatLit("S")
    for _ in range(400):
        negated = Not(Up(Down(negated)))
    assert render_formula(negated) == "!(up (down (" * 399 + "!(up (down S" + ")" * 1199
    spec = AtomLit("a")
    for _ in range(3000):
        spec = Feat("spec", spec)
    assert render_formula(Up(Zoomin(spec))) == (
        "up (zoomin (" + "<spec> (" * 2999 + "<spec> a" + ")" * 2999 + "))"
    )
    # a short run reads back as the same formula
    assert parse_formula(render_formula(Not(Up(Down(Feat("subj", TRUE))))), RAND_SIG) == Not(
        Up(Down(Feat("subj", TRUE)))
    )


def test_parser_totality_fuzz():
    # every input either parses or raises a positioned package error
    rng = random.Random(8)
    alphabet = (
        list(string.ascii_lowercase)
        + list("()<>!&|~,-> \t\n\"")
        + ["true", "false", "up", "down", "zoomin", "bullet", "subj", "NP", "<->"]
    )
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_formula(text, RAND_SIG)
        except FormulaSyntaxError as err:
            assert err.line >= 1 and err.col >= 1
        except SignatureError:
            pass


# --- the reader against the character-at-a-time reference -----------------

#: A signature whose names collide with keywords, operators, string
#: literals and each other, so that a token is read by its kind and not
#: only by its text.
ODD_SIG = Signature(
    cats={"S", "up", "NP"},
    atoms={"true", "x", "NP"},
    feats={"f", "down", "zoomin", "bullet", "(", '"w"'},
    gf=(("f",),),
    words={"up", "S", "x y", "w"},
)


def _read_outcome(parse, text, sig):
    # an AST is compared through its rendering, which determines it and,
    # unlike ``==`` on a thousand nested prefixes, does not recurse
    try:
        return "ok", render_formula(parse(text, sig))
    except (FormulaSyntaxError, SignatureError) as exc:
        return "error", type(exc).__name__, str(exc), exc.line, exc.col


def _reader_corpus():
    """Every scanner and parser error path, blanks and line ends in and
    out of ``<...>``, the nesting limit, and names that do not resolve."""
    return [
        "", " ", "\n", "\t \r\n ", "true", "true  \n\t\n", "true &  \n\t\n", "\r\ntrue\r\n",
        # the scanner's own errors, and a scan error after a parse error
        "<", "<subj", "true &\n<subj\n> true", "<>", "<1>", "<ñ>", "<\xa0ñ>", "<subj x>",
        "<-x>", "<->>", "true <->> false", '"a', '"', 'true & "a\n"', "#", "true # c",
        "-", "true - false", ">", "true >", "$", "\xa0true", "true\f", "true\x00",
        "nonsense & <1>", "true true $", "bullet(, \"", "(((\n  )) ²", "x²", "é",
        # blanks inside <...>, and the keyword spellings
        "< subj > true", "<\tsubj\t> true", "<\xa0subj\f> true", "<\x0bsubj\x1c> true",
        "<up> true", "<down> <subj> true", "<zoomin> true", "< up > zoomin subj ~ <zoomin>",
        "<\fup\xa0> zoomin subj ~ zoomin", "<true> true", "<bullet>(true)",
        # the parser's errors
        "bullet()", "bullet(NP,, VP)", "bullet NP", "bullet(NP", "true &", "&", "(true",
        "true)", "()", "up zoomin subj true", "up zoomin subj ~ up", "up zoomin subj ~",
        "zoomin ~ zoomin subj num x", "up", "->", "true -> -> false", "true <-> ",
        "<subj>", "<subj> <->", "!", "! !", "~", "true ~ true", "NP NP", ",", "a ,",
        "cstruct &\n  nonsense", "<nosuchfeat> true", "up zoomin nosuch ~ zoomin",
        "up zoomin subj nosuch ~ zoomin", '"nosuchword"', '"a" & "girl" & "walks"',
        "subj", "true &\n\tsubj", "up down zoomin <subj> true", "\"a\"\n", "fstruct|cstruct",
        # within and beyond the nesting limit, with positions
        "(" * 165 + "true" + ")" * 165, "(" * 166 + "true" + ")" * 166,
        "!" * 991 + "true", "!" * 992 + "true", "true &\n" + "(" * 200 + "true" + ")" * 200,
        "bullet(" * 166 + "true" + ")" * 166, "<subj>" * 992 + "true",
        "zoomin " * 992 + "true", "true -> " * 992 + "true", "(!" * 142 + "true" + ")" * 142,
        "up down " * 3000 + "true", "true & " * 3000 + "true", "true | " * 3000 + "true",
    ]


def _odd_corpus():
    return [
        "up", "up true", '"up"', "S & NP", "true", "zoomin down f ~ zoomin", "<down> true",
        "<f> x", "up zoomin f bullet ~ zoomin", "bullet(S)", '"x y" | "w"', "<bullet> x",
        "zoomin ( ~ zoomin", 'zoomin "w" ~ zoomin', "zoomin f (", 'zoomin f "w"',
    ]


def _fixture_labels():
    from conftest import (
        DEVOUR_GRAMMAR_TEXT,
        FIG_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
    )

    for text in (FIG_GRAMMAR_TEXT, DEVOUR_GRAMMAR_TEXT, MICRO_GRAMMAR_TEXT, PP_AGREE_GRAMMAR_TEXT):
        grammar = parse_grammar(text)
        theory = compile_grammar(grammar)
        for _label, f in theory.labeled():
            yield grammar.sig, f


def _formula_token_edits(text):
    """``text``, on one line, with each of its tokens deleted and with
    each doubled."""
    from oracles import _reference_tokenize

    for tok in _reference_tokenize(text)[:-1]:
        at = tok.col - 1
        end = at + len(tok.value) + (2 if tok.kind in ("STRING", "FEATMOD") else 0)
        yield text[:at] + text[end:]
        yield text[:end] + " " + text[at:]


def _reader_fuzz():
    """3000 random texts over today's fuzz alphabet, widened with comment,
    line-end and non-ASCII characters and with spellings of ``<...>``."""
    rng = random.Random(8)
    alphabet = (
        list(string.ascii_lowercase)
        + list("()<>!&|~,-> \t\n\"")
        + ["true", "false", "up", "down", "zoomin", "bullet", "subj", "NP", "<->"]
        + ["#", "\r", "\t", "ñ", "é", "²", "<up>", "< subj >", "<1>"]
    )
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24))) for _ in range(3000)]


def test_reader_matches_reference_reader(fig_sig):
    from oracles import reference_parse_formula

    cases = [(text, fig_sig) for text in _reader_corpus()]
    cases += [(text, ODD_SIG) for text in _odd_corpus()]
    cases += [(text, RAND_SIG) for text in _reader_fuzz()]
    edited = 0
    for sig, f in _fixture_labels():
        text = render_formula(f)
        assert parse_formula(text, sig) == f, text
        for t in _formula_token_edits(text):
            cases.append((t, sig))
            edited += 1
    kinds = set()
    for text, sig in cases:
        got = _read_outcome(parse_formula, text, sig)
        assert got == _read_outcome(reference_parse_formula, text, sig), repr(text)
        kinds.add(got[1] if got[0] == "error" else "ok")
        if got[0] == "error":
            kinds.add(got[2].split(": ", 1)[1].split(" ", 2)[0])
    # the inputs reach the scanner's, the parser's and the names' errors
    assert edited > 1000
    assert {"ok", "FormulaSyntaxError", "SignatureError", "unterminated", "unexpected",
            "expected", "formula", "unknown", "trailing", "feature"} <= kinds, kinds


# --- a compiled theory reads back ------------------------------------------


@pytest.mark.parametrize("nouns", [500, 5000])
def test_large_compiled_theory_reads_back(nouns):
    # the lexical axiom's disjunction over the whole lexicon is printed as
    # one flat chain, which reads back to the same text
    from generators import embedding_grammar_text

    grammar = parse_grammar(embedding_grammar_text(["noun%d" % k for k in range(nouns)]))
    for _label, f in compile_grammar(grammar).labeled():
        text = render_formula(f)
        assert render_formula(parse_formula(text, grammar.sig)) == text


def test_chains_print_flat(fig_sig):
    from lfgmc import Or

    a, b, c = CatLit("S"), CatLit("NP"), CatLit("VP")
    assert render_formula(Or(Or(a, b), c)) == "(S | NP | VP)"
    assert render_formula(Or(a, Or(b, c))) == "(S | (NP | VP))"
    assert render_formula(And(Or(a, b), And(b, c))) == "((S | NP) & (NP & VP))"
    assert parse_formula("(S | NP | VP)", fig_sig) == Or(Or(a, b), c)


# --- the renderer against the recursive reference --------------------------


def test_renderer_matches_reference_renderer():
    # random formulas, every compiled label of the fixture grammars, of a
    # 500-noun embedding grammar and of a 3000-step schema path
    from conftest import (
        DEVOUR_GRAMMAR_TEXT,
        FIG_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
    )
    from generators import embedding_grammar_text
    from oracles import reference_render_formula

    rng = random.Random(18)
    formulas = [rand_formula(rng, RAND_SIG, depth=5) for _ in range(20000)]
    texts = [
        FIG_GRAMMAR_TEXT,
        DEVOUR_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
        embedding_grammar_text(["noun%d" % k for k in range(500)]),
        FIG_GRAMMAR_TEXT.replace("(up spec)=a", "(up" + " spec" * 3000 + ")=a"),
    ]
    for text in texts:
        formulas.extend(f for _label, f in compile_grammar(parse_grammar(text)).labeled())
    for f in formulas:
        assert render_formula(f) == reference_render_formula(f)


@pytest.mark.parametrize(
    "wrap, text",
    [
        (lambda f: Implies(TRUE, f), ("(true -> ", ")")),
        (lambda f: Iff(TRUE, f), ("(true <-> ", ")")),
        (lambda f: Bullet((TRUE, f)), ("bullet(true, ", ")")),
    ],
    ids=["implies", "iff", "bullet"],
)
def test_render_deep_right_operands(wrap, text):
    # no level of nesting recurses, whatever the connective
    f = TRUE
    for _ in range(2000):
        f = wrap(f)
    opened, closed = text
    assert render_formula(f) == opened * 2000 + "true" + closed * 2000


def test_render_what_the_reader_accepts_at_any_depth(fig_sig):
    f = parse_formula("true -> " * 900 + "true", fig_sig)
    assert render_formula(f) == "(true -> " * 900 + "true" + ")" * 900


def test_render_rejects_a_non_formula():
    with pytest.raises(TypeError, match="not a formula"):
        render_formula(Not(1))


# --- ==, hash, repr and pickle without recursion ----------------------------


def test_a_large_theory_and_a_deep_formula_compare_hash_print_and_pickle():
    import pickle

    from generators import embedding_grammar_text

    text = embedding_grammar_text(["noun%d" % k for k in range(5000)])
    grammar = parse_grammar(text)
    theory, again = compile_grammar(grammar), compile_grammar(parse_grammar(text))
    theory.lexical, again.lexical  # built, as read
    deep = "!" * 991 + "true"
    f, g = parse_formula(deep, grammar.sig), parse_formula(deep, grammar.sig)
    for x, y in [(theory, again), (f, g)]:
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and hash(copy) == hash(x) and repr(copy) == repr(x)
    assert repr(f) == "Not(sub=" * 991 + "TrueF()" + ")" * 991
    assert repr(theory).count("WordLit(name='noun4999')") == 2  # its entry, and the word alphabet
    assert f != parse_formula("!" * 991 + "false", grammar.sig)


def test_shared_parts_are_compared_hashed_and_pickled_once():
    # two separately built 60-level DAGs of about 2**60 paths each: a walk
    # that entered a shared part once per parent would never end (results
    # are kept as bools, since a failing assertion would print a formula)
    import pickle

    from lfgmc import FalseF, TrueF

    def dag(leaf):
        f = leaf
        for _ in range(60):
            f = Implies(f, f)
        return f

    a, b = dag(TrueF()), dag(TrueF())
    copy = pickle.loads(pickle.dumps(a))
    got = [a == b, hash(a) == hash(b), a != dag(FalseF()), copy == b, copy.left is copy.right]
    assert got == [True] * 5


def test_repr_is_the_dataclass_text():
    from lfgmc import FalseF, FStructConst, Or, TrueF, Up, Zoomin

    f = Iff(
        Implies(And(TrueF(), FalseF()), Or(CStructConst(), FStructConst())),
        Bullet((Not(CatLit("S")), Feat("num", AtomLit("sg")), Up(Down(Zoomin(WordLit("girl")))))),
    )
    f = And(f, Bullet((PathEq(("up",), ("subj",), (), ("num", "pred")),)))
    assert repr(f) == (
        "And(left=Iff(left=Implies(left=And(left=TrueF(), right=FalseF()), "
        "right=Or(left=CStructConst(), right=FStructConst())), right=Bullet(args=("
        "Not(sub=CatLit(name='S')), Feat(feat='num', sub=AtomLit(name='sg')), "
        "Up(sub=Down(sub=Zoomin(sub=WordLit(name='girl'))))))), "
        "right=Bullet(args=(PathEq(left_tree=('up',), left_feats=('subj',), "
        "right_tree=(), right_feats=('num', 'pred')),)))"
    )


def test_formula_fields_are_frozen():
    import copy
    from dataclasses import FrozenInstanceError

    for f, name in [(CatLit("S"), "name"), (Feat("num", TRUE), "sub"), (PathEq(("up",)), "left_tree")]:
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, TRUE)
        with pytest.raises(FrozenInstanceError):
            delattr(f, name)
        twin = copy.copy(f)
        assert twin == f and twin is not f


def test_formula_replace_builds_through_the_constructor():
    from lfgmc import FALSE

    assert Feat("num", TRUE).replace(sub=FALSE) == Feat("num", FALSE)
    assert PathEq(("up",)).replace(right_feats=["num"]) == PathEq(("up",), (), (), ("num",))
    with pytest.raises(ValueError, match="^tree step must be 'up' or 'down', got 'side'$"):
        PathEq(("up",)).replace(left_tree=("side",))
    with pytest.raises(ValueError, match="^bullet needs at least one argument$"):
        Bullet((TRUE,)).replace(args=())
