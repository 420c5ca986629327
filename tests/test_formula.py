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
    Not,
    PathEq,
    SignatureError,
    TRUE,
    WordLit,
    parse_formula,
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
