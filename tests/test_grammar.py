import random
from dataclasses import replace

import pytest

from lfgmc import (
    And,
    AtomLit,
    AtomValueSchema,
    Bullet,
    CatLit,
    Feat,
    GrammarError,
    GrammarSyntaxError,
    Implies,
    PathEq,
    PathEqSchema,
    SemForm,
    Signature,
    SignatureError,
    TRUE,
    Up,
    WordLit,
    Zoomin,
    coherence_axioms,
    compile_grammar,
    compile_lexicon,
    compile_rule,
    completeness_axioms,
    parse_formula,
    parse_grammar,
    render_formula,
    valid,
)

from conftest import (
    FIG_GRAMMAR_TEXT,
    OBL_GRAMMAR_TEXT,
    PP_AGREE_GRAMMAR_TEXT,
    lexical_unbuilt,
)


def test_grammar_file_parses(fig_grammar):
    assert fig_grammar.start == "S"
    assert [r.lhs for r in fig_grammar.rules] == ["S", "NP", "VP"]
    s_rule = fig_grammar.rules[0]
    assert [e.cat for e in s_rule.rhs] == ["NP", "VP"]
    assert s_rule.rhs[0].schemata == (PathEqSchema(("subj",), ()),)
    assert s_rule.rhs[1].schemata == (PathEqSchema((), ()),)
    assert fig_grammar.rules[1].rhs[0].schemata == ()
    entry = fig_grammar.entries_for("walks")[0]
    assert entry.cat == "V"
    assert entry.schemata == (
        SemForm("walk", (("subj",),)),
        AtomValueSchema(("tense",), "pst"),
    )
    assert fig_grammar.sig.words == frozenset({"a", "girl", "walks"})


def test_compile_s_rule_exact_ast(fig_grammar):
    got = compile_rule(fig_grammar.rules[0], fig_grammar.sig)
    want = And(
        CatLit("S"),
        Bullet(
            (
                And(CatLit("NP"), PathEq(("up",), ("subj",), (), ())),
                And(CatLit("VP"), PathEq(("up",), (), (), ())),
            )
        ),
    )
    assert got == want


def test_compile_unannotated_rule(fig_grammar):
    got = compile_rule(fig_grammar.rules[1], fig_grammar.sig)
    assert got == And(CatLit("NP"), Bullet((CatLit("Det"), CatLit("N"))))


def test_compile_unary_rule(fig_grammar):
    got = compile_rule(fig_grammar.rules[2], fig_grammar.sig)
    assert got == And(
        CatLit("VP"), Bullet((And(CatLit("V"), PathEq(("up",), (), (), ())),))
    )


def test_compile_rule_shape_invariant(fig_grammar):
    for rule in fig_grammar.rules:
        f = compile_rule(rule, fig_grammar.sig)
        assert isinstance(f, And)
        assert isinstance(f.left, CatLit) and f.left.name == rule.lhs
        assert isinstance(f.right, Bullet)
        assert len(f.right.args) == len(rule.rhs)


def _or_parts(f):
    from lfgmc import Or

    if isinstance(f, Or):
        return _or_parts(f.left) + _or_parts(f.right)
    return [f]


def test_compile_walks_entry(fig_grammar):
    lex = compile_lexicon(fig_grammar.lexicon, fig_grammar.sig)
    assert isinstance(lex, Implies)
    disjuncts = _or_parts(lex.right)
    walks = [
        d
        for d in disjuncts
        if Bullet((WordLit("walks"),)) in _and_parts(d)
    ]
    assert len(walks) == 1
    want = And(
        And(
            And(CatLit("V"), Bullet((WordLit("walks"),))),
            Up(Zoomin(Feat("pred", And(Feat("rel", AtomLit("walk")), Feat("subj", TRUE))))),
        ),
        Up(Zoomin(Feat("tense", AtomLit("pst")))),
    )
    assert walks[0] == want


def test_theory_needs_one_axiom_per_grammatical_function(fig_theory, fig_model):
    from dataclasses import replace

    from lfgmc import FALSE, Theory, TrueF, check_parse

    th = fig_theory
    with pytest.raises(ValueError, match="completeness has 1 formulas for 0"):
        Theory(th.licensing, th.lexical, completeness=(FALSE,))
    with pytest.raises(ValueError, match="coherence has 0 formulas for 1"):
        Theory(th.licensing, th.lexical, th.completeness, (), th.gf)
    with pytest.raises(ValueError, match="completeness has 0 formulas for 1"):
        replace(th, completeness=())
    assert Theory(TrueF(), TrueF()).labeled() == (("licensing", TrueF()), ("lexical", TrueF()))
    # lists are held as tuples, and a replaced axiom of the right length is checked
    built = Theory(th.licensing, th.lexical, list(th.completeness), list(th.coherence), list(th.gf))
    assert built == th and type(built.gf) is tuple
    stricter = replace(th, completeness=(FALSE,))
    report = {e.label: e.counterexample for e in check_parse(stricter, fig_model)}
    assert report["completeness[subj]"] == fig_model.node_order[0]


def test_compiled_theory_records_its_grammar_outside_equality(fig_grammar):
    from dataclasses import replace

    from conftest import FIG_GRAMMAR_TEXT, OVERLAP_GRAMMAR_TEXT

    theory = compile_grammar(fig_grammar)
    assert theory.source is fig_grammar
    again = compile_grammar(parse_grammar(FIG_GRAMMAR_TEXT))
    assert again.source is not fig_grammar
    copy = replace(theory)
    assert copy.source is None
    assert copy == theory == again and hash(copy) == hash(theory)
    assert repr(copy) == repr(theory) and "source" not in repr(theory)
    # a signature with violations does not compile
    with pytest.raises(SignatureError, match="^names used as both word and cat: N$"):
        compile_grammar(parse_grammar(OVERLAP_GRAMMAR_TEXT))


def _and_parts(f):
    if isinstance(f, And):
        return _and_parts(f.left) + _and_parts(f.right)
    return [f]


def test_entry_without_schemata_is_word_and_cat_only():
    text = """
    signature { cat: S A; atom: x; feat: f; gf: ; }
    rule S -> A;
    lex "b" A;
    """
    g = parse_grammar(text)
    lex = compile_lexicon(g.lexicon, g.sig)
    assert lex.right == And(CatLit("A"), Bullet((WordLit("b"),)))


def test_girl_entry_true_at_n_node(fig_grammar, fig_model):
    from lfgmc import satisfies

    lex = compile_lexicon(fig_grammar.lexicon, fig_grammar.sig)
    girl = [d for d in _or_parts(lex.right) if Bullet((WordLit("girl"),)) in _and_parts(d)]
    assert len(girl) == 1
    assert satisfies(fig_model, "n4", girl[0])


def test_completeness_axioms_exact(fig_sig):
    [axiom] = completeness_axioms(fig_sig)
    assert axiom == parse_formula("<pred> <subj> true -> <subj> true", fig_sig)


def test_coherence_axioms_exact(fig_sig):
    [axiom] = coherence_axioms(fig_sig)
    assert axiom == parse_formula(
        "(<subj> true & <pred> true) -> <pred> <subj> true", fig_sig
    )


def test_axioms_empty_gf():
    sig = Signature(cats={"S"}, atoms={"x"}, feats={"pred"})
    assert completeness_axioms(sig) == []
    assert coherence_axioms(sig) == []


def test_axioms_multistep_gf():
    sig = Signature(
        cats={"S"},
        atoms={"x"},
        feats={"pred", "obl", "obj"},
        gf=(("obl", "obj"),),
    )
    [comp] = completeness_axioms(sig)
    assert comp == parse_formula("<pred> <obl> <obj> true -> <obl> <obj> true", sig)
    [coh] = coherence_axioms(sig)
    assert coh == parse_formula(
        "(<obl> <obj> true & <pred> true) -> <pred> <obl> <obj> true", sig
    )


def test_theory_valid_on_fixture(fig_theory, fig_model):
    for label, f in fig_theory.labeled():
        assert valid(fig_model, f) is None, label


def test_coherence_with_obj_gf_valid_on_fixture(fig_model):
    from lfgmc import Model

    sig = Signature(
        fig_model.sig.cats,
        fig_model.sig.atoms,
        fig_model.sig.feats | {"obj"},
        (("obj",),),
        fig_model.sig.words,
    )
    [axiom] = coherence_axioms(sig)
    model = Model(sig, fig_model.cstruct, fig_model.fstruct, fig_model.zoomin)
    assert valid(model, axiom) is None


def test_licensing_vacuous_on_single_node_tree(fig_theory, tiny_model):
    # a single tree node has no grandchildren, so the licensing
    # antecedent is false everywhere
    from lfgmc import Model

    sig = Signature(
        tiny_model.sig.cats | {"S", "NP", "VP", "Det", "N", "V"},
        tiny_model.sig.atoms | {"a", "sing", "pst", "girl", "walk"},
        tiny_model.sig.feats | {"subj", "spec", "num", "pred", "tense", "rel"},
        (("subj",),),
        frozenset({"a", "girl", "walks"}),
    )
    m = Model(sig, tiny_model.cstruct, tiny_model.fstruct, {})
    assert valid(m, fig_theory.licensing) is None


def test_theory_formulas_round_trip(fig_theory, fig_grammar):
    for label, f in fig_theory.labeled():
        text = render_formula(f)
        assert parse_formula(text, fig_grammar.sig) == f, label


def test_theory_label_counts(fig_theory):
    labels = [label for label, _ in fig_theory.labeled()]
    assert labels == ["licensing", "lexical", "completeness[subj]", "coherence[subj]"]


def test_empty_rule_set_rejected(fig_grammar):
    from lfgmc import Grammar

    empty = Grammar(fig_grammar.sig, "S", (), fig_grammar.lexicon)
    with pytest.raises(GrammarError):
        compile_grammar(empty)


def test_semform_argument_must_be_declared_gf():
    text = """
    signature { cat: S V; atom: eat; feat: subj obj pred rel; gf: subj; }
    rule S -> V;
    lex "eats" V {(up pred)=eat(obj)};
    """
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert "grammatical function" in str(err.value)


def test_gf_without_pred_rejected_at_compile_time():
    from lfgmc import AnnotatedRule, Grammar, LexEntry, RuleElement

    rule = AnnotatedRule("S", (RuleElement("A", (PathEqSchema(("f",), ()),)),))
    sig = Signature({"S", "A"}, {"x"}, {"f"}, (("f",),), {"b"})
    with pytest.raises(SignatureError) as err:
        compile_grammar(Grammar(sig, "S", (rule,), (LexEntry("b", "A"),)))
    assert str(err.value) == "grammatical functions need the 'pred' feature"
    # with pred declared the same grammar compiles and is trusted
    sig = Signature({"S", "A"}, {"x"}, {"f", "pred"}, (("f",),), {"b"})
    grammar = Grammar(sig, "S", (rule,), (LexEntry("b", "A"),))
    assert compile_grammar(grammar).source is grammar
    # the grammar-file reader declares pred for a gf section itself
    text = 'signature { cat: S A; atom: x; feat: f; gf: f; } rule S -> A; lex "b" A;'
    assert "pred" in parse_grammar(text).sig.feats
    assert compile_grammar(parse_grammar(text)).source is not None


@pytest.mark.parametrize(
    "section,name,kind",
    [("cat", "Ñ", "category"), ("atom", "é", "atom"), ("feat", "ñum", "feature")],
)
def test_non_identifier_names_rejected_at_compile_time(section, name, kind):
    # the grammar reader accepts any name; a printed theory or a model file
    # could not spell this one, so compiling it stops
    text = "signature { cat: S A; atom: x; feat: f; gf: ; }\nrule S -> A;\nlex \"a\" A;\n"
    text = text.replace("%s: " % section, "%s: %s " % (section, name), 1)
    grammar = parse_grammar(text)
    assert name in getattr(grammar.sig, section + "s")
    with pytest.raises(SignatureError) as err:
        compile_grammar(grammar)
    assert str(err.value) == "%s name %r is not an identifier" % (kind, name)


def _shape_error_cases():
    """(id, call, error class, message) for each check a hand-built rule,
    entry or signature can fail when built or compiled."""
    from dataclasses import replace

    from lfgmc import AnnotatedRule, Grammar, LexEntry, RuleElement

    sig = Signature({"S", "A"}, {"x", "eat"}, {"f", "subj", "pred", "rel"}, (("subj",),), {"b"})
    entry = LexEntry("b", "A")

    def rule(*schemata, lhs="S", cat="A"):
        return AnnotatedRule(lhs, (RuleElement(cat, schemata),))

    def grammar(rules=(), lexicon=(entry,), sig=sig):
        return lambda: compile_grammar(Grammar(sig, "S", rules or (rule(),), lexicon))

    sem = SemForm("eat", (("subj",),))
    return [
        # the shape of a piece, checked when it is built
        ("empty-rhs", lambda: AnnotatedRule("S", ()), GrammarError,
         "rule for 'S' has an empty right-hand side"),
        ("semform-in-rule", lambda: RuleElement("A", (sem,)), GrammarError,
         "semantic forms are only allowed in lexical entries"),
        ("down-in-entry", lambda: LexEntry("b", "A", (PathEqSchema(("f",)),)), GrammarError,
         "'down' cannot appear in a lexical schema"),
        ("rule-non-schema", lambda: RuleElement("A", ("(up f)=x",)), TypeError,
         "not a schema: '(up f)=x'"),
        ("entry-non-schema", lambda: LexEntry("b", "A", (None,)), TypeError,
         "not a schema: None"),
        # names against the signature, checked when compiled
        ("unknown-lhs", grammar([rule(lhs="T")]), SignatureError, "unknown category 'T'"),
        ("unknown-element", grammar([rule(cat="T")]), SignatureError, "unknown category 'T'"),
        ("unknown-entry-cat", grammar(lexicon=[LexEntry("b", "T")]), SignatureError,
         "unknown category 'T'"),
        ("unknown-up-feature", grammar([rule(PathEqSchema(("g",)))]), SignatureError,
         "unknown feature 'g'"),
        ("unknown-down-feature", grammar([rule(PathEqSchema((), ("f", "g")))]), SignatureError,
         "unknown feature 'g'"),
        ("unknown-value-feature", grammar(lexicon=[LexEntry("b", "A", (AtomValueSchema(("g",), "x"),))]),
         SignatureError, "unknown feature 'g'"),
        ("unknown-value", grammar([rule(AtomValueSchema(("f",), "y"))]), SignatureError,
         "unknown atom 'y'"),
        ("unknown-relation", grammar(lexicon=[LexEntry("b", "A", (SemForm("sleep"),))]),
         SignatureError, "unknown atom 'sleep'"),
        ("semform-without-rel",
         grammar(lexicon=[LexEntry("b", "A", (SemForm("eat"),))], sig=replace(sig, feats={"f", "pred"}, gf=())),
         SignatureError, "semantic forms need the 'pred' and 'rel' features"),
        ("semform-arg-not-gf", grammar(lexicon=[LexEntry("b", "A", (SemForm("eat", (("f",),)),))]),
         SignatureError, "semantic-form argument 'f' is not a declared grammatical function"),
        ("undeclared-word", grammar(lexicon=[LexEntry("c", "A")]), SignatureError,
         "word form 'c' is not declared"),
        ("empty-lexicon", lambda: compile_lexicon((), sig), GrammarError, "lexicon is empty"),
        ("no-word-forms", grammar(sig=replace(sig, words=())), GrammarError,
         "signature declares no word forms"),
        # a signature with violations has no models, so it does not compile
        ("signature-overlap", grammar(sig=replace(sig, words={"b", "A"})), SignatureError,
         "names used as both word and cat: A"),
        ("signature-empty", grammar(sig=replace(sig, atoms=())), SignatureError,
         "atom set is empty"),
        ("signature-gf-feature", grammar(sig=replace(sig, gf=(("subj",), ("obj",)))),
         SignatureError, "gf step 'obj' is not a declared feature"),
    ] + [
        # the grammar reader rejects reserved words as names; a printed
        # theory would read one back as formula syntax
        ("reserved-" + section, grammar(sig=replace(sig, **{section: getattr(sig, section) | {"zoomin", "down"}})),
         SignatureError, "%s name 'down' collides with reserved formula syntax" % kind)
        for section, kind in [("cats", "category"), ("atoms", "atom"), ("feats", "feature")]
    ]


@pytest.mark.parametrize("case", _shape_error_cases(), ids=lambda case: case[0])
def test_hand_built_grammar_errors(case):
    _, call, cls, message = case
    with pytest.raises(cls) as err:
        call()
    assert type(err.value) is cls and str(err.value) == message


# --- the lexical axiom, built when first read -------------------------------


def test_compile_grammar_builds_the_lexical_axiom_when_first_read(fig_grammar):
    theory = compile_grammar(fig_grammar)
    assert lexical_unbuilt(theory)
    lexical = theory.lexical
    assert not lexical_unbuilt(theory) and theory.lexical is lexical
    assert lexical == compile_lexicon(fig_grammar.lexicon, fig_grammar.sig)
    # a hand-built theory holds what it is given; a lexicon-free grammar compiles to true
    from lfgmc import Grammar, Theory, TrueF

    assert vars(Theory(TrueF(), lexical))["lexical"] is lexical
    bare = Grammar(fig_grammar.sig, "S", fig_grammar.rules, ())
    assert vars(compile_grammar(bare))["lexical"] == TrueF()


def _last_entry_cases():
    from lfgmc import LexEntry

    return [
        ("cat", LexEntry("b", "T"), "unknown category 'T'"),
        ("word", LexEntry("c", "A"), "word form 'c' is not declared"),
        ("feature", LexEntry("b", "A", (AtomValueSchema(("g",), "x"),)), "unknown feature 'g'"),
        ("atom", LexEntry("b", "A", (AtomValueSchema(("f",), "y"),)), "unknown atom 'y'"),
        ("relation", LexEntry("b", "A", (SemForm("sleep"),)), "unknown atom 'sleep'"),
        ("gf-argument", LexEntry("b", "A", (SemForm("eat", (("f",),)),)),
         "semantic-form argument 'f' is not a declared grammatical function"),
    ]


@pytest.mark.parametrize("case", _last_entry_cases(), ids=lambda case: case[0])
def test_compile_grammar_checks_the_last_of_500_entries(case):
    # the entries are checked when compiled, though the axiom is built later
    from lfgmc import AnnotatedRule, Grammar, LexEntry, RuleElement

    _, bad, message = case
    words = ["w%03d" % k for k in range(499)]
    sig = Signature({"S", "A"}, {"x", "eat"}, {"f", "subj", "pred", "rel"}, (("subj",),),
                    {*words, "b"})
    lexicon = [LexEntry(w, "A", (AtomValueSchema(("f",), "x"),)) for w in words] + [bad]
    grammar = Grammar(sig, "S", (AnnotatedRule("S", (RuleElement("A"),)),), lexicon)
    assert len(grammar.lexicon) == 500
    for call in (lambda: compile_grammar(grammar), lambda: compile_lexicon(lexicon, sig)):
        with pytest.raises(SignatureError) as err:
            call()
        assert str(err.value) == message
    good = compile_grammar(replace(grammar, lexicon=lexicon[:-1]))
    assert lexical_unbuilt(good)


@pytest.mark.parametrize("text", [FIG_GRAMMAR_TEXT, PP_AGREE_GRAMMAR_TEXT, OBL_GRAMMAR_TEXT],
                         ids=["fig", "pp-agree", "obl"])
def test_a_theory_is_the_same_whether_or_not_its_lexical_axiom_was_read(text):
    import pickle

    grammar = parse_grammar(text)
    read = compile_grammar(grammar)
    read.lexical

    def unread():
        theory = compile_grammar(grammar)
        assert lexical_unbuilt(theory)
        return theory

    assert unread() == read and read == unread()
    assert hash(unread()) == hash(read)
    assert unread().labeled() == read.labeled()
    assert render_formula(unread().lexical) == render_formula(read.lexical)
    assert repr(unread()) == repr(read)
    assert replace(unread()) == read
    # a pickled theory builds its lexical axiom when the copy reads it
    copy = pickle.loads(pickle.dumps(unread()))
    assert lexical_unbuilt(copy) and copy == read and copy.source == grammar


def test_constraining_equation_rejected():
    text = """
    signature { cat: S A; atom: x; feat: f; gf: ; }
    rule S -> A {(up f)=c x};
    lex "b" A;
    """
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert "constraining" in str(err.value)
    assert err.value.line == 3


def test_down_rejected_in_lexical_schema():
    text = """
    signature { cat: S A; atom: x; feat: f; gf: ; }
    rule S -> A;
    lex "b" A {(up f)=down};
    """
    with pytest.raises(GrammarSyntaxError):
        parse_grammar(text)


def test_semform_rejected_in_rule_schema():
    text = """
    signature { cat: S A; atom: x; feat: f pred rel; gf: ; }
    rule S -> A {(up pred)=x()};
    lex "b" A;
    """
    with pytest.raises(GrammarSyntaxError):
        parse_grammar(text)


def test_semform_only_as_the_value_of_up_pred():
    text = """signature { cat: S NP N; atom: girl; feat: subj num pred; gf: subj; }
rule S -> NP {(up subj)=down};
rule NP -> N {up=down};
lex "g" N {(up subj num)=girl()};
"""
    for upside in ["(up subj num)", "up", "(up)", "(up pred pred)"]:
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar(text.replace("(up subj num)", upside))
        assert str(err.value) == "4:%d: a semantic form can only be the value of (up pred)" % (
            13 + len(upside))
    assert parse_grammar(text.replace("(up subj num)", "(up pred)")).lexicon[0].schemata == (
        SemForm("girl"),)


def test_grammar_pieces_print_as_dataclasses_and_are_frozen():
    from dataclasses import FrozenInstanceError

    from lfgmc import AnnotatedRule, LexEntry, RuleElement

    element = RuleElement("NP", (PathEqSchema(("subj",), ()), AtomValueSchema(("num",), "sg")))
    entry = LexEntry("girl", "N", (AtomValueSchema(("num",), "sg"),
                                   SemForm("girl", (("subj",), ("obl", "obj")))))
    assert repr(element) == (
        "RuleElement(cat='NP', schemata=(PathEqSchema(up_path=('subj',), down_path=()), "
        "AtomValueSchema(path=('num',), value='sg')))"
    )
    assert repr(entry) == (
        "LexEntry(word='girl', cat='N', schemata=(AtomValueSchema(path=('num',), value='sg'), "
        "SemForm(rel='girl', args=(('subj',), ('obl', 'obj')))))"
    )
    assert repr(AnnotatedRule("S", (RuleElement("NP"),))) == (
        "AnnotatedRule(lhs='S', rhs=(RuleElement(cat='NP', schemata=()),))"
    )
    for piece, name in [(element, "cat"), (entry, "schemata"), (SemForm("girl"), "args")]:
        with pytest.raises(FrozenInstanceError):
            setattr(piece, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(piece, name)


def test_syntax_errors_carry_position():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("signature { cat: S; atom: x; feat: f; }\nrule S -> ;")
    assert err.value.line == 2


def test_unknown_category_in_rule():
    text = """
    signature { cat: S; atom: x; feat: f; gf: ; }
    rule S -> Nope;
    """
    with pytest.raises(GrammarSyntaxError):
        parse_grammar(text)


def test_start_defaults_to_first_rule():
    text = """
    signature { cat: S A; atom: x; feat: f; gf: ; }
    rule A -> A;
    rule S -> A;
    lex "b" A;
    """
    assert parse_grammar(text).start == "A"


def test_pred_and_rel_features_added_for_semforms():
    text = """
    signature { cat: S V; atom: run; feat: subj; gf: subj; }
    rule S -> V;
    lex "runs" V {(up pred)=run(subj)};
    """
    g = parse_grammar(text)
    assert "pred" in g.sig.feats
    assert "rel" in g.sig.feats


def test_comments_and_multistep_gf():
    text = """
    # leading comment
    signature { cat: S; atom: x; feat: obl obj pred; gf: obl.obj; }  # trailing
    rule S -> S;   # recursion, never mind
    """
    g = parse_grammar(text)
    assert g.sig.gf == (("obl", "obj"),)


def test_reserved_name_rejected_in_signature():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("signature { cat: S zoomin; atom: x; feat: f; gf: ; }")


def _totality_corpus():
    """3000 random texts over grammar keywords and punctuation."""
    rng = random.Random(31)
    pieces = [
        "signature", "rule", "lex", "start", "cat", "atom", "feat", "gf",
        "{", "}", "(", ")", ";", ":", ",", ".", "=", "->", "=c", "up",
        "down", "S", "A", "x", "f", '"b"', "#c\n", " ", "\n",
    ]
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 30))) for _ in range(3000)]


def _scanner_corpus():
    """3000 random texts with bad characters, non-decimal digits,
    unterminated strings, ``=c``/``=cat``, ``\\r`` and comments."""
    rng = random.Random(47)
    pieces = [
        "signature", "rule", "lex", "x", "_y1", "é", "Ab9", "{", "}", "(", ")",
        ";", ":", ",", ".", "=", "=c", "=cat", "=c1", "->", "-", '"b"', '"', '"ab',
        '""', "#c", "#", "\n", "\r", "\t", " ", "  ", "@", "1", "²", "٣", "½",
        "\f", "\xa0", "\x00", "$", "'", "x²", "a٣",
    ]
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 25))) for _ in range(3000)]


def test_grammar_parser_totality_fuzz():
    from lfgmc import LfgError

    for text in _totality_corpus():
        try:
            parse_grammar(text)
        except LfgError:
            pass


# --- the scanner against the character-at-a-time reference ----------------

def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except GrammarSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col)


def test_scanner_matches_reference_tokenizer():
    from conftest import (
        DEVOUR_GRAMMAR_TEXT,
        FIG_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
    )
    from generators import embedding_grammar_text
    from lfgmc.grammar import _GParser
    from oracles import reference_g_tokenize

    texts = [
        FIG_GRAMMAR_TEXT,
        DEVOUR_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
        embedding_grammar_text(["noun%d" % k for k in range(500)]),
        FIG_GRAMMAR_TEXT.replace("\n", "\r\n") + "# trailing comment",
        "", "#", "x #c", "\n\t #c\n  ", "=c", "=cat", "=c_", "=c(", "->", "-",
    ]
    for text in texts + _scanner_corpus():
        got = _tokens_or_error(_GParser.scan, text)
        ref = _tokens_or_error(reference_g_tokenize, text)
        if ref[0] == "error":
            assert got == ref, repr(text)
            continue
        # plain strings, a string literal with its quotes, "" at the end
        assert got == [
            '"%s"' % tok.value if tok.kind == "STRING" else tok.value for tok in ref
        ], repr(text)
        # positions are computed only for errors, from the token's index
        assert [_GParser.position(text, i) for i in range(len(got))] == [
            (tok.line, tok.col) for tok in ref
        ], repr(text)


# --- the parser against the method-per-construct reference ----------------

def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except GrammarSyntaxError as exc:
        return "error", str(exc), exc.line, exc.col


def _token_edits(text):
    """``text`` with each of its tokens deleted, and with each doubled."""
    from oracles import reference_g_tokenize

    starts = [0]
    for row in text.split("\n"):
        starts.append(starts[-1] + len(row) + 1)
    for kind, value, line, col in reference_g_tokenize(text)[:-1]:
        at = starts[line - 1] + col - 1
        end = at + len(value) + (2 if kind == "STRING" else 0)
        yield text[:at] + text[end:]
        yield text[:end] + " " + text[at:]


def test_parser_matches_reference_parser():
    from conftest import (
        DEVOUR_GRAMMAR_TEXT,
        FIG_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
    )
    from generators import embedding_grammar_text
    from oracles import reference_parse_grammar

    valid_texts = [
        FIG_GRAMMAR_TEXT,
        DEVOUR_GRAMMAR_TEXT,
        MICRO_GRAMMAR_TEXT,
        PP_AGREE_GRAMMAR_TEXT,
        embedding_grammar_text(["noun%d" % k for k in range(3)]),
    ]
    big = [embedding_grammar_text(["noun%d" % k for k in range(n)]) for n in (500, 5000)]
    edited = [t for text in valid_texts for t in _token_edits(text)]
    sig = "signature { cat: S A; atom: x r; feat: f; gf: f; }\n"
    edge = [
        sig + sig,
        "signature { cat: S; cat: A; }",
        "signature { cat: S; feat: f; }",
        "signature { cat: S up; atom: x; feat: f; }",
        "signature { cat: S; atom: x; feat: f; gf: f.up; }",
        sig + "rule S -> ;",
        sig + 'lex "" A;',
        sig + 'lex "b" A {(up f)=c x};',
        sig + 'lex "b" A {(up f)=(down f)};',
        sig + 'lex "b" A {(up pred)=r(f, f.f)};',
        sig + 'lex "b" A {(up pred)=r(f,)};',
        sig + 'lex "b" A {(up f)=r(f)};',
        sig + 'lex "b" A {up=r()};',
        sig + 'lex "b" A {(up pred)=x(f) (up f)=x};',
        sig + 'lex "b" A {(up f)=x;;}',
        sig + "rule S -> A {(up pred)=r()};",
        sig + "rule S -> A {(up f)=(down)} A {up=down; (up rel f)=down};",
        sig + 'lex ";" A {(up f)=x}',
        sig + "start A; start S; start B;",
    ]
    checked = errors = 0
    for text in valid_texts + big + edited + edge + _totality_corpus() + _scanner_corpus():
        got = _parse_outcome(parse_grammar, text)
        assert got == _parse_outcome(reference_parse_grammar, text), repr(text)
        checked += 1
        errors += got[0] == "error"
    # the edits reach the parser's error paths, not only the scanner's
    assert len(edited) > 1000 and errors > 3000 and checked - errors > 7



# --- statement tokens: a common lex statement read as one token -------------

_EDGE_SIG = ("signature { cat: S A; atom: x r c c1 cat x²; feat: f obl obj;"
             " gf: f obl.obj; }\nrule S -> A;\n")


def _edge_corpus():
    """Texts on the edges of the statement tokens, each with a grammar
    that reads as plain tokens would read it, or an error to name."""
    lex = [
        'lex\t"b"\tA\t{\t(\tup\tf\t)\t=\tx\t}\t;',
        'lex   "b"  A  {  ( up  f )  =  x ;  ( up pred ) = r ( f , obl . obj ) }  ;',
        'lex "b" A {(up f)=x;\r\n(up f)=x};', 'lex "b"\r\nA;', 'lex "b" A;\r\nlex "b" A;\r\n',
        'lex "b" A # c\n{(up f)=x};', 'lex "b"\nA;', 'lex "b" A; # c\nlex "b" A;#c',
        'lex # "c"\n"b" A;', 'lex "b" # "c" A;\nA;',
        'lex "b" A {(up f)=x} # c\n;', 'lex "b" A {(up f)=x;};', 'lex "b" A {};',
        'lex "b" A {(up f)=c; (up f)=x};', 'lex "b" A {(up f)=c};', 'lex "b" A {(up f)= c};',
        'lex "b" A {(up f)=cat};', 'lex "b" A {(up f)=c1};', 'lex "b" A {(up pred)=c()};',
        'lex "b" A {(up f)=x²};', 'lex "b" A {(up f)=²x};', 'lex "b" ²A;', 'lex "b" A {(up ²f)=x};',
        'lex "#;}" A {(up f)=x};', 'lex ";" A;', 'lex "" A;', 'lex "" A {(up f)=x};',
        'lex "b\r" A;', 'lex"b"A{(up)=x};', 'lex "b" A {up=x};',
        'lex "b" B;', 'lex "b" A {(up f)=y};', 'lex "b" A {(up g)=x};',
        'lex "b" A {(up pred)=x};', 'lex "b" A {(up rel)=x};',
        'lex "b" A {(up rel f)=x};\nrule S -> A {(up rel)=down};',
        'lex "b" A {(up up)=x};', 'lex "b" A {(up f)=down};', 'lex "b" A {(up f)=up};',
        'lex "b" A {(up f)=r()};', 'lex "b" A {(up pred f)=r()};', 'lex "b" A {(up pred)=r(obl)};',
        'lex "b" A {(up pred)=r(f, obl.obj)};', 'lex "b" A {(up pred)=r( obl . obj ,f )};',
        'lex "b" A {(up pred)=r(f) (up f)=x};', 'lex "b" A {(up pred)=y()};',
        'rule S -> A lex "b" A;', 'start lex "b" A;', 'lexeme "b" A;',
    ]
    return (
        [_EDGE_SIG + text for text in lex]
        + ['lex "b" A;\n' + _EDGE_SIG, 'rule S -> A;\nlex "b" A;\n' + _EDGE_SIG]
        + ["signature { cat: S A lex; atom: x; feat: f; gf: ; }\nrule S -> lex;\n" + text
           for text in ('lex "b" lex;', 'lex "b" lex {(up f)=x};', 'rule lex -> A lex "b" A;')]
        + ["signature { cat: S A lexeme; atom: x; feat: f; gf: ; }\nrule S -> A;\n" + text
           for text in ('lex "b" lexeme;', 'lexeme "b" A;')]
        + ['signature { cat: S A lex "b" A; B; atom: x; feat: f; }\nlex "b" A;',
           'signature { cat: S A; atom: lex "b" A; x; feat: f; }\nlex "b" A;']
    )


def _big_lexicons():
    """500-entry lexicons whose middle or last entry is bad, and one whose
    last entry only plain tokens read."""
    from generators import embedding_grammar_text

    nouns = ["noun%d" % k for k in range(496)]
    good = embedding_grammar_text(nouns)
    return [
        good.replace('lex "noun248" N', 'lex "noun248" NP2'),
        good.replace("=noun248()", "=noun248(subj, spec)"),
        good.replace("=noun495()", "=noun999()"),
        good.replace('lex "noun495" N {(up pred)', 'lex "noun495" N {(up pred pred)'),
        good.replace('lex "noun495" N {', 'lex "noun495" N #\n{'),
    ]


def _is_statement(tok):
    return tok[-1:] == ";" != tok


def _statement_tokens(text):
    """The statement tokens of ``text``; none if it does not scan."""
    from lfgmc.grammar import _GStatementParser

    try:
        return [tok for tok in _GStatementParser.scan(text) if _is_statement(tok)]
    except GrammarSyntaxError:
        return []


def test_statement_tokens_match_reference_parser_on_edges():
    from generators import embedding_grammar_text
    from oracles import reference_parse_grammar

    big = _big_lexicons()
    assert all(len(text.split("\nlex ")) == 501 for text in big)  # 500 entries
    corpus = _edge_corpus() + big
    edits = list(_token_edits(embedding_grammar_text(["noun%d" % k for k in range(20)])))
    outcomes = []
    for text in corpus + edits:
        got = _parse_outcome(parse_grammar, text)
        assert got == _parse_outcome(reference_parse_grammar, text), repr(text)
        outcomes.append(got[0])
    # the texts meet statement tokens, both where they read and where the
    # plain reader must name an error
    fast = [o for t, o in zip(corpus + edits, outcomes) if _statement_tokens(t)]
    assert fast.count("ok") > 15 and fast.count("error") > 300


def test_statement_tokens_scan_as_their_plain_tokens():
    from conftest import DEVOUR_GRAMMAR_TEXT, MICRO_GRAMMAR_TEXT
    from generators import embedding_grammar_text
    from lfgmc.grammar import _GParser, _GStatementParser

    texts = [FIG_GRAMMAR_TEXT, DEVOUR_GRAMMAR_TEXT, MICRO_GRAMMAR_TEXT, PP_AGREE_GRAMMAR_TEXT,
             OBL_GRAMMAR_TEXT, *(embedding_grammar_text(["noun%d" % k for k in range(n)])
                                 for n in (500, 5000))]
    statements = 0
    for text in texts + _edge_corpus() + _totality_corpus() + _scanner_corpus():
        try:
            plain = _GParser.scan(text)
        except GrammarSyntaxError:
            continue
        # each statement token stands for the plain tokens of its characters
        expanded = []
        for tok in _GStatementParser.scan(text):
            expanded += _GParser.scan(tok)[:-1] if _is_statement(tok) else [tok]
            statements += _is_statement(tok)
        assert expanded == plain, repr(text)
    assert statements > 5550


def test_a_large_lexicon_is_read_without_plain_lex_statements(monkeypatch):
    from generators import embedding_grammar_text
    from lfgmc.grammar import _GParser
    from oracles import reference_parse_grammar

    calls = []
    plain = _GParser.parse_lex
    monkeypatch.setattr(_GParser, "parse_lex", lambda self: calls.append(1) or plain(self))
    text = embedding_grammar_text(["noun%d" % k for k in range(500)])
    grammar = parse_grammar(text)
    assert len(grammar.lexicon) == 504 and calls == []
    assert grammar == reference_parse_grammar(text)
    # a statement the tokens cannot read is read by the plain reader
    assert parse_grammar(text.replace('lex "that" C;', 'lex "that" C {};')) == grammar
    assert len(calls) == 1
