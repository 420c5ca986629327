import random

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
    # a signature with violations is never trusted
    assert compile_grammar(parse_grammar(OVERLAP_GRAMMAR_TEXT)).source is None


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
    from lfgmc import AnnotatedRule, Grammar, LexEntry, RuleElement, SignatureError

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
    from lfgmc import SignatureError

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

    from lfgmc import AnnotatedRule, Grammar, LexEntry, RuleElement, SignatureError

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

