import itertools
import random
from collections import Counter

import pytest

from lfgmc import (
    FStructure,
    GrammarError,
    Model,
    SearchBounds,
    SignatureError,
    Theory,
    TrueF,
    canonicalize,
    check_parse,
    model_to_text,
    parse_sentence,
    valid,
    validate_model,
)

from conftest import (
    BOUND_PARTIAL_GRAMMAR_TEXT,
    BOUND_RULE_GRAMMAR_TEXT,
    DEVOUR_GRAMMAR_TEXT,
    FIG_GRAMMAR_TEXT,
    MICRO_GRAMMAR_TEXT,
    OBL_GRAMMAR_TEXT,
    OVERLAP_GRAMMAR_TEXT,
    PP_AGREE_GRAMMAR_TEXT,
    PP_SENTENCE,
    assert_frozen_record,
    build_fig_model,
    build_tiny_model,
    lexical_unbuilt,
)
from generators import embedding_grammar_text, rand_grammar
from oracles import (
    _RefDLex,
    _RefDPhrase,
    _RefSkeletonEnumerator,
    blind_parse,
    oracle_parse,
    oracle_valid,
    reference_model_to_text,
    reference_two_phase_parse,
    reference_validate_model,
    subsumes,
)
from test_cli import run_cli


def test_fig_sentence_parses_to_the_fixture(fig_theory, fig_grammar):
    out = parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"])
    assert not out.bound_exceeded
    assert len(out.models) == 1
    assert out.models[0] == canonicalize(build_fig_model())


def test_fig_model_reentrancy(fig_theory, fig_grammar):
    [m] = parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"]).models
    f = m.fstruct
    subj = f.trans[f.initial]["subj"]
    pred = f.trans[f.initial]["pred"]
    assert f.trans[pred]["subj"] == subj  # the argument slot is shared


def test_bare_noun_has_no_parse(fig_theory, fig_grammar):
    out = parse_sentence(fig_theory, fig_grammar, ["girl"])
    assert out.models == ()
    assert not out.bound_exceeded


def test_scrambled_order_has_no_parse(fig_theory, fig_grammar):
    out = parse_sentence(fig_theory, fig_grammar, ["walks", "girl", "a"])
    assert out.models == ()
    assert not out.bound_exceeded


def test_unknown_token_rejected(fig_theory, fig_grammar):
    with pytest.raises(SignatureError):
        parse_sentence(fig_theory, fig_grammar, ["a", "girl", "runs"])
    with pytest.raises(GrammarError):
        parse_sentence(fig_theory, fig_grammar, [])


def test_devour_without_object_fails_completeness(devour_theory, devour_grammar):
    out = parse_sentence(devour_theory, devour_grammar, ["a", "girl", "devours"])
    assert out.models == ()
    assert not out.bound_exceeded
    labels = [r.detail for r in out.rejections if r.reason == "formula"]
    assert "completeness[obj]" in labels
    [rej] = [r for r in out.rejections if r.detail == "completeness[obj]"]
    assert rej.node is not None
    # the counterexample sits in the feature graph (the outer f-node)
    assert rej.node.startswith("w")


def test_devour_offending_model_check_report(devour_theory, devour_grammar):
    # hand-build the rejected candidate: pred.obj exists, obj does not
    from lfgmc import CStructure, FStructure, Model

    base = build_fig_model()
    sig = devour_grammar.sig
    c = base.cstruct
    label = dict(c.label)
    label["n8"] = "devours"
    cstruct = CStructure(c.nodes, c.root, c.mother, c.daughters, label)
    f = base.fstruct
    trans = {w: dict(t) for w, t in f.trans.items()}
    trans["f1"]["rel"] = "f4"
    trans["f1"]["obj"] = "f9"
    trans["f9"] = {}
    atomval = dict(f.atomval)
    atomval["f4"] = "devour"
    fstruct = FStructure(
        f.nodes | {"f9"}, f.initial, trans, f.final, atomval
    )
    model = Model(sig, cstruct, fstruct, base.zoomin)
    assert validate_model(model).ok
    report = check_parse(devour_theory, model)
    failing = {e.label: e.counterexample for e in report if not e.ok}
    assert failing == {"completeness[obj]": "f0"}


def test_check_parse_fixture_all_valid(fig_theory, fig_model):
    report = check_parse(fig_theory, fig_model)
    assert report.ok
    assert [e.label for e in report] == [
        "licensing",
        "lexical",
        "completeness[subj]",
        "coherence[subj]",
    ]


def test_check_parse_number_mutation(fig_theory, fig_model):
    # flipping sing to pl leaves the phrase rules and the well-formedness
    # axioms intact, but the determiner and noun entries pin num=sing, so
    # the lexical axiom fails at the Det preterminal first
    from lfgmc import FStructure, Model

    f = fig_model.fstruct
    atomval = dict(f.atomval)
    atomval["f5"] = "pl"
    sig = fig_model.sig
    sig2 = type(sig)(sig.cats, sig.atoms | {"pl"}, sig.feats, sig.gf, sig.words)
    mutated = Model(
        sig2,
        fig_model.cstruct,
        FStructure(f.nodes, f.initial, f.trans, f.final, atomval),
        fig_model.zoomin,
    )
    assert validate_model(mutated).ok
    report = {e.label: e.counterexample for e in check_parse(fig_theory, mutated)}
    assert report["licensing"] is None
    assert report["completeness[subj]"] is None
    assert report["coherence[subj]"] is None
    assert report["lexical"] == "n2"


def test_check_parse_empty_theory(fig_model):
    empty = Theory(TrueF(), TrueF(), (), (), ())
    assert check_parse(empty, fig_model).ok


# --- check_parse without the names walk -------------------------------------

def _rows(report):
    return [(e.label, e.counterexample) for e in report]


def _valid_rows(theory, model):
    return [(label, valid(model, f)) for label, f in theory.labeled()]


def _no_names_walk(phi, sig):
    raise AssertionError("names walked for a covered model")


def _relabelled(model, node, label):
    from lfgmc import CStructure, Model

    c = model.cstruct
    tree = CStructure(c.nodes, c.root, c.mother, c.daughters, {**c.label, node: label})
    return Model(model.sig, tree, model.fstruct, model.zoomin)


@pytest.mark.parametrize(
    "text,sentences",
    [
        (FIG_GRAMMAR_TEXT, [["a", "girl", "walks"]]),
        (DEVOUR_GRAMMAR_TEXT, [["a", "girl", "walks"]]),
        (MICRO_GRAMMAR_TEXT, [["b"], ["b", "b"]]),
        (PP_AGREE_GRAMMAR_TEXT, [PP_SENTENCE[:5], PP_SENTENCE[:8]]),
    ],
    ids=["fig", "devour", "micro", "pp-agree"],
)
def test_check_parse_rows_equal_valid_without_the_names_walk(monkeypatch, text, sentences):
    from lfgmc import compile_grammar, parse_grammar, search

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    models = [m for s in sentences for m in parse_sentence(theory, grammar, s).models]
    assert models
    # every tree node relabelled in turn to every other word (a leaf) or
    # category (an inner node), so that each label can fail somewhere
    cases = list(models)
    for m in models:
        for n in sorted(m.cstruct.nodes):
            names = grammar.sig.cats if m.cstruct.daughters[n] else grammar.sig.words
            cases += [_relabelled(m, n, x) for x in sorted(names - {m.cstruct.label[n]})]
    want = [_valid_rows(theory, m) for m in cases]
    assert any(node is not None for rows in want for _label, node in rows)
    monkeypatch.setattr(search, "validate_names", _no_names_walk)
    assert [_rows(check_parse(theory, m)) for m in cases] == want


def test_check_parse_rows_equal_valid_on_the_500_noun_chain(monkeypatch):
    from lfgmc import compile_grammar, model_from_json, parse_grammar, search

    from generators import chain_model_doc

    lexicon = ["noun%03d" % k for k in range(500)]
    theory = compile_grammar(parse_grammar(embedding_grammar_text(lexicon)))
    nouns = lexicon[7::41]
    models = []
    for swap in (None, (len(nouns) - 1, "noun250"), (0, "said")):
        doc, failing = chain_model_doc(lexicon, nouns, swap)
        models.append((model_from_json(doc), failing))
    want = [_valid_rows(theory, m) for m, _failing in models]
    assert [dict(rows)["lexical"] for rows in want] == [f for _m, f in models]
    monkeypatch.setattr(search, "validate_names", _no_names_walk)
    assert [_rows(check_parse(theory, m)) for m, _failing in models] == want


def test_an_unpickled_500_noun_theory_checks_as_the_original():
    import pickle

    from lfgmc import compile_grammar, model_from_json, parse_grammar

    from generators import chain_model_doc

    lexicon = ["noun%03d" % k for k in range(500)]
    theory = compile_grammar(parse_grammar(embedding_grammar_text(lexicon)))
    theory.lexical
    copy = pickle.loads(pickle.dumps(theory))
    assert copy == theory
    nouns = lexicon[7::41]
    for swap in (None, (len(nouns) - 1, "noun250"), (0, "said")):
        model = model_from_json(chain_model_doc(lexicon, nouns, swap)[0])
        assert check_parse(copy, model) == check_parse(theory, model)
        assert _valid_rows(copy, model) == _valid_rows(theory, model)


@pytest.mark.parametrize(
    "kind,name,message",
    [
        ("cats", "VP", "unknown category 'VP'"),
        ("atoms", "sing", "unknown atom 'sing'"),
        ("feats", "tense", "unknown feature 'tense'"),
        ("words", "girl", "unknown word form 'girl'"),
    ],
)
def test_check_parse_reports_a_used_name_the_model_lacks(
    fig_theory, fig_model, kind, name, message
):
    sig = fig_model.sig.replace(**{kind: getattr(fig_model.sig, kind) - {name}})
    with pytest.raises(SignatureError) as exc:
        check_parse(fig_theory, fig_model.replace(sig=sig))
    assert str(exc.value) == message


def test_check_parse_accepts_a_model_without_an_unused_declared_name(fig_model):
    # every declared word is used, by the lexical antecedent
    from lfgmc import compile_grammar, parse_grammar

    text = (
        FIG_GRAMMAR_TEXT.replace("cat: S", "cat: Unused S")
        .replace("atom: a", "atom: unused a")
        .replace("feat: subj", "feat: unusedf subj")
    )
    theory = compile_grammar(parse_grammar(text))
    for kind, name in (("cats", "Unused"), ("atoms", "unused"), ("feats", "unusedf")):
        assert name in getattr(theory.source.sig, kind)
        assert name not in getattr(fig_model.sig, kind)
    report = check_parse(theory, fig_model)
    assert report.ok and _rows(report) == _valid_rows(theory, fig_model)


def test_check_parse_walks_the_names_of_a_replaced_theory(monkeypatch, fig_theory, fig_model):
    # replace() keeps every label it is not given another object for: on a
    # covered model the names of those are not walked, a changed label's are
    from lfgmc import And

    _evaluated, walked = _count_evaluations(monkeypatch)
    assert check_parse(fig_theory, fig_model).ok and walked == []
    copy = fig_theory.replace()
    assert check_parse(copy, fig_model).ok and walked == []
    wider = fig_theory.replace(licensing=And(fig_theory.licensing, TrueF()))
    assert check_parse(wider, fig_model).ok and walked == [wider.licensing]


# --- check_parse on the lexical axiom's slice for the model's words ---------

def _oracle_rows(theory, model):
    return [(label, oracle_valid(model, f)) for label, f in theory.labeled()]


def _with_words(model, words):
    return model.replace(sig=model.sig.replace(words=model.sig.words | set(words)))


def _leaf(model, word):
    [node] = [n for n, label in model.cstruct.label.items() if label == word]
    return node


def test_trusted_parse_and_covered_check_leave_the_lexical_axiom_unbuilt(monkeypatch):
    from lfgmc import compile_grammar, model_from_json, parse_grammar, search

    from generators import chain_model_doc

    grammar = parse_grammar(FIG_GRAMMAR_TEXT)
    theory = compile_grammar(grammar)
    [model] = parse_sentence(theory, grammar, ["a", "girl", "walks"]).models
    monkeypatch.setattr(search, "validate_names", _no_names_walk)
    walks = _relabelled(model, _leaf(model, "girl"), "walks")
    assert check_parse(theory, model).ok and not check_parse(theory, walks).ok
    assert lexical_unbuilt(theory)
    lexicon = ["noun%03d" % k for k in range(500)]
    chain = compile_grammar(parse_grammar(embedding_grammar_text(lexicon)))
    for swap in (None, (0, "noun250")):
        doc, _failing = chain_model_doc(lexicon, lexicon[7::41], swap)
        check_parse(chain, model_from_json(doc))
    assert lexical_unbuilt(chain)
    # a check the lemma does not cover builds the axiom for its names walk
    monkeypatch.undo()
    text = FIG_GRAMMAR_TEXT.replace("cat: S", "cat: Unused S")
    uncovered = compile_grammar(parse_grammar(text))
    assert check_parse(uncovered, model).ok and not lexical_unbuilt(uncovered)


def _hand_built_word_grammar():
    """A grammar declaring the word "c" without an entry, and a model of
    ``S -> A`` over the leaf "c"."""
    from lfgmc import (
        AnnotatedRule, CStructure, FStructure, Grammar, LexEntry, Model, RuleElement,
        Signature, compile_grammar,
    )

    sig = Signature({"S", "A"}, {"x"}, {"f"}, (), {"b", "c"})
    rules = (AnnotatedRule("S", (RuleElement("A"),)),)
    grammar = Grammar(sig, "S", rules, (LexEntry("b", "A"),))
    tree = CStructure.build("n0", {"n0": ("n1",), "n1": ("n2",), "n2": ()},
                            {"n0": "S", "n1": "A", "n2": "c"})
    fstruct = FStructure(frozenset({"f0"}), "f0", {"f0": {}}, frozenset(), {})
    return compile_grammar(grammar), Model(sig, tree, fstruct, {"n0": "f0", "n1": "f0"})


@pytest.mark.parametrize(
    "case",
    ["undeclared-word", "word-without-entry", "no-word-leaves", "declared-word-no-entries"],
)
def test_check_parse_slice_rows_equal_valid_and_the_oracle(monkeypatch, fig_grammar, case):
    from lfgmc import compile_grammar, search

    theory = compile_grammar(fig_grammar)
    model = build_fig_model()
    if case == "undeclared-word":
        # the model declares a word the grammar does not: the lemma still covers it
        model = _relabelled(_with_words(model, ["runs"]), _leaf(model, "girl"), "runs")
    elif case == "word-without-entry":
        model = _relabelled(model, _leaf(model, "girl"), "walks")  # walks has no N entry
    elif case == "no-word-leaves":
        for word in ("a", "girl", "walks"):
            model = _relabelled(model, _leaf(model, word), "N")
    else:
        theory, model = _hand_built_word_grammar()
    monkeypatch.setattr(search, "validate_names", _no_names_walk)
    got = _rows(check_parse(theory, model))
    assert lexical_unbuilt(theory)
    monkeypatch.undo()
    assert got == _valid_rows(theory, model) == _oracle_rows(theory, model)
    lexical = dict(got)["lexical"]
    assert lexical == {"undeclared-word": None, "word-without-entry": "n4",
                       "no-word-leaves": None, "declared-word-no-entries": "n1"}[case]


def test_check_parse_evaluates_a_replaced_theory_whole(monkeypatch, fig_grammar):
    # a replace() copy with no change is checked as the compiled theory:
    # each label evaluated once, the lexical one on its slice, no names
    # walked, and the rows valid and the oracle give
    from lfgmc import compile_grammar

    theory = compile_grammar(fig_grammar)
    model = build_fig_model()
    model = _relabelled(model, _leaf(model, "girl"), "walks")
    copy = theory.replace()
    evaluated, walked = _count_evaluations(monkeypatch)
    got = _rows(check_parse(copy, model))
    assert got == _rows(check_parse(theory, model)) and walked == []
    principles = [f for _label, f in copy.principles()]
    for once in (evaluated[: len(got)], evaluated[len(got):]):
        assert once[0] is copy.licensing and once[2:] == principles
        assert once[1] is not copy.__dict__["_lexical"] and once[1] not in principles
    assert lexical_unbuilt(copy) and lexical_unbuilt(theory)
    monkeypatch.undo()
    assert got == _valid_rows(copy, model) == _oracle_rows(copy, model)
    assert dict(got)["lexical"] == "n4"


def _raised(rows, *args):
    """``rows(*args)``, or the message of the SignatureError it raises."""
    try:
        return rows(*args)
    except SignatureError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text,sentences",
    [
        (FIG_GRAMMAR_TEXT, [["a", "girl", "walks"]]),
        (DEVOUR_GRAMMAR_TEXT, [["a", "girl", "walks"]]),
        (PP_AGREE_GRAMMAR_TEXT, [PP_SENTENCE[:5], PP_SENTENCE[:8]]),
    ],
    ids=["fig", "devour", "pp-agree"],
)
def test_uncovered_check_parse_rows_equal_valid_and_the_oracle(text, sentences):
    # the theory's grammar declares an atom the models lack, so no model
    # is covered: the names of every label are walked, and the lexical
    # label is still evaluated on the slice
    from lfgmc import compile_grammar, parse_grammar
    from lfgmc.formula import _NAME_KINDS

    grammar = parse_grammar(text)
    models = [m for s in sentences for m in parse_sentence(compile_grammar(grammar), grammar, s).models]
    theory = compile_grammar(parse_grammar(text.replace("atom: ", "atom: zz ", 1)))
    assert models and all("zz" not in m.sig.atoms for m in models)
    cases = list(models)
    for m in models:
        for n in sorted(m.cstruct.nodes):
            names = grammar.sig.cats if m.cstruct.daughters[n] else grammar.sig.words
            cases += [_relabelled(m, n, x) for x in sorted(names - {m.cstruct.label[n]})]
    want = [_valid_rows(theory, m) for m in cases]
    assert any(node is not None for rows in want for _label, node in rows)
    assert [_rows(check_parse(theory, m)) for m in cases] == want
    assert [_oracle_rows(theory, m) for m in cases] == want
    # a model that lacks a name: the first error valid raises, label by label
    m = models[0]
    errors = 0
    for kind in _NAME_KINDS:
        for name in sorted(getattr(m.sig, kind)):
            lacking = m.replace(sig=m.sig.replace(**{kind: getattr(m.sig, kind) - {name}}))
            got = _raised(lambda: _rows(check_parse(theory, lacking)))
            assert got == _raised(_valid_rows, theory, lacking), (kind, name)
            errors += type(got) is str
    assert errors > 10


def test_parse_outputs_recheck_clean(fig_theory, fig_grammar):
    words = sorted(fig_grammar.sig.words)
    rng = random.Random(3)
    for _ in range(30):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 4))]
        out = parse_sentence(fig_theory, fig_grammar, tokens)
        for m in out.models:
            assert validate_model(m).ok
            assert check_parse(fig_theory, m).ok
            # yield fidelity and root label
            leaves = [
                m.cstruct.label[n]
                for n in _preorder_leaves(m.cstruct)
            ]
            assert leaves == tokens
            assert m.cstruct.label[m.cstruct.root] == fig_grammar.start


def _preorder_leaves(c):
    out = []
    stack = [c.root]
    while stack:
        n = stack.pop()
        ds = c.daughters.get(n, ())
        if ds:
            stack.extend(reversed(ds))
        else:
            out.append(n)
    return out


def test_parse_deterministic(fig_theory, fig_grammar):
    a = parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"])
    b = parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"])
    assert [model_to_text(m) for m in a.models] == [model_to_text(m) for m in b.models]


def test_tiny_tree_bound_reports_exceeded(fig_theory, fig_grammar):
    out = parse_sentence(
        fig_theory, fig_grammar, ["a", "girl", "walks"], SearchBounds(3, 80, 10)
    )
    assert out.bound_exceeded
    assert out.models == ()


def test_tiny_f_bound_reports_exceeded(fig_theory, fig_grammar):
    out = parse_sentence(
        fig_theory, fig_grammar, ["a", "girl", "walks"], SearchBounds(40, 4, 10)
    )
    assert out.bound_exceeded
    assert out.models == ()


def test_bounds_monotonic(fig_theory, fig_grammar):
    small = parse_sentence(
        fig_theory, fig_grammar, ["a", "girl", "walks"], SearchBounds(9, 9, 10)
    )
    big = parse_sentence(
        fig_theory, fig_grammar, ["a", "girl", "walks"], SearchBounds(30, 40, 10)
    )
    small_set = {model_to_text(m) for m in small.models}
    big_set = {model_to_text(m) for m in big.models}
    assert small_set <= big_set
    assert len(small.models) == 1  # the bound exactly fits the solution


def test_bounds_validate():
    with pytest.raises(ValueError):
        SearchBounds(0, 1, 1)
    for name in ("max_tree_nodes", "max_f_nodes", "max_models"):
        with pytest.raises(ValueError, match="^%s must be at least 1$" % name):
            SearchBounds().replace(**{name: 0})
    assert SearchBounds(5, 6).replace(max_models=7) == SearchBounds(5, 6, 7)
    # a field that is not an int (a bool included) is refused, before the
    # range check
    for name in ("max_tree_nodes", "max_f_nodes", "max_models"):
        for bad in (2.5, "3", True, None, 0.0):
            message = "^%s must be an int, not %s$" % (name, type(bad).__name__)
            with pytest.raises(TypeError, match=message):
                SearchBounds(**{name: bad})
            with pytest.raises(TypeError, match=message):
                SearchBounds().replace(**{name: bad})


_REJECTION_TEXT = "Rejection(reason='formula', detail='licensing', node='n0')"


def _search_records():
    """(id, record built positionally, twin built by keywords, repr text,
    hashable), as the dataclass versions printed them."""
    from lfgmc import CheckEntry, CheckReport, ParseOutcome, Rejection

    model = build_tiny_model()
    rejection = Rejection("formula", "licensing", "n0")
    return [
        ("SearchBounds", SearchBounds(), SearchBounds(max_tree_nodes=40, max_f_nodes=80, max_models=10),
         "SearchBounds(max_tree_nodes=40, max_f_nodes=80, max_models=10)", True),
        ("Rejection", rejection, Rejection(reason="formula", detail="licensing", node="n0"),
         _REJECTION_TEXT, True),
        ("Rejection-defaults", Rejection("clash", "x"), Rejection(reason="clash", detail="x", node=None),
         "Rejection(reason='clash', detail='x', node=None)", True),
        ("ParseOutcome", ParseOutcome((), True, (rejection,)),
         ParseOutcome(models=(), bound_exceeded=True, rejections=(rejection,)),
         "ParseOutcome(models=(), bound_exceeded=True, rejections=(%s,))" % _REJECTION_TEXT, True),
        ("ParseOutcome-model", ParseOutcome((model,), False),
         ParseOutcome(models=(model,), bound_exceeded=False, rejections=()),
         "ParseOutcome(models=(%r,), bound_exceeded=False, rejections=())" % model, False),
        ("CheckEntry", CheckEntry("lexical", None), CheckEntry(label="lexical", counterexample=None),
         "CheckEntry(label='lexical', counterexample=None)", True),
        ("CheckReport", CheckReport((CheckEntry("lexical", "n1"),)),
         CheckReport(entries=(CheckEntry(label="lexical", counterexample="n1"),)),
         "CheckReport(entries=(CheckEntry(label='lexical', counterexample='n1'),))", True),
        # a sequence field given as a list is held as a tuple
        ("ParseOutcome-lists", ParseOutcome([], True, [rejection]), ParseOutcome((), True, (rejection,)),
         "ParseOutcome(models=(), bound_exceeded=True, rejections=(%s,))" % _REJECTION_TEXT, True),
        ("CheckReport-list", CheckReport([CheckEntry("lexical", "n1")]),
         CheckReport((CheckEntry("lexical", "n1"),)),
         "CheckReport(entries=(CheckEntry(label='lexical', counterexample='n1'),))", True),
    ]


@pytest.mark.parametrize("case", _search_records(), ids=lambda case: case[0])
def test_search_records_print_compare_copy_and_stay_frozen(case):
    _, record, twin, text, hashable = case
    assert_frozen_record(record, twin, text, hashable)


def test_search_records_replace_through_their_constructors():
    from lfgmc import CheckEntry, CheckReport, ParseOutcome, Rejection

    rejection = Rejection("clash", "x")
    assert rejection.replace(node="n3") == Rejection("clash", "x", "n3")
    outcome = ParseOutcome((), False).replace(rejections=(rejection,))
    assert outcome.rejections == (rejection,) and not outcome.bound_exceeded
    failing = CheckReport((CheckEntry("lexical", None),)).replace(entries=(CheckEntry("lexical", "n4"),))
    assert not failing.ok and [e.label for e in failing] == ["lexical"]
    assert CheckEntry("lexical", "n4").replace(counterexample=None).ok


# --- micro grammar: primary vs saturation oracle vs blind enumeration -----


def test_micro_grammar_all_three_agree(micro_theory, micro_grammar):
    sig = micro_grammar.sig
    for tokens in (["b"], ["b", "b"]):
        primary = parse_sentence(
            micro_theory, micro_grammar, tokens, SearchBounds(5, 2, 10)
        )
        primary_set = sorted(model_to_text(m) for m in primary.models)
        oracle_set = oracle_parse(micro_theory, sig, "S", tokens, max_tree=5, max_f=2)
        blind_set = blind_parse(micro_theory, sig, "S", tokens, max_tree=5, max_f=2)
        assert primary_set == oracle_set == blind_set, tokens
        assert len(primary_set) == 1


def test_micro_single_token_minimal_model(micro_theory, micro_grammar):
    [m] = parse_sentence(micro_theory, micro_grammar, ["b"]).models
    # S(A(b)); zoomin only at the root; f is x-final under the root image
    assert m.cstruct.label[m.cstruct.root] == "S"
    assert set(m.zoomin) == {m.cstruct.root}
    f = m.fstruct
    assert len(f.nodes) == 2
    target = f.trans[f.initial]["f"]
    assert f.atomval[target] == "x"


def test_micro_two_tokens_share_root_image(micro_theory, micro_grammar):
    [m] = parse_sentence(micro_theory, micro_grammar, ["b", "b"]).models
    root = m.cstruct.root
    a1, a2 = m.cstruct.daughters[root]
    assert m.zoomin[a1] == m.zoomin[root]
    assert m.fstruct.trans[m.zoomin[root]]["f"] == m.zoomin[a2]
    # nothing forces an atom here: the second image is a bare non-final node
    assert m.zoomin[a2] not in m.fstruct.final


def test_oracle_agrees_on_fig_grammar_short_strings(fig_theory, fig_grammar):
    words = sorted(fig_grammar.sig.words)
    bounds = SearchBounds(12, 12, 10)
    for k in (1, 2, 3):
        for tokens in itertools.product(words, repeat=k):
            primary = parse_sentence(fig_theory, fig_grammar, list(tokens), bounds)
            got = sorted(model_to_text(m) for m in primary.models)
            want = oracle_parse(
                fig_theory, fig_grammar.sig, "S", list(tokens), max_tree=12, max_f=12
            )
            assert got == want, tokens


def test_minimality_of_fig_parse(fig_theory, fig_grammar):
    # no valid strictly-more-general model exists with the same tree:
    # dropping any single zoomin pair or f-structure edge breaks validity
    [m] = parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"]).models

    def still_valid(model):
        return validate_model(model).ok and all(
            oracle_valid(model, f) is None for _, f in fig_theory.labeled()
        )

    assert still_valid(m)
    from lfgmc import FStructure, Model

    for t in sorted(m.zoomin):
        z = dict(m.zoomin)
        del z[t]
        assert not still_valid(Model(m.sig, m.cstruct, m.fstruct, z))
    f = m.fstruct
    for w in sorted(f.trans):
        for feat in sorted(f.trans[w]):
            trans = {x: dict(tt) for x, tt in f.trans.items()}
            del trans[w][feat]
            reachable = _reach(f.initial, trans)
            nodes = frozenset(reachable)
            slim = FStructure(
                nodes,
                f.initial,
                {x: {ft: y for ft, y in trans[x].items() if y in nodes} for x in nodes},
                f.final & nodes,
                {x: v for x, v in f.atomval.items() if x in nodes},
            )
            z = {t: w2 for t, w2 in m.zoomin.items() if w2 in nodes}
            assert not still_valid(Model(m.sig, m.cstruct, slim, z))


def _reach(start, trans):
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for w2 in trans.get(w, {}).values():
            if w2 not in seen:
                seen.add(w2)
                frontier.append(w2)
    return seen


def test_subsumption_helper_detects_junk(fig_theory, fig_grammar):
    # adding an unforced transition produces a strictly less general model
    [m] = parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"]).models
    from lfgmc import FStructure, Model

    f = m.fstruct
    trans = {x: dict(tt) for x, tt in f.trans.items()}
    trans[f.initial]["num"] = f.trans[f.trans[f.initial]["subj"]]["num"]
    junk = Model(
        m.sig,
        m.cstruct,
        FStructure(f.nodes, f.initial, trans, f.final, f.atomval),
        m.zoomin,
    )
    assert validate_model(junk).ok
    assert all(oracle_valid(junk, phi) is None for _, phi in fig_theory.labeled())
    assert subsumes(m, junk)
    assert not subsumes(junk, m)


# --- clash handling and degenerate grammars -------------------------------


def test_atom_atom_clash_rejected():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A B; atom: x y; feat: f; gf: ; }
        rule S -> A {(up f)=x} B {(up f)=y};
        lex "b" A;
        lex "b" B;
        """
    )
    out = parse_sentence(compile_grammar(g), g, ["b", "b"])
    assert out.models == ()
    assert any(r.reason == "clash" for r in out.rejections)


def test_atom_complex_clash_rejected():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A B; atom: x y; feat: f g; gf: ; }
        rule S -> A {(up f)=x} B {(up f g)=y};
        lex "b" A;
        lex "b" B;
        """
    )
    out = parse_sentence(compile_grammar(g), g, ["b", "b"])
    assert out.models == ()
    assert any(
        r.reason == "clash" and "transitions" in r.detail for r in out.rejections
    )


def test_missing_semform_argument_breaks_coherence():
    # with the verb's argument list emptied, the subj supplied by the
    # sentence rule is no longer governed by the pred
    from lfgmc import compile_grammar, parse_grammar
    from conftest import FIG_GRAMMAR_TEXT

    text = FIG_GRAMMAR_TEXT.replace("walk(subj)", "walk()")
    g = parse_grammar(text)
    theory = compile_grammar(g)
    out = parse_sentence(theory, g, ["a", "girl", "walks"])
    assert out.models == ()
    [rej] = [r for r in out.rejections if r.reason == "formula"]
    assert rej.detail == "coherence[subj]"
    assert rej.node.startswith("w")  # a falsifying f-node


def test_disconnected_islands_rejected():
    from lfgmc import compile_grammar, parse_grammar

    for p_schemata, detail in [
        # the root has no f-structure and P's and Q's are both sources
        ("", "no unique entry point into the f-structure"),
        # the root shares P's f-structure and Q's is an island
        ("{up=down}", "fstruct-unreachable"),
    ]:
        g = parse_grammar(
            """
            signature { cat: S P Q A B; atom: x y; feat: f g; gf: ; }
            rule S -> P %s Q;
            rule P -> A;
            rule Q -> B;
            lex "b" A {(up f)=x};
            lex "c" B {(up g)=y};
            """
            % p_schemata
        )
        out = _same_as_two_phase(compile_grammar(g), g, ["b", "c"], SearchBounds())
        assert out.models == ()
        assert [(r.reason, r.detail) for r in out.rejections] == [("structure", detail)]


def test_well_declared_grammars_are_not_validated():
    # the search builds valid structure by construction from a grammar
    # that compiles; only f-node reachability is checked, on the walk that
    # names the classes
    from lfgmc import compile_grammar, parse_grammar, search

    assert not hasattr(search, "validate_model")
    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    assert theory.source is g
    out = _same_as_two_phase(theory, g, PP_SENTENCE, SearchBounds(64, 256, 64))
    assert len(out.models) == 5


def test_overlapping_signature_is_refused_by_the_compiler():
    # such a grammar has no models, under its own theory or any other
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(OVERLAP_GRAMMAR_TEXT)
    with pytest.raises(SignatureError) as compiled:
        compile_grammar(g)
    with pytest.raises(SignatureError) as parsed:
        parse_sentence(Theory(TrueF(), TrueF()), g, ["N"])
    assert str(compiled.value) == str(parsed.value) == "names used as both word and cat: N"


def test_foreign_theory_raises_what_the_grammar_compile_raises():
    # a grammar parsed under a theory not compiled from it is compiled
    # for its checks: here an entry writes an undeclared feature and atom,
    # a grammar has no rules, a gf section has no pred feature and a
    # category is a reserved word
    from lfgmc import AnnotatedRule, AtomValueSchema, Grammar, LexEntry, PathEqSchema
    from lfgmc import RuleElement, Signature, compile_grammar

    sig = Signature(cats={"S", "A"}, atoms={"x"}, feats={"f"}, words={"b"})
    rules = (AnnotatedRule("S", (RuleElement("A", (PathEqSchema(),)),)),)
    entries = (LexEntry("b", "A"),)
    undeclared = Grammar(sig, "S", rules, (LexEntry("b", "A", (AtomValueSchema(("g",), "y"),)),))
    ruleless = Grammar(sig, "A", (), entries)
    no_pred = Grammar(sig.replace(gf=(("f",),)), "S", rules, entries)
    reserved = Grammar(sig.replace(cats={"S", "A", "down"}), "S", rules, entries)
    theory = Theory(TrueF(), TrueF())
    assert theory.source is None
    for g, error, message in [
        (undeclared, SignatureError, "unknown feature 'g'"),
        (ruleless, GrammarError, "grammar has no rules"),
        (no_pred, SignatureError, "grammatical functions need the 'pred' feature"),
        (reserved, SignatureError, "category name 'down' collides with reserved formula syntax"),
    ]:
        with pytest.raises(error) as compiled:
            compile_grammar(g)
        with pytest.raises(error) as parsed:
            parse_sentence(theory, g, ["b"])
        assert str(compiled.value) == str(parsed.value) == message


def _count_evaluations(monkeypatch):
    """The formulas the search evaluates (``_least_failing``, which ``valid``
    runs after its names walk) and the formulas whose names it walks
    (``validate_names``), each in call order."""
    from lfgmc import search
    from lfgmc.formula import validate_names
    from lfgmc.semantics import _least_failing

    evaluated, walked = [], []
    monkeypatch.setattr(search, "_least_failing",
                        lambda m, f, *nodes: evaluated.append(f) or _least_failing(m, f, *nodes))
    monkeypatch.setattr(search, "validate_names",
                        lambda f, sig: walked.append(f) or validate_names(f, sig))
    return evaluated, walked


def test_trusted_theory_skips_licensing_and_lexical(monkeypatch):
    # the search builds each survivor from the rules and entries whose
    # disjuncts the licensing and lexical axioms state, and decides
    # completeness and coherence on the solved union-find, so it calls no
    # evaluator and builds models only for the candidates that reach the
    # output; every model still satisfies the whole theory and every
    # invariant
    from lfgmc import compile_grammar, parse_grammar, search

    evaluated, walked = _count_evaluations(monkeypatch)
    extracted = []
    build = search._model
    monkeypatch.setattr(search, "_model", lambda *args: extracted.append(build(*args)) or extracted[-1])
    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    out = _same_as_two_phase(theory, g, PP_SENTENCE, SearchBounds(64, 256, 64))
    assert len(out.models) == 5 and len(out.rejections) == 75  # clashes
    assert len(extracted) == len(out.models)
    assert all(any(m is e for e in extracted) for m in out.models)
    # candidates that fail a principle are rejected with no model built
    obl = parse_grammar(OBL_GRAMMAR_TEXT)
    for words in ("a girl relies on", "a girl waits on a book"):
        rejected = _same_as_two_phase(compile_grammar(obl), obl, words.split(), SearchBounds())
        assert [r.reason for r in rejected.rejections] == ["formula"]
    assert len(extracted) == len(out.models)
    assert evaluated == [] and walked == []
    for m in out.models:
        assert check_parse(theory, m).ok
        assert reference_validate_model(m).ok


def test_replaced_theory_is_checked_in_full(monkeypatch):
    # replace() keeps the source and every label it does not change, so
    # only the stronger licensing axiom is evaluated, after its names walk:
    # no NP is built from NP PP, which every attachment of a PP to an
    # object NP breaks
    from lfgmc import And, compile_grammar, parse_formula, parse_grammar, search

    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    compiled = compile_grammar(g)
    extra = parse_formula("!(NP & bullet(NP, PP))", g.sig)
    theory = compiled.replace(licensing=And(compiled.licensing, extra))
    assert theory.source is g and theory.compiled == {"lexical", "completeness", "coherence", "gf"}
    assert not hasattr(search, "validate_model")
    bounds = SearchBounds(64, 256, 64)
    evaluated, walked = _count_evaluations(monkeypatch)
    out = parse_sentence(theory, g, PP_SENTENCE, bounds)
    assert evaluated and evaluated == walked and all(f is theory.licensing for f in evaluated)
    assert lexical_unbuilt(theory)
    monkeypatch.undo()
    assert _same_as_two_phase(theory, g, PP_SENTENCE, bounds) == out
    assert len(out.models) == 1
    formula = [r for r in out.rejections if r.reason == "formula"]
    assert len(formula) == 4 and {r.detail for r in formula} == {"licensing"}


def test_theory_of_an_equal_grammar_is_checked_in_full(monkeypatch):
    # trust needs the very grammar object the theory was compiled from;
    # an equal one parsed separately gets every label evaluated, with the
    # same output, the lexical one on its slice for the sentence's words;
    # its labels are kept and the grammar's signature covers its source's,
    # so no names are walked
    from lfgmc import compile_grammar, parse_grammar, render_formula
    from lfgmc.grammar import _lexical_axiom

    g, other = parse_grammar(PP_AGREE_GRAMMAR_TEXT), parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    assert g == other and g is not other
    bounds = SearchBounds(64, 256, 64)
    trusted = parse_sentence(compile_grammar(g), g, PP_SENTENCE, bounds)
    theory = compile_grammar(other)
    calls, walked = _count_evaluations(monkeypatch)
    out = parse_sentence(theory, g, PP_SENTENCE, bounds)
    assert lexical_unbuilt(theory) and walked == []  # the labels are kept and covered
    assert [model_to_text(m) for m in out.models] == [model_to_text(m) for m in trusted.models]
    assert out.rejections == trusted.rejections
    assert out.bound_exceeded == trusted.bound_exceeded
    assert sum(f is theory.licensing for f in calls) == len(out.models)
    principles = [f for _label, f in theory.principles()]
    assert len(calls) == (2 + len(principles)) * len(out.models)
    slices = {id(f): f for f in calls[1::2 + len(principles)]}
    assert len(slices) == 1 and not any(f is theory.licensing or f in principles
                                        for f in slices.values())
    words = set(PP_SENTENCE)
    want = _lexical_axiom([e for e in other.lexicon if e.word in words], words)
    assert render_formula(*slices.values()) == render_formula(want)
    monkeypatch.undo()
    assert _same_as_two_phase(theory, g, PP_SENTENCE, bounds) == out


def test_grammar_fields_are_frozen_for_the_trust():
    # the search trusts a theory by the identity of its grammar, so a
    # grammar built from lists must not change after compile_grammar
    from lfgmc import Grammar, parse_grammar

    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    built = Grammar(g.sig, g.start, list(g.rules), list(g.lexicon))
    assert built == g
    assert type(built.rules) is tuple and type(built.lexicon) is tuple


def test_unique_source_fallback_when_root_unconstrained():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S P A; atom: x; feat: f; gf: ; }
        rule S -> P;
        rule P -> A;
        lex "b" A {(up f)=x};
        """
    )
    out = parse_sentence(compile_grammar(g), g, ["b"])
    assert len(out.models) == 1
    m = out.models[0]
    # the root has no image; the P node's image is the entry point
    assert m.cstruct.root not in m.zoomin
    assert m.fstruct.atomval[m.fstruct.trans[m.fstruct.initial]["f"]] == "x"


def test_ambiguous_lexical_entries_give_two_models():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A; atom: x y; feat: f; gf: ; }
        rule S -> A {up=down};
        lex "b" A {(up f)=x};
        lex "b" A {(up f)=y};
        """
    )
    out = parse_sentence(compile_grammar(g), g, ["b"])
    assert len(out.models) == 2
    atoms = sorted(
        m.fstruct.atomval[m.fstruct.trans[m.fstruct.initial]["f"]]
        for m in out.models
    )
    assert atoms == ["x", "y"]


def test_max_models_cap_reports_bound():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A; atom: x y; feat: f; gf: ; }
        rule S -> A {up=down};
        lex "b" A {(up f)=x};
        lex "b" A {(up f)=y};
        """
    )
    out = parse_sentence(compile_grammar(g), g, ["b"], SearchBounds(40, 80, 1))
    assert len(out.models) == 1
    assert out.bound_exceeded


def test_convergent_zoomin_micro_grammar_blind_check():
    # three tree nodes sharing one f-node: still a single minimal model,
    # confirmed by the fully blind oracle
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A; atom: x; feat: f; gf: ; }
        rule S -> A {up=down} A {up=down};
        lex "b" A;
        """
    )
    theory = compile_grammar(g)
    primary = parse_sentence(theory, g, ["b", "b"], SearchBounds(5, 2, 10))
    primary_set = sorted(model_to_text(m) for m in primary.models)
    oracle_set = oracle_parse(theory, g.sig, "S", ["b", "b"], max_tree=5, max_f=2)
    blind_set = blind_parse(theory, g.sig, "S", ["b", "b"], max_tree=5, max_f=2)
    assert primary_set == oracle_set == blind_set
    [m] = primary.models
    root = m.cstruct.root
    a1, a2 = m.cstruct.daughters[root]
    assert m.zoomin[root] == m.zoomin[a1] == m.zoomin[a2]
    assert len(m.fstruct.nodes) == 1


# --- shared sub-derivations in the skeleton enumerator --------------------

# The PP-attachment grammar: "the man saw the man" + k x "with the tel"
# has Catalan(k + 1) parses (1, 2, 5, 14, 42 for k = 0..4).
PP_GRAMMAR_TEXT = """
signature {
  cat: S NP VP PP Det N V P;
  atom: the man tel saw with;
  feat: subj obj adj spec pred rel;
  gf: subj obj;
}
start S;
rule S -> NP {(up subj)=down} VP {up=down};
rule NP -> Det N;
rule NP -> NP {up=down} PP {(up adj)=down};
rule VP -> V {up=down} NP {(up obj)=down};
rule VP -> VP {up=down} PP {(up adj)=down};
rule PP -> P {up=down} NP {(up obj)=down};
lex "the" Det {(up spec)=the};
lex "man" N {(up pred)=man()};
lex "tel" N {(up pred)=tel()};
lex "saw" V {(up pred)=saw(subj, obj)};
lex "with" P {(up pred)=with(obj)};
"""


def test_skeleton_enumeration_shares_sub_derivations(monkeypatch):
    from lfgmc import compile_grammar, parse_grammar, search

    made, computed = [], []

    class Recorded(search._SkeletonEnumerator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def _derivations(self, *key):
            computed.append(key)
            return super()._derivations(*key)

    monkeypatch.setattr(search, "_SkeletonEnumerator", Recorded)
    g = parse_grammar(PP_GRAMMAR_TEXT)
    tokens = "the man saw the man".split() + "with the tel".split() * 4
    out = parse_sentence(compile_grammar(g), g, tokens, SearchBounds(64, 256, 64))
    assert len(out.models) == 42
    assert not out.bound_exceeded
    # each (cat, i, j, budget) is computed once and memoised: 95 keys;
    # recomputing every sub-span per parent takes about 1.9 million
    # derive calls
    (enum,) = made
    assert sorted(computed) == sorted(enum.memo)
    assert 0 < len(computed) < 5000


# A unary cycle S -> A -> S above a binary rule.  A -> S comes first, so
# closing the unary rules over one span takes a second round.
UNARY_CYCLE_GRAMMAR_TEXT = """
signature { cat: S A C; atom: x; feat: f; gf: ; }
start S;
rule A -> S;
rule S -> A;
rule S -> C C;
lex "c" C;
"""


def test_unary_cycle_agrees_with_both_oracles():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(UNARY_CYCLE_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    for tokens, max_tree, count, run_blind in (
        (["c"], 5, 0, True),
        (["c", "c"], 5, 1, True),  # S(C C)
        (["c", "c"], 7, 2, False),  # also S(A(S(C C))); too big to enumerate blind
        (["c", "c", "c"], 7, 0, True),
    ):
        primary = parse_sentence(theory, g, tokens, SearchBounds(max_tree, 1, 10))
        primary_set = sorted(model_to_text(m) for m in primary.models)
        oracle_set = oracle_parse(theory, g.sig, "S", tokens, max_tree=max_tree, max_f=1)
        assert primary_set == oracle_set, tokens
        if run_blind:
            blind_set = blind_parse(theory, g.sig, "S", tokens, max_tree=max_tree, max_f=1)
            assert primary_set == blind_set, tokens
        assert len(primary_set) == count, tokens
        # once "c c" parses, S -> A -> S can always go round once more
        assert primary.bound_exceeded == (count > 0), tokens


def test_bound_not_reported_for_spans_without_derivations():
    # "a a" has no parse at any size; the cut chain A -> C below the first
    # token cannot be part of one, so no bound is reported
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A B C; atom: x; feat: f; gf: ; }
        rule S -> A B;
        rule A -> C;
        lex "a" C;
        lex "b" B;
        """
    )
    theory = compile_grammar(g)
    out = parse_sentence(theory, g, ["a", "a"], SearchBounds(5, 80, 10))
    assert out.models == () and not out.bound_exceeded
    out = parse_sentence(theory, g, ["a", "b"], SearchBounds(5, 80, 10))
    assert out.models == () and out.bound_exceeded
    out = parse_sentence(theory, g, ["a", "b"], SearchBounds(6, 80, 10))
    assert len(out.models) == 1 and not out.bound_exceeded


def test_tree_bound_below_a_lexical_entry():
    # a one-word sentence whose word the start category covers directly
    # needs two tree nodes; with one, the entry is cut by the bound
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A; atom: x; feat: f; gf: ; }
        start S;
        lex "s" S;
        rule A -> S;
        """
    )
    theory = compile_grammar(g)
    out = _same_as_two_phase(theory, g, ["s"], SearchBounds(max_tree_nodes=1))
    assert out.models == () and out.bound_exceeded
    out = _same_as_two_phase(theory, g, ["s"], SearchBounds(max_tree_nodes=2))
    assert len(out.models) == 1 and not out.bound_exceeded


def test_last_rule_element_ends_at_the_span_end():
    # S -> A cannot cover "c c" (A only covers one token), so the small
    # budget that cuts A -> B -> C over the first "c" loses nothing
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A B C; atom: x; feat: f; gf: ; }
        start S;
        rule S -> A;
        rule S -> C C;
        rule A -> B;
        rule B -> C;
        lex "c" C;
        """
    )
    theory = compile_grammar(g)
    for max_tree in (5, 6):
        out = parse_sentence(theory, g, ["c", "c"], SearchBounds(max_tree, 80, 10))
        assert len(out.models) == 1 and not out.bound_exceeded, max_tree
    out = parse_sentence(theory, g, ["c", "c"], SearchBounds(4, 80, 10))
    assert out.models == () and out.bound_exceeded


def test_large_lexicon_parses():
    # the lexical axiom is a left-nested disjunction over every entry and
    # every word form; its evaluation must not recurse along it
    from lfgmc import compile_grammar, parse_grammar

    nouns = ["noun%d" % k for k in range(1500)]
    g = parse_grammar(embedding_grammar_text(nouns))
    theory = compile_grammar(g)
    tokens = "the noun3 said that the noun1499 slept".split()
    out = parse_sentence(theory, g, tokens)
    assert len(out.models) == 1 and not out.bound_exceeded
    assert check_parse(theory, out.models[0]).ok


def test_lexical_axiom_work_does_not_grow_with_the_lexicon(monkeypatch):
    # check_parse evaluates the slice of the lexical axiom for the model's
    # words, whether the model is covered or not, and a plan is built only
    # for what is evaluated: count the slice operands that have one.  The
    # whole axiom, which an uncovered check builds for its names walk,
    # gets no plan at all
    from lfgmc import compile_grammar, parse_grammar, search
    from lfgmc.formula import Or, _spine
    from lfgmc.grammar import _lexical_axiom

    built = []
    monkeypatch.setattr(search, "_lexical_axiom", lambda *a: built.append(_lexical_axiom(*a)) or built[-1])
    counts = []
    for size in (500, 5000):
        nouns = ["noun%d" % k for k in range(size)]
        text = embedding_grammar_text(nouns)
        g = parse_grammar(text)
        tokens = []
        for noun in nouns[1:size:size // 4][:3]:
            tokens += ["the", noun, "said", "that"]
        tokens += ["the", nouns[-1], "slept"]
        (model,) = parse_sentence(compile_grammar(g), g, tokens, SearchBounds(100, 100, 10)).models
        # the extra atom is declared by the grammar, not by the model
        for source in (text, text.replace("atom: the", "atom: zz the")):
            theory = compile_grammar(parse_grammar(source))
            assert check_parse(theory, model).ok
            lexical = built.pop()
            chains = [lexical.right, lexical.left.right.args[0]]  # entries, word forms
            assert all(type(chain) is Or for chain in chains)
            counts.append(sum(op._plan is not None for chain in chains for op in _spine(chain)))
            assert lexical_unbuilt(theory) == (source is text)
            if source is not text:
                full = theory.lexical
                assert all(op._plan is None for chain in (full.right, full.left.right.args[0])
                           for op in _spine(chain))
    assert 0 < counts[0] == counts[1] == counts[2] == counts[3] < 200, counts


def test_long_schema_path_parses():
    # a 3000-step lexical path builds a 3000-node feature chain, which the
    # theory is evaluated over without recursing once per step
    from conftest import FIG_GRAMMAR_TEXT
    from lfgmc import compile_grammar, parse_grammar

    text = FIG_GRAMMAR_TEXT.replace("(up spec)=a", "(up" + " spec" * 3000 + ")=a")
    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    bounds = SearchBounds(max_tree_nodes=40, max_f_nodes=3100)
    out = parse_sentence(theory, grammar, ["a", "girl", "walks"], bounds)
    assert len(out.models) == 1 and not out.bound_exceeded
    assert len(out.models[0].fstruct.nodes) == 3008
    assert [e.counterexample for e in check_parse(theory, out.models[0])] == [None] * 4


# --- one solve per tree shape, against the one-candidate-at-a-time loop ----


def _same_as_two_phase(theory, grammar, tokens, bounds):
    """Parse and compare the whole outcome with the reference loop."""
    got = parse_sentence(theory, grammar, tokens, bounds)
    want = reference_two_phase_parse(theory, grammar, tokens, bounds)
    assert [model_to_text(m) for m in got.models] == [
        reference_model_to_text(m) for m in want.models
    ], tokens
    assert got.models == want.models, tokens
    assert [(r.reason, r.detail, r.node) for r in got.rejections] == [
        (r.reason, r.detail, r.node) for r in want.rejections
    ], tokens
    assert got.bound_exceeded == want.bound_exceeded, tokens
    # the search extracts each model already in canonical form
    for m in got.models:
        assert canonicalize(m) == m
        assert model_to_text(canonicalize(m)) == model_to_text(m)
    return got


def _foreign(theory):
    """``theory`` built again by its constructor: it has no ``source``, so
    every label is evaluated, after its names walk."""
    return Theory(theory.licensing, theory.lexical, theory.completeness, theory.coherence,
                  theory.gf)


def _random_corpus():
    """2000 random grammars, each compiled, with a sentence and bounds."""
    from lfgmc import compile_grammar, parse_grammar

    rng = random.Random(2024)
    for _ in range(2000):
        grammar = parse_grammar(rand_grammar(rng))
        tokens = [rng.choice("uvw") for _ in range(rng.randint(1, 3))]
        bounds = SearchBounds(
            rng.choice((5, 7, 9, 12)), rng.choice((2, 4, 8, 80)), rng.choice((1, 2, 10))
        )
        yield grammar, compile_grammar(grammar), tokens, bounds


def _adjunct_corpus():
    """1000 random grammars with the adjunction rule of ``rand_grammar``,
    each compiled, with a sentence of two to four words that have an ``S``
    entry (any words when none has) and bounds that admit at most two tree
    nodes more than the least tree of binary rules over the sentence."""
    from lfgmc import compile_grammar, parse_grammar

    rng = random.Random(2029)
    for _ in range(1000):
        grammar = parse_grammar(rand_grammar(rng, adjunct=True))
        words = sorted({e.word for e in grammar.lexicon if e.cat == "S"}) or list("uvw")
        tokens = [rng.choice(words) for _ in range(rng.randint(2, 4))]
        bounds = SearchBounds(
            3 * len(tokens) - 1 + rng.choice((0, 1, 2)), rng.choice((8, 80)), rng.choice((2, 10))
        )
        yield grammar, compile_grammar(grammar), tokens, bounds


def test_shape_sharing_matches_two_phase_on_random_grammars():
    from lfgmc import Grammar, compile_grammar
    from lfgmc.search import _SkeletonEnumerator

    seen = {"models": 0, "bound": 0, "shared shapes": 0}
    foreign = {"models": 0}
    for n, (grammar, theory, tokens, bounds) in enumerate(_random_corpus()):
        out = _same_as_two_phase(theory, grammar, tokens, bounds)
        if n % 5 == 0:
            # a foreign theory evaluates every label as valid does; the
            # reference also runs the validator on every model it extracts
            replaced = _same_as_two_phase(_foreign(theory), grammar, tokens, bounds)
            # an equal grammar's theory evaluates the slice, and builds no more
            equal = compile_grammar(Grammar(grammar.sig, grammar.start, grammar.rules,
                                            grammar.lexicon))
            sliced = parse_sentence(equal, grammar, tokens, bounds)
            assert lexical_unbuilt(equal)
            assert _same_as_two_phase(equal, grammar, tokens, bounds) == sliced == replaced
            foreign["models"] += len(replaced.models)
            for r in replaced.rejections:
                kind = r.detail if r.reason == "structure" else r.reason
                foreign[kind] = foreign.get(kind, 0) + 1
        seen["models"] += len(out.models)
        seen["bound"] += out.bound_exceeded
        for r in out.rejections:
            kind = r.detail.split(" ")[0] if r.reason == "clash" else r.reason
            seen[kind] = seen.get(kind, 0) + 1
            if r.reason == "formula" and r.node.startswith("w"):
                seen["f-node counterexample"] = seen.get("f-node counterexample", 0) + 1
        derivations = _SkeletonEnumerator(grammar, tokens).derive(
            grammar.start, 0, len(tokens), bounds.max_tree_nodes
        )
        shapes = [shape for _, _, shape, _ in derivations]
        seen["shared shapes"] += len(shapes) - len(set(shapes))
    # the corpus reaches every kind of outcome: clashes between atoms, of
    # an atom with transitions and at a root preterminal, structure and
    # formula rejections (also at f-nodes), models, bounds and lexical
    # variants of one shape
    for kind in ("distinct", "atom", "lexical", "structure", "formula", "f-node counterexample"):
        assert seen.get(kind, 0) >= 20, seen
    assert min(seen.values()) >= 20, seen
    for kind in ("models", "clash", "fstruct-unreachable", "formula"):
        assert foreign.get(kind, 0) >= 20, foreign


def test_shape_sharing_matches_two_phase_on_adjunct_grammars():
    # attachment ambiguity: parses with many models, against 16 of the 2000
    # parses of the plain corpus
    seen = {"models": 0, "parses with models": 0, "multi-model parses": 0, "bound": 0}
    for grammar, theory, tokens, bounds in _adjunct_corpus():
        out = _same_as_two_phase(theory, grammar, tokens, bounds)
        seen["models"] += len(out.models)
        seen["parses with models"] += bool(out.models)
        seen["multi-model parses"] += len(out.models) > 1
        seen["bound"] += out.bound_exceeded
        for r in out.rejections:
            kind = r.detail.split(" ")[0] if r.reason == "clash" else r.reason
            seen[kind] = seen.get(kind, 0) + 1
    assert seen["multi-model parses"] >= 160, seen
    for kind in ("distinct", "atom", "structure", "formula"):
        assert seen.get(kind, 0) >= 20, seen


def test_formula_counterexample_keeps_the_class_order_name():
    # completeness[f] fails at the f-structures of X and Y.  The union-find
    # makes X's first (w1, then Y's w2); the canonical numbering follows
    # the features from the root in sorted order, g before h, so Y's is
    # f1 and X's f2.  The rejection names the least under the class order.
    from lfgmc import compile_grammar, parse_grammar, valid

    g = parse_grammar(
        """
        signature { cat: S X Y A B; atom: p q; feat: f g h pred rel; gf: f; }
        start S;
        rule S -> X {(up h)=down} Y {(up g)=down};
        rule X -> A;
        rule Y -> B;
        lex "u" A {(up pred)=p(f)};
        lex "v" B {(up pred)=q(f)};
        """
    )
    theory = compile_grammar(g)
    out = _same_as_two_phase(theory, g, ["u", "v"], SearchBounds())
    assert [(r.reason, r.detail, r.node) for r in out.rejections] == [
        ("formula", "completeness[f]", "w1")
    ]
    # with the axiom replaced by true the model survives: in its canonical names the
    # least failing node is Y's f-structure
    (m,) = parse_sentence(theory.replace(completeness=(TrueF(),)), g, ["u", "v"]).models
    assert (m.zoomin["n1"], m.zoomin["n4"]) == ("f2", "f1")
    assert valid(m, theory.completeness[0]) == "f1"


def _strings(words, lengths):
    return [list(t) for k in lengths for t in itertools.product(words.split(), repeat=k)]


def _pp_sentences(noun, count=4):
    return ["the man saw the man".split() + ["with", "the", noun] * k for k in range(count)]


FIXTURE_CASES = pytest.mark.parametrize(
    "text,sentences,bounds",
    [
        (FIG_GRAMMAR_TEXT, _strings("a girl walks", (1, 2, 3)), (12, 12, 10)),
        (DEVOUR_GRAMMAR_TEXT, _strings("a girl walks devours", (1, 2, 3)), (12, 12, 10)),
        (MICRO_GRAMMAR_TEXT, _strings("b", (1, 2, 3, 4)), (9, 4, 10)),
        (UNARY_CYCLE_GRAMMAR_TEXT, _strings("c", (1, 2, 3)), (9, 1, 10)),
        (PP_GRAMMAR_TEXT, _pp_sentences("tel"), (64, 256, 64)),
        (PP_AGREE_GRAMMAR_TEXT, _pp_sentences("man"), (64, 256, 64)),
        (PP_AGREE_GRAMMAR_TEXT, _pp_sentences("man"), (40, 80, 3)),
        (
            embedding_grammar_text(["n1", "n2"]),
            ["the n1 slept".split(), "the n2 said that the n1 slept".split()],
            (40, 80, 10),
        ),
        (
            OBL_GRAMMAR_TEXT,
            _strings("a girl book on relies waits", (3, 4))
            + [s.split() for s in ("a girl relies on a book", "a book waits on a girl")],
            (20, 20, 10),
        ),
    ],
    ids=["fig", "devour", "micro", "unary-cycle", "pp", "pp-agree", "pp-agree-capped",
         "embed", "obl"],
)


@FIXTURE_CASES
def test_shape_sharing_matches_two_phase_on_fixture_grammars(text, sentences, bounds):
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    for tokens in sentences:
        _same_as_two_phase(theory, grammar, tokens, SearchBounds(*bounds))
        _same_as_two_phase(_foreign(theory), grammar, tokens, SearchBounds(*bounds))


@FIXTURE_CASES
def test_foreign_parse_under_an_equal_grammar_matches_two_phase_on_fixture_grammars(
    text, sentences, bounds
):
    # a theory compiled from an equal, separately parsed grammar is foreign
    # but covered: each label is evaluated on the extracted model, the
    # lexical one on its slice, so the theory's lexical axiom stays unbuilt
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(parse_grammar(text))
    got = [parse_sentence(theory, grammar, tokens, SearchBounds(*bounds)) for tokens in sentences]
    assert lexical_unbuilt(theory)
    for tokens, out in zip(sentences, got):
        assert _same_as_two_phase(theory, grammar, tokens, SearchBounds(*bounds)) == out


def _parses_as_compiled(theory, grammar, tokens, bounds, evaluations):
    """``theory.replace()`` parses ``tokens`` as the compiled ``theory``
    does: the same outcome, no formula evaluated or names walked, the
    lexical axiom unbuilt, and every model it returns checks clean under
    both theories."""
    evaluated, walked = evaluations
    copy = theory.replace()
    out = parse_sentence(copy, grammar, tokens, bounds)
    assert evaluated == walked == []
    assert lexical_unbuilt(copy) or not grammar.lexicon
    assert out == parse_sentence(theory, grammar, tokens, bounds)
    for m in out.models:
        assert check_parse(theory, m).ok and check_parse(copy, m).ok
    del evaluated[:], walked[:]
    return out


def test_an_unchanged_replace_parses_as_the_compiled_theory_on_random_grammars(monkeypatch):
    evaluations = _count_evaluations(monkeypatch)
    models = 0
    for grammar, theory, tokens, bounds in _random_corpus():
        models += len(_parses_as_compiled(theory, grammar, tokens, bounds, evaluations).models)
    assert models >= 100


@FIXTURE_CASES
def test_an_unchanged_replace_parses_as_the_compiled_theory_on_fixture_grammars(
    monkeypatch, text, sentences, bounds
):
    from lfgmc import compile_grammar, parse_grammar

    evaluations = _count_evaluations(monkeypatch)
    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    for tokens in sentences:
        _parses_as_compiled(theory, grammar, tokens, SearchBounds(*bounds), evaluations)


def _one_field_changes():
    """(grammar text, sentence, field, its new value from the compiled
    theory and the grammar's signature, the label it rejects under)."""
    from lfgmc import And, FALSE, parse_formula

    return {
        "licensing": (PP_AGREE_GRAMMAR_TEXT, PP_SENTENCE, "licensing", lambda th, sig: And(
            th.licensing, parse_formula("!(NP & bullet(NP, PP))", sig)), "licensing"),
        "completeness": (FIG_GRAMMAR_TEXT, ["a", "girl", "walks"], "completeness",
                         lambda th, sig: (FALSE,), "completeness[subj]"),
        # fails at every f-node with a num feature, so it names a w<k>
        "coherence": (PP_AGREE_GRAMMAR_TEXT, PP_SENTENCE[:5], "coherence", lambda th, sig: (
            th.coherence[0], parse_formula("!<num> true", sig)), "coherence[obj]"),
    }


@pytest.mark.parametrize("case", _one_field_changes().values(), ids=_one_field_changes())
def test_a_replace_that_changes_one_field_evaluates_only_that_field(monkeypatch, case):
    from lfgmc import AtomLit, Or, compile_grammar, parse_grammar

    text, tokens, field, change, label = case
    grammar = parse_grammar(text)
    compiled = compile_grammar(grammar)
    theory = compiled.replace(**{field: change(compiled, grammar.sig)})
    assert theory.compiled == set(Theory._fields) - {field}
    changed = getattr(theory, field)
    changed = changed if isinstance(changed, tuple) else (changed,)
    bounds = SearchBounds(64, 256, 64)
    evaluated, walked = _count_evaluations(monkeypatch)
    out = parse_sentence(theory, grammar, tokens, bounds)
    assert evaluated and all(any(f is c for c in changed) for f in evaluated + walked)
    assert lexical_unbuilt(theory)
    monkeypatch.undo()
    # the rejections name the first failing label in label order
    assert _same_as_two_phase(theory, grammar, tokens, bounds) == out
    assert label in {r.detail for r in out.rejections if r.reason == "formula"}
    # a changed label using a name the model lacks: the error valid raises,
    # on a covered model too
    [model, *_] = parse_sentence(compiled, grammar, tokens, bounds).models
    bad = tuple(Or(f, AtomLit("zz")) for f in changed)
    broken = theory.replace(**{field: bad if field != "licensing" else bad[0]})
    with pytest.raises(SignatureError) as want:
        valid(model, bad[0])
    for call in (lambda: check_parse(broken, model),
                 lambda: parse_sentence(broken, grammar, tokens, bounds),
                 lambda: reference_two_phase_parse(broken, grammar, tokens, bounds)):
        with pytest.raises(SignatureError) as got:
            call()
        assert str(got.value) == str(want.value) == "unknown atom 'zz'"


def test_a_replace_of_gf_alone_evaluates_the_kept_principles(monkeypatch, fig_grammar):
    # the tables decide the principles only under the gf they were compiled
    # for: under another gf the kept formulas are evaluated, with no names
    # walk, and the model the tables would reject under coherence[spec]
    # (its subject has a spec and no pred spec) is returned
    from lfgmc import compile_grammar

    theory = compile_grammar(fig_grammar).replace(gf=[["spec"]])
    assert theory.compiled == set(Theory._fields) - {"gf"}
    principles = [f for _label, f in theory.principles()]
    tokens, bounds = ["a", "girl", "walks"], SearchBounds()
    evaluated, walked = _count_evaluations(monkeypatch)
    out = parse_sentence(theory, fig_grammar, tokens, bounds)
    assert evaluated == principles and walked == []
    monkeypatch.undo()
    assert _same_as_two_phase(theory, fig_grammar, tokens, bounds) == out
    assert len(out.models) == 1 and not out.rejections


def _every_class_model(sig, cstruct, uf, classes):
    """The model of a closed union-find with all its ``classes`` (in class
    order), the ones the numbering walk misses named after the rest in
    class order, and their names in class order; None without a unique
    entry point."""
    from lfgmc.model import fnode_names

    succ = {r: {feat: uf.find(t) for feat, t in sorted(uf.trans[r].items())} for r in classes}
    root_var = uf.zvar.get(cstruct.root)
    sources = {uf.find(root_var)} if root_var is not None else (
        set(classes) - {t for s in succ.values() for t in s.values()})
    if len(sources) != 1:
        return None
    name = fnode_names(*sources, succ)
    for r in classes:
        name.setdefault(r, "f%d" % len(name))
    trans = {name[r]: {feat: name[t] for feat, t in s.items()} for r, s in succ.items()}
    atomval = {name[r]: uf.atom[r] for r in classes if uf.atom[r] is not None}
    fstruct = FStructure(frozenset(name.values()), "f0", trans, frozenset(atomval), atomval)
    zoomin = {n: name[uf.find(v)] for n, v in uf.zvar.items()}
    return Model(sig, cstruct, fstruct, zoomin), [name[r] for r in classes]


def _principles_match_valid(theory, grammar, tokens, bounds, seen):
    """On every solved candidate, each completeness and coherence label
    is decided on the f-node tables of the model with every class as
    ``valid`` decides it on that model, and names the least failing class
    in class order.  Where every class is reached, that model is the one
    ``_model`` builds from what ``_read_off`` names, and ``_check`` rejects
    it under the first failing label, at that class."""
    from lfgmc.search import (
        Rejection, _SkeletonEnumerator, _build_tree, _check, _deciders, _model,
        _principle_failures, _read_off, _solve_shape,
    )
    from lfgmc.semantics import _least_failing

    labels = theory.labeled()[2:]
    assert tuple(labels) == tuple(theory.principles())
    derivations = _SkeletonEnumerator(grammar, tokens).derive(
        grammar.start, 0, len(tokens), bounds.max_tree_nodes
    )
    for idx, (deriv, _count, _shape, entries) in enumerate(derivations):
        cstruct, phrases, mothers = _build_tree(deriv)
        [(_, uf)] = _solve_shape(phrases, mothers, [(idx, entries)])
        if isinstance(uf, Rejection):
            continue
        # no f-node bound
        unbounded = SearchBounds(max_f_nodes=len(uf.parent) + 1)
        read = _read_off(cstruct, uf, unbounded)
        roots = list(dict.fromkeys(map(uf.find, range(len(uf.parent)))))
        whole = _every_class_model(grammar.sig, cstruct, uf, roots)
        if whole is None:
            assert read.detail == "no unique entry point into the f-structure"
            continue
        model, classes = whole
        if isinstance(read, tuple):
            assert _model(grammar.sig, cstruct, uf, *read) == model
            assert list(read[0].values()) == classes
        else:
            assert read.detail == "fstruct-unreachable"
            seen["unreachable"] = seen.get("unreachable", 0) + 1
        want = []
        for label, f in labels:
            node = valid(model, f)
            assert node is None or node in model.fstruct.nodes  # tree nodes never fail
            want.append(None if node is None else classes.index(_least_failing(model, f, classes)))
            if node is not None:
                kind = label.split("[")[0] + (" past w0" if want[-1] else "")
                seen[kind] = seen.get(kind, 0) + 1
                if "." in label:
                    seen["multi-step"] = seen.get("multi-step", 0) + 1
        assert _principle_failures(theory.gf, model.fstruct.trans, classes) == want, (
            tokens, grammar)
        if isinstance(read, tuple):
            first = [Rejection("formula", label, "w%d" % k)
                     for (label, _f), k in zip(labels, want) if k is not None][:1]
            deciders = _deciders(theory, grammar, grammar.sig, tokens)
            decided = _check(deciders, theory.gf, grammar.sig, cstruct, uf, unbounded)
            assert [decided] == first if first else decided == model
        seen["candidates"] = seen.get("candidates", 0) + 1


def test_principles_decided_on_the_union_find_match_valid_on_random_grammars():
    seen = {}
    for grammar, theory, tokens, bounds in _random_corpus():
        _principles_match_valid(theory, grammar, tokens, bounds, seen)
    # both principles fail, also at classes after the first one, and some
    # candidates leave a class unreached
    for kind in ("completeness", "coherence", "completeness past w0", "coherence past w0",
                 "unreachable"):
        assert seen.get(kind, 0) >= 20, seen


def test_principles_decided_on_the_tables_match_valid_on_adjunct_grammars():
    # the adjunct corpus also declares the two-step function g.f
    seen = {}
    for grammar, theory, tokens, bounds in _adjunct_corpus():
        _principles_match_valid(theory, grammar, tokens, bounds, seen)
    for kind in ("completeness", "coherence", "completeness past w0", "coherence past w0",
                 "unreachable", "multi-step"):
        assert seen.get(kind, 0) >= 20, seen


@FIXTURE_CASES
def test_principles_decided_on_the_union_find_match_valid_on_fixture_grammars(
    text, sentences, bounds
):
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    seen = {}
    for tokens in sentences:
        _principles_match_valid(theory, grammar, tokens, SearchBounds(*bounds), seen)
    assert seen["candidates"] > 0


def _read_off_models(monkeypatch):
    """Each ``(text, model, the root node has no variable)`` that
    ``_model`` builds, in call order, the text joined from the two
    halves the search writes: the f-structure part from the model's own
    tables, in their order, and the tail from the tree rows in the order
    of ``cstruct.label``."""
    from lfgmc import search
    from lfgmc.model import _fstruct_text, _model_tail, _tree_rows

    build, seen = search._model, []

    def spy(sig, cstruct, uf, *rest):
        model = build(sig, cstruct, uf, *rest)
        text = _fstruct_text(model.fstruct, model.fstruct.trans) + _model_tail(
            model, _tree_rows(cstruct, cstruct.label))
        seen.append((text, model, cstruct.root not in uf.zvar))
        return model

    monkeypatch.setattr(search, "_model", spy)
    return seen


def _parse_and_check_read_off(theory, grammar, tokens, bounds, seen):
    """Parse; every model returned was read off, and every model read off
    is canonical and valid, written as ``model_to_text`` writes it."""
    start = len(seen)
    out = parse_sentence(theory, grammar, tokens, bounds)
    read = seen[start:]
    assert all(any(m is r for _, r, _ in read) for m in out.models)
    for text, model, _ in read:
        assert text == model_to_text(model)
        assert canonicalize(model) == model
        assert validate_model(model).ok


@FIXTURE_CASES
def test_read_off_text_is_model_to_text_on_fixture_grammars(monkeypatch, text, sentences, bounds):
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    seen = _read_off_models(monkeypatch)
    for tokens in sentences:
        _parse_and_check_read_off(theory, grammar, tokens, SearchBounds(*bounds), seen)
    assert seen


def test_read_off_text_is_model_to_text_on_random_grammars(monkeypatch):
    seen = _read_off_models(monkeypatch)
    for grammar, theory, tokens, bounds in _random_corpus():
        _parse_and_check_read_off(theory, grammar, tokens, bounds, seen)
    # also models whose root node has no variable, entered at the one
    # class without incoming transitions
    assert len(seen) >= 100 and sum(no_root_var for _, _, no_root_var in seen) >= 20


# --- survivors ordered on the two halves of their text --------------------


def _text_order_inputs(monkeypatch):
    """The survivors, in candidate order, that each parse hands to
    ``_text_order``, one list a parse."""
    from lfgmc import search

    text_order, seen = search._text_order, []

    def spy(models):
        seen.append(list(models))
        return text_order(models)

    monkeypatch.setattr(search, "_text_order", spy)
    return seen


def _parse_in_text_order(theory, grammar, tokens, bounds, survivors, seen):
    """Parse: the models are the survivors' distinct texts in sorted order,
    each the first survivor of its text, up to ``max_models``.  Every
    survivor's text starts with its f-structure part, which ends in the
    closing lines of the node list, and two survivors have equal parts
    exactly when their f-structures are equal; the parts go into
    ``seen["parts"]``.  Where parts tie but trees differ, the index of the
    first tree row that differs goes into ``seen["first differing rows"]``."""
    from lfgmc.model import _fstruct_text, _tree_row

    start = len(survivors)
    out = parse_sentence(theory, grammar, tokens, bounds)
    [found] = survivors[start:]
    texts = [model_to_text(m) for m in found]
    first = {}
    for text, m in zip(texts, found):
        first.setdefault(text, m)
    want = sorted(dict.fromkeys(texts))[: bounds.max_models]
    assert [model_to_text(m) for m in out.models] == want, tokens
    assert all(m is first[text] for m, text in zip(out.models, want))
    parts = [_fstruct_text(m.fstruct, m.fstruct.trans) for m in found]
    for part, text in zip(parts, texts):
        assert part.endswith("\n    ]\n  },\n") and text.startswith(part)
    for (a, part_a), (b, part_b) in itertools.combinations(zip(found, parts), 2):
        assert (a.fstruct == b.fstruct) == (part_a == part_b), tokens
    seen["parts"].update(parts)
    seen["tied"] += len(set(parts)) < len(parts)
    seen["equal texts"] += len(first) < len(texts)
    trees = {}  # part -> the distinct row lists of its survivors' trees
    for part, m in zip(parts, found):
        rows = tuple(_tree_row(m.cstruct, n) for n in m.cstruct.label)
        trees.setdefault(part, set()).add(rows)
    for tied in trees.values():
        for a, b in itertools.combinations(sorted(tied), 2):
            differing = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
            seen["first differing rows"].add(differing)


def _text_order_counts():
    return {"parts": set(), "tied": 0, "equal texts": 0, "first differing rows": set()}


def _no_part_is_a_proper_prefix(parts):
    # a proper prefix sorts right before its extensions and all that lies
    # between them, so neighbours in sorted order suffice
    ordered = sorted(parts)
    assert not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))


@FIXTURE_CASES
def test_models_come_back_in_text_order_on_fixture_grammars(monkeypatch, text, sentences, bounds):
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    survivors, seen = _text_order_inputs(monkeypatch), _text_order_counts()
    for tokens in sentences:
        _parse_in_text_order(theory, grammar, tokens, SearchBounds(*bounds), survivors, seen)
    assert seen["parts"]
    _no_part_is_a_proper_prefix(seen["parts"])


def test_models_come_back_in_text_order_on_random_grammars(monkeypatch):
    survivors, seen = _text_order_inputs(monkeypatch), _text_order_counts()
    for grammar, theory, tokens, bounds in _random_corpus():
        _parse_in_text_order(theory, grammar, tokens, bounds, survivors, seen)
    _no_part_is_a_proper_prefix(seen["parts"])
    # f-structure parts tie, and whole texts repeat, in some parses
    assert len(seen["parts"]) >= 20 and seen["tied"] >= 15 and seen["equal texts"] >= 5, (
        len(seen["parts"]), seen["tied"], seen["equal texts"])


def test_models_come_back_in_text_order_on_adjunct_grammars(monkeypatch):
    survivors, seen = _text_order_inputs(monkeypatch), _text_order_counts()
    for grammar, theory, tokens, bounds in _adjunct_corpus():
        _parse_in_text_order(theory, grammar, tokens, bounds, survivors, seen)
    _no_part_is_a_proper_prefix(seen["parts"])
    counts = (len(seen["parts"]), seen["tied"], seen["equal texts"],
              sorted(seen["first differing rows"]))
    # tied parts whose trees first differ at several rows, and whole texts repeat
    assert len(seen["parts"]) >= 200 and seen["tied"] >= 50 and seen["equal texts"] >= 20, counts
    assert len(seen["first differing rows"]) >= 3, counts


def _text_writes(monkeypatch):
    """The arguments of each call the search makes to the text writers."""
    from lfgmc import search

    calls = {"_fstruct_text": [], "_model_tail": [], "_tree_row": []}
    for name, seen in calls.items():
        def spy(*args, _real=getattr(search, name), _seen=seen):
            _seen.append(args)
            return _real(*args)

        monkeypatch.setattr(search, name, spy)
    return calls


def test_a_parse_with_one_survivor_writes_no_text(monkeypatch, fig_theory, fig_grammar):
    calls = _text_writes(monkeypatch)
    assert len(parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"]).models) == 1
    assert calls == {"_fstruct_text": [], "_model_tail": [], "_tree_row": []}


def test_tree_rows_are_written_only_for_shapes_whose_fstructure_parts_tie(monkeypatch):
    # PP attachment with 3 and 4 PPs: 14 and 42 trees, but PPs adjoined to
    # one VP or NP share its single adj value, so only 9 and 14 f-structures.
    # Each distinct part is written once; tied models are told apart by the
    # first tree row that differs, so only some rows of their trees are
    # written, and no tail (nor its zoomin) is
    from collections import Counter

    from lfgmc import compile_grammar, parse_grammar
    from lfgmc.model import _fstruct_text

    g = parse_grammar(PP_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    calls = _text_writes(monkeypatch)
    for pps, n_models, n_parts, n_tied, n_rows in ((3, 14, 9, 8, 67), (4, 42, 14, 35, 374)):
        for seen in calls.values():
            seen.clear()
        out = _same_as_two_phase(theory, g, _pp_sentences("tel", pps + 1)[pps],
                                 SearchBounds(64, 256, 64))
        part = {id(m): _fstruct_text(m.fstruct, m.fstruct.trans) for m in out.models}
        ties = Counter(part.values())
        tied = [m for m in out.models if ties[part[id(m)]] > 1]
        assert (len(out.models), len(ties), len(tied)) == (n_models, n_parts, n_tied)
        written = [_fstruct_text(f, trans) for f, trans in calls["_fstruct_text"]]
        assert sorted(written) == sorted(ties)
        assert calls["_model_tail"] == []
        # rows only of tied models' trees, each written once, and far from all
        rows = [(id(c), n) for c, n in calls["_tree_row"]]
        assert len(rows) == len(set(rows)) == n_rows
        assert {c for c, _ in rows} <= {id(m.cstruct) for m in tied}
        assert n_rows < sum(len(m.cstruct.label) for m in tied) / 4


def test_multi_step_functions_match_two_phase():
    # completeness[obl.obj] fails where obl exists but obl obj does not, at
    # the clause (w1, after the oblique's class); coherence[obl.obj] where
    # pred obl exists but pred obl obj does not
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(OBL_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    assert theory.source is g
    want = {
        "a girl relies on a book": [],
        "a girl waits on": [],
        "a girl relies on": [("formula", "completeness[obl.obj]", "w1")],
        "a girl relies": [("formula", "completeness[obl.obj]", "w0")],
        "a girl waits on a book": [("formula", "coherence[obl.obj]", "w2")],
    }
    for words, rejections in want.items():
        out = _same_as_two_phase(theory, g, words.split(), SearchBounds())
        assert [(r.reason, r.detail, r.node) for r in out.rejections] == rejections
        assert len(out.models) == (not rejections)
    waits_on_a_book = _same_as_two_phase(
        theory.replace(coherence=(TrueF(),) * 3), g, "a girl waits on a book".split(), SearchBounds()
    )
    (m,) = waits_on_a_book.models
    f = m.fstruct
    pred_obl = f.trans[f.trans[f.initial]["pred"]]["obl"]
    assert "obj" in f.trans[f.trans[f.initial]["obl"]] and "obj" not in f.trans[pred_obl]


def test_phrase_clash_rejects_every_lexical_variant(monkeypatch):
    # the rule annotations clash whatever the entries say: the shape is
    # solved once and its four variants get the one message, in order
    from lfgmc import compile_grammar, parse_grammar, search

    g = parse_grammar(
        """
        signature { cat: S A; atom: a b; feat: f g; gf: ; }
        rule S -> A {(up f)=a} A {(up f)=b};
        lex "u" A {(up g)=a};
        lex "u" A {(up g)=b};
        """
    )
    entries = [0]
    solve_entry = search._solve_entry
    monkeypatch.setattr(
        search, "_solve_entry", lambda *a: entries.__setitem__(0, entries[0] + 1) or solve_entry(*a)
    )
    out = _same_as_two_phase(compile_grammar(g), g, ["u", "u"], SearchBounds())
    assert out.models == ()
    assert [(r.reason, r.detail) for r in out.rejections] == [
        ("clash", "distinct atoms 'a' and 'b' forced onto one node")
    ] * 4
    assert entries[0] == 0


# "u" sets an atom on the argument slot of its semantic form; "v" defines
# the local f that the slot closes over, as an atom or with a transition
SLOT_GRAMMAR_TEXT = """
signature { cat: S X Y A B; atom: a b p; feat: f g pred rel; gf: f; }
rule S -> X {up=down} Y {(up f)=down};
rule X -> A;
rule Y -> B;
lex "u" A {(up pred)=p(f); (up pred f)=a};
lex "u" A {(up pred)=p(f)};
lex "v" B {up=b};
lex "v" B {(up g)=b};
"""


def test_clashes_found_only_by_closing_the_semantic_form_slots(monkeypatch):
    from lfgmc import compile_grammar, parse_grammar, search

    g = parse_grammar(SLOT_GRAMMAR_TEXT)
    raised = []
    close = search._close

    def spy(uf):
        try:
            close(uf)
        except search._Clash as clash:
            raised.append(clash.args[0])
            raise

    monkeypatch.setattr(search, "_close", spy)
    out = _same_as_two_phase(compile_grammar(g), g, ["u", "v"], SearchBounds())
    # candidates in enumeration order: (u1, v1), (u1, v2), (u2, v1), (u2, v2)
    assert [(r.reason, r.detail) for r in out.rejections] == [
        ("clash", "distinct atoms 'a' and 'b' forced onto one node"),
        ("clash", "atom 'a' forced onto a node with outgoing transitions"),
    ]
    assert sorted(raised) == sorted(r.detail for r in out.rejections)
    # the variants without the slot atom are models
    assert len(out.models) == 2


# one grammar for each place that sets ``mixed``: only there does an atom
# meet a transition on one class, so only a scan it turns on finds the clash
MIXED_SIGNATURE = "signature { cat: S X Y A B; atom: a b p; feat: f g pred rel; gf: f; }"
MIXED_CASES = {
    # an atom set on a class with a transition
    "set_atom": ('rule S -> A {(up f g)=a; (up f)=b}; lex "u" A;', ["u"], "b"),
    # a step made out of a valued class
    "walk": ('rule S -> A {(up f)=b; (up f g)=a}; lex "u" A;', ["u"], "b"),
    # a missing (up f)=down linked straight to the daughter from a valued class
    "bind": ('rule S -> A {up=a} B {(up f)=down}; lex "u" A; lex "v" B;', ["u", "v"], "a"),
    # a union of a valued class and one with a transition
    "union": ('rule S -> X {(up f)=down} Y {(up f)=down}; rule X -> A {up=a};'
              'rule Y -> B {(up g)=b}; lex "u" A; lex "v" B;', ["u", "v"], "a"),
    # the same union, made only when a semantic-form slot links up
    "slot": ('rule S -> X {up=down} Y {(up f)=down}; rule X -> A; rule Y -> B;'
             'lex "u" A {(up pred)=p(f); (up pred f)=a}; lex "v" B {(up g)=b};', ["u", "v"], "a"),
}


@pytest.mark.parametrize("case", MIXED_CASES.values(), ids=MIXED_CASES)
def test_each_place_that_mixes_an_atom_and_a_transition_turns_the_scan_on(case):
    from lfgmc import compile_grammar, parse_grammar

    statements, tokens, atom = case
    g = parse_grammar(MIXED_SIGNATURE + "\n" + statements)
    out = _same_as_two_phase(compile_grammar(g), g, tokens, SearchBounds())
    assert out.models == ()
    assert [(r.reason, r.detail) for r in out.rejections] == [
        ("clash", "atom %r forced onto a node with outgoing transitions" % atom)]


# one grammar for each case of up=down on a rule element: neither tree
# node's variable made yet, only the mother's, only the daughter's, or
# both; then both valued, so that the clash names the mother's atom first.
# A variable not yet made joins the other's class, so only "both" unites.
UPDOWN_SIGNATURE = "signature { cat: S X Y A B; atom: a b p q; feat: f g pred rel; gf: f g; }"
UPDOWN_LEX = ('lex "u" A {(up pred)=p(f)}; lex "u" A {(up pred)=p(g)};'
              'lex "v" B {(up pred)=q()}; lex "v" B {(up pred)=q(g)};')
_G_AT = [("formula", "completeness[g]", w) for w in ("w0", "w1", "w0")]
UPDOWN_CASES = {
    "neither": ((False, False), "rule S -> X {up=down} Y {(up f)=down}; rule X -> A; rule Y -> B;"
                + UPDOWN_LEX, "u v", 1, [_G_AT[1], _G_AT[0], _G_AT[0]]),
    "mother": ((True, False), "rule S -> Y {(up f)=down} X {up=down}; rule X -> A; rule Y -> B;"
               + UPDOWN_LEX, "v u", 1, _G_AT),
    "daughter": ((False, True), "rule S -> X {up=down}; rule X -> Y {(up f)=down} A; rule Y -> B;"
                 + UPDOWN_LEX, "v u", 1, _G_AT),
    "both": ((True, True), "rule S -> X {(up g)=down} Y {up=down}; rule X -> A;"
             "rule Y -> B {(up f)=down}; lex \"u\" A {(up pred)=p()}; lex \"u\" A {(up pred)=p(f)};"
             "lex \"v\" B {(up pred)=q(f, g)}; lex \"v\" B {(up pred)=q(f)};", "u v", 1,
             [("formula", "coherence[g]", "w0")] + [("formula", "completeness[f]", "w2")] * 2),
    "both-valued": ((True, True), "rule S -> A {up=a} Y {up=down}; rule Y -> B {up=b};"
                    "lex \"u\" A; lex \"v\" B;", "u v", 0,
                    [("clash", "distinct atoms 'a' and 'b' forced onto one node", None)]),
}


@pytest.mark.parametrize("case", UPDOWN_CASES.values(), ids=UPDOWN_CASES)
def test_up_equals_down_binds_a_variable_not_yet_made(monkeypatch, case):
    from lfgmc import compile_grammar, parse_grammar, search

    made, statements, words, n_models, rejections = case
    link, seen = search._UnionFind.link, set()

    def spy(uf, n, path, d):
        if not path:  # up=down
            seen.add((n in uf.zvar, d in uf.zvar))
        return link(uf, n, path, d)

    monkeypatch.setattr(search._UnionFind, "link", spy)
    g = parse_grammar(UPDOWN_SIGNATURE + "\n" + statements)
    # models, rejections in order and their class-order names as the reference's
    out = _same_as_two_phase(compile_grammar(g), g, words.split(), SearchBounds())
    assert seen == {made}
    assert len(out.models) == n_models
    assert [(r.reason, r.detail, r.node) for r in out.rejections] == rejections


# one grammar for each case of (up f)=down where f exists: the daughter's
# variable not yet made, so it takes f's class and three classes are
# made in all, or already made by the daughter's own rule, so the two
# are united and five are made
LINK_SIGNATURE = "signature { cat: S A B C; atom: a b; feat: f g h; gf: ; }"
LINK_CASES = {
    "daughter-not-made": (False, 'rule S -> A {(up f g)=a} B {(up f)=down};'
                          'lex "u" A; lex "v" B;', 3),
    "daughter-made": (True, 'rule S -> A {(up f g)=a} B {(up f)=down}; rule B -> C {(up h)=b};'
                      'lex "u" A; lex "v" C;', 5),
}


@pytest.mark.parametrize("case", LINK_CASES.values(), ids=LINK_CASES)
def test_up_path_equals_down_makes_no_class_only_to_unite_it(monkeypatch, case):
    from lfgmc import compile_grammar, parse_grammar, search

    made, statements, classes = case
    link, make, seen, calls = search._UnionFind.link, search._UnionFind.make, [], [0]

    def spy(uf, n, path, d):
        seen.append((path, d in uf.zvar))
        return link(uf, n, path, d)

    def counted_make(uf):
        calls[0] += 1
        return make(uf)

    monkeypatch.setattr(search._UnionFind, "link", spy)
    monkeypatch.setattr(search._UnionFind, "make", counted_make)
    g = parse_grammar(LINK_SIGNATURE + "\n" + statements)
    out = _same_as_two_phase(compile_grammar(g), g, ["u", "v"], SearchBounds())
    assert seen == [(("f",), made)]
    assert calls == [classes]
    assert len(out.models) == 1 and out.rejections == ()


def test_a_failing_evaluated_label_is_evaluated_once():
    # the replaced completeness labels are evaluated on the model; each
    # fails at the clause's f-node, which one evaluation over the tree
    # nodes and then the classes names w0
    from lfgmc import TRUE, Feat, Not, compile_grammar, parse_grammar

    g = parse_grammar(PP_GRAMMAR_TEXT)
    compiled = compile_grammar(g)
    theory = compiled.replace(completeness=(Not(Feat("pred", TRUE)),) * len(compiled.gf))
    words = "the man saw the man with the tel".split()
    with pytest.MonkeyPatch.context() as monkeypatch:
        evaluated, walked = _count_evaluations(monkeypatch)
        out = parse_sentence(theory, g, words, SearchBounds())
    assert [(r.reason, r.detail, r.node) for r in out.rejections] == [
        ("formula", "completeness[subj]", "w0")] * 2
    assert evaluated == [theory.completeness[0]] * 2 and walked == evaluated
    assert _same_as_two_phase(theory, g, words, SearchBounds()) == out


# the slot g links pred g to the local g, which is the clause itself, and
# so gives the clause the f that pred g has: only then is the local f of
# the slot f, met first, defined
LATE_SLOT_GRAMMAR_TEXT = """
signature { cat: S A; atom: a p; feat: f g pred rel; gf: f g; }
rule S -> A {up=down; (up g)=down};
lex "u" A {(up pred)=p(f, g); (up pred g f)=a};
"""


def test_close_passes_again_only_while_a_slot_waits_for_its_local_path(
    monkeypatch, devour_theory, devour_grammar
):
    # walks(subj) links its one slot in the first pass, so a second pass
    # could find nothing; devours(subj, obj) has no local obj, so the subj
    # link makes one more pass, which walks only obj and changes nothing;
    # in the late-slot grammar the second pass walks and links only f, and
    # as no slot waits, it is the last.  A pass walks two paths per slot.
    from lfgmc import compile_grammar, parse_grammar, search

    passes, close = [], search._close

    def spy(uf):
        walks, walk = [], uf.walk
        uf.walk = lambda *args, **kwargs: walks.append(args) or walk(*args, **kwargs)
        try:
            close(uf)
        finally:
            del uf.walk
        # a slot walked in the last pass was walked in every pass
        passes.append((max(Counter(walks).values()), len(walks)))

    monkeypatch.setattr(search, "_close", spy)
    late = parse_grammar(LATE_SLOT_GRAMMAR_TEXT)
    for theory, grammar, words, want in (
        (devour_theory, devour_grammar, "a girl walks", [(1, 2)]),
        (devour_theory, devour_grammar, "a girl devours", [(2, 6)]),
        (compile_grammar(late), late, "u", [(2, 6)]),
    ):
        passes.clear()
        _same_as_two_phase(theory, grammar, words.split(), SearchBounds())
        assert passes == want, words
    (m,) = _same_as_two_phase(compile_grammar(late), late, ["u"], SearchBounds()).models
    f = m.fstruct
    pred = f.trans["f0"]["pred"]
    assert f.trans[pred]["f"] == f.trans["f0"]["f"] and f.trans[pred]["g"] == "f0"


def test_lexical_schemata_need_a_node_above_a_root_preterminal():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S; atom: a b; feat: f; gf: ; }
        rule S -> S S;
        lex "u" S {(up f)=a};
        lex "u" S;
        lex "u" S {(up f)=b};
        """
    )
    out = _same_as_two_phase(compile_grammar(g), g, ["u"], SearchBounds())
    message = "lexical schemata of 'u' need a node above the preterminal"
    assert [(r.reason, r.detail) for r in out.rejections] == [("clash", message)] * 2
    assert len(out.models) == 1 and not out.bound_exceeded


def test_f_node_bound_hit_by_one_lexical_variant():
    from lfgmc import compile_grammar, parse_grammar

    g = parse_grammar(
        """
        signature { cat: S A; atom: a; feat: f g; gf: ; }
        rule S -> A {up=down};
        lex "u" A {(up f g f g)=a};
        lex "u" A {(up f)=a};
        """
    )
    theory = compile_grammar(g)
    out = _same_as_two_phase(theory, g, ["u"], SearchBounds(40, 2, 10))
    assert len(out.models) == 1 and out.bound_exceeded
    assert out.rejections == ()
    out = _same_as_two_phase(theory, g, ["u"], SearchBounds(40, 5, 10))
    assert len(out.models) == 2 and not out.bound_exceeded


def test_each_tree_shape_is_built_and_solved_once(monkeypatch):
    from lfgmc import compile_grammar, parse_grammar, search

    calls = {"build": 0, "make": 0}
    build, make = search._build_tree, search._UnionFind.make

    def counted_build(deriv):
        calls["build"] += 1
        return build(deriv)

    def counted_make(self):
        calls["make"] += 1
        return make(self)

    monkeypatch.setattr(search, "_build_tree", counted_build)
    monkeypatch.setattr(search._UnionFind, "make", counted_make)
    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    out = parse_sentence(compile_grammar(g), g, PP_SENTENCE)
    assert len(out.models) == 5 and len(out.rejections) == 75
    # one tree per shape; building and solving each of the 80 candidates
    # on its own takes 80 trees and 2310 union-find classes
    assert calls["build"] == 5
    assert calls["make"] < 400


def test_deep_unary_derivation_builds_without_recursion():
    from lfgmc import parse_grammar
    from lfgmc.search import _build_tree, _solve_shape

    g = parse_grammar(
        """
        signature { cat: S; atom: a; feat: f; gf: ; }
        rule S -> S {up=down};
        lex "u" S {(up f)=a};
        """
    )
    deriv = g.lexicon[0]
    for _ in range(5000):
        deriv = (g.rules[0], (deriv,))
    entries = (g.lexicon[0],)
    cstruct, phrases, mothers = _build_tree(deriv)
    assert len(cstruct.nodes) == 5002
    assert cstruct.label["n5000"] == "S" and cstruct.label["n5001"] == "u"
    # the one preterminal, n5000, hangs under the lowest phrase
    assert mothers == ["n4999"]
    # phrases in postorder: the lowest first
    assert [n for n, _, _ in phrases] == ["n%d" % k for k in range(4999, -1, -1)]
    [(members, uf)] = _solve_shape(phrases, mothers, [(0, entries)])
    assert members == [(0, entries)]
    assert len({uf.find(v) for v in uf.zvar.values()}) == 1


# --- the derivability chart, against the fixpoint table -----------------


def _chart_edges(grammar, tokens):
    from lfgmc.search import _SkeletonEnumerator

    ends = _SkeletonEnumerator(grammar, tokens).ends
    for row in ends:
        for found in row.values():
            assert found == sorted(set(found))
    return {(cat, i, j) for i, row in enumerate(ends) for cat, found in row.items() for j in found}


def _same_chart(grammar, tokens):
    want = _RefSkeletonEnumerator(grammar, tokens).derivable
    assert _chart_edges(grammar, tokens) == want, tokens
    return len(want)


def test_chart_matches_the_fixpoint_table_on_random_grammars():
    from lfgmc import parse_grammar

    rng = random.Random(808)
    edges = 0
    for _ in range(300):
        grammar = parse_grammar(rand_grammar(rng))
        for length in range(1, 11):
            edges += _same_chart(grammar, [rng.choice("uvw") for _ in range(length)])
    assert edges > 30000


def _tree(deriv):
    """A derivation of either enumerator as nested tuples: the search's
    entries and (rule, children) pairs, the reference's wrappers of them."""
    if isinstance(deriv, _RefDLex):
        return deriv.entry
    if isinstance(deriv, _RefDPhrase):
        deriv = (deriv.rule, deriv.children)
    if type(deriv) is tuple:
        rule, children = deriv
        return (id(rule),) + tuple(_tree(c) for c in children)
    return deriv


def test_enumerator_matches_the_recursive_one_on_random_grammars():
    # the same derivations in the same order, the same memo keys and the
    # same bound flag as the recursive enumerator over the fixpoint table
    from lfgmc import parse_grammar
    from lfgmc.search import _SkeletonEnumerator

    rng = random.Random(809)
    seen = {"derivations": 0, "bound": 0}
    for _ in range(300):
        grammar = parse_grammar(rand_grammar(rng))
        tokens = [rng.choice("uvw") for _ in range(rng.randint(1, 5))]
        budget = rng.choice((3, 5, 7, 9, 12, 15))
        got = _SkeletonEnumerator(grammar, tokens)
        want = _RefSkeletonEnumerator(grammar, tokens)
        derivs = got.derive(grammar.start, 0, len(tokens), budget)
        assert [(_tree(d), c) for d, c, _, _ in derivs] == [
            (_tree(d), c) for d, c in want.derive(grammar.start, 0, len(tokens), budget)
        ]
        assert got.bound_hit == want.bound_hit
        assert set(got.memo) == set(want.memo)
        seen["derivations"] += len(derivs)
        seen["bound"] += got.bound_hit
    assert seen["derivations"] > 1000 and seen["bound"] > 20, seen


@pytest.mark.parametrize(
    "text,tokens,size",
    [(BOUND_RULE_GRAMMAR_TEXT, "the dog barks", 8), (BOUND_PARTIAL_GRAMMAR_TEXT, "a a a", 9)],
    ids=["rule-cannot-derive", "dead-partial"],
)
def test_bound_is_exceeded_only_when_a_tree_is_cut(text, tokens, size):
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    for bound in (size - 1, size, size + 1):
        out = _same_as_two_phase(theory, grammar, tokens.split(), SearchBounds(bound))
        assert len(out.models) == (bound >= size)
        assert out.bound_exceeded == (bound < size)


def test_bound_exceeded_means_a_tree_was_cut_on_random_grammars():
    # the flag is set exactly when a tree over the bound exists: the
    # reference enumerator finds one a few nodes past the bound whenever
    # the flag is set, and none two nodes past it otherwise
    from lfgmc.search import _SkeletonEnumerator

    seen = {"cut": 0, "whole": 0}
    for grammar, _theory, tokens, bounds in _random_corpus():
        top, n = bounds.max_tree_nodes, len(tokens)
        enum = _SkeletonEnumerator(grammar, tokens)
        enum.derive(grammar.start, 0, n, top)
        ref = _RefSkeletonEnumerator(grammar, tokens)
        larger = range(top + 1, top + 13) if enum.bound_hit else [top + 2]
        cut = any(c > top for budget in larger for _d, c in ref.derive(grammar.start, 0, n, budget))
        assert cut == enum.bound_hit, (tokens, bounds, grammar)
        seen["cut" if cut else "whole"] += 1
    assert seen["cut"] > 200 and seen["whole"] > 1000, seen


def _shape_key(tree):
    """A ``_tree`` with each entry replaced by its category."""
    if type(tree) is tuple:
        return tree[:1] + tuple(_shape_key(t) for t in tree[1:])
    return tree.cat


def _leaves(tree):
    """The entries of a ``_tree``, in preorder."""
    if type(tree) is tuple:
        return tuple(e for t in tree[1:] for e in _leaves(t))
    return (tree,)


def _records_match_trees(grammar, tokens, bounds, seen):
    """Every record the enumerator memoises carries the shape and entries
    of its tree, and each candidate shape builds the tree that
    ``CStructure.build`` makes of its daughters and labels."""
    from lfgmc.model import CStructure
    from lfgmc.search import _SkeletonEnumerator, _build_tree

    enum = _SkeletonEnumerator(grammar, tokens)
    derivations = enum.derive(grammar.start, 0, len(tokens), bounds.max_tree_nodes)
    keys, ids = {}, {}  # shape id -> preorder keys, and back
    for records in enum.memo.values():
        for deriv, _count, shape, entries in records:
            tree = _tree(deriv)
            assert entries == _leaves(tree)
            keys.setdefault(shape, set()).add(_shape_key(tree))
            ids.setdefault(_shape_key(tree), set()).add(shape)
    assert all(len(v) == 1 for v in keys.values()), (tokens, grammar)
    assert all(len(v) == 1 for v in ids.values()), (tokens, grammar)
    built = {}
    for deriv, _count, shape, _entries in derivations:
        if shape in built:
            continue
        cstruct, _phrases, mothers = built[shape] = _build_tree(deriv)
        want = CStructure.build("n0", cstruct.daughters, cstruct.label)
        assert cstruct == want
        leaves = [n for n in cstruct.nodes if not cstruct.daughters[n]]
        preterminals = sorted((want.mother[n] for n in leaves), key=lambda n: int(n[1:]))
        assert mothers == [want.mother.get(p) for p in preterminals]
    seen["records"] = seen.get("records", 0) + sum(map(len, enum.memo.values()))
    seen["shared shapes"] = seen.get("shared shapes", 0) + len(derivations) - len(built)


def test_records_carry_their_shapes_and_entries_on_random_grammars():
    seen = {}
    for grammar, _theory, tokens, bounds in _random_corpus():
        _records_match_trees(grammar, tokens, bounds, seen)
    assert seen["records"] > 10000 and seen["shared shapes"] >= 20, seen


@FIXTURE_CASES
def test_records_carry_their_shapes_and_entries_on_fixture_grammars(text, sentences, bounds):
    from lfgmc import parse_grammar

    grammar = parse_grammar(text)
    seen = {}
    for tokens in sentences:
        _records_match_trees(grammar, tokens, SearchBounds(*bounds), seen)
    assert seen["records"] > 0


@pytest.mark.parametrize(
    "text,sentences",
    [
        (UNARY_CYCLE_GRAMMAR_TEXT, _strings("c", range(1, 8))),
        (PP_GRAMMAR_TEXT, _pp_sentences("tel", 5)),
        (PP_AGREE_GRAMMAR_TEXT, _pp_sentences("man", 5)),
        (
            embedding_grammar_text(["noun%d" % k for k in range(500)]),
            [
                "the noun1 said that".split() * d + "the noun499 slept".split()
                for d in range(5)
            ],
        ),
    ],
    ids=["unary-cycle", "pp", "pp-agree", "embed"],
)
def test_chart_matches_the_fixpoint_table_on_fixture_grammars(text, sentences):
    from lfgmc import parse_grammar

    grammar = parse_grammar(text)
    for tokens in sentences:
        assert _same_chart(grammar, tokens) > 0


def test_chart_matches_the_fixpoint_table_on_a_long_chain():
    # 41 clauses, 163 tokens: edges of every category start at every
    # clause and end at every later clause boundary they can reach
    from lfgmc import parse_grammar

    text, tokens = _long_chain(41)
    assert len(tokens) == 163
    assert _same_chart(parse_grammar(text), tokens) > 2000


def test_rule_without_elements_is_a_grammar_error():
    # parse_grammar rejects such a rule; a hand-built one cannot be built,
    # so no derivation or compilation ever meets it
    from lfgmc import parse_grammar
    from lfgmc.grammar import AnnotatedRule

    g = parse_grammar(UNARY_CYCLE_GRAMMAR_TEXT)
    with pytest.raises(GrammarError) as err:
        g.replace(rules=g.rules + (AnnotatedRule("S", ()),))
    assert str(err.value) == "rule for 'S' has an empty right-hand side"


def _long_chain(clauses):
    nouns = ["noun%d" % k for k in range(500)]
    tokens = []
    for k in range(clauses - 1):
        tokens += ["the", nouns[k % 499], "said", "that"]
    return embedding_grammar_text(nouns), tokens + ["the", nouns[-1], "slept"]


def test_enumerating_a_long_chain_keeps_its_memory_small():
    # 241 clauses, 963 tokens: the chart keeps only the ends of each
    # category at each start, and the enumerator works out a rule
    # element's live ends from them when a key needs them, so the peak,
    # chart included, is about 5 MB; a table per chart edge would not fit
    import tracemalloc

    from lfgmc import parse_grammar
    from lfgmc.search import _SkeletonEnumerator

    text, tokens = _long_chain(241)
    grammar = parse_grammar(text)
    tracemalloc.start()
    try:
        enum = _SkeletonEnumerator(grammar, tokens)
        derivations = enum.derive(grammar.start, 0, len(tokens), 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(derivations) == 1 and not enum.bound_hit and len(enum.memo) == 1926
    assert peak <= 8_000_000, peak


@pytest.mark.parametrize("clauses", [121, 241])
def test_long_embedding_chain_parses(tmp_path, clauses):
    # 121 clauses are 483 tokens, 241 are 963: the chart is built by
    # loops and the enumerator keeps its pending keys on an explicit
    # stack, so a derivation 363 (723) levels deep parses under the
    # default recursion limit, through the API, and for 121 clauses
    # through the CLI too
    from lfgmc import compile_grammar, parse_grammar

    text, tokens = _long_chain(clauses)
    assert len(tokens) == 4 * clauses - 1
    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    out = parse_sentence(theory, grammar, tokens, SearchBounds(100000, 5000, 10))
    assert len(out.models) == 1 and not out.bound_exceeded and not out.rejections
    assert check_parse(theory, out.models[0]).ok
    if clauses > 121:
        return

    path = tmp_path / "chain.lfg"
    path.write_text(text)
    proc = run_cli("parse", str(path), *tokens, "--max-tree", "100000", "--max-fnodes", "5000")
    assert proc.returncode == 0, proc.stderr
    assert "models: 1" in proc.stdout and not proc.stderr
