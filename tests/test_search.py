import itertools
import random
from dataclasses import replace

import pytest

from lfgmc import (
    GrammarError,
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
    DEVOUR_GRAMMAR_TEXT,
    FIG_GRAMMAR_TEXT,
    MICRO_GRAMMAR_TEXT,
    OVERLAP_GRAMMAR_TEXT,
    PP_AGREE_GRAMMAR_TEXT,
    PP_SENTENCE,
    build_fig_model,
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


def _no_names_walk(model, phi):
    raise AssertionError("valid (and its names walk) called for a covered model")


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
    monkeypatch.setattr(search, "valid", _no_names_walk)
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
    monkeypatch.setattr(search, "valid", _no_names_walk)
    assert [_rows(check_parse(theory, m)) for m, _failing in models] == want


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
    sig = replace(fig_model.sig, **{kind: getattr(fig_model.sig, kind) - {name}})
    with pytest.raises(SignatureError) as exc:
        check_parse(fig_theory, replace(fig_model, sig=sig))
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
    from lfgmc import search

    calls = []
    monkeypatch.setattr(search, "valid", lambda m, f: calls.append(f) or valid(m, f))
    assert check_parse(fig_theory, fig_model).ok and calls == []
    copy = replace(fig_theory)
    assert check_parse(copy, fig_model).ok
    assert calls == [f for _label, f in copy.labeled()]


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


def _count_validator_calls(monkeypatch):
    from lfgmc import search

    calls = []

    def counted(m):
        calls.append(m)
        return validate_model(m)

    monkeypatch.setattr(search, "validate_model", counted)
    return calls


def test_well_declared_grammars_are_not_validated(monkeypatch):
    # the search builds valid structure from such a grammar by
    # construction; only f-node reachability is checked, on the walk that
    # names the classes
    from lfgmc import compile_grammar, parse_grammar

    calls = _count_validator_calls(monkeypatch)
    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    assert theory.source is g
    out = _same_as_two_phase(theory, g, PP_SENTENCE, SearchBounds(64, 256, 64))
    assert len(out.models) == 5
    assert calls == []


def test_overlapping_signature_falls_back_to_the_validator(monkeypatch):
    from lfgmc import compile_grammar, parse_grammar

    calls = _count_validator_calls(monkeypatch)
    g = parse_grammar(OVERLAP_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    assert theory.source is None
    out = _same_as_two_phase(theory, g, ["N"], SearchBounds())
    assert [(r.reason, r.detail, r.node) for r in out.rejections] == [
        ("structure", "signature-overlap; tree-word-label-internal", None)
    ]
    assert len(calls) == 1


def test_undeclared_names_fall_back_to_the_validator(monkeypatch):
    # a hand-built grammar is not checked against its signature; its
    # entry writes a feature and an atom that are not declared
    from lfgmc import AnnotatedRule, AtomValueSchema, Grammar, LexEntry, PathEqSchema
    from lfgmc import RuleElement, Signature

    calls = _count_validator_calls(monkeypatch)
    sig = Signature(cats={"S", "A"}, atoms={"x"}, feats={"f"}, words={"b"})
    g = Grammar(
        sig,
        "S",
        (AnnotatedRule("S", (RuleElement("A", (PathEqSchema(),)),)),),
        (LexEntry("b", "A", (AtomValueSchema(("g",), "y"),)),),
    )
    theory = Theory(TrueF(), TrueF())
    assert theory.source is None
    out = _same_as_two_phase(theory, g, ["b"], SearchBounds())
    assert [(r.reason, r.detail, r.node) for r in out.rejections] == [
        ("structure", "atom-not-in-signature; feat-not-in-signature", None)
    ]
    assert len(calls) == 1


def _count_valid_calls(monkeypatch):
    """The formulas the search passes to ``valid``, in call order."""
    from lfgmc import search

    calls = []

    def counted(m, f):
        calls.append(f)
        return valid(m, f)

    monkeypatch.setattr(search, "valid", counted)
    return calls


def test_trusted_theory_skips_licensing_and_lexical(monkeypatch):
    # the search builds each survivor from the rules and entries whose
    # disjuncts the two axioms state, so it evaluates neither; every
    # model still satisfies the whole theory and every invariant
    from lfgmc import compile_grammar, parse_grammar

    calls = _count_valid_calls(monkeypatch)
    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    theory = compile_grammar(g)
    out = _same_as_two_phase(theory, g, PP_SENTENCE, SearchBounds(64, 256, 64))
    assert len(out.models) == 5
    assert calls and not [f for f in calls if f is theory.licensing or f is theory.lexical]
    # completeness and coherence, two functions each, on every survivor
    assert len(calls) == 4 * len(out.models)
    for m in out.models:
        assert check_parse(theory, m).ok
        assert reference_validate_model(m).ok


def test_replaced_theory_is_checked_in_full(monkeypatch):
    # a theory that replace() made from the compiled one has no source,
    # so its stronger licensing axiom is evaluated: no NP is built from
    # NP PP, which every attachment of a PP to an object NP breaks
    from lfgmc import And, compile_grammar, parse_formula, parse_grammar

    g = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    compiled = compile_grammar(g)
    extra = parse_formula("!(NP & bullet(NP, PP))", g.sig)
    theory = replace(compiled, licensing=And(compiled.licensing, extra))
    assert theory.source is None
    calls = _count_validator_calls(monkeypatch)
    out = _same_as_two_phase(theory, g, PP_SENTENCE, SearchBounds(64, 256, 64))
    assert len(out.models) == 1
    formula = [r for r in out.rejections if r.reason == "formula"]
    assert len(formula) == 4 and {r.detail for r in formula} == {"licensing"}
    assert len(calls) == 5


def test_theory_of_an_equal_grammar_is_checked_in_full(monkeypatch):
    # trust needs the very grammar object the theory was compiled from;
    # an equal one parsed separately gets every label, with the same output
    from lfgmc import compile_grammar, parse_grammar

    g, other = parse_grammar(PP_AGREE_GRAMMAR_TEXT), parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    assert g == other and g is not other
    bounds = SearchBounds(64, 256, 64)
    trusted = parse_sentence(compile_grammar(g), g, PP_SENTENCE, bounds)
    theory = compile_grammar(other)
    calls = _count_valid_calls(monkeypatch)
    out = _same_as_two_phase(theory, g, PP_SENTENCE, bounds)
    assert [model_to_text(m) for m in out.models] == [model_to_text(m) for m in trusted.models]
    assert out.rejections == trusted.rejections
    assert out.bound_exceeded == trusted.bound_exceeded
    assert sum(f is theory.licensing for f in calls) == len(out.models)
    assert sum(f is theory.lexical for f in calls) == len(out.models)


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


def test_lexical_axiom_work_does_not_grow_with_the_lexicon():
    # both lexical disjunctions are indexed by tree label, so each
    # preterminal only tries the entries of its own word and each leaf its
    # own word form, and an operand gets its plan only when it is tried:
    # count the operands that have one
    from lfgmc import compile_grammar, parse_grammar, semantics
    from lfgmc.formula import Or, _spine

    counts = []
    for size in (500, 5000):
        nouns = ["noun%d" % k for k in range(size)]
        g = parse_grammar(embedding_grammar_text(nouns))
        tokens = []
        for noun in nouns[1:size:size // 4][:3]:
            tokens += ["the", noun, "said", "that"]
        tokens += ["the", nouns[-1], "slept"]
        (model,) = parse_sentence(compile_grammar(g), g, tokens, SearchBounds(100, 100, 10)).models
        lexical = compile_grammar(g).lexical  # no plan built yet
        chains = [lexical.right, lexical.left.right.args[0]]  # entries, word forms
        assert all(type(chain) is Or for chain in chains)
        assert semantics.valid(model, lexical) is None
        counts.append(sum(op._plan is not None for chain in chains for op in _spine(chain)))
    assert 0 < counts[0] == counts[1] < 200, counts


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


def test_shape_sharing_matches_two_phase_on_random_grammars():
    from lfgmc import compile_grammar, parse_grammar
    from lfgmc.search import _shape, _SkeletonEnumerator

    rng = random.Random(2024)
    seen = {"models": 0, "bound": 0, "shared shapes": 0}
    for _ in range(2000):
        grammar = parse_grammar(rand_grammar(rng))
        theory = compile_grammar(grammar)
        tokens = [rng.choice("uvw") for _ in range(rng.randint(1, 3))]
        bounds = SearchBounds(
            rng.choice((5, 7, 9, 12)), rng.choice((2, 4, 8, 80)), rng.choice((1, 2, 10))
        )
        out = _same_as_two_phase(theory, grammar, tokens, bounds)
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
        keys = [_shape(d)[0] for d, _ in derivations]
        seen["shared shapes"] += len(keys) - len(set(keys))
    # the corpus reaches every kind of outcome: clashes between atoms, of
    # an atom with transitions and at a root preterminal, structure and
    # formula rejections (also at f-nodes), models, bounds and lexical
    # variants of one shape
    for kind in ("distinct", "atom", "lexical", "structure", "formula", "f-node counterexample"):
        assert seen.get(kind, 0) >= 20, seen
    assert min(seen.values()) >= 20, seen


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
    # without the axiom the model survives: in its canonical names the
    # least failing node is Y's f-structure
    (m,) = parse_sentence(replace(theory, completeness=()), g, ["u", "v"]).models
    assert (m.zoomin["n1"], m.zoomin["n4"]) == ("f2", "f1")
    assert valid(m, theory.completeness[0]) == "f1"


def _strings(words, lengths):
    return [list(t) for k in lengths for t in itertools.product(words.split(), repeat=k)]


def _pp_sentences(noun, count=4):
    return ["the man saw the man".split() + ["with", "the", noun] * k for k in range(count)]


@pytest.mark.parametrize(
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
    ],
    ids=["fig", "devour", "micro", "unary-cycle", "pp", "pp-agree", "pp-agree-capped",
         "embed"],
)
def test_shape_sharing_matches_two_phase_on_fixture_grammars(text, sentences, bounds):
    from lfgmc import compile_grammar, parse_grammar

    grammar = parse_grammar(text)
    theory = compile_grammar(grammar)
    for tokens in sentences:
        _same_as_two_phase(theory, grammar, tokens, SearchBounds(*bounds))


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
    from lfgmc.search import _build_tree, _shape, _solve_shape

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
    key, entries = _shape(deriv)
    assert len(key) == 5001 and entries == (g.lexicon[0],)
    cstruct, phrases, preterminals = _build_tree(deriv)
    assert len(cstruct.nodes) == 5002
    assert cstruct.label["n5000"] == "S" and cstruct.label["n5001"] == "u"
    assert preterminals == ["n5000"]
    # phrases in postorder: the lowest first
    assert [n for n, _, _ in phrases] == ["n%d" % k for k in range(4999, -1, -1)]
    [(members, uf)] = _solve_shape(cstruct, phrases, preterminals, [(0, entries)])
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
        assert [(_tree(d), c) for d, c in derivs] == [
            (_tree(d), c) for d, c in want.derive(grammar.start, 0, len(tokens), budget)
        ]
        assert got.bound_hit == want.bound_hit
        assert set(got.memo) == set(want.memo)
        seen["derivations"] += len(derivs)
        seen["bound"] += got.bound_hit
    assert seen["derivations"] > 1000 and seen["bound"] > 20, seen


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
        replace(g, rules=g.rules + (AnnotatedRule("S", ()),))
    assert str(err.value) == "rule for 'S' has an empty right-hand side"


def _long_chain(clauses):
    nouns = ["noun%d" % k for k in range(500)]
    tokens = []
    for k in range(clauses - 1):
        tokens += ["the", nouns[k % 499], "said", "that"]
    return embedding_grammar_text(nouns), tokens + ["the", nouns[-1], "slept"]


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
