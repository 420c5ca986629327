import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfgmc import (
    And,
    AtomLit,
    Bullet,
    CatLit,
    CSTRUCT,
    CStructure,
    Down,
    Feat,
    FStructure,
    Implies,
    Model,
    Not,
    Or,
    PathEq,
    Signature,
    SignatureError,
    TRUE,
    UnknownNodeError,
    Up,
    WordLit,
    Zoomin,
    eval_patheq,
    parse_formula,
    satisfies,
    valid,
    validate_names,
)

from lfgmc.formula import MAX_NESTING

from generators import CORRUPTORS, RAND_SIG, rand_formula, rand_model
from oracles import denotation, oracle_valid, pointwise_sat


def test_s_node_has_np_vp_daughters(fig_model):
    assert satisfies(fig_model, "n0", Bullet((CatLit("NP"), CatLit("VP"))))


def test_true_everywhere(fig_model):
    for n in fig_model.all_nodes():
        assert satisfies(fig_model, n, TRUE)


def test_np_subject_path_equality(fig_model, fig_sig):
    phi = parse_formula("up zoomin subj ~ zoomin", fig_sig)
    assert satisfies(fig_model, "n1", phi)


def test_feature_modality_false_at_tree_nodes(fig_model, fig_sig):
    phi = parse_formula("<subj> true", fig_sig)
    assert not satisfies(fig_model, "n6", phi)


def test_patheq_vp_shares_mother_image(fig_model):
    assert eval_patheq(fig_model, "n6", PathEq(("up",), (), (), ()))


def test_patheq_trivial_on_defined_zoomin(fig_model):
    spec = PathEq((), (), (), ())
    for n in ("n0", "n1", "n6", "n7"):
        assert eval_patheq(fig_model, n, spec)


def test_patheq_false_at_det(fig_model):
    # Det has no zoomin image of its own, so the right image is empty
    assert "n2" not in fig_model.zoomin
    assert not eval_patheq(fig_model, "n2", PathEq(("up",), (), (), ()))


def test_patheq_false_at_f_nodes(fig_model):
    assert not eval_patheq(fig_model, "f0", PathEq((), (), (), ()))


def test_valid_true(fig_model):
    assert valid(fig_model, TRUE) is None


def test_valid_licensing_axiom(fig_model, fig_theory):
    assert valid(fig_model, fig_theory.licensing) is None


def test_valid_counterexample_after_relabel(fig_model, fig_theory):
    # relabel the V node to N: the VP node loses its licenser
    c = fig_model.cstruct
    label = dict(c.label)
    label["n7"] = "N"
    from lfgmc import CStructure, Model

    broken = Model(
        fig_model.sig,
        CStructure(c.nodes, c.root, c.mother, c.daughters, label),
        fig_model.fstruct,
        fig_model.zoomin,
    )
    assert valid(broken, fig_theory.licensing) == "n6"


def test_licensing_with_only_np_rule_fails_at_s(fig_model, fig_sig):
    from lfgmc import AnnotatedRule, Implies, RuleElement, compile_rule

    rule = AnnotatedRule("NP", (RuleElement("Det"), RuleElement("N")))
    axiom = Implies(
        parse_formula("cstruct & down down true", fig_sig),
        compile_rule(rule, fig_sig),
    )
    assert valid(fig_model, axiom) == "n0"


def test_unknown_node_and_names(fig_model, fig_sig):
    with pytest.raises(UnknownNodeError):
        satisfies(fig_model, "nowhere", TRUE)
    with pytest.raises(SignatureError):
        satisfies(fig_model, "n0", CatLit("Nope"))
    with pytest.raises(SignatureError):
        valid(fig_model, Feat("nope", TRUE))


# --- sort separation and structural properties ---------------------------


def test_sort_separation():
    rng = random.Random(11)
    feats = sorted(RAND_SIG.feats)
    for _ in range(60):
        m = rand_model(rng)
        for t in m.cstruct.nodes:
            for feat in feats:
                assert not satisfies(m, t, Feat(feat, TRUE))
        for w in m.fstruct.nodes:
            assert not satisfies(m, w, Up(TRUE))
            assert not satisfies(m, w, Down(TRUE))
            assert not satisfies(m, w, Zoomin(TRUE))
            assert not satisfies(m, w, Bullet((TRUE,)))
            for cat in sorted(RAND_SIG.cats):
                assert not satisfies(m, w, CatLit(cat))


def test_atom_literals_false_off_final(fig_model):
    from lfgmc import AtomLit

    for n in fig_model.cstruct.nodes:
        assert not satisfies(fig_model, n, AtomLit("sing"))
    assert not satisfies(fig_model, "f0", AtomLit("sing"))  # non-final
    assert satisfies(fig_model, "f5", AtomLit("sing"))


def test_patheq_symmetry():
    rng = random.Random(13)
    for _ in range(200):
        m = rand_model(rng)
        f = rand_formula(rng, RAND_SIG, depth=1)
        if not isinstance(f, PathEq):
            continue
        flipped = PathEq(f.right_tree, f.right_feats, f.left_tree, f.left_feats)
        for n in m.all_nodes():
            assert satisfies(m, n, f) == satisfies(m, n, flipped)


def test_bullet_down_consistency():
    rng = random.Random(17)
    for _ in range(100):
        m = rand_model(rng)
        for k in (1, 2, 3):
            phi = Bullet((TRUE,) * k)
            for t in m.cstruct.nodes:
                if satisfies(m, t, phi):
                    assert satisfies(m, t, Down(TRUE))


# --- agreement with the denotation oracle --------------------------------


def test_oracle_agreement_sample():
    rng = random.Random(1234)
    for _ in range(400):
        m = rand_model(rng)
        phi = rand_formula(rng, RAND_SIG, depth=5)
        den = denotation(m, phi)
        for n in m.all_nodes():
            assert satisfies(m, n, phi) == (n in den), (phi, n)


def test_valid_matches_oracle():
    rng = random.Random(4321)
    for _ in range(300):
        m = rand_model(rng)
        phi = rand_formula(rng, RAND_SIG, depth=4)
        assert valid(m, phi) == oracle_valid(m, phi)


def test_valid_none_iff_denotation_full():
    rng = random.Random(99)
    for _ in range(200):
        m = rand_model(rng)
        phi = rand_formula(rng, RAND_SIG, depth=4)
        full = set(m.all_nodes())
        assert (valid(m, phi) is None) == (set(denotation(m, phi)) == full)


def test_licensing_antecedent_vacuous_off_phrase_nodes(fig_model, fig_theory):
    # the antecedent fires only at tree nodes with a grandchild: never at
    # preterminals, word leaves, or feature nodes
    antecedent = fig_theory.licensing.left
    firing = {n for n in fig_model.all_nodes() if satisfies(fig_model, n, antecedent)}
    assert firing == {"n0", "n1", "n6"}


def test_patheq_strictly_existential_when_zoomin_undefined(fig_model):
    # even the identity equality needs a witness: with no zoomin image
    # at the node, both sides denote the empty set and the equality fails
    assert not eval_patheq(fig_model, "n2", PathEq((), (), (), ()))
    assert not eval_patheq(fig_model, "n3", PathEq((), (), (), ()))


# --- malformed models: agreement with the pointwise reference -------------


def test_matches_pointwise_reference_on_malformed_models():
    # corrupted models point at ids outside both domains (dangling
    # daughters, zoomin and transition targets); the set-valued evaluator
    # must give exactly the one-node-at-a-time answer there too
    rng = random.Random(2718)
    checked = 0
    for _ in range(60):
        base = rand_model(rng)
        for _code, corrupt in CORRUPTORS:
            m = corrupt(rng, base)
            if m is None:
                continue
            phi = rand_formula(rng, RAND_SIG, depth=4)
            try:
                validate_names(phi, m.sig)
            except SignatureError:
                with pytest.raises(SignatureError):
                    valid(m, phi)
                continue
            failing = [n for n in m.all_nodes() if not pointwise_sat(m, n, phi)]
            assert valid(m, phi) == (failing[0] if failing else None), phi
            for n in m.all_nodes():
                assert satisfies(m, n, phi) == pointwise_sat(m, n, phi), (phi, n)
            checked += 1
    assert checked > 1000


def test_dangling_targets_are_evaluated_like_any_id(fig_model):
    c = fig_model.cstruct
    daughters = dict(c.daughters)
    daughters["n0"] = daughters["n0"] + ("t_ghost",)
    zoomin = dict(fig_model.zoomin)
    zoomin["n1"] = "w_ghost"
    m = Model(
        fig_model.sig,
        CStructure(c.nodes, c.root, c.mother, daughters, c.label),
        fig_model.fstruct,
        zoomin,
    )
    for phi in (
        Down(Not(Or(parse_formula("cstruct", m.sig), parse_formula("fstruct", m.sig)))),
        Bullet((CatLit("NP"), CatLit("VP"), TRUE)),
        Zoomin(TRUE),
        Zoomin(Not(parse_formula("fstruct", m.sig))),
    ):
        for n in m.all_nodes():
            assert satisfies(m, n, phi) == pointwise_sat(m, n, phi), (phi, n)
    assert satisfies(m, "n0", Bullet((CatLit("NP"), CatLit("VP"), TRUE)))
    assert satisfies(m, "n1", Zoomin(Not(parse_formula("fstruct", m.sig))))


# --- deep formulas and the name check --------------------------------------


def _fold(op, parts):
    f = parts[0]
    for p in parts[1:]:
        f = op(f, p)
    return f


def test_deep_chains_do_not_recurse():
    words = ["w%d" % k for k in range(3000)]
    sig = Signature(cats={"S"}, atoms={"a"}, feats={"f"}, words=words)
    m = Model(
        sig,
        CStructure.build("n0", {"n0": ("n1",)}, {"n0": "S", "n1": "w2999"}),
        FStructure({"f0"}, "f0", {"f0": {}}),
        {},
    )
    any_word = _fold(Or, [WordLit(w) for w in words])
    assert valid(m, any_word) == "n0"
    assert satisfies(m, "n1", any_word)
    assert not satisfies(m, "f0", any_word)
    no_word = _fold(And, [Not(WordLit(w)) for w in words])
    assert valid(m, no_word) == "n1"
    assert satisfies(m, "n0", no_word)
    assert valid(m, Implies(Bullet((TRUE,)), Bullet((any_word,)))) is None
    assert valid(m, _fold(Or, [CatLit("S")] + [WordLit(w) for w in words] + [TRUE])) is None


@pytest.mark.parametrize(
    "phi,message",
    [
        (Or(WordLit("zzz"), CatLit("Nope")), "unknown word form 'zzz'"),
        (And(Feat("nofeat", CatLit("Nope")), AtomLit("bad")), "unknown feature 'nofeat'"),
        (Implies(AtomLit("bad"), WordLit("zzz")), "unknown atom 'bad'"),
        (
            Bullet((TRUE, PathEq((), ("subj",), (), ("nope",)), CatLit("Nope"))),
            "unknown feature 'nope'",
        ),
        (Up(Not(And(CatLit("NP"), CatLit("Nope")))), "unknown category 'Nope'"),
    ],
)
def test_first_undeclared_name_in_preorder_is_reported(fig_model, phi, message):
    for check in (
        lambda: validate_names(phi, fig_model.sig),
        lambda: valid(fig_model, phi),
        lambda: satisfies(fig_model, "n0", phi),
    ):
        with pytest.raises(SignatureError) as info:
            check()
        assert str(info.value) == message


def test_name_check_follows_the_model_signature(fig_model):
    # the names of a formula are cached on it; the verdict is not
    narrow = fig_model.sig.replace(cats=fig_model.sig.cats - {"NP"})
    other = Model(narrow, fig_model.cstruct, fig_model.fstruct, fig_model.zoomin)
    phi = Implies(CatLit("NP"), Bullet((CatLit("Det"), CatLit("N"))))
    assert valid(fig_model, phi) is None
    with pytest.raises(SignatureError, match="unknown category 'NP'"):
        valid(other, phi)
    with pytest.raises(SignatureError, match="unknown category 'NP'"):
        satisfies(other, "n0", phi)
    assert valid(fig_model, phi) is None


# --- | chains, operand by operand --------------------------------------------


def _labelled(rng, label):
    """A formula that can only hold at tree nodes carrying ``label``."""
    lit = CatLit(label) if label in RAND_SIG.cats else WordLit(label)
    if rng.random() < 0.3:
        return lit
    parts = [rand_formula(rng, RAND_SIG, depth=1) for _ in range(rng.randint(0, 2))]
    parts.insert(rng.randint(0, len(parts)), lit)
    return _fold(And, parts)


def _rand_or_chain(rng, m):
    """A | chain mixing bare literals, literal-led & chains, & chains with
    a bullet whose arguments all have literal labels or not all, and
    plain operands.
    Labels repeat often, and most are copied from a node of ``m`` and
    its daughters, so that operands have nodes to match."""
    names = sorted(RAND_SIG.cats | RAND_SIG.words)
    tree = sorted(m.cstruct.nodes)

    def name(n):
        label = m.cstruct.label.get(n)
        return label if label in names and rng.random() < 0.8 else rng.choice(names)

    ops = []
    for _ in range(rng.randint(1, 10)):
        pick = rng.randrange(5)
        n = rng.choice(tree)
        if pick == 0:
            ops.append(rand_formula(rng, RAND_SIG, depth=2))
        elif pick == 1:
            ops.append(_labelled(rng, name(n)))
        else:
            args = tuple(
                _labelled(rng, name(d))
                if pick < 4 or rng.random() < 0.5
                else rand_formula(rng, RAND_SIG, depth=1)
                for d in m.cstruct.daughters.get(n, ()) or tree[:1]
            )
            ops.append(And(_labelled(rng, name(n)), Bullet(args)))
    return _fold(Or, ops)


def _dangle_and_unlabel(rng, m):
    """``m`` with a dangling daughter under one tree node and the label of
    another removed."""
    c = m.cstruct
    nodes = sorted(c.nodes)
    daughters = dict(c.daughters)
    host = rng.choice(nodes)
    daughters[host] = daughters.get(host, ()) + ("t_ghost",)
    label = dict(c.label)
    label.pop(rng.choice(nodes), None)
    return Model(m.sig, CStructure(c.nodes, c.root, c.mother, daughters, label), m.fstruct, m.zoomin)


def _label_outsiders(rng, m):
    """``m`` with labels on a dangling daughter and on a feature node."""
    c = _dangle_and_unlabel(rng, m).cstruct
    names = sorted(RAND_SIG.cats | RAND_SIG.words)
    label = dict(c.label)
    label["t_ghost"] = rng.choice(names)
    label[rng.choice(sorted(m.fstruct.nodes))] = rng.choice(names)
    return Model(m.sig, CStructure(c.nodes, c.root, c.mother, c.daughters, label), m.fstruct, m.zoomin)


def test_or_chains_match_pointwise_reference(monkeypatch):
    # each operand is tried on the nodes no earlier one holds at, also on
    # models with dangling daughters, unlabelled nodes and labelled outsiders;
    # every | plan built here counts the calls of its operands' plans
    from lfgmc import semantics

    calls = [0]

    def counted(p):
        def plan(m, dom):
            calls[0] += 1
            return p(m, dom)

        return plan

    monkeypatch.setitem(
        semantics._BUILD, Or, lambda f, plans: semantics._or_plan(f, list(map(counted, plans)))
    )
    rng = random.Random(5151)
    for _ in range(40):
        base = rand_model(rng)
        models = [base, _dangle_and_unlabel(rng, base), _label_outsiders(rng, base)]
        models += [corrupt(rng, base) for _code, corrupt in CORRUPTORS]
        for m in models:
            if m is None:
                continue
            phi = _rand_or_chain(rng, m)
            for f in (phi, Implies(CSTRUCT, phi), Down(phi), Not(phi)):
                try:
                    validate_names(f, m.sig)
                except SignatureError:
                    continue
                failing = [n for n in m.all_nodes() if not pointwise_sat(m, n, f)]
                assert valid(m, f) == (failing[0] if failing else None), f
                for n in m.all_nodes():
                    assert satisfies(m, n, f) == pointwise_sat(m, n, f), (f, n)
    assert calls[0] > 50000, calls


# --- the names walk --------------------------------------------------------


def test_names_walk_matches_reference(fig_theory):
    from conftest import PP_AGREE_GRAMMAR_TEXT
    from generators import embedding_grammar_text
    from lfgmc import compile_grammar, parse_grammar
    from oracles import reference_names, reference_validate_names

    def outcome(check, f, sig):
        try:
            check(f, sig)
        except SignatureError as exc:
            return str(exc)
        return None

    rng = random.Random(6161)
    fields = ("cats", "atoms", "feats", "words")
    def keep_two(ks):
        return {k: frozenset(rng.sample(sorted(getattr(RAND_SIG, k)), 2)) for k in ks}

    narrow = [RAND_SIG.replace(**keep_two(ks)) for ks in [(k,) for k in fields] + [fields] * 8]
    formulas = [rand_formula(rng, RAND_SIG, depth=rng.randint(0, 7)) for _ in range(1500)]
    for f in formulas:
        assert f.names == reference_names(f), f
        for sig in narrow:
            assert outcome(validate_names, f, sig) == outcome(reference_validate_names, f, sig)
    texts = [PP_AGREE_GRAMMAR_TEXT, embedding_grammar_text(["noun%d" % k for k in range(500)])]
    theories = [fig_theory] + [compile_grammar(parse_grammar(t)) for t in texts]
    for theory in theories:
        for _label, f in theory.labeled():
            assert f.names == reference_names(f)
            assert outcome(validate_names, f, narrow[-1]) == outcome(
                reference_validate_names, f, narrow[-1]
            )


def _shared_dag(rng, levels):
    """A formula of ``levels`` connectives over three random leaves of
    depth at most 1, each connective taking its operands from everything
    built so far, so that parts are shared by several parents."""
    pool = [rand_formula(rng, RAND_SIG, depth=1) for _ in range(3)]
    feats = sorted(RAND_SIG.feats)
    for _ in range(levels):
        a, b = rng.choice(pool), rng.choice(pool)
        pick = rng.randrange(6)
        if pick < 3:
            pool.append((And, Or, Implies)[pick](a, b))
        elif pick == 3:
            pool.append(Not(a))
        elif pick == 4:
            pool.append(Feat(rng.choice(feats), a))
        else:
            pool.append(Bullet((a, b)))
    return pool[-1]


def test_names_walk_visits_each_shared_part_once():
    # 61 distinct formulas and 2**60 paths from the top to the feature
    import time

    f = Feat("subj", TRUE)
    for _ in range(60):
        f = Implies(f, f)
    start = time.perf_counter()
    names = f.names
    assert time.perf_counter() - start < 1.0
    assert names == {"cats": frozenset(), "atoms": frozenset(), "words": frozenset(),
                     "feats": frozenset({"subj"})}


def test_names_walk_matches_reference_on_shared_parts():
    # each used name in turn is the one left undeclared; the error names the
    # first undeclared name in pre-order, as the walk that expands every
    # occurrence finds it
    from oracles import reference_names, reference_validate_names

    def outcome(check, f, sig):
        try:
            check(f, sig)
        except SignatureError as exc:
            return str(exc)
        return None

    rng = random.Random(6262)
    raised = 0
    for _ in range(300):
        f = _shared_dag(rng, rng.randint(1, 7))
        names = reference_names(f)
        assert f.names == names, f
        for kind, used in names.items():
            for name in sorted(used):
                sig = RAND_SIG.replace(**{kind: getattr(RAND_SIG, kind) - {name}})
                got = outcome(validate_names, f, sig)
                assert got == outcome(reference_validate_names, f, sig), f
                raised += got is not None
    assert raised > 300


# --- runs of prefix operators ------------------------------------------------


_PREFIXES = [Not, Up, Down, Zoomin, lambda f: Feat("subj", f), lambda f: Feat("pred", f)]


def test_prefix_runs_match_pointwise_reference():
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        base = rand_model(rng)
        for m in [base] + [corrupt(rng, base) for _code, corrupt in CORRUPTORS]:
            if m is None:
                continue
            phi = rand_formula(rng, RAND_SIG, depth=2)
            for make in (rng.choice(_PREFIXES) for _ in range(rng.choice([1, 2, 5, 12]))):
                phi = make(phi)
            try:
                validate_names(phi, m.sig)
            except SignatureError:
                continue
            failing = [n for n in m.all_nodes() if not pointwise_sat(m, n, phi)]
            assert valid(m, phi) == (failing[0] if failing else None), phi
            for n in m.all_nodes():
                assert satisfies(m, n, phi) == pointwise_sat(m, n, phi), (phi, n)
            checked += 1
    assert checked > 500


def _pointwise_holds(m, phi):
    return {n for n in m.all_nodes() if pointwise_sat(m, n, phi)}


@pytest.mark.parametrize("unit,reps", [("up down ", 3000), ("!up down ", 400)])
def test_long_prefix_runs_do_not_recurse(fig_model, unit, reps):
    # the truth set of unit^k true is eventually periodic in k; find the
    # period from pointwise_sat at depths it can evaluate, then check the
    # long run against the member of the cycle it lands on
    short = [
        _pointwise_holds(fig_model, parse_formula(unit * k + "true", fig_model.sig))
        for k in range(24)
    ]
    period = next(
        p for p in range(1, 5) if all(short[k] == short[k + p] for k in range(12, 24 - p))
    )
    want = short[12 + (reps - 12) % period]
    phi = parse_formula(unit * reps + "true", fig_model.sig)
    assert {n for n in fig_model.all_nodes() if satisfies(fig_model, n, phi)} == want
    failing = [n for n in fig_model.all_nodes() if n not in want]
    assert valid(fig_model, phi) == (failing[0] if failing else None)


def test_long_feature_chain():
    # a feature loop keeps the node set from emptying along the chain
    sig = Signature(cats={"S"}, atoms={"a"}, feats={"subj"})
    m = Model(
        sig,
        CStructure.build("n0", {}, {"n0": "S"}),
        FStructure({"f0"}, "f0", {"f0": {"subj": "f0"}}),
        {"n0": "f0"},
    )
    chain = TRUE
    for _ in range(5000):
        chain = Feat("subj", chain)
    assert valid(m, chain) == "n0"
    assert satisfies(m, "f0", chain)
    assert valid(m, Implies(CSTRUCT, Zoomin(chain))) is None


# --- one frame per nesting level ---------------------------------------------


def _stack_depth():
    """Frames on the stack below the caller's, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _within_frames(extra, fn):
    """``fn()`` with the recursion limit set ``extra`` frames above here."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + extra)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "text",
    ["true -> " * MAX_NESTING + "false", "!" * MAX_NESTING + "true", "<subj>" * MAX_NESTING + "true"],
    ids=["implies", "not", "feature"],
)
def test_deepest_formulas_take_one_frame_per_level(fig_model, text):
    # the deepest formulas parse_formula accepts, each false everywhere on
    # the fig model (an odd number of negations, no subj path that long);
    # a clause that spent two frames per level would need about twice this
    phi = parse_formula(text, fig_model.sig)
    budget = MAX_NESTING + 20
    assert _within_frames(budget, lambda: valid(fig_model, phi)) == fig_model.all_nodes()[0]
    for n in fig_model.all_nodes():
        assert not _within_frames(budget, lambda: satisfies(fig_model, n, phi)), n


@pytest.mark.parametrize("op", [Or, And])
def test_long_patheq_chains_build_plans_without_recursion(fig_model, op):
    # all hold at n1, none at feature nodes, and some at other tree nodes
    kinds = [
        PathEq(("up",), ("subj",), (), ()),
        PathEq((), (), ("up",), ("subj",)),
        PathEq((), ("spec",), (), ("spec",)),
        PathEq(("up",), (), ("up",), ()),
        PathEq(("up", "down"), (), ("up",), ()),
    ]
    # distinct objects, so that every operand gets a plan of its own
    chain = _fold(op, [copy.copy(kinds[k % len(kinds)]) for k in range(5000)])
    holds = {n: [pointwise_sat(fig_model, n, f) for f in kinds] for n in fig_model.all_nodes()}
    want = {n for n, got in holds.items() if (any if op is Or else all)(got)}
    failing = [n for n in fig_model.all_nodes() if n not in want]
    assert _within_frames(40, lambda: valid(fig_model, chain)) == (failing[0] if failing else None)
    for n in fig_model.all_nodes():
        assert _within_frames(40, lambda: satisfies(fig_model, n, chain)) == (n in want), n
    assert want and failing


# --- plans and pickling --------------------------------------------------------


def test_used_theory_round_trips_through_pickle():
    from conftest import FIG_GRAMMAR_TEXT
    from lfgmc import check_parse, compile_grammar, parse_grammar, parse_sentence

    grammar = parse_grammar(FIG_GRAMMAR_TEXT)
    theory = compile_grammar(grammar)
    (model,) = parse_sentence(theory, grammar, ["a", "girl", "walks"]).models
    broken = Model(model.sig, model.cstruct, model.fstruct, {})
    reports = [check_parse(theory, m) for m in (model, broken)]
    copy = pickle.loads(pickle.dumps(theory))
    assert copy == theory
    assert [check_parse(copy, m) for m in (model, broken)] == reports
    assert any(e.counterexample for e in reports[1])


def test_shared_parts_get_one_plan(monkeypatch):
    # a 60-level DAG with 61 distinct formulas and about 2**60 paths: a
    # walk that expanded a shared part once per parent would never end
    # (nor would evaluating it, or walking its names, so only the plans
    # are built)
    from lfgmc import TrueF, semantics

    built = []  # ids, since a failing assertion would print a formula of 2**60 paths

    def counted(build):
        def count(f, plans):
            built.append(id(f))
            return build(f, plans)

        return count

    builders = {t: counted(b) for t, b in semantics._BUILD.items()}
    monkeypatch.setattr(semantics, "_BUILD", builders)
    f = TrueF()  # a fresh object, so that no plan of it is cached yet
    for _ in range(60):
        f = Implies(f, f)
    semantics._plan(f)
    assert len(built) == len(set(built)) == 61


def test_each_formula_gets_its_parts_once(monkeypatch):
    # on the DAG above, each of the 61 formulas is taken apart once, though
    # every inner one is popped again after its parts are built
    from lfgmc import TrueF, semantics

    taken = []  # ids, since a failing assertion would print a formula of 2**60 paths
    parts = semantics._parts

    def counted(f):
        taken.append(id(f))
        return parts(f)

    monkeypatch.setattr(semantics, "_parts", counted)
    f = TrueF()
    for _ in range(60):
        f = Implies(f, f)
    semantics._plan(f)
    assert len(taken) == len(set(taken)) == 61


def test_a_non_formula_part_has_no_plan(fig_model):
    for f in (Not(1), And(TRUE, 1), Bullet((TRUE, None))):
        with pytest.raises(TypeError, match="not a formula"):
            valid(fig_model, f)


def test_least_failing_over_given_nodes(fig_model):
    from lfgmc.semantics import _least_failing

    # false at every node, so the first node given is the least failing
    nodes = list(reversed(fig_model.node_order))
    assert _least_failing(fig_model, Not(TRUE)) == fig_model.node_order[0]
    assert _least_failing(fig_model, Not(TRUE), nodes) == nodes[0]
    assert _least_failing(fig_model, CSTRUCT, nodes) == next(
        n for n in nodes if n in fig_model.fstruct.nodes
    )
    assert _least_failing(fig_model, TRUE, nodes) is None


# --- the walk of a path equality with up steps only ----------------------------


def _rand_patheq(rng, mixed):
    feats = sorted(RAND_SIG.feats)

    def side():
        steps = ("up", "down") if mixed else ("up",)
        tree = tuple(rng.choice(steps) for _ in range(rng.randint(0, 4)))
        return tree, tuple(rng.choice(feats) for _ in range(rng.randint(0, 3)))

    left = side()
    right = left if rng.random() < 0.5 else side()
    return PathEq(left[0], left[1], right[0], right[1])


def test_up_only_patheq_walk_matches_pointwise_reference():
    rng = random.Random(7373)
    checked = held = 0
    for _ in range(40):
        base = rand_model(rng)
        for m in [base] + [corrupt(rng, base) for _code, corrupt in CORRUPTORS]:
            if m is None:
                continue
            for k in range(8):
                phi = _rand_patheq(rng, mixed=k == 7)
                try:
                    validate_names(phi, m.sig)
                except SignatureError:
                    continue
                good = [n for n in m.all_nodes() if pointwise_sat(m, n, phi)]
                failing = [n for n in m.all_nodes() if n not in good]
                assert valid(m, phi) == (failing[0] if failing else None), phi
                for n in m.all_nodes():
                    assert satisfies(m, n, phi) == (n in good), (phi, n)
                checked += 1
                held += bool(good)
    assert checked > 5000 and held > 400, (checked, held)


def _two_node_model(mother, zoomin, trans, f_nodes=("f0", "f1")):
    sig = Signature(cats={"S", "A"}, atoms={"x"}, feats={"subj", "obj"})
    c = CStructure(frozenset({"n0", "n1"}), "n0", mother, {"n0": ("n1",), "n1": ()}, {"n0": "S", "n1": "A"})
    return Model(sig, c, FStructure(frozenset(f_nodes), "f0", trans), zoomin)


@pytest.mark.parametrize(
    "m,phi,where",
    [
        # the mother of n1 lies outside the tree but has a zoomin target
        (
            _two_node_model({"n1": "t_out"}, {"t_out": "f0", "n1": "f0"}, {"f0": {}, "f1": {}}),
            PathEq(("up",), (), (), ()),
            {"n1"},
        ),
        # n0 zooms into a node that is not an f-node, whose subj is f1
        (
            _two_node_model({"n1": "n0"}, {"n0": "w_ghost", "n1": "f1"}, {"w_ghost": {"subj": "f1"}}),
            PathEq(("up",), ("subj",), (), ()),
            {"n1"},
        ),
        # both sides reach an undeclared node through a transition
        (
            _two_node_model({"n1": "n0"}, {"n0": "f0", "n1": "f1"}, {"f0": {"subj": "w_out"}, "f1": {"obj": "w_out"}}),
            PathEq(("up",), ("subj",), (), ("obj",)),
            {"n1"},
        ),
    ],
    ids=["mother-outside-tree", "zoomin-not-f-node", "transition-undeclared"],
)
def test_up_only_patheq_on_dangling_links(m, phi, where):
    assert {n for n in m.all_nodes() if pointwise_sat(m, n, phi)} == where
    assert {n for n in m.all_nodes() if satisfies(m, n, phi)} == where
    assert valid(m, phi) == next(n for n in m.all_nodes() if n not in where)


# --- property: formula x model against the pointwise reference ----------------


def _agrees_with_pointwise_reference(m, phi):
    """``valid`` and ``satisfies`` give the reference answer at every node
    of ``m``, or both raise the SignatureError ``validate_names`` raises."""
    try:
        first = valid(m, phi)
        held = {n for n in m.all_nodes() if satisfies(m, n, phi)}
    except SignatureError as exc:
        with pytest.raises(SignatureError) as again:
            validate_names(phi, m.sig)
        assert str(again.value) == str(exc)
        return
    good = {n for n in m.all_nodes() if pointwise_sat(m, n, phi)}
    assert held == good, phi
    assert first == next((n for n in m.all_nodes() if n not in good), None), phi


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.randoms(use_true_random=False), st.sampled_from(["formula", "chain", "patheq"]))
def test_formulas_on_random_and_broken_models_match_pointwise_reference(rng, kind):
    base = rand_model(rng)
    if kind == "formula":
        phi = rand_formula(rng, RAND_SIG, depth=4)
    elif kind == "chain":
        phi = _rand_or_chain(rng, base)
    else:
        phi = _rand_patheq(rng, mixed=True)
    for m in [base] + [corrupt(rng, base) for _code, corrupt in CORRUPTORS]:
        if m is not None:
            _agrees_with_pointwise_reference(m, phi)
