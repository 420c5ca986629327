import itertools
import json
import random

import pytest

from lfgmc import (
    CStructure,
    FStructure,
    Model,
    Signature,
    SignatureError,
    UnknownNodeError,
    ValidationReport,
    Violation,
    canonicalize,
    feature_image,
    model_from_json,
    model_from_text,
    model_to_json,
    model_to_text,
    tree_relatives,
    validate_model,
)
from lfgmc.errors import ModelFormatError

from generators import CORRUPTORS, rand_model
from conftest import PP_AGREE_GRAMMAR_TEXT, assert_frozen_record, build_fig_model
from oracles import (
    _reference_model_json,
    reference_canonicalize,
    reference_model_to_text,
    reference_validate_model,
)


def test_constructors_keep_the_containers_they_are_given():
    mother, daughters, label = {"n1": "n0"}, {"n0": ("n1",), "n1": ()}, {"n0": "S", "n1": "a"}
    nodes = frozenset(label)
    tree = CStructure(nodes, "n0", mother, daughters, label)
    assert tree.nodes is nodes and tree.mother is mother
    assert tree.daughters is daughters and tree.label is label
    assert CStructure.build("n0", daughters, label).label is label
    trans, atomval, final = {"f0": {}}, {"f0": "x"}, frozenset({"f0"})
    fstruct = FStructure(frozenset({"f0"}), "f0", trans, final, atomval)
    assert fstruct.trans is trans and fstruct.atomval is atomval and fstruct.final is final
    zoomin = {"n0": "f0"}
    assert Model(Signature({"S"}, {"x"}, set(), (), {"a"}), tree, fstruct, zoomin).zoomin is zoomin
    # a set or a list of nodes still becomes a frozenset
    assert type(CStructure(["n0", "n1"], "n0", mother, daughters, label).nodes) is frozenset
    assert type(FStructure({"f0"}, "f0", trans, ["f0"], atomval).final) is frozenset
    doc = json.loads(model_to_text(build_fig_model()))
    m = model_from_json(doc)
    assert m.zoomin is doc["zoomin"]
    assert all(m.fstruct.trans[nd["id"]] is nd["trans"] for nd in doc["fstruct"]["nodes"])


# --- the records: repr text as the dataclass versions printed it ------------

_SIG_TEXT = ("Signature(cats=frozenset({'S'}), atoms=frozenset({'sg'}), feats=frozenset({'num'}), "
             "gf=(('num',),), words=frozenset({'go'}))")
_TREE_TEXT = ("CStructure(nodes=frozenset({'n0'}), root='n0', mother={}, daughters={'n0': ()}, "
              "label={'n0': 'S'})")
_FSTRUCT_TEXT = ("FStructure(nodes=frozenset({'f0'}), initial='f0', trans={}, "
                 "final=frozenset({'f0'}), atomval={'f0': 'sg'})")
_VIOLATION_TEXT = "Violation(code='tree-cycle', message='daughter links form a cycle', nodes=('n0',))"


def _model_records():
    """(id, record built positionally, twin built by keywords, repr text,
    hashable), one-element sets throughout so that no set order shows."""
    sig = Signature({"S"}, ["sg"], ("num",), [["num"]], {"go"})
    tree = CStructure(["n0"], "n0", {}, {"n0": ()}, {"n0": "S"})
    fstruct = FStructure({"f0"}, "f0", {}, ["f0"], {"f0": "sg"})
    violation = Violation("tree-cycle", "daughter links form a cycle", ("n0",))
    return [
        ("Signature", sig, Signature(cats={"S"}, atoms={"sg"}, feats={"num"}, gf=(("num",),),
                                     words=frozenset({"go"})), _SIG_TEXT, True),
        ("Signature-defaults", Signature({"S"}, {"sg"}, {"num"}),
         Signature(cats={"S"}, atoms={"sg"}, feats={"num"}, gf=(), words=()),
         "Signature(cats=frozenset({'S'}), atoms=frozenset({'sg'}), feats=frozenset({'num'}), "
         "gf=(), words=frozenset())", True),
        ("CStructure", tree, CStructure(nodes=frozenset({"n0"}), root="n0", mother={},
                                        daughters={"n0": ()}, label={"n0": "S"}), _TREE_TEXT, False),
        ("FStructure", fstruct, FStructure(nodes=frozenset({"f0"}), initial="f0", trans={},
                                           final={"f0"}, atomval={"f0": "sg"}), _FSTRUCT_TEXT, False),
        ("FStructure-defaults", FStructure({"f0"}, "f0", {}),
         FStructure(nodes={"f0"}, initial="f0", trans={}, final=frozenset(), atomval={}),
         "FStructure(nodes=frozenset({'f0'}), initial='f0', trans={}, final=frozenset(), atomval={})",
         False),
        ("Model", Model(sig, tree, fstruct, {"n0": "f0"}),
         Model(sig=sig, cstruct=tree, fstruct=fstruct, zoomin={"n0": "f0"}),
         "Model(sig=%s, cstruct=%s, fstruct=%s, zoomin={'n0': 'f0'})"
         % (_SIG_TEXT, _TREE_TEXT, _FSTRUCT_TEXT), False),
        ("Violation", violation, Violation(code="tree-cycle", message="daughter links form a cycle",
                                           nodes=("n0",)), _VIOLATION_TEXT, True),
        ("Violation-defaults", Violation("fstruct-empty", "f-structure has no nodes"),
         Violation(code="fstruct-empty", message="f-structure has no nodes", nodes=()),
         "Violation(code='fstruct-empty', message='f-structure has no nodes', nodes=())", True),
        ("ValidationReport", ValidationReport((violation,)),
         ValidationReport(violations=(violation,)),
         "ValidationReport(violations=(%s,))" % _VIOLATION_TEXT, True),
        ("ValidationReport-defaults", ValidationReport(), ValidationReport(violations=()),
         "ValidationReport(violations=())", True),
        # a sequence field given as a list is held as a tuple
        ("Violation-list", Violation("tree-cycle", "daughter links form a cycle", ["n0"]),
         violation, _VIOLATION_TEXT, True),
        ("ValidationReport-list", ValidationReport([violation]), ValidationReport((violation,)),
         "ValidationReport(violations=(%s,))" % _VIOLATION_TEXT, True),
    ]


@pytest.mark.parametrize("case", _model_records(), ids=lambda case: case[0])
def test_model_records_print_compare_copy_and_stay_frozen(case):
    _, record, twin, text, hashable = case
    assert_frozen_record(record, twin, text, hashable)


def test_model_records_replace_through_their_constructors():
    built = {case[0]: case[1] for case in _model_records()}
    sig, tree, fstruct = built["Signature"], built["CStructure"], built["FStructure"]
    model, violation = built["Model"], built["Violation"]
    wider = sig.replace(words=["go", "went"], gf=[["num"], []])
    assert wider.words == {"go", "went"} and type(wider.words) is frozenset
    assert wider.gf == (("num",), ()) and sig.words == {"go"}
    assert tree.replace(nodes=["n0"]) == tree and type(tree.replace(nodes=["n0"]).nodes) is frozenset
    assert fstruct.replace(final=[]).final == frozenset() and fstruct.replace().atomval is fstruct.atomval
    # a new empty dict for each f-structure built without values
    assert FStructure({"f0"}, "f0", {}).atomval is not FStructure({"f0"}, "f0", {}).atomval
    assert model.replace(zoomin={}) == Model(sig, tree, fstruct, {})
    assert model.replace(sig=wider).sig is wider and model.replace(sig=wider).cstruct is tree
    assert str(violation.replace(nodes=())) == "tree-cycle: daughter links form a cycle"
    with pytest.raises(TypeError):
        violation.replace(node=())


def test_fig_model_is_valid(fig_model):
    assert validate_model(fig_model).ok


def test_tiny_model_is_valid(tiny_model):
    # one tree node, one all-atomic f-node, empty zoomin
    assert validate_model(tiny_model).ok


def test_valuation_on_nonfinal_reported():
    sig = Signature(cats={"S"}, atoms={"sg"}, feats={"subj"})
    c = CStructure.build("n0", {"n0": ()}, {"n0": "S"})
    f = FStructure(
        nodes=frozenset(["f0", "f1"]),
        initial="f0",
        trans={"f0": {"subj": "f1"}, "f1": {}},
        final=frozenset(),
        atomval={"f0": "sg"},  # valued although it has an outgoing subj
    )
    report = validate_model(Model(sig, c, f, {}))
    assert report.codes() == {"fstruct-valuation-nonfinal"}
    [violation] = list(report)
    assert violation.message == "valuation on non-final node"
    assert violation.nodes == ("f0",)


def test_validator_matches_reference_on_broken_models():
    # the full report (violations, order, messages, node tuples) equals
    # the reference validator's on every corruption and on every ordered
    # pair of corruptions, none skipped
    for name, m in _broken_models(35, 100, 14):
        assert validate_model(m) == reference_validate_model(m), name
    rng = random.Random(36)
    broken = 0
    for _ in range(12):
        m = canonicalize(rand_model(rng, max_tree=10, max_f=10))
        for (first, corrupt), (second, again) in itertools.product(CORRUPTORS, repeat=2):
            bad = corrupt(rng, m)
            bad = bad and again(rng, bad)
            if bad is not None:
                report = validate_model(bad)
                assert report == reference_validate_model(bad), (first, second)
                broken += not report.ok
    assert broken > 3000


def _near_misses(m):
    """Models that each break one condition a group of checks decides,
    and nothing else that group looks at."""
    c, f = m.cstruct, m.fstruct
    leaf = next(n for n in sorted(c.nodes) if not c.daughters[n])
    inner = c.mother[leaf]
    other = next(n for n in sorted(c.daughters) if c.daughters[n] and n != inner)
    final = sorted(f.final)[0]
    top = f.initial
    trees = {
        "repeated daughter": c.replace(daughters={**c.daughters, inner: c.daughters[inner] + (leaf,)}),
        "mother not the inverse": c.replace(mother={**c.mother, leaf: other}),
        "mother of a non-node": c.replace(mother={**c.mother, "x9": c.root}),
        "daughter not a node": c.replace(daughters={**c.daughters, inner: ("x9",)}),
        "label missing": c.replace(label={n: lab for n, lab in c.label.items() if n != leaf}),
        "internal word label": c.replace(label={**c.label, inner: "walks"}),
        "label outside the signature": c.replace(label={**c.label, leaf: "Zz"}),
        "root is a daughter": c.replace(daughters={**c.daughters, leaf: (c.root,)}),
        "cycle away from the root": CStructure.build(
            c.root, {**c.daughters, "x8": ("x9",), "x9": ("x8",)}, {**c.label, "x8": "S", "x9": "S"}
        ),
        "lone root is its own daughter": CStructure(
            frozenset([c.root]), c.root, {c.root: c.root}, {c.root: (c.root,)}, {c.root: "S"}
        ),
    }
    for name, tree in trees.items():
        yield name, m.replace(cstruct=tree)
    fstructs = {
        "atom outside the signature": f.replace(atomval={**f.atomval, final: "zz"}),
        "final without value": f.replace(atomval={w: a for w, a in f.atomval.items() if w != final}),
        "value on a non-final": f.replace(final=f.final - {final}),
        "final with transitions": f.replace(trans={**f.trans, final: {"num": top}}),
        "undeclared feature": f.replace(trans={**f.trans, top: {**f.trans[top], "zz": final}}),
        "transition to a non-node": f.replace(trans={**f.trans, top: {**f.trans[top], "obj": "x9"}}),
    }
    for name, fs in fstructs.items():
        yield name, m.replace(fstruct=fs)
    yield "zoomin to a missing node", m.replace(zoomin={**m.zoomin, c.root: "x9"})
    yield "zoomin from a non-tree id", m.replace(zoomin={**m.zoomin, "x9": top})


def test_validator_matches_reference_on_near_misses(fig_model):
    assert validate_model(fig_model).ok
    names = []
    for name, m in _near_misses(fig_model):
        report = validate_model(m)
        assert report == reference_validate_model(m), name
        assert not report.ok, name
        names.append(name)
    assert len(names) == 18


def test_all_nodes_lists_an_id_once():
    # an id in both domains is listed once, where the tree nodes are
    sig = Signature(cats={"S"}, atoms={"a"}, feats={"f"})
    c = CStructure.build("x", {}, {"x": "S"})
    f = FStructure(frozenset(["w", "x"]), "w", {"w": {"f": "x"}, "x": {}})
    m = Model(sig, c, f, {})
    assert m.all_nodes() == ["x", "w"]
    assert m.node_order == ("x", "w", "x")
    assert "duplicate-node-id" in validate_model(m).codes()


# --- feature_image -----------------------------------------------------


def test_feature_image_subj_num(fig_model):
    w = feature_image(fig_model.fstruct, "f0", ["subj", "num"], fig_model.sig)
    assert w == "f5"
    assert fig_model.fstruct.atomval[w] == "sing"


def test_feature_image_empty_path_is_identity(fig_model):
    for w in fig_model.fstruct.nodes:
        assert feature_image(fig_model.fstruct, w, [], fig_model.sig) == w


def test_feature_image_undefined_step(fig_model):
    # the running example has no obj transition anywhere; checked by
    # enumerating the initial node's outgoing features directly
    assert "obj" not in fig_model.fstruct.trans["f0"]
    sig = Signature(
        fig_model.sig.cats,
        fig_model.sig.atoms,
        fig_model.sig.feats | {"obj"},
        fig_model.sig.gf,
        fig_model.sig.words,
    )
    assert feature_image(fig_model.fstruct, "f0", ["obj"], sig) is None


def test_feature_image_unknown_feature(fig_model):
    with pytest.raises(SignatureError):
        feature_image(fig_model.fstruct, "f0", ["nosuchfeat"], fig_model.sig)


def test_feature_image_unknown_node(fig_model):
    with pytest.raises(UnknownNodeError):
        feature_image(fig_model.fstruct, "nope", [], fig_model.sig)


def test_feature_image_composition(fig_model):
    # image(w, p ++ q) == image(image(w, p), q) over all short fixture paths
    f, sig = fig_model.fstruct, fig_model.sig
    paths = [[]]
    frontier = [[]]
    for _ in range(3):
        nxt = []
        for p in frontier:
            for feat in sorted(sig.feats):
                nxt.append(p + [feat])
        paths.extend(nxt)
        frontier = nxt
    short = [p for p in paths if len(p) <= 2]
    for w in sorted(f.nodes):
        for p in short:
            for q in short:
                whole = feature_image(f, w, p + q, sig)
                mid = feature_image(f, w, p, sig)
                split = None if mid is None else feature_image(f, mid, q, sig)
                assert whole == split


def test_every_fnode_reachable_by_a_path(fig_model):
    # breadth-first search produces a witness path for every node, and
    # feature_image confirms each witness
    f, sig = fig_model.fstruct, fig_model.sig
    witness = {f.initial: []}
    queue = [f.initial]
    while queue:
        w = queue.pop(0)
        for feat, w2 in sorted(f.trans.get(w, {}).items()):
            if w2 not in witness:
                witness[w2] = witness[w] + [feat]
                queue.append(w2)
    assert set(witness) == set(f.nodes)
    for w, path in witness.items():
        assert feature_image(f, f.initial, path, sig) == w


# --- tree_relatives ----------------------------------------------------


def test_tree_relatives_np(fig_model):
    mother, daughters = tree_relatives(fig_model.cstruct, "n1")
    assert mother == "n0"
    assert daughters == ("n2", "n4")
    assert fig_model.cstruct.label["n2"] == "Det"
    assert fig_model.cstruct.label["n4"] == "N"


def test_tree_relatives_root(fig_model):
    mother, daughters = tree_relatives(fig_model.cstruct, "n0")
    assert mother is None
    assert daughters == ("n1", "n6")


def test_tree_relatives_v(fig_model):
    mother, daughters = tree_relatives(fig_model.cstruct, "n7")
    assert mother == "n6"
    assert daughters == ("n8",)
    assert fig_model.cstruct.label["n8"] == "walks"


def test_tree_relatives_unknown(fig_model):
    with pytest.raises(UnknownNodeError):
        tree_relatives(fig_model.cstruct, "nowhere")


# --- invariant mutations ------------------------------------------------


@pytest.mark.parametrize("expected,corrupt", CORRUPTORS, ids=[c[0] for c in CORRUPTORS])
def test_each_invariant_mutation_is_caught(expected, corrupt):
    rng = random.Random(99)
    hits = 0
    for _ in range(40):
        base = build_fig_model() if rng.random() < 0.5 else rand_model(rng)
        mutated = corrupt(rng, base)
        if mutated is None:
            continue
        hits += 1
        report = validate_model(mutated)
        assert not report.ok
        assert expected in report.codes(), (expected, sorted(report.codes()))
    assert hits > 0


def test_atom_plus_transitions_always_rejected():
    # whichever way a valued node with successors is encoded, the
    # validator refuses it
    rng = random.Random(5)
    for _ in range(200):
        m = rand_model(rng)
        sources = [w for w in sorted(m.fstruct.nodes) if m.fstruct.trans.get(w)]
        if not sources:
            continue
        w = rng.choice(sources)
        f = m.fstruct
        atomval = dict(f.atomval)
        atomval[w] = sorted(m.sig.atoms)[0]
        if rng.random() < 0.5:
            final = f.final | {w}
        else:
            final = f.final
        bad = Model(
            m.sig, m.cstruct, FStructure(f.nodes, f.initial, f.trans, final, atomval), m.zoomin
        )
        report = validate_model(bad)
        assert not report.ok
        assert report.codes() & {
            "fstruct-final-transition",
            "fstruct-valuation-nonfinal",
        }


def test_random_models_are_valid():
    rng = random.Random(7)
    for _ in range(300):
        m = rand_model(rng)
        report = validate_model(m)
        assert report.ok, sorted(report.codes())


# --- serialization ------------------------------------------------------


def test_serialization_round_trip_fixture(fig_model, tiny_model):
    for m in (fig_model, tiny_model):
        assert model_from_text(model_to_text(m)) == m


def test_serialization_round_trip_random():
    rng = random.Random(21)
    for _ in range(200):
        m = rand_model(rng)
        assert model_from_text(model_to_text(m)) == m


def test_serialization_deterministic(fig_model):
    assert model_to_text(fig_model) == model_to_text(build_fig_model())


def test_unknown_keys_rejected(fig_model):
    doc = json.loads(model_to_text(fig_model))
    doc["surprise"] = 1
    with pytest.raises(ModelFormatError):
        model_from_text(json.dumps(doc))
    doc = json.loads(model_to_text(fig_model))
    doc["tree"]["nodes"][0]["color"] = "red"
    with pytest.raises(ModelFormatError):
        model_from_text(json.dumps(doc))


def test_truncated_document_rejected(fig_model):
    text = model_to_text(fig_model)
    with pytest.raises(ModelFormatError):
        model_from_text(text[: len(text) // 2])


def test_reserved_signature_names_rejected(fig_model):
    doc = json.loads(model_to_text(fig_model))
    doc["signature"]["feats"].append("zoomin")
    with pytest.raises(ModelFormatError):
        model_from_text(json.dumps(doc))


def _broken_models(seed, count, max_nodes):
    """Random models, each followed by every corruption that applies to it."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rand_model(rng, max_tree=max_nodes, max_f=max_nodes)
        yield None, m
        for name, corrupt in CORRUPTORS:
            bad = corrupt(rng, m)
            if bad is not None:
                yield name, bad


def _odd_model():
    """Empty gf and words, a node without transitions or daughters, an
    unlabelled node, and ids and values that need JSON escapes."""
    sig = Signature(cats={"S", "X"}, atoms={"a"}, feats={"f"})
    c = CStructure.build(
        'r"1',
        {'r"1': ("k\\2", "\u00e9"), "k\\2": (), "\u00e9": ()},
        {'r"1': "S", "k\\2": "X"},
    )
    f = FStructure(
        frozenset(["w0", "w\n1"]), "w0", {"w0": {"f": "w\n1"}}, {"w\n1"}, {"w\n1": "a"}
    )
    return Model(sig, c, f, {})


def _escaped_words_model():
    words = ['say "hi"', "back\\slash", "caf\u00e9", "\u65e5\u672c", "tab\there", "\u2028", ""]
    sig = Signature(cats={"S"}, atoms={"a"}, feats={"f"}, gf=(("f",),), words=words)
    daughters = {"n0": tuple("n%d" % (k + 1) for k in range(len(words)))}
    label = {"n0": "S", **{"n%d" % (k + 1): w for k, w in enumerate(words)}}
    c = CStructure.build("n0", daughters, label)
    f = FStructure(frozenset(["f0"]), "f0", {"f0": {}})
    return Model(sig, c, f, {"n0": "f0"})


def test_model_text_matches_reference_on_broken_models():
    # up to 30 nodes a side: ids t10.., w10.. sort differently as plain
    # strings than by node_key, in the nodes lists and the trans and
    # zoomin keys
    for name, m in _broken_models(31, 150, 30):
        assert model_to_text(m) == reference_model_to_text(m), name
        if name is None:
            cm = canonicalize(m)
            assert model_to_text(cm) == reference_model_to_text(cm)


def test_model_text_matches_reference_on_odd_models(fig_model, tiny_model):
    big_words = Signature(
        cats={"S"}, atoms={"a"}, feats={"f"}, words=["w%d" % k for k in range(5000)]
    )
    for m in (
        fig_model,
        tiny_model,
        _odd_model(),
        _escaped_words_model(),
        Model(big_words, tiny_model.cstruct, tiny_model.fstruct, {}),
    ):
        text = model_to_text(m)
        assert text == reference_model_to_text(m)
        assert text.isascii()


def test_model_text_is_the_json_of_the_model(fig_model):
    for m in (fig_model, _odd_model(), _escaped_words_model()):
        assert model_to_json(m) == _reference_model_json(m)
    for name, m in _broken_models(37, 60, 30):
        assert model_to_json(m) == _reference_model_json(m), name


def _outcome(fn, m):
    try:
        return "ok", fn(m)
    except Exception as exc:  # the exception is the result compared
        return type(exc), exc.args


def _reached_twice(c):
    """The first tree node a preorder walk from the root reaches a second
    time, or None."""
    seen, stack = set(), [c.root]
    while stack:
        n = stack.pop()
        if n in seen:
            return n
        seen.add(n)
        stack.extend(reversed(c.daughters.get(n, ())))
    return None


def test_canonicalize_matches_reference():
    # renaming follows the daughter links from the root, so on a cyclic
    # tree the reference never terminates: there canonicalize must name
    # the node that closes the cycle (the corruptor links a leaf back to
    # the root).  A node reached twice without a cycle (a duplicate or
    # shared daughter) has no single name, so canonicalize names it where
    # the reference renames it on each visit.  Every other corruption is
    # compared with the reference.  Half the models are numbered in
    # preorder before they are broken, so the corruption hits trees
    # canonicalize would otherwise keep.  An initial f-node or a zoomin
    # source or target that names no node is named in a ModelFormatError,
    # where the reference raises a bare KeyError, and so is the first id of
    # the tree's tables that the root does not reach.
    ghosts = {
        "fstruct-initial-unknown": "'w_ghost' is not an f-node",
        "fstruct-empty": "'w_ghost' is not an f-node",
        "zoomin-domain": "'t_ghost' is not a tree node",
        "zoomin-range": "'w_ghost' is not an f-node",
    }
    cases = list(_broken_models(32, 100, 14))
    rng = random.Random(33)
    for _ in range(100):
        m = canonicalize(rand_model(rng, max_tree=14, max_f=14))
        cases.append((None, m))
        cases.extend((name, corrupt(rng, m)) for name, corrupt in CORRUPTORS)
    cases.append((None, _odd_model()))
    checked = cycles = shared = named = unreached = 0
    for name, m in cases:
        if m is None:
            continue
        got = _outcome(canonicalize, m)
        if name == "tree-cycle":
            message = "daughter links form a cycle through node %r" % m.cstruct.root
            assert got == (ModelFormatError, (message,))
            cycles += 1
            continue
        if name in ghosts:
            assert got == (ModelFormatError, (ghosts[name],)), name
            assert _outcome(reference_canonicalize, m)[0] is KeyError, name
            named += 1
            continue
        twice = _reached_twice(m.cstruct)
        if twice is not None:
            message = "tree node %r is reached twice from the root" % twice
            assert got == (ModelFormatError, (message,)), name
            shared += 1
            continue
        want = _outcome(reference_canonicalize, m)
        if name in ("tree-disconnected", "tree-root-unknown"):
            assert want[0] is KeyError, name
            # still checked against the reference: it names the id the reference raises for
            assert got == (ModelFormatError, ("%r is not reached from the root" % want[1][0],)), name
            unreached += 1
        else:
            assert got == want, name
        checked += 1
    assert checked > 3000 and cycles > 150 and shared > 150 and named == unreached * 2 == 4 * 200


def test_canonicalize_names_the_first_id_that_names_no_node(fig_model):
    # the initial f-node, the transition sources, the final f-nodes in
    # node order, the zoomin sources and then their targets
    m, f = fig_model, fig_model.fstruct

    def broken(initial=f.initial, trans=f.trans, final=f.final, zoomin=m.zoomin):
        fstruct = FStructure(f.nodes, initial, trans, final, f.atomval)
        return Model(m.sig, m.cstruct, fstruct, zoomin)

    cases = [
        (broken(initial="w9", trans={**f.trans, "w8": {}}), "'w9' is not an f-node"),
        (broken(trans={**f.trans, "w8": {}}, final=f.final | {"w7", "w6"}), "'w8' is not an f-node"),
        (broken(final=f.final | {"w7", "w10"}, zoomin={**m.zoomin, "n99": "w5"}),
         "'w7' is not an f-node"),
        (broken(zoomin={**m.zoomin, "n99": "w5"}), "'n99' is not a tree node"),
        (broken(zoomin={**m.zoomin, "n0": "w5"}), "'w5' is not an f-node"),
    ]
    for bad, message in cases:
        with pytest.raises(ModelFormatError) as err:
            canonicalize(bad)
        assert err.value.args == (message,)


def test_canonicalize_names_an_id_its_tables_use_that_it_cannot_name(fig_model):
    # a tree node the root does not reach, an atom on an id that is no
    # f-node, and a transition from an unreachable f-node to one that is
    # no f-node: the reference raises a bare KeyError on each
    m, c, f = fig_model, fig_model.cstruct, fig_model.fstruct
    stray = CStructure(c.nodes | {"n9"}, c.root, c.mother, {**c.daughters, "n9": ()},
                       {**c.label, "n9": "S"})
    cases = [
        (m.replace(cstruct=stray), "'n9' is not reached from the root"),
        (m.replace(fstruct=f.replace(atomval={**f.atomval, "w9": "sing"})), "'w9' is not an f-node"),
        (m.replace(fstruct=f.replace(nodes=f.nodes | {"w8"}, trans={**f.trans, "w8": {"num": "w9"}})),
         "'w9' is not an f-node"),
    ]
    for bad, message in cases:
        assert _outcome(reference_canonicalize, bad)[0] is KeyError
        assert _outcome(canonicalize, bad) == (ModelFormatError, (message,))


def test_canonicalize_names_the_node_closing_a_cycle():
    # a daughter of two nodes is named; a link back to an open node below
    # the root is reported there
    sig = Signature(cats={"S", "A"}, atoms={"x"}, feats={"f"})
    fs = FStructure({"w"}, "w", {"w": {}})
    shared = CStructure.build("r", {"r": ("a", "b"), "a": ("b",)}, {"r": "S", "a": "A"})
    with pytest.raises(ModelFormatError, match="^tree node 'b' is reached twice from the root$"):
        canonicalize(Model(sig, shared, fs, {}))
    cyclic = CStructure.build("r", {"r": ("a", "b"), "a": ("b",), "b": ("c",), "c": ("a",)}, {})
    with pytest.raises(ModelFormatError, match="cycle through node 'a'"):
        canonicalize(Model(sig, cyclic, fs, {}))


def test_canonicalize_keeps_a_preorder_tree(fig_model):
    once = canonicalize(fig_model)
    # a preorder tree with one stray id anywhere is renamed, or fails, as
    # the reference does
    c = once.cstruct
    stray = [
        CStructure(c.nodes | {"n99"}, c.root, c.mother, c.daughters, c.label),
        CStructure(c.nodes, c.root, c.mother, c.daughters, {**c.label, "n99": "S"}),
        CStructure(c.nodes, c.root, {**c.mother, "n1": "n99"}, c.daughters, c.label),
        CStructure(c.nodes, c.root, {**c.mother, "n99": "n0"}, c.daughters, c.label),
        CStructure(c.nodes, c.root, c.mother, {**c.daughters, "n99": ()}, c.label),
    ]
    for tree in stray:
        m = Model(once.sig, tree, once.fstruct, once.zoomin)
        want = _outcome(reference_canonicalize, m)
        if want[0] is KeyError:  # the id is named instead
            want = (ModelFormatError, ("%r is not reached from the root" % want[1][0],))
        assert _outcome(canonicalize, m) == want


def test_parsing_never_calls_json_dumps(monkeypatch, fig_grammar, fig_theory):
    from lfgmc import compile_grammar, parse_grammar, parse_sentence

    pp = parse_grammar(PP_AGREE_GRAMMAR_TEXT)
    pp_theory = compile_grammar(pp)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert len(parse_sentence(fig_theory, fig_grammar, ["a", "girl", "walks"]).models) == 1
    tokens = "the man saw the man with the man with the man".split()
    assert len(parse_sentence(pp_theory, pp, tokens).models) == 5


# --- canonicalization and immutability ----------------------------------


def test_canonicalize_idempotent(fig_model):
    once = canonicalize(fig_model)
    assert canonicalize(once) == once


def test_canonicalize_renames_preorder():
    c = CStructure.build(
        "rootX",
        {"rootX": ("kidB", "kidA"), "kidB": (), "kidA": ()},
        {"rootX": "S", "kidB": "NP", "kidA": "VP"},
    )
    f = FStructure(frozenset(["home"]), "home", {"home": {}})
    sig = Signature(cats={"S", "NP", "VP"}, atoms={"x"}, feats={"f"})
    m = canonicalize(Model(sig, c, f, {"rootX": "home"}))
    assert m.cstruct.root == "n0"
    assert m.cstruct.daughters["n0"] == ("n1", "n2")
    assert m.cstruct.label["n1"] == "NP"
    assert m.zoomin == {"n0": "f0"}


def test_structures_are_frozen(fig_model):
    with pytest.raises(AttributeError):
        fig_model.sig = None
    with pytest.raises(AttributeError):
        fig_model.cstruct.root = "n1"


def test_all_atomic_fstructure_only_as_singleton():
    # the initial node may itself be final exactly when it is the only
    # node: with company, reachability forces transitions out of it
    sig = Signature(cats={"S"}, atoms={"sg"}, feats={"num"})
    c = CStructure.build("n0", {"n0": ()}, {"n0": "S"})
    lonely = FStructure(
        frozenset(["f0"]), "f0", {"f0": {}}, frozenset(["f0"]), {"f0": "sg"}
    )
    assert validate_model(Model(sig, c, lonely, {})).ok
    crowded = FStructure(
        frozenset(["f0", "f1"]),
        "f0",
        {"f0": {}, "f1": {}},
        frozenset(["f0", "f1"]),
        {"f0": "sg", "f1": "sg"},
    )
    report = validate_model(Model(sig, c, crowded, {}))
    assert "fstruct-unreachable" in report.codes()


def test_node_order_is_numeric_friendly(fig_model):
    from lfgmc import node_key

    assert sorted(["n10", "n2", "n1"], key=node_key) == ["n1", "n2", "n10"]
    order = fig_model.all_nodes()
    assert order[:3] == ["n0", "n1", "n2"]
    assert order[9] == "f0"  # feature nodes follow the tree nodes
