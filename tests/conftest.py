from functools import partial

import pytest

from lfgmc import (
    CStructure,
    FStructure,
    Model,
    Signature,
    compile_grammar,
    parse_grammar,
)

# The running example: a three-rule grammar accepting "a girl walks".
FIG_GRAMMAR_TEXT = """
# demo grammar
signature {
  cat: S NP VP Det N V;
  atom: a sing pst girl walk;
  feat: subj spec num pred tense rel;
  gf: subj;
}
start S;
rule S -> NP {(up subj)=down} VP {up=down};
rule NP -> Det N;
rule VP -> V {up=down};
lex "a" Det {(up spec)=a; (up num)=sing};
lex "girl" N {(up pred)=girl(); (up num)=sing};
lex "walks" V {(up pred)=walk(subj); (up tense)=pst};
"""

# Same grammar with a transitive verb whose object can never be supplied,
# for exercising the completeness axiom.
DEVOUR_GRAMMAR_TEXT = """
signature {
  cat: S NP VP Det N V;
  atom: a sing pst girl walk devour;
  feat: subj obj spec num pred tense rel;
  gf: subj obj;
}
start S;
rule S -> NP {(up subj)=down} VP {up=down};
rule NP -> Det N;
rule VP -> V {up=down};
lex "a" Det {(up spec)=a; (up num)=sing};
lex "girl" N {(up pred)=girl(); (up num)=sing};
lex "walks" V {(up pred)=walk(subj); (up tense)=pst};
lex "devours" V {(up pred)=devour(subj, obj); (up tense)=pst};
"""

# A two-category grammar small enough for blind whole-space enumeration.
MICRO_GRAMMAR_TEXT = """
signature {
  cat: S A;
  atom: x;
  feat: f;
  gf: ;
}
start S;
rule S -> A {(up f)=x};
rule S -> A {up=down} A {(up f)=down};
lex "b" A;
"""

# A PP-attachment grammar with number agreement, shaped like the
# benchmark's agreement ladder: "man" is ambiguous between sg and pl.
PP_AGREE_GRAMMAR_TEXT = """
signature {
  cat: S NP VP PP Det N V P;
  atom: the man saw with sg pl;
  feat: subj obj adj spec pred rel num;
  gf: subj obj;
}
start S;
rule S -> NP {(up subj)=down} VP {up=down};
rule NP -> Det N;
rule NP -> NP {up=down} PP {(up adj)=down};
rule VP -> V {up=down} NP {(up obj)=down};
rule VP -> VP {up=down} PP {(up adj)=down};
rule PP -> P {up=down} NP {(up obj)=down};
lex "the" Det {(up spec)=the; (up num)=sg};
lex "man" N {(up pred)=man(); (up num)=sg};
lex "man" N {(up pred)=man(); (up num)=pl};
lex "saw" V {(up pred)=saw(subj, obj)};
lex "with" P {(up pred)=with(obj)};
"""

# The word "N" is also a category, so the signature overlaps: no model
# keeps the leaf "N" apart from the preterminal N, and the compiler
# refuses the grammar.
OVERLAP_GRAMMAR_TEXT = """
signature { cat: S N; atom: a; feat: f; gf: ; }
rule S -> N {up=down};
lex "N" N {(up f)=a};
"""

# Two-step grammatical functions: "relies" governs the object of its
# oblique and the oblique's case form, "waits" only the case form.  So
# "a girl relies on" has an oblique without an object (completeness
# fails), and "a girl waits on a book" an oblique object that the pred's
# own oblique does not govern (coherence fails).
OBL_GRAMMAR_TEXT = """
signature {
  cat: S NP VP PP Det N V P;
  atom: a girl book on rely wait;
  feat: subj obl obj pcase spec pred rel;
  gf: subj obl.obj obl.pcase;
}
start S;
rule S -> NP {(up subj)=down} VP {up=down};
rule NP -> Det N;
rule VP -> V {up=down};
rule VP -> V {up=down} PP {(up obl)=down};
rule PP -> P {up=down};
rule PP -> P {up=down} NP {(up obj)=down};
lex "a" Det {(up spec)=a};
lex "girl" N {(up pred)=girl()};
lex "book" N {(up pred)=book()};
lex "on" P {(up pcase)=on};
lex "relies" V {(up pred)=rely(subj, obl.obj, obl.pcase)};
lex "waits" V {(up pred)=wait(subj, obl.pcase)};
"""

# "V NP (P NP)^2" for the PP grammar above: Catalan(3) = 5 tree shapes,
# each with 2^4 lexical variants (four ambiguous nouns).
PP_SENTENCE = "the man saw the man with the man with the man".split()

# The same with three PPs, as at the top of the benchmark's agreement
# ladder: 14 shapes x 2^5 variants, 434 of which clash.
PP3_SENTENCE = PP_SENTENCE + "with the man".split()


#: A rule that cannot derive a span: N -> Adj N over "dog" used to set the
#: bound flag at --max-tree 8, where the one tree (8 nodes) fits.
BOUND_RULE_GRAMMAR_TEXT = """
signature { cat: S NP Det N Adj VP; atom: x; feat: f; gf: ; } start S;
rule S -> NP VP; rule NP -> Det N; rule N -> Adj N;
lex "the" Det; lex "dog" N; lex "big" Adj; lex "barks" VP;
"""

#: A dead partial: an A over the first "a" alone (A -> D -> E -> C) leaves
#: B two tokens it cannot span, and the cut of that A used to set the
#: bound flag at --max-tree 9, where the one tree (9 nodes) fits.
BOUND_PARTIAL_GRAMMAR_TEXT = """
signature { cat: S A B C D E; atom: x; feat: f; gf: ; } start S;
rule S -> A B; rule A -> C C; rule A -> D; rule D -> E; rule E -> C; rule B -> C;
lex "a" C;
"""


def build_fig_sig() -> Signature:
    return Signature(
        cats={"S", "NP", "VP", "Det", "N", "V"},
        atoms={"a", "sing", "pst", "girl", "walk"},
        feats={"subj", "spec", "num", "pred", "tense", "rel"},
        gf=(("subj",),),
        words={"a", "girl", "walks"},
    )


def build_fig_model() -> Model:
    """The analysis of "a girl walks", written out by hand.

    Tree: S(NP(Det(a), N(girl)), VP(V(walks))).  The S, VP and V nodes
    share the outer f-structure f0; the NP node maps to f2, which is
    both f0's subj and the subj inside f0's pred.  Det and N have no
    zoomin image of their own.
    """
    sig = build_fig_sig()
    cstruct = CStructure.build(
        root="n0",
        daughters={
            "n0": ("n1", "n6"),
            "n1": ("n2", "n4"),
            "n2": ("n3",),
            "n4": ("n5",),
            "n6": ("n7",),
            "n7": ("n8",),
        },
        label={
            "n0": "S",
            "n1": "NP",
            "n2": "Det",
            "n3": "a",
            "n4": "N",
            "n5": "girl",
            "n6": "VP",
            "n7": "V",
            "n8": "walks",
        },
    )
    fstruct = FStructure(
        nodes=frozenset(["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"]),
        initial="f0",
        trans={
            "f0": {"pred": "f1", "subj": "f2", "tense": "f3"},
            "f1": {"rel": "f4", "subj": "f2"},
            "f2": {"num": "f5", "pred": "f6", "spec": "f7"},
            "f3": {},
            "f4": {},
            "f5": {},
            "f6": {"rel": "f8"},
            "f7": {},
            "f8": {},
        },
        final=frozenset(["f3", "f4", "f5", "f7", "f8"]),
        atomval={"f3": "pst", "f4": "walk", "f5": "sing", "f7": "a", "f8": "girl"},
    )
    zoomin = {"n0": "f0", "n1": "f2", "n6": "f0", "n7": "f0"}
    return Model(sig, cstruct, fstruct, zoomin)


def lexical_unbuilt(theory) -> bool:
    """Whether ``theory`` still holds its lexical axiom unbuilt: ``lexical``
    was not read yet, and the ``partial`` that ``compile_grammar`` gives
    to build it is kept under ``_lexical``."""
    held = vars(theory)
    return "lexical" not in held and type(held["_lexical"]) is partial


def assert_frozen_record(record, twin, text: str, hashable: bool = True):
    """``record`` and ``twin`` (built apart, e.g. one positionally, one by
    keywords) print as ``text`` and are equal, as are the copies pickling
    and ``copy.copy`` make; they hash alike, or, when not ``hashable``,
    hashing raises ``TypeError`` on a dict field; and a field can be
    neither assigned nor deleted."""
    import copy
    import pickle
    from dataclasses import FrozenInstanceError

    assert repr(record) == repr(twin) == text
    assert record == twin and not record != twin and record is not twin
    assert record != text
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert copied == record and type(copied) is type(record) and repr(copied) == text
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    for name in [*record._fields, "extra"]:
        with pytest.raises(FrozenInstanceError, match="cannot assign to field %r" % name):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError, match="cannot delete field %r" % name):
            delattr(record, name)
    assert repr(record) == text


def build_tiny_model() -> Model:
    """One tree node, one (final) f-node, empty zoomin."""
    sig = Signature(cats={"S"}, atoms={"sg"}, feats={"num"})
    cstruct = CStructure.build(root="n0", daughters={"n0": ()}, label={"n0": "S"})
    fstruct = FStructure(
        nodes=frozenset(["f0"]),
        initial="f0",
        trans={"f0": {}},
        final=frozenset(["f0"]),
        atomval={"f0": "sg"},
    )
    return Model(sig, cstruct, fstruct, {})


@pytest.fixture(scope="session")
def fig_grammar():
    return parse_grammar(FIG_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def fig_theory(fig_grammar):
    return compile_grammar(fig_grammar)


@pytest.fixture(scope="session")
def fig_sig():
    return build_fig_sig()


@pytest.fixture()
def fig_model():
    return build_fig_model()


@pytest.fixture()
def tiny_model():
    return build_tiny_model()


@pytest.fixture(scope="session")
def devour_grammar():
    return parse_grammar(DEVOUR_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def devour_theory(devour_grammar):
    return compile_grammar(devour_grammar)


@pytest.fixture(scope="session")
def micro_grammar():
    return parse_grammar(MICRO_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def micro_theory(micro_grammar):
    return compile_grammar(micro_grammar)
