import hashlib
import json
import os
import subprocess
import sys

import pytest

from lfgmc import model_to_text, parse_formula

from conftest import (
    BOUND_PARTIAL_GRAMMAR_TEXT,
    BOUND_RULE_GRAMMAR_TEXT,
    DEVOUR_GRAMMAR_TEXT,
    FIG_GRAMMAR_TEXT,
    OVERLAP_GRAMMAR_TEXT,
    PP3_SENTENCE,
    PP_AGREE_GRAMMAR_TEXT,
    PP_SENTENCE,
    build_fig_model,
)
from generators import embedding_grammar_text

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("LFGMC_COLOR", "0")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lfgmc", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture()
def fig_files(tmp_path):
    grammar = tmp_path / "fig.lfg"
    grammar.write_text(FIG_GRAMMAR_TEXT)
    model = tmp_path / "fig.json"
    model.write_text(model_to_text(build_fig_model()))
    return grammar, model


def test_validate_fixture_ok(fig_files):
    _, model = fig_files
    proc = run_cli("validate", str(model))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_validate_broken_model(fig_files, tmp_path):
    _, model = fig_files
    doc = json.loads(model.read_text())
    for node in doc["fstruct"]["nodes"]:
        if node["id"] == "f0":
            node["atom"] = "pst"  # valued although it has transitions
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    assert "fstruct-final-transition" in proc.stdout
    assert "f0" in proc.stdout


def test_validate_truncated_file(fig_files, tmp_path):
    _, model = fig_files
    broken = tmp_path / "trunc.json"
    broken.write_text(model.read_text()[:40])
    proc = run_cli("validate", str(broken))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_check_grammar_on_fixture(fig_files):
    grammar, model = fig_files
    proc = run_cli("check", str(model), "--grammar", str(grammar))
    assert proc.returncode == 0
    assert "licensing: valid" in proc.stdout
    assert "completeness[subj]: valid" in proc.stdout


def test_check_false_reports_least_node(fig_files):
    _, model = fig_files
    proc = run_cli("check", str(model), "--formula", "false")
    assert proc.returncode == 1
    assert "counterexample at n0" in proc.stdout


def test_check_completeness_formula(fig_files):
    _, model = fig_files
    proc = run_cli(
        "check", str(model), "--formula", "<pred> <subj> true -> <subj> true"
    )
    assert proc.returncode == 0


def test_check_name_error_is_input_error(fig_files):
    _, model = fig_files
    proc = run_cli("check", str(model), "--formula", "NoSuchCat")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "formula,code",
    [
        ("(" * 165 + "true" + ")" * 165, 0),
        ("!" * 991 + "true", 1),
        ("true -> " * 991 + "false", 1),
        ("(" * 166 + "true" + ")" * 166, 2),
        ("(" * 3000 + "true" + ")" * 3000, 2),
        ("!" * 3000 + "true", 2),
    ],
    ids=["parens-165", "not-991", "implies-991", "parens-166", "parens-3000", "not-3000"],
)
def test_check_deeply_nested_formula(fig_files, formula, code):
    _, model = fig_files
    proc = run_cli("check", str(model), "--formula", formula)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "nested too deeply" in proc.stderr and "Traceback" not in proc.stderr
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("command", ["validate", "check"])
def test_deeply_nested_model_json_is_input_error(tmp_path, command):
    # the JSON decoder recurses per bracket; a document deeper than the
    # recursion limit is malformed input, not a fault of the program
    model = tmp_path / "deep.json"
    model.write_text("[" * 100000 + "]" * 100000)
    args = ["--formula", "true"] if command == "check" else []
    proc = run_cli(command, str(model), *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: not valid JSON: nested too deeply\n"
    assert proc.stdout == ""


def test_closed_stdout_has_its_own_exit_code(tmp_path):
    # about 400 KB of output, more than a pipe holds, so the writer is
    # still blocked when the reader closes its end
    grammar = tmp_path / "big.lfg"
    grammar.write_text(embedding_grammar_text(["noun%d" % k for k in range(5000)]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen(
        [sys.executable, "-m", "lfgmc", "compile", str(grammar)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(20) == b"licensing:\n  ((cstru"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 141
    assert err == ""  # neither "internal error" nor a traceback


def test_closed_stderr_keeps_the_input_exit_code(tmp_path):
    # the read end is closed before the child starts, so its error line
    # always meets a closed pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lfgmc", "parse", str(tmp_path / "nonexist.lfg"), "a"],
            stdout=subprocess.DEVNULL,
            stderr=write_end,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2


def test_parse_fig_sentence(fig_files):
    grammar, _ = fig_files
    proc = run_cli("parse", str(grammar), "a", "girl", "walks")
    assert proc.returncode == 0
    assert "models: 1" in proc.stdout


def test_parse_unparseable_order(fig_files):
    grammar, _ = fig_files
    proc = run_cli("parse", str(grammar), "walks", "girl", "a")
    assert proc.returncode == 1
    assert "models: 0" in proc.stdout


def test_parse_tiny_bounds_exit_3(fig_files):
    grammar, _ = fig_files
    proc = run_cli("parse", str(grammar), "a", "girl", "walks", "--max-tree", "3")
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "text,tokens,size",
    [(BOUND_RULE_GRAMMAR_TEXT, "the dog barks", 8), (BOUND_PARTIAL_GRAMMAR_TEXT, "a a a", 9)],
    ids=["rule-cannot-derive", "dead-partial"],
)
def test_parse_exits_3_only_when_a_tree_is_cut(tmp_path, text, tokens, size):
    grammar = tmp_path / "g.lfg"
    grammar.write_text(text)
    for bound, code in ((size - 1, 3), (size, 0)):
        proc = run_cli("parse", str(grammar), *tokens.split(), "--max-tree", str(bound))
        assert proc.returncode == code, proc.stderr
        assert ("search bounds exceeded" in proc.stdout + proc.stderr) == (code == 3)
        assert proc.stdout.startswith("models: %d\n" % (code == 0))


def test_parse_unknown_token(fig_files):
    grammar, _ = fig_files
    proc = run_cli("parse", str(grammar), "a", "girl", "sleeps")
    assert proc.returncode == 2


def test_parse_devour_reports_completeness(tmp_path):
    grammar = tmp_path / "devour.lfg"
    grammar.write_text(DEVOUR_GRAMMAR_TEXT)
    proc = run_cli("parse", str(grammar), "a", "girl", "devours")
    assert proc.returncode == 1
    assert "completeness[obj]" in proc.stdout


def test_overlapping_signature_is_an_input_error(fig_files, tmp_path):
    # a grammar whose signature has violations has no models, so the
    # compiler refuses it and every command that compiles it exits 2
    _, model = fig_files
    grammar = tmp_path / "overlap.lfg"
    grammar.write_text(OVERLAP_GRAMMAR_TEXT)
    for args in (["parse", str(grammar), "N"], ["compile", str(grammar)],
                 ["check", str(model), "--grammar", str(grammar)]):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert proc.stderr == "error: names used as both word and cat: N\n", args


def test_parse_pipe_into_validate_and_check(fig_files, tmp_path):
    grammar, _ = fig_files
    out_dir = tmp_path / "models"
    proc = run_cli("parse", str(grammar), "a", "girl", "walks", "--out", str(out_dir))
    assert proc.returncode == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["model-001.json"]
    emitted = out_dir / files[0]
    assert run_cli("validate", str(emitted)).returncode == 0
    assert run_cli("check", str(emitted), "--grammar", str(grammar)).returncode == 0


@pytest.mark.parametrize(
    "out, written",
    [("afile", "afile"), ("afile/models", "afile/models"), ("taken", "taken")],
    ids=["a-file", "under-a-file", "model-path-a-directory"],
)
def test_parse_out_path_that_cannot_be_written(fig_files, tmp_path, out, written):
    grammar, _ = fig_files
    (tmp_path / "afile").write_text("")
    (tmp_path / "taken" / "model-001.json").mkdir(parents=True)
    proc = run_cli("parse", str(grammar), "a", "girl", "walks", "--out", str(tmp_path / out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write %s: " % (tmp_path / written))
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_parse_json_format(fig_files):
    grammar, _ = fig_files
    proc = run_cli("parse", str(grammar), "a", "girl", "walks", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["count"] == 1
    assert doc["bound_exceeded"] is False
    assert doc["models"][0]["tree"]["root"] == "n0"


def test_compile_sections_and_reparse(fig_files, fig_grammar):
    grammar, _ = fig_files
    proc = run_cli("compile", str(grammar))
    assert proc.returncode == 0
    for section in ("licensing:", "lexical:", "completeness:", "coherence:"):
        assert section in proc.stdout
    # every printed formula re-parses
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.endswith(":") or not line:
            continue
        if line.startswith("["):
            line = line.split("] ", 1)[1]
        parse_formula(line, fig_grammar.sig)


def test_compile_contains_s_rule_disjunct(fig_files, fig_grammar):
    from lfgmc import And, Bullet, CatLit, PathEq

    grammar, _ = fig_files
    proc = run_cli("compile", str(grammar), "--format", "json")
    doc = json.loads(proc.stdout)
    licensing = parse_formula(doc["licensing"], fig_grammar.sig)
    from lfgmc import Or

    disjuncts = []
    f = licensing.right
    while isinstance(f, Or):
        disjuncts.append(f.right)
        f = f.left
    disjuncts.append(f)
    want = And(
        CatLit("S"),
        Bullet(
            (
                And(CatLit("NP"), PathEq(("up",), ("subj",), (), ())),
                And(CatLit("VP"), PathEq(("up",), (), (), ())),
            )
        ),
    )
    assert want in disjuncts


def test_compile_empty_gf_sections(tmp_path):
    grammar = tmp_path / "micro.lfg"
    from conftest import MICRO_GRAMMAR_TEXT

    grammar.write_text(MICRO_GRAMMAR_TEXT)
    proc = run_cli("compile", str(grammar))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    idx = lines.index("completeness:")
    assert lines[idx + 1] == "coherence:"


def test_compile_syntax_error_position(tmp_path):
    grammar = tmp_path / "broken.lfg"
    grammar.write_text("signature { cat: S; atom: x; feat: f; }\nrule S ->\n")
    proc = run_cli("compile", str(grammar))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_outputs_deterministic(fig_files):
    grammar, model = fig_files
    first = run_cli("parse", str(grammar), "a", "girl", "walks", "--format", "json")
    second = run_cli("parse", str(grammar), "a", "girl", "walks", "--format", "json")
    assert first.stdout == second.stdout
    a = run_cli("check", str(model), "--grammar", str(grammar))
    b = run_cli("check", str(model), "--grammar", str(grammar))
    assert a.stdout == b.stdout


def test_no_ansi_color_when_disabled(fig_files):
    grammar, model = fig_files
    proc = run_cli("check", str(model), "--grammar", str(grammar), env_extra={"LFGMC_COLOR": "0"})
    assert "\x1b[" not in proc.stdout


FIG_COMPILED = """\
licensing:
  ((cstruct & down (down true)) -> ((S & bullet((NP & (up zoomin subj ~ zoomin)), \
(VP & (up zoomin ~ zoomin)))) | (NP & bullet(Det, N)) | (VP & bullet((V & (up zoomin ~ zoomin))))))
lexical:
  ((cstruct & bullet(("a" | "girl" | "walks"))) -> ((Det & bullet("a") & up (zoomin \
(<spec> a)) & up (zoomin (<num> sing))) | (N & bullet("girl") & up (zoomin (<pred> \
(<rel> girl))) & up (zoomin (<num> sing))) | (V & bullet("walks") & up (zoomin (<pred> \
((<rel> walk & <subj> true)))) & up (zoomin (<tense> pst)))))
completeness:
  [subj] (<pred> (<subj> true) -> <subj> true)
coherence:
  [subj] ((<subj> true & <pred> true) -> <pred> (<subj> true))
"""


@pytest.mark.parametrize(
    "text,fmt,sha256",
    [
        (FIG_GRAMMAR_TEXT, "json",
         "32889ab8348c6aa5ac0eca51f49eb15f42c64e265bde5b8601edb9ece877dafc"),
        (PP_AGREE_GRAMMAR_TEXT, "plain",
         "5404cb8891496bc58ea69732f74b21291a456ac7b9a6483741e89b2fe06c452e"),
        (PP_AGREE_GRAMMAR_TEXT, "json",
         "d1ca768e2dfa7859f1dd429ba7380db6b93795ef0bcf1915f78301416303f26e"),
    ],
)
def test_compile_output_is_pinned(tmp_path, text, fmt, sha256):
    # digests of the output with left-nested & and | chains printed flat
    grammar = tmp_path / "g.lfg"
    grammar.write_text(text)
    proc = run_cli("compile", str(grammar), "--format", fmt)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256


def test_compile_fig_output_is_pinned(fig_files):
    grammar, _ = fig_files
    proc = run_cli("compile", str(grammar))
    assert proc.returncode == 0
    assert proc.stdout == FIG_COMPILED


@pytest.mark.parametrize(
    "text,fmt,sha256",
    [
        (FIG_GRAMMAR_TEXT, "plain", hashlib.sha256(FIG_COMPILED.encode()).hexdigest()),
        (FIG_GRAMMAR_TEXT, "json",
         "32889ab8348c6aa5ac0eca51f49eb15f42c64e265bde5b8601edb9ece877dafc"),
        (PP_AGREE_GRAMMAR_TEXT, "plain",
         "5404cb8891496bc58ea69732f74b21291a456ac7b9a6483741e89b2fe06c452e"),
    ],
)
def test_compile_output_is_the_same_when_the_lexical_axiom_was_read_first(
    monkeypatch, capsys, tmp_path, text, fmt, sha256
):
    # the compiled theory builds its lexical axiom on first read; reading
    # it before the command does changes nothing in what it prints
    from lfgmc import cli, compile_grammar

    grammar = tmp_path / "g.lfg"
    grammar.write_text(text)
    outputs = []
    for read_first in (False, True):
        if read_first:
            monkeypatch.setattr(cli, "compile_grammar", lambda g: (t := compile_grammar(g), t.lexical)[0])
        assert cli.main(["compile", str(grammar), "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert [hashlib.sha256(out.encode()).hexdigest() for out in outputs] == [sha256] * 2


@pytest.mark.parametrize(
    "text,tokens,fmt,sha256",
    [
        (FIG_GRAMMAR_TEXT, ["a", "girl", "walks"], "plain",
         "069c0d744e2970fdc0e8e43d57d62689f3b8c310e27ea905defe2092895eb681"),
        (FIG_GRAMMAR_TEXT, ["a", "girl", "walks"], "json",
         "27ba991ead3b89c6c16b5530dac7046cc07990c3201b493cd412135374c79286"),
        (PP_AGREE_GRAMMAR_TEXT, PP_SENTENCE, "plain",
         "0649341eada532dceebc828967f7b2e3b3421c0cc481f7fc95928bfde271d2bd"),
        (PP_AGREE_GRAMMAR_TEXT, PP_SENTENCE, "json",
         "1252863bc884dd57b503ccaf7b503c005733559f08ffe66b69ca679b46bb5287"),
    ],
    ids=["fig-plain", "fig-json", "pp-plain", "pp-json"],
)
def test_parse_output_is_pinned(tmp_path, text, tokens, fmt, sha256):
    # digests of the output of the json.dumps serializer
    grammar = tmp_path / "g.lfg"
    grammar.write_text(text)
    proc = run_cli("parse", str(grammar), *tokens, "--format", fmt)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "fmt,sha256",
    [
        ("plain", "36ca832aa41847aac4747cfdb78a663ce60fc679c17cdd58a0af7383c28e397e"),
        ("json", "8af2aaa05d7a3a7680707e94fe37d5e93258fa5e0437647cd77cf0075a4aaff9"),
    ],
)
def test_parse_three_pp_output_is_pinned(tmp_path, fmt, sha256):
    # digests of the output of the loop that built and solved each
    # candidate on its own; 14 models and 434 clashing lexical variants
    grammar = tmp_path / "g.lfg"
    grammar.write_text(PP_AGREE_GRAMMAR_TEXT)
    bounds = ("--max-tree", "64", "--max-fnodes", "256", "--max-models", "64")
    proc = run_cli("parse", str(grammar), *PP3_SENTENCE, *bounds, "--format", fmt)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256
    if fmt == "plain":
        lines = proc.stdout.splitlines()
        assert lines[0] == "models: 14"
        clash = "rejected candidate (clash: distinct atoms 'sg' and 'pl' forced onto one node)"
        assert lines.count(clash) == 434


@pytest.mark.parametrize(
    "text,tokens,files,sha256",
    [
        (FIG_GRAMMAR_TEXT, ["a", "girl", "walks"], 1,
         "dbd2f344367d1a0707ae022d5b01a503578ad8d7810c1e8dda1b903dbc0574fb"),
        (PP_AGREE_GRAMMAR_TEXT, PP_SENTENCE, 5,
         "1b50a929864f541e3a4fe5121b01e717027f52e80edb4a750a2b439c9ac396b9"),
    ],
    ids=["fig", "pp"],
)
def test_parse_out_files_are_pinned(tmp_path, text, tokens, files, sha256):
    grammar = tmp_path / "g.lfg"
    grammar.write_text(text)
    out = tmp_path / "models"
    assert run_cli("parse", str(grammar), *tokens, "--out", str(out)).returncode == 0
    names = sorted(os.listdir(out))
    assert len(names) == files
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((out / name).read_bytes())
    assert digest.hexdigest() == sha256


def test_compile_large_lexicon(tmp_path):
    grammar = tmp_path / "big.lfg"
    grammar.write_text(embedding_grammar_text(["noun%d" % k for k in range(5000)]))
    plain = run_cli("compile", str(grammar))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.count('bullet("noun') == 5000 and not plain.stderr
    doc = run_cli("compile", str(grammar), "--format", "json")
    assert doc.returncode == 0, doc.stderr
    assert json.loads(doc.stdout)["lexical"] == plain.stdout.splitlines()[3].strip()


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys, fig_files):
    from lfgmc import cli

    def broken(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_compile", broken)
    grammar, _ = fig_files
    assert cli.main(["compile", str(grammar)]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "error: internal error (RuntimeError): first line second line\n"


# --- lfgmc check: long prefix runs, deep schemata, pinned output ------------


@pytest.mark.parametrize(
    "formula,code",
    [("up down " * 3000 + "true", 1), ("!up down " * 400 + "true", 0)],
    ids=["up-down-3000", "not-up-down-400"],
)
def test_check_long_prefix_runs(fig_files, formula, code):
    _, model = fig_files
    proc = run_cli("check", str(model), "--formula", formula)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == ("formula: valid\n" if code == 0 else "formula: counterexample at n0\n")


def test_compile_long_schema_path(tmp_path):
    grammar = tmp_path / "deep.lfg"
    grammar.write_text(FIG_GRAMMAR_TEXT.replace("(up spec)=a", "(up" + " spec" * 3000 + ")=a"))
    proc = run_cli("compile", str(grammar))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "up (zoomin (" + "<spec> (" * 2999 + "<spec> a" + ")" * 2999 + "))" in proc.stdout


CHAIN_LEXICON = ["noun%03d" % k for k in range(500)]
CHAIN_NOUNS = CHAIN_LEXICON[7::41]


def _check_files(tmp_path, case):
    from generators import chain_model_doc

    if case == "fig":
        grammar = FIG_GRAMMAR_TEXT
        doc = json.loads(model_to_text(build_fig_model()))
    else:
        grammar = embedding_grammar_text(CHAIN_LEXICON)
        swap = (len(CHAIN_NOUNS) - 1, "noun250") if case == "perturbed" else None
        doc, _failing = chain_model_doc(CHAIN_LEXICON, CHAIN_NOUNS, swap)
        if case == "missing-atom":
            doc["signature"]["atoms"].remove("noun100")
            doc["signature"]["atoms"].remove("noun300")
    (tmp_path / "g.lfg").write_text(grammar)
    (tmp_path / "m.json").write_text(json.dumps(doc))
    return str(tmp_path / "m.json"), str(tmp_path / "g.lfg")


@pytest.mark.parametrize(
    "case,fmt,code,sha256",
    [
        ("fig", "plain", 0,
         "5882e8e56388484de49421bb880e7491679a525e925a97c825900e1d934b4239"),
        ("fig", "json", 0,
         "ab7f06437dfaff850fc5630921c52c7477daccf74d1bbfff593cd810531ee49c"),
        ("intact", "plain", 0,
         "b767059d5435ef30c944cd84d13577e4b698d6bdd978001db81dbfbd2a7f3103"),
        ("intact", "json", 0,
         "4eaa928ca8cfc6f043ed25b176eeb25cab7de625d0013ae09676db44beacb9bf"),
        ("perturbed", "plain", 1,
         "a7be49e8245fb54cbbea86923c36048beb05b1e9dd6d53a3cc47f722d9896953"),
        ("perturbed", "json", 1,
         "e83ce891b7da489ce7e55a8ac76410518a77424611aca7df3a0e155ca3c3a333"),
    ],
)
def test_check_output_is_pinned(tmp_path, case, fmt, code, sha256):
    # digests of the output before the grammar reader and names walk were rewritten
    model, grammar = _check_files(tmp_path, case)
    proc = run_cli("check", model, "--grammar", grammar, "--format", fmt)
    assert proc.returncode == code and proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_check_reports_the_first_undeclared_name(tmp_path, fmt):
    model, grammar = _check_files(tmp_path, "missing-atom")
    proc = run_cli("check", model, "--grammar", grammar, "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown atom 'noun100'\n"


@pytest.mark.parametrize("case", ["intact", "perturbed"])
def test_check_reads_back_each_compiled_label(tmp_path, case):
    # each label lfgmc compile prints, given to --formula, gives that
    # label's row under --grammar: verdict, counterexample and exit code
    model, grammar = _check_files(tmp_path, case)
    compiled = json.loads(run_cli("compile", grammar, "--format", "json").stdout)
    texts = [compiled["licensing"], compiled["lexical"]]
    texts += compiled["completeness"] + compiled["coherence"]
    rows = json.loads(run_cli("check", model, "--grammar", grammar, "--format", "json").stdout)
    assert len(rows["results"]) == len(texts) == 6
    verdicts = set()
    for text, row in zip(texts, rows["results"]):
        proc = run_cli("check", model, "--formula", text, "--format", "json")
        assert proc.returncode == (0 if row["valid"] else 1) and proc.stderr == "", row["label"]
        got = json.loads(proc.stdout)["results"]
        assert got == [dict(row, label="formula")], row["label"]
        verdicts.add(row["valid"])
    assert verdicts == ({True} if case == "intact" else {True, False})


def test_non_identifier_signature_name_is_input_error(tmp_path):
    grammar = tmp_path / "g.lfg"
    grammar.write_text(FIG_GRAMMAR_TEXT.replace("num", "ñum"))
    model = tmp_path / "m.json"
    model.write_text(model_to_text(build_fig_model()))
    out = tmp_path / "out"
    for args in (
        ["compile", str(grammar)],
        ["parse", str(grammar), "a", "girl", "walks", "--out", str(out)],
        ["check", str(model), "--grammar", str(grammar)],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == "", args
        assert proc.stderr == "error: feature name 'ñum' is not an identifier\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,name",
    [("cats", "VP"), ("atoms", "sing"), ("feats", "tense"), ("words", "girl")],
)
def test_check_reports_a_used_name_the_model_lacks(fig_files, kind, name):
    grammar, model = fig_files
    doc = json.loads(model.read_text())
    doc["signature"][kind].remove(name)
    model.write_text(json.dumps(doc))
    proc = run_cli("check", str(model), "--grammar", str(grammar))
    what = {"cats": "category", "atoms": "atom", "feats": "feature", "words": "word form"}
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: unknown %s %r\n" % (what[kind], name)


def test_one_parser_serves_many_calls(monkeypatch, capsys, tmp_path, fig_files):
    # main builds its argument parser once and looks the command up at
    # each call; every call prints what the console script prints
    from lfgmc import cli

    monkeypatch.setenv("COLUMNS", "80")
    grammar, model = (str(path) for path in fig_files)
    (tmp_path / "chain").mkdir()
    chain_model, chain_grammar = _check_files(tmp_path / "chain", "perturbed")
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    pinned = [
        (["check", model, "--grammar", grammar], 0,
         "5882e8e56388484de49421bb880e7491679a525e925a97c825900e1d934b4239"),
        (["check", chain_model, "--grammar", chain_grammar, "--format", "json"], 1,
         "e83ce891b7da489ce7e55a8ac76410518a77424611aca7df3a0e155ca3c3a333"),
        (["parse", grammar, "a", "girl", "walks"], 0,
         "069c0d744e2970fdc0e8e43d57d62689f3b8c310e27ea905defe2092895eb681"),
        (["compile", grammar], 0, digest(FIG_COMPILED)),
        (["validate", model], 0, digest("ok\n")),
    ]
    exits = [(["check", model], 2), (["--help"], 0)]
    console = {tuple(argv): run_cli(*argv, env_extra={"COLUMNS": "80"}) for argv, _ in exits}
    cli._parser.cache_clear()
    for _ in range(2):
        for argv, code, sha256 in pinned:
            assert cli.main(argv) == code
            out, err = capsys.readouterr()
            assert digest(out) == sha256 and err == "", argv
        for argv, code in exits:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == code == console[tuple(argv)].returncode
            out, err = capsys.readouterr()
            assert (out, err) == (console[tuple(argv)].stdout, console[tuple(argv)].stderr)
    assert cli._parser.cache_info().misses == 1
    # a command replaced after the parser was built is the one that runs
    monkeypatch.setattr(cli, "cmd_validate", lambda args: print("replaced") or 5)
    assert cli.main(["validate", model]) == 5
    assert capsys.readouterr().out == "replaced\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a one-shot lfgmc process pays to import every module it loads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, lfgmc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")
