"""Command-line front end.

Four subcommands cover the library surface:

* ``validate MODEL``: structural invariants of a serialized model,
* ``check MODEL (--formula TEXT | --grammar FILE)``: validity of one
  formula or of every compiled theory formula,
* ``parse GRAMMAR TOKEN...``: bounded model finding,
* ``compile GRAMMAR``: print the compiled theory.

Exit codes: 0 success, 1 semantic failure (violations, counterexamples,
or zero parses), 2 malformed input, 3 search bounds exceeded before the
space was exhausted, 4 internal error (a fault of the program, reported
as one ``error:`` line without a traceback), 141 standard output closed
by its reader (128 + SIGPIPE, as a shell reports a process that signal
ended; the rest of the output is dropped).  A closed standard error
drops the ``error:`` line and keeps the code.  Output is deterministic;
``--format json`` makes it machine readable, and ANSI color is used only
on a terminal and can be disabled with ``LFGMC_COLOR=0``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import LfgError
from .formula import parse_formula, render_formula
from .grammar import compile_grammar, parse_grammar
from .model import model_from_text, model_to_json, model_to_text, validate_model
from .search import SearchBounds, check_parse, parse_sentence
from .semantics import valid

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUNDS = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


def _color_enabled() -> bool:
    if os.environ.get("LFGMC_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return "\x1b[%sm%s\x1b[0m" % (code, text)
    return text


def _good(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise LfgError("cannot read %s: %s" % (path, exc)) from exc


def _load_model(path: str):
    return model_from_text(_read(path))


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = validate_model(model)
    if args.format == "json":
        _emit_json(
            {
                "ok": report.ok,
                "violations": [
                    {"code": v.code, "message": v.message, "nodes": list(v.nodes)}
                    for v in report
                ],
            }
        )
    else:
        if report.ok:
            print(_good("ok"))
        else:
            for v in report:
                print(_bad(str(v)))
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_check(args) -> int:
    model = _load_model(args.model)
    if args.formula is not None:
        rows = [("formula", valid(model, parse_formula(args.formula, model.sig)))]
    else:
        theory = compile_grammar(parse_grammar(_read(args.grammar)))
        rows = [(e.label, e.counterexample) for e in check_parse(theory, model)]
    ok = all(node is None for _label, node in rows)

    if args.format == "json":
        _emit_json(
            {
                "ok": ok,
                "results": [
                    {"label": label, "valid": node is None, "counterexample": node}
                    for label, node in rows
                ],
            }
        )
    else:
        for label, node in rows:
            if node is None:
                print("%s: %s" % (label, _good("valid")))
            else:
                print("%s: %s" % (label, _bad("counterexample at %s" % node)))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_parse(args) -> int:
    grammar = parse_grammar(_read(args.grammar))
    theory = compile_grammar(grammar)
    bounds = SearchBounds(args.max_tree, args.max_fnodes, args.max_models)
    outcome = parse_sentence(theory, grammar, args.tokens, bounds)

    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            for k, model in enumerate(outcome.models, start=1):
                path = os.path.join(args.out, "model-%03d.json" % k)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(model_to_text(model))
        except OSError as exc:
            raise LfgError("cannot write %s: %s" % (args.out, exc)) from exc

    if args.format == "json":
        _emit_json(
            {
                "count": len(outcome.models),
                "bound_exceeded": outcome.bound_exceeded,
                "models": [model_to_json(m) for m in outcome.models],
                "rejections": [
                    {"reason": r.reason, "detail": r.detail, "node": r.node}
                    for r in outcome.rejections
                ],
            }
        )
    else:
        print("models: %d" % len(outcome.models))
        if not args.out:
            for k, model in enumerate(outcome.models, start=1):
                print("--- model %d ---" % k)
                sys.stdout.write(model_to_text(model))
        for r in outcome.rejections:
            where = " at %s" % r.node if r.node else ""
            print("rejected candidate (%s: %s%s)" % (r.reason, r.detail, where))
        if outcome.bound_exceeded:
            print(_bad("search bounds exceeded; results may be incomplete"))

    if outcome.bound_exceeded:
        return EXIT_BOUNDS
    return EXIT_OK if outcome.models else EXIT_FAIL


def cmd_compile(args) -> int:
    theory = compile_grammar(parse_grammar(_read(args.grammar)))
    if args.format == "json":
        _emit_json(
            {
                "licensing": render_formula(theory.licensing),
                "lexical": render_formula(theory.lexical),
                "completeness": [render_formula(f) for f in theory.completeness],
                "coherence": [render_formula(f) for f in theory.coherence],
                "gf": [".".join(g) for g in theory.gf],
                "labels": [label for label, _ in theory.principles()],
            }
        )
    else:
        print("licensing:")
        print("  %s" % render_formula(theory.licensing))
        print("lexical:")
        print("  %s" % render_formula(theory.lexical))
        print("completeness:")
        for seq, f in zip(theory.gf, theory.completeness):
            print("  [%s] %s" % (".".join(seq), render_formula(f)))
        print("coherence:")
        for seq, f in zip(theory.gf, theory.coherence):
            print("  [%s] %s" % (".".join(seq), render_formula(f)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lfgmc",
        description="Model checking and bounded parsing for LFG-style grammars.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structural invariants of a model file")
    p.add_argument("model")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("check", help="evaluate a formula or a compiled grammar on a model")
    p.add_argument("model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula in concrete syntax")
    group.add_argument("--grammar", help="grammar file to compile and check")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("parse", help="enumerate models of the grammar for a token string")
    p.add_argument("grammar")
    p.add_argument("tokens", nargs="+")
    p.add_argument("--max-tree", type=int, default=40, dest="max_tree")
    p.add_argument("--max-fnodes", type=int, default=80, dest="max_fnodes")
    p.add_argument("--max-models", type=int, default=10, dest="max_models")
    p.add_argument("--out", help="directory for the emitted model files")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    p = sub.add_parser("compile", help="print the compiled theory of a grammar")
    p.add_argument("grammar")
    p.add_argument("--format", choices=["plain", "json"], default="plain")

    return top


_parser = functools.cache(build_parser)  # one per process, built on first use


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.command](args)  # looked up now, not when built
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the interpreter's final
        # flush stays quiet; signal handlers are shared with in-process
        # callers and stay as they are
        sys.stdout = open(os.devnull, "w")
        return EXIT_PIPE
    except (LfgError, ValueError) as exc:
        return _report(str(exc), EXIT_INPUT)
    except Exception as exc:  # a fault of the program, not of the input
        detail = " ".join(str(exc).split())  # one line
        return _report("internal error (%s): %s" % (type(exc).__name__, detail), EXIT_INTERNAL)


def _report(message: str, code: int) -> int:
    """Print ``error: message`` on standard error and return ``code``, also
    when standard error is closed by its reader: the message then goes
    nowhere, and so does anything written to standard error later."""
    try:
        print("error: %s" % message, file=sys.stderr, flush=True)
    except BrokenPipeError:
        sys.stderr = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
