"""Tests for the mini-C frontend: lexer, parser, type checker, code generator."""

from __future__ import annotations

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodegenError, ParseError, TypeCheckError
from repro.ir import Interpreter
from repro.minic import compile_source, parse_source, tokenize
from repro.minic import ast
from repro.minic.cparser import MAX_NESTING
from repro.minic.lexer import TokenKind
from repro.minic.typecheck import check_types


def run_main(source: str, **kwargs) -> int:
    program = compile_source(source)
    return Interpreter(program).run(**kwargs).return_value


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("int x; while (x) {}")
        kinds = [token.kind for token in tokens[:3]]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT]

    def test_hex_and_decimal_literals(self):
        tokens = tokenize("0xFF 42 7u")
        assert [token.value for token in tokens[:3]] == [255, 42, 7]

    def test_float_literals(self):
        tokens = tokenize("3.5 1.0e2")
        assert tokens[0].kind is TokenKind.FLOAT and tokens[0].value == 3.5
        assert tokens[1].value == 100.0

    def test_comments_are_skipped(self):
        tokens = tokenize("int a; // line\n/* block\nstill */ int b;")
        names = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert names == ["a", "b"]

    def test_multi_character_operators(self):
        tokens = tokenize("a <<= b >= c != d")
        symbols = [t.text for t in tokens if t.kind is TokenKind.PUNCT]
        assert symbols == ["<<=", ">=", "!="]

    def test_bad_character_reports_position(self):
        with pytest.raises(ParseError):
            tokenize("int a = `;")

    def test_preprocessor_lines_ignored(self):
        tokens = tokenize("#include <stdio.h>\nint a;")
        assert tokens[0].is_keyword("int")


class TestParser:
    def test_global_and_function(self):
        unit = parse_source("int counter; int main(void) { return counter; }")
        assert [g.name for g in unit.globals] == ["counter"]
        assert unit.function("main") is not None

    def test_array_declaration(self):
        unit = parse_source("int table[8]; int main(void) { return table[3]; }")
        assert isinstance(unit.globals[0].var_type, ast.ArrayType)
        assert unit.globals[0].var_type.length == 8

    def test_variadic_parameter(self):
        unit = parse_source("int logf(int code, ...) { return code; }")
        assert unit.function("logf").variadic

    def test_control_statements(self):
        unit = parse_source(
            "int main(void) { int i; for (i = 0; i < 4; i++) { if (i == 2) break; "
            "else continue; } while (i) { i--; } do { i++; } while (i < 3); return i; }"
        )
        body = unit.function("main").body
        kinds = {type(node).__name__ for node in ast.walk(body)}
        assert {"ForStmt", "IfStmt", "WhileStmt", "DoWhileStmt", "BreakStmt",
                "ContinueStmt"} <= kinds

    def test_goto_and_labels(self):
        unit = parse_source("int main(void) { goto end; end: return 0; }")
        kinds = [type(node).__name__ for node in ast.walk(unit.function("main").body)]
        assert "GotoStmt" in kinds and "LabelStmt" in kinds

    def test_operator_precedence(self):
        unit = parse_source("int main(void) { return 2 + 3 * 4; }")
        ret = unit.function("main").body.statements[0]
        assert isinstance(ret.value, ast.BinaryExpr) and ret.value.op == "+"

    def test_missing_semicolon_is_an_error(self):
        with pytest.raises(ParseError):
            parse_source("int main(void) { return 0 }")

    def test_ternary_is_rejected_with_message(self):
        with pytest.raises(ParseError):
            parse_source("int main(void) { return 1 ? 2 : 3; }")


def _deep(shape: str, levels: int) -> str:
    """A one-line program nested ``levels`` deep in one of four shapes."""
    return {
        "parentheses": "int main(void) { return " + "(" * levels + "1" + ")" * levels + "; }",
        "if-blocks": "int main(void) { int x = 0; " + "if (x) { " * levels + "x = 1;"
        + " }" * levels + " return x; }",
        "prefix-not": "int main(void) { int x = 1; return " + "!" * levels + "x; }",
        "long-sum": "int main(void) { int x = 1; return "
        + " + ".join(["x"] * levels) + "; }",
    }[shape]


#: Each shape at a depth that used to end in a RecursionError.
DEEP = {"parentheses": 100, "if-blocks": 200, "prefix-not": 400, "long-sum": 500}


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_deep_nesting_is_a_parse_error(self, shape):
        with pytest.raises(ParseError, match=r"^1:\d+: nesting deeper than") as excinfo:
            compile_source(_deep(shape, DEEP[shape]))
        assert excinfo.value.line == 1 and excinfo.value.column > 0

    @pytest.mark.parametrize("shape", ["parentheses", "prefix-not", "long-sum"])
    def test_limit_is_independent_of_the_callers_stack(self, shape):
        """Just below the limit compiles even from a deep stack; just above
        is refused even from a shallow one."""

        def at_depth(frames, source):
            if frames:
                return at_depth(frames - 1, source)
            return compile_source(source)

        levels = MAX_NESTING - 2
        at_depth(sys.getrecursionlimit() // 5, _deep(shape, levels))
        with pytest.raises(ParseError):
            compile_source(_deep(shape, MAX_NESTING + 1))

    def test_real_programs_stay_below_the_limit(self):
        from repro.testing.corpus import load_corpus
        from repro.testing.fuzz import default_presets
        from repro.testing.generator import generate_case, render_case
        from repro.workloads.catalog import catalog

        for workload in catalog().values():
            workload.program()
        for case in load_corpus():
            compile_source(case.source)
        for preset in default_presets():
            for seed in range(1, 21):
                compile_source(render_case(generate_case(seed, mix=preset.mix)).source)

    def test_31_parentheses_compile_with_250_frames_of_headroom(self):
        """Precedence climbing costs about 6 frames per parenthesis."""
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 250)
        try:
            compile_source(_deep("parentheses", MAX_NESTING - 1))
        finally:
            sys.setrecursionlimit(limit)

    def test_cli_reports_a_typed_error_without_traceback(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        path = tmp_path / "deep.c"
        path.write_text(_deep("parentheses", DEEP["parentheses"]))
        assert cli_main(["analyze", "--source", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: 1:") and "Traceback" not in err


#: The first 16 hex digits of a sha256 over the content digests of every
#: catalog program and of generator seeds 1-20 under each fuzz preset.
FRONTEND_DIGEST = "a90bea452bfecad5"


def frontend_digest() -> str:
    from repro.testing.fuzz import default_presets
    from repro.testing.generator import generate_case, render_case
    from repro.workloads.catalog import catalog

    lines = [
        f"{name} {workload.program().content_digest()}"
        for name, workload in sorted(catalog().items())
    ]
    for preset in default_presets():
        for seed in range(1, 21):
            case = generate_case(seed, mix=preset.mix)
            program = compile_source(render_case(case).source, entry=case.entry)
            lines.append(f"{preset.name}/{seed} {program.content_digest()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_compiled_programs_are_pinned():
    """Every frontend speed-up must compile the same programs."""
    assert frontend_digest() == FRONTEND_DIGEST


class TestTypeCheck:
    def test_undeclared_identifier(self):
        with pytest.raises(TypeCheckError):
            check_types(parse_source("int main(void) { return missing; }"))

    def test_wrong_arity_detected(self):
        with pytest.raises(TypeCheckError):
            check_types(parse_source("int f(int a) { return a; } int main(void) { return f(); }"))

    def test_goto_to_unknown_label(self):
        with pytest.raises(TypeCheckError):
            check_types(parse_source("int main(void) { goto nowhere; return 0; }"))

    def test_duplicate_label_reports_the_inner_label(self):
        source = "int main(void) {\n  L:\n  { L: ; }\n  return 0;\n}"
        with pytest.raises(TypeCheckError, match=r"^line 3: duplicate label 'L'$"):
            check_types(parse_source(source))

    def test_float_expression_typing(self):
        unit = check_types(parse_source("float g; int main(void) { g = g + 1.0; return 0; }"))
        assign = unit.function("main").body.statements[0].expr
        assert ast.type_is_float(assign.value.ctype)

    def test_address_taken_marks_variable(self):
        unit = check_types(
            parse_source("int main(void) { int x; int *p = &x; return *p; }")
        )
        declarations = [n for n in ast.walk(unit.function("main").body) if isinstance(n, ast.VarDecl)]
        x_decl = next(d for d in declarations if d.name == "x")
        assert x_decl.address_taken

    def test_builtin_malloc_is_known(self):
        check_types(parse_source("int main(void) { int *p = malloc(16); return 0; }"))


class TestCodegenSemantics:
    def test_arithmetic_and_precedence(self):
        assert run_main("int main(void) { return 2 + 3 * 4 - 6 / 2; }") == 11

    def test_for_loop_sum(self):
        assert run_main(
            "int main(void) { int i; int s = 0; for (i = 1; i <= 10; i++) { s += i; } return s; }"
        ) == 55

    def test_while_and_do_while(self):
        assert run_main(
            "int main(void) { int n = 0; int x = 1; while (x < 100) { x = x * 2; n++; }"
            " do { n++; } while (0); return n; }"
        ) == 8

    def test_nested_calls_and_arguments(self):
        source = (
            "int add(int a, int b) { return a + b; }\n"
            "int twice(int x) { return add(x, x); }\n"
            "int main(void) { return twice(add(3, 4)); }\n"
        )
        assert run_main(source) == 14

    def test_global_arrays_and_pointers(self):
        source = (
            "int data[4];\n"
            "int main(void) { int i; int *p = &data[1]; for (i = 0; i < 4; i++) data[i] = i * i; "
            "return *p + data[3]; }\n"
        )
        assert run_main(source) == 1 + 9

    def test_local_array_on_stack(self):
        source = (
            "int main(void) { int buf[4]; int i; int s = 0; "
            "for (i = 0; i < 4; i++) { buf[i] = i + 1; } "
            "for (i = 0; i < 4; i++) { s += buf[i]; } return s; }"
        )
        assert run_main(source) == 10

    def test_short_circuit_evaluation(self):
        source = (
            "int hits;\n"
            "int bump(void) { hits++; return 1; }\n"
            "int main(void) { int a = 0; if (a && bump()) { a = 5; } "
            "if (a || bump()) { a = 7; } return a * 10 + hits; }\n"
        )
        # a && bump(): bump not called; a || bump(): bump called once -> hits=1, a=7
        assert run_main(source) == 71

    def test_break_and_continue(self):
        source = (
            "int main(void) { int i; int s = 0; for (i = 0; i < 10; i++) {"
            " if (i == 3) continue; if (i == 6) break; s += i; } return s; }"
        )
        assert run_main(source) == 0 + 1 + 2 + 4 + 5

    def test_goto_loop(self):
        source = (
            "int main(void) { int i = 0; int s = 0;\n"
            "again: s += i; i++; if (i < 5) goto again; return s; }"
        )
        assert run_main(source) == 10

    def test_recursion(self):
        source = (
            "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
            "int main(void) { return fact(6); }"
        )
        assert run_main(source) == 720

    def test_unsigned_division_and_shift(self):
        source = (
            "int main(void) { unsigned int a = 0x80000000; unsigned int b = a >> 4; "
            "return b / 0x1000000; }"
        )
        assert run_main(source) == 8

    def test_float_computation(self):
        source = (
            "int main(void) { float x = 2.5; float y = 4.0; float z = x * y + 1.5; "
            "return (int) z; }"
        )
        assert run_main(source) == 11

    def test_function_pointer_call(self):
        source = (
            "int inc(void) { return 41; }\n"
            "int main(void) { int *handler = &inc; return handler() + 1; }"
        )
        assert run_main(source) == 42

    def test_malloc_returns_usable_memory(self):
        source = (
            "int main(void) { int i; int *p = malloc(32); int s = 0;"
            " for (i = 0; i < 8; i++) { p[i] = i; } for (i = 0; i < 8; i++) { s += p[i]; }"
            " return s; }"
        )
        assert run_main(source) == 28

    def test_compound_assignment_operators(self):
        source = (
            "int main(void) { int a = 10; a += 5; a -= 3; a *= 2; a /= 4; a |= 8; return a; }"
        )
        assert run_main(source) == ((10 + 5 - 3) * 2 // 4) | 8

    def test_constant_folding_keeps_semantics(self):
        assert run_main("int main(void) { return (16 - 1) * 2 + (1 << 4); }") == 46

    def test_source_lines_attached_to_instructions(self):
        program = compile_source("int main(void) {\n    return 1 + 2;\n}")
        lines = {i.source_line for i in program.function("main").instructions}
        assert 2 in lines

    def test_loop_labels_follow_source_lines(self):
        program = compile_source("int main(void) {\n    int i;\n    int s = 0;\n"
                                 "    for (i = 0; i < 3; i++) { s += i; }\n    return s;\n}")
        assert any(label.startswith("loop_4") for label in program.function("main").labels())

    def test_too_many_arguments_rejected(self):
        arguments = ", ".join(f"int a{i}" for i in range(9))
        call_args = ", ".join("1" for _ in range(9))
        source = (
            f"int f({arguments}) {{ return a0; }}\n"
            f"int main(void) {{ return f({call_args}); }}"
        )
        with pytest.raises(CodegenError):
            compile_source(source)

    @given(
        a=st.integers(-1000, 1000),
        b=st.integers(-1000, 1000),
        c=st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_expression_evaluation_matches_python(self, a, b, c):
        source = (
            "int main(void) { "
            f"int a = {a}; int b = {b}; int c = {c}; "
            "return (a + b) * 2 - a / c + (a > b) + (b % c); }"
        )
        expected = (a + b) * 2 - int(a / c) + int(a > b) + (b - int(b / c) * c)
        assert run_main(source) == expected
