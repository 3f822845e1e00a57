"""Minimizer determinism and correctness (byte-identical reproducers)."""

from __future__ import annotations

from repro.fuzz.generate import generate_program
from repro.fuzz.minimize import ddmin_lines, minimize_cert_text, minimize_source
from repro.pipeline import run_pipeline
from repro.viper.parser import parse_program


def test_ddmin_finds_single_culprit_line():
    lines = [f"line{i}" for i in range(32)]
    predicate = lambda ls: "line17" in ls
    result = ddmin_lines(lines, predicate)
    assert result == ["line17"]


def test_ddmin_finds_line_pair():
    lines = [f"line{i}" for i in range(20)]
    predicate = lambda ls: "line3" in ls and "line15" in ls
    result = ddmin_lines(lines, predicate)
    assert result == ["line3", "line15"]


def test_ddmin_keeps_input_when_predicate_fails():
    lines = ["a", "b", "c"]
    assert ddmin_lines(lines, lambda ls: False) == lines


def test_ddmin_is_deterministic():
    lines = [f"l{i}" for i in range(25)]
    predicate = lambda ls: sum(1 for l in ls if l in {"l2", "l9", "l20"}) >= 2
    assert ddmin_lines(lines, predicate) == ddmin_lines(lines, predicate)


def test_minimize_source_shrinks_to_culprit():
    generated = generate_program(3)
    source = generated.source
    # Failure model: "fails" iff the program still contains a while loop
    # *after desugaring through the same parser the pipeline uses*.
    def predicate(text: str) -> bool:
        try:
            parse_program(text)
        except Exception:
            return False
        return "while" in text

    minimized = minimize_source(source, predicate)
    assert predicate(minimized)
    assert len(minimized) <= len(source)
    # Determinism: byte-identical on a second run.
    assert minimize_source(source, predicate) == minimized


def test_minimize_source_unparseable_falls_back_to_ddmin():
    source = "garbage {{{\nmethod m0()\nmore garbage\n"
    predicate = lambda text: "garbage" in text
    minimized = minimize_source(source, predicate)
    assert predicate(minimized)
    assert minimized.count("\n") <= source.count("\n")
    assert minimize_source(source, predicate) == minimized


def test_minimize_source_keeps_original_when_normalisation_heals():
    generated = generate_program(5)
    # A predicate satisfied by the raw source but never by pretty-printed
    # candidates (the reproducer must not be lost to normalisation).
    marker_source = generated.source + "\n// marker\n"
    predicate = lambda text: "// marker" in text
    assert minimize_source(marker_source, predicate) == marker_source


def test_minimize_cert_text_is_deterministic_and_minimal():
    ctx = run_pipeline(generate_program(2).source)
    text = ctx.certificate_text
    predicate = lambda t: "METHOD-BODY-SIM" in t
    minimized = minimize_cert_text(text, predicate)
    assert predicate(minimized)
    assert len(minimized.splitlines()) <= len(text.splitlines())
    assert minimize_cert_text(text, predicate) == minimized
    # 1-minimal: removing any single remaining line breaks the predicate.
    lines = minimized.splitlines()
    if len(lines) > 1:
        for index in range(len(lines)):
            candidate = "\n".join(lines[:index] + lines[index + 1:]) + "\n"
            assert not predicate(candidate) or candidate == minimized
