"""Fuzzing of every text parser: any input either parses or raises a package
error (PriorCSError), never a stray exception."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorcs.errors import PriorCSError
from priorcs.experiments import (
    EXPERIMENT_KINDS,
    SIGNAL_KINDS,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from priorcs.matrices import MATRIX_KINDS, read_matrix_text
from priorcs.solver import read_problem_text

SECTIONS = ("MATRIX", "VECTOR", "EPSILON", "WEIGHTS")

NUMBER = st.one_of(
    st.integers(-3, 8).map(str),
    st.floats(-4.0, 4.0).map(repr),
    st.floats().map(repr),  # any double, nan and +-inf included
    st.sampled_from(["1e400", "-1e400", "1e-400", "-0.0", "NaN", "-Infinity", "0x10", "1_0",
                     "+.5", "5.", "1e-6"]),
)
JUNK = st.text(max_size=4)
TOKEN = st.one_of(NUMBER, st.sampled_from(SECTIONS), JUNK)
SOUP = st.lists(TOKEN, max_size=30).flatmap(
    lambda tokens: st.sampled_from([" ", "\n", "\t"]).map(lambda sep: sep.join(tokens)))


@st.composite
def matrix_texts(draw):
    """An 'm n' header and about m*n entries: off by one now and then."""
    m, n = draw(st.integers(-1, 5)), draw(st.integers(-1, 6))
    count = max(0, max(m * n, 0) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    entries = draw(st.lists(NUMBER, min_size=count, max_size=count))
    return f"{m} {n}\n" + " ".join(entries)


@st.composite
def problem_texts(draw):
    """Sections in any order, some missing or repeated, of any length."""
    body = {
        "MATRIX": draw(matrix_texts()),
        "VECTOR": " ".join(draw(st.lists(NUMBER, max_size=6))),
        "EPSILON": " ".join(draw(st.lists(NUMBER, max_size=2))),
        "WEIGHTS": " ".join(draw(st.lists(NUMBER, max_size=7))),
    }
    names = draw(st.lists(st.sampled_from(SECTIONS), max_size=6))
    names = draw(st.permutations(SECTIONS)) if draw(st.booleans()) else names
    prefix = draw(st.sampled_from(["", "", draw(JUNK)]))
    return prefix + "\n" + "\n".join(f"{name}\n{body[name]}" for name in names)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrix_texts(), SOUP))
def test_matrix_text_parses_or_raises_package_error(text):
    try:
        matrix = read_matrix_text(text)
    except PriorCSError:
        return
    assert matrix.entries.shape == (matrix.m, matrix.n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(problem_texts(), SOUP))
def test_problem_text_parses_or_raises_package_error(text):
    try:
        problem = read_problem_text(text)
    except PriorCSError:
        return
    assert problem.y.shape == (problem.matrix.m,)
    assert problem.weights.shape == (problem.matrix.n,)


KEYS = st.sampled_from(
    [f.name for f in fields(ExperimentConfig)] + ["experiment", "mystery", ""]
)
VALUE = st.one_of(
    NUMBER,
    st.lists(NUMBER, min_size=1, max_size=4).map(",".join),
    st.sampled_from(("auto", "", ",", "0,,1") + EXPERIMENT_KINDS + MATRIX_KINDS + SIGNAL_KINDS),
    JUNK,
)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@settings(max_examples=100, deadline=None)
@given(overrides=st.dictionaries(KEYS, VALUE, max_size=6))
def test_config_overrides_load_or_raise_package_error(kind, overrides):
    try:
        cfg = load_config(kind, overrides=overrides)
    except PriorCSError:
        return
    assert cfg.kind == kind


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(TOKEN, st.sampled_from(["=", "#", "\n", "k=", "=1"])), max_size=20)
       .map("".join))
def test_config_text_parses_or_raises_package_error(text):
    try:
        pairs = parse_config_text(text)
    except PriorCSError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in pairs.items())
