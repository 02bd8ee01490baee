"""Token-mutation fuzzing of the DSL and DDL parsers.

Both parsers are otherwise only fed well-formed text.  Here each one
gets 2,000 mutated copies of a real input per source — the bundled
``examples/conference.ridl`` and the emitted CRIS DDL of every
dialect — each copy with one token deleted, duplicated, swapped with
another, or the text truncated at a token.  Every input must parse or
raise the parser's own :class:`~repro.errors.RidlError`
(``DslSyntaxError`` / ``DdlParseError``) with a line number; any other
exception is a parser bug.  The seed and size are fixed, so a failure
reproduces exactly.
"""

import random
import re
from pathlib import Path

import pytest

from repro.cris import cris_schema
from repro.dsl import parse
from repro.errors import DslSyntaxError
from repro.mapper import map_schema
from repro.sql import PROFILES
from repro.sql.parse import DdlParseError, parse_ddl

MUTATIONS_PER_SOURCE = 2_000
SEED = 1
EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"

#: Words, single punctuation marks and whitespace runs: the text is
#: exactly the concatenation of its tokens.
_TOKEN = re.compile(r"\s+|\w+|[^\w\s]")


def mutants(text: str, seed: int):
    """``MUTATIONS_PER_SOURCE`` one-token mutations of ``text``."""
    rng = random.Random(seed)
    tokens = _TOKEN.findall(text)
    for _ in range(MUTATIONS_PER_SOURCE):
        mutated = list(tokens)
        kind = rng.choice(("delete", "duplicate", "truncate", "swap"))
        index = rng.randrange(len(mutated))
        if kind == "delete":
            del mutated[index]
        elif kind == "duplicate":
            mutated.insert(index, mutated[index])
        elif kind == "truncate":
            del mutated[index:]
        else:
            other = rng.randrange(len(mutated))
            mutated[index], mutated[other] = mutated[other], mutated[index]
        yield "".join(mutated)


def test_dsl_mutants_parse_or_report_a_line():
    for text in mutants(EXAMPLE.read_text(), SEED):
        try:
            parse(text)
        except DslSyntaxError as exc:
            assert exc.line >= 1, (text, str(exc))


@pytest.mark.parametrize("dialect", sorted(PROFILES))
def test_ddl_mutants_parse_or_raise_ridl_errors(dialect):
    ddl = map_schema(cris_schema()).sql(dialect)
    for text in mutants(ddl, SEED):
        try:
            parse_ddl(text, dialect)
        except DdlParseError as exc:
            assert exc.line is not None, (text, str(exc))
