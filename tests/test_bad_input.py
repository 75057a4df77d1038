"""Bad input stays inside the error taxonomy (property tests).

Three surfaces, each drawn by hypothesis (derandomized, bounded):

* **PTX text** — one line mutation of an ``examples/*.ptx`` kernel
  (delete, duplicate or swap lines, or replace one token) through
  :func:`repro.service.jobs.load_target`, checked and unchecked;
* **CLI numbers** — ``repro simulate`` and ``repro allocate`` with a
  ``--tlp`` below 1 or a negative ``--grid``, ``--reg`` or
  ``--spare-shm``: exit 2 with one ``repro: error:`` line, before any
  trace;
* **wire frames** — random param values through
  :func:`~repro.service.protocol.validate_request` and then
  :func:`~repro.service.jobs.prepare`.

Every outcome is a success, a refused frame
(:class:`~repro.service.protocol.ProtocolError`) or a
:class:`~repro.errors.ReproError` with a documented exit code (2-7);
no other exception may escape.
"""

import contextlib
import glob
import io
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.engine
from repro.cli import main
from repro.errors import EXIT_PARSE, ReproError
from repro.service.jobs import load_target, prepare
from repro.service.protocol import (
    EVAL_JOBS,
    PARAM_SCHEMAS,
    ProtocolError,
    validate_request,
)

from .conftest import EXAMPLES_DIR

BOUNDED = settings(max_examples=150, deadline=None, derandomize=True,
                   database=None)

#: Exit codes of the taxonomy's classes (README "Exit codes").
DOCUMENTED_EXITS = range(2, 8)

EXAMPLE_PATHS = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.ptx")))
EXAMPLE_TEXTS = {
    os.path.basename(path): open(path).read() for path in EXAMPLE_PATHS
}
TOKEN = re.compile(r"[^\s,;()\[\]{}]+")
#: Replacement tokens: every token of the corpus, plus odd ones.
TOKENS = sorted(
    {tok for text in EXAMPLE_TEXTS.values() for tok in TOKEN.findall(text)}
    | {"", "0", "-1", "0x", "1e9", "99999999999", "%r999", "%tid.w",
       "$nowhere", ".f64", ".shared", "bar.sync", "[", "]", "{", "}", ";"}
)


def assert_in_taxonomy(call):
    """Run ``call``: it returns, or raises a documented ``ReproError``."""
    try:
        call()
    except ReproError as err:
        assert err.exit_code in DOCUMENTED_EXITS, (type(err), err)


@contextlib.contextmanager
def no_tracing():
    """Fail the test if anything reaches the engine's tracer."""
    def trace_grid(*args, **kwargs):
        raise AssertionError("bad input reached the tracer")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.engine.engine, "trace_grid", trace_grid)
        yield


@st.composite
def mutated_ptx(draw):
    name = draw(st.sampled_from(sorted(EXAMPLE_TEXTS)))
    lines = EXAMPLE_TEXTS[name].split("\n")
    at = draw(st.integers(0, len(lines) - 1))
    other = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(other, lines[at])
    elif kind == "swap":
        lines[at], lines[other] = lines[other], lines[at]
    else:
        tokens = list(TOKEN.finditer(lines[at]))
        if tokens:
            tok = draw(st.sampled_from(tokens))
            lines[at] = (lines[at][:tok.start()]
                         + draw(st.sampled_from(TOKENS))
                         + lines[at][tok.end():])
    return "\n".join(lines)


@given(mutated_ptx(), st.booleans())
@BOUNDED
def test_mutated_ptx_loads_or_fails_in_taxonomy(text, checked):
    assert_in_taxonomy(lambda: load_target({"ptx": text}, checked=checked))


BAD = {"tlp": st.integers(max_value=0), "grid": st.integers(max_value=-1),
       "reg": st.integers(max_value=-1),
       "spare_shm": st.integers(max_value=-1)}
GOOD = {"tlp": st.integers(1, 8), "grid": st.integers(0, 4),
        "reg": st.integers(0, 63), "spare_shm": st.integers(0, 4096)}
COMMAND_NUMBERS = {"simulate": ("tlp", "grid"),
                   "allocate": ("reg", "spare_shm")}


@st.composite
def bad_number_argv(draw):
    """A ``simulate`` or ``allocate`` argv with at least one number
    below its least value."""
    command = draw(st.sampled_from(sorted(COMMAND_NUMBERS)))
    names = COMMAND_NUMBERS[command]
    bad = draw(st.sets(st.sampled_from(names), min_size=1))
    target = draw(st.sampled_from(["GAU", "HST"] + EXAMPLE_PATHS))
    argv = [command, target]
    for name in names:
        if name in bad or draw(st.booleans()):
            value = draw((BAD if name in bad else GOOD)[name])
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


@given(bad_number_argv())
@BOUNDED
def test_out_of_range_numbers_exit_2_before_any_trace(argv):
    out, err = io.StringIO(), io.StringIO()
    with no_tracing(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_PARSE
    assert out.getvalue() == ""
    [line] = err.getvalue().splitlines()
    assert line.startswith("repro: error:") and "stage=parse" in line


#: Plausible values of each string param, besides random text.
PARAM_STRINGS = {
    "target": ["GAU", "hst", "BOGUS", ""],
    "ptx": sorted(EXAMPLE_TEXTS.values()),
    "config": ["fermi", "kepler", "bogus"],
    "passes": ["", "dce", "copy-prop,dce,minreg-sched", "dce,,", "nope:3"],
}
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=True), st.text(max_size=12),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=2),
)


def _typed(name, expected):
    """Values of a schema param's type."""
    if expected is bool:
        return st.booleans()
    if expected is int:
        return st.integers(-10 ** 6, 10 ** 6)
    if expected is list:
        return st.lists(st.one_of(st.sampled_from(PARAM_STRINGS["target"]),
                                  JSON_SCALARS), max_size=3)
    return st.one_of(st.sampled_from(PARAM_STRINGS[name]),
                     st.text(max_size=12))


@st.composite
def wire_frame(draw):
    """An evaluation job's frame.  Most params have their schema's type
    and a job that needs a kernel names one, so most frames pass
    validation and reach :func:`prepare`; one param in ten is any JSON
    value, and one frame in ten carries a param outside its schema."""
    job = draw(st.sampled_from(EVAL_JOBS))
    schema = PARAM_SCHEMAS[job]
    names = draw(st.sets(st.sampled_from(
        sorted(set(schema) - {"target", "ptx"})
    )))
    if job != "suite":
        names.add(draw(st.sampled_from(["target", "ptx"])))
    if draw(st.integers(0, 9)) == 0:
        names.add(draw(st.sampled_from(["tlp", "apps", "bogus"])))
    params = {}
    for name in sorted(names):
        typed = name in schema and draw(st.integers(0, 9)) > 0
        params[name] = draw(_typed(name, schema[name][0]) if typed
                            else JSON_VALUES)
    frame = {"job": job, "params": params}
    if draw(st.booleans()):
        frame["id"] = draw(st.one_of(st.text(max_size=8), JSON_SCALARS))
    return frame


@given(wire_frame())
@BOUNDED
def test_wire_frames_are_refused_prepared_or_fail_in_taxonomy(frame):
    try:
        request = validate_request(frame)
    except ProtocolError:
        return
    with no_tracing():
        assert_in_taxonomy(lambda: prepare(request))
