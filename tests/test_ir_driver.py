"""Rewrite-driver infrastructure tests: the audited mutation API,
provenance/budget semantics, the ``--passes`` registry, and hypothesis
properties (rewrites preserve the dataflow verdict; pattern order does
not change the fixpoint on the golden corpus)."""

from __future__ import annotations

import glob
import os
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import (
    build_loop_kernel,
    build_pressure_kernel,
    build_tid_kernel,
)
from repro.cli import main
from repro.errors import ParseError, VerificationError
from repro.ir import (
    BudgetExhaustion,
    GreedyRewriteDriver,
    Rewrite,
    RewriteBudgetWarning,
    RewriteError,
    RewritePattern,
    Rewriter,
    available_passes,
    parse_passes,
    pipeline_signature,
    replay_chain,
    run_pipeline,
)
from repro.opt import CopyPropPattern, DCEPattern
from repro.ptx import parse_kernel, print_kernel
from repro.verify.dataflow import verify_dataflow

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _load_corpus():
    kernels = [build_tid_kernel(), build_loop_kernel(), build_pressure_kernel()]
    for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.ptx"))):
        with open(path) as handle:
            kernels.append(parse_kernel(handle.read()))
    return kernels


CORPUS = _load_corpus()
CORPUS_IDS = list(range(len(CORPUS)))


# ----------------------------------------------------------------------
# Rewriter audit.
# ----------------------------------------------------------------------
class TestRewriterAudit:
    def test_empty_rewrite_rejected(self, tid_kernel):
        with pytest.raises(RewriteError, match="empty rewrite"):
            Rewriter(tid_kernel).apply(Rewrite(0))

    def test_out_of_range_splice_rejected(self, tid_kernel):
        n = len(list(tid_kernel.instructions()))
        rewrite = Rewrite(0).erase(n)  # one past the end
        with pytest.raises(RewriteError, match="out of range"):
            Rewriter(tid_kernel).apply(rewrite)

    def test_overlapping_splices_rejected(self, tid_kernel):
        rewrite = Rewrite(0)
        rewrite.splice(0, 2, ())
        rewrite.erase(1)  # inside [0, 2)
        with pytest.raises(RewriteError, match="overlapping"):
            Rewriter(tid_kernel).apply(rewrite)

    def test_duplicate_start_rejected(self, tid_kernel):
        insts = list(tid_kernel.instructions())
        rewrite = Rewrite(0).replace(0, insts[0]).replace(0, insts[0])
        with pytest.raises(RewriteError, match="overlapping"):
            Rewriter(tid_kernel).apply(rewrite)

    def test_label_crossing_splice_rejected(self, loop_kernel):
        # The loop kernel's body has labels; a splice spanning from the
        # entry block into the loop body necessarily crosses one.
        n = len(list(loop_kernel.instructions()))
        rewrite = Rewrite(0)
        rewrite.splice(0, n, ())
        with pytest.raises(RewriteError, match="crosses label"):
            Rewriter(loop_kernel).apply(rewrite)

    def test_non_instruction_replacement_rejected(self):
        with pytest.raises(RewriteError, match="must be instructions"):
            Rewrite(0).splice(0, 1, ["not an instruction"])

    def test_input_kernel_never_mutated(self, tid_kernel):
        before = print_kernel(tid_kernel)
        rewrite = Rewrite(0).erase(0)
        out = Rewriter(tid_kernel).apply(rewrite)
        assert print_kernel(tid_kernel) == before
        assert print_kernel(out) != before


# ----------------------------------------------------------------------
# Driver semantics: provenance, counters, convergence, budgets.
# ----------------------------------------------------------------------
class TestDriver:
    def test_provenance_and_counters(self):
        from tests.test_opt_passes import copy_chain_kernel

        kernel = copy_chain_kernel()
        driver = GreedyRewriteDriver([CopyPropPattern(), DCEPattern()])
        result = driver.run(kernel)
        assert result.converged
        assert result.applied == len(result.applications)
        assert result.applied == sum(result.counters.values())
        assert result.counters["dce"] >= 1  # the dead mul goes away
        for app in result.applications:
            assert app.pattern in ("copy-prop", "dce")
            assert app.anchor >= 0
            assert app.sweep >= 1
            assert app.before  # erased/replaced span rendered

    def test_fixpoint_detected_by_zero_applications(self, tid_kernel):
        driver = GreedyRewriteDriver([DCEPattern()])
        first = driver.run(tid_kernel)
        again = driver.run(first.kernel)
        assert again.applied == 0
        assert again.converged
        assert again.sweeps == 1  # one clean sweep proves the fixpoint

    def test_budget_warning_is_structured(self):
        class AlwaysInsert(RewritePattern):
            """Pathological: matches its own output forever."""

            name = "always"

            def match(self, window, ctx):
                if window.pos != 0:
                    return None
                return Rewrite(0, note="dup").insert_before(
                    0, ctx.instructions[0]
                )

        kernel = build_tid_kernel()
        driver = GreedyRewriteDriver([AlwaysInsert()], max_sweeps=2,
                                     max_rewrites=1000)
        with pytest.warns(RewriteBudgetWarning) as caught:
            result = driver.run(kernel)
        assert not result.converged
        warning = caught[0].message
        assert warning.kernel == kernel.name
        assert warning.budget in ("sweep", "rewrite")
        assert warning.applied == result.applied
        assert result.exhausted == BudgetExhaustion(
            warning.budget, warning.limit, warning.applied
        )

    def test_rewrite_budget_stops_runaway_pattern(self):
        class AlwaysInsert(RewritePattern):
            name = "always"

            def match(self, window, ctx):
                if window.pos != 0:
                    return None
                return Rewrite(0).insert_before(0, ctx.instructions[0])

        kernel = build_tid_kernel()
        driver = GreedyRewriteDriver([AlwaysInsert()], max_sweeps=1,
                                     max_rewrites=5)
        with pytest.warns(RewriteBudgetWarning):
            result = driver.run(kernel)
        assert result.applied == 5
        assert not result.converged

    def test_verify_catches_bad_rewrite(self):
        class DropStore(RewritePattern):
            """Miscompiler: deletes the first store it sees."""

            name = "drop-store"

            def match(self, window, ctx):
                from repro.ptx import Opcode

                if window.instr.opcode is Opcode.ST:
                    return Rewrite(window.pos).erase(window.pos)
                return None

        kernel = build_tid_kernel()
        driver = GreedyRewriteDriver([DropStore()], verify=True)
        with pytest.raises(VerificationError):
            driver.run(kernel)
        # Unverified, the same rewrite silently applies.
        assert GreedyRewriteDriver([DropStore()]).run(kernel).applied == 1


# ----------------------------------------------------------------------
# Verified pipelines: one analysis per kernel revision.
# ----------------------------------------------------------------------
class TestVerifiedRevisions:
    """A verified pipeline checks every applied rewrite, and computes
    each kernel revision's dataflow report and effect summary once:
    the input at the first rewrite, every other revision as the
    ``after`` of the rewrite that made it."""

    @staticmethod
    def _counted(monkeypatch):
        from collections import Counter

        import repro.verify
        import repro.verify.pipeline

        counts = Counter()
        for owner, name in (
            (repro.verify, "verify_pass"),
            (repro.verify.pipeline, "verify_dataflow"),
            (repro.verify.pipeline, "effect_summary"),
        ):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return counts

    def test_each_revision_analysed_once(self, monkeypatch):
        from tests.test_opt_passes import copy_chain_kernel

        counts = self._counted(monkeypatch)
        result = run_pipeline(copy_chain_kernel(),
                              "copy-prop,dce,minreg-sched", verify=True)
        # Two stages rewrite, so a context crosses a stage boundary.
        assert [s.applied > 0 for _, s in result.stages] == [
            True, True, False,
        ]
        rewrites = result.total_applied
        assert counts == {
            "verify_pass": rewrites,
            "verify_dataflow": rewrites + 1,
            "effect_summary": rewrites + 1,
        }

    def test_no_rewrite_no_analysis(self, monkeypatch, tid_kernel):
        counts = self._counted(monkeypatch)
        result = run_pipeline(tid_kernel, "copy-prop,dce,minreg-sched",
                              verify=True)
        assert result.total_applied == 0
        assert sum(counts.values()) == 0

    def test_replay_checks_like_an_inline_run(self, monkeypatch):
        """Replaying an unverified run's chain with ``verify`` makes the
        checks and analyses a verified run makes, and no rewrite."""
        from tests.test_opt_passes import copy_chain_kernel

        kernel = copy_chain_kernel()
        spec = "copy-prop,dce,minreg-sched"
        chain = run_pipeline(kernel, spec).chain
        counts = self._counted(monkeypatch)
        inline = run_pipeline(kernel, spec, verify=True)
        inline_counts = dict(counts)
        counts.clear()
        # A replay applies no rewrite.
        monkeypatch.setattr(Rewriter, "apply", None)
        replayed = replay_chain(kernel, chain, verify=True)
        assert counts == inline_counts
        assert counts["verify_pass"] == inline.total_applied == sum(
            len(stage.revisions) for stage in chain.stages
        )
        assert print_kernel(replayed) == print_kernel(inline.kernel)


# ----------------------------------------------------------------------
# Pass registry / --passes parsing.
# ----------------------------------------------------------------------
class TestPassRegistry:
    def test_available_passes(self):
        names = available_passes()
        for expected in ("copy-prop", "dce", "bypass", "mlp-sched",
                         "minreg-sched", "unroll"):
            assert expected in names

    def test_parse_passes_normalizes(self):
        assert parse_passes(" dce ,, copy-prop ") == ["dce", "copy-prop"]
        assert parse_passes("") == []
        assert pipeline_signature(" dce , dce ") == "dce,dce"

    def test_unknown_pass_is_parse_error_exit_2(self):
        with pytest.raises(ParseError) as err:
            parse_passes("copy-prop,nope")
        assert err.value.exit_code == 2

    def test_cli_unknown_pass_exits_2(self, capsys):
        assert main(["simulate", "GAU", "--passes", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_run_pipeline_stage_results(self):
        from tests.test_opt_passes import copy_chain_kernel

        result = run_pipeline(copy_chain_kernel(), "copy-prop,dce",
                              verify=True)
        assert [name for name, _ in result.stages] == ["copy-prop", "dce"]
        assert result.total_applied >= 2
        # the empty pipeline is the identity
        kernel = build_tid_kernel()
        identity = run_pipeline(kernel, "")
        assert print_kernel(identity.kernel) == print_kernel(kernel)
        assert identity.total_applied == 0


# ----------------------------------------------------------------------
# Hypothesis properties.
# ----------------------------------------------------------------------
def _dataflow_verdict(kernel):
    """The error-rule multiset the dataflow verifier reports."""
    report = verify_dataflow(kernel)
    return sorted((d.rule, d.data.get("register")) for d in report.errors)


@settings(max_examples=40, deadline=None)
@given(
    index=st.sampled_from(CORPUS_IDS),
    name=st.sampled_from(["copy-prop", "dce", "bypass", "mlp-sched",
                          "minreg-sched", "unroll"]),
)
def test_property_rewrites_preserve_dataflow_verdict(index, name):
    """Every applied rewrite keeps the dataflow verifier's verdict:
    per-rewrite translation validation never raises, and the final
    kernel has exactly the input's (possibly pre-existing) findings."""
    kernel = CORPUS[index]
    result = run_pipeline(kernel, name, verify=True)  # raises on any bad rewrite
    assert _dataflow_verdict(result.kernel) == _dataflow_verdict(kernel)


@settings(max_examples=30, deadline=None)
@given(
    index=st.sampled_from(CORPUS_IDS),
    order=st.permutations([CopyPropPattern, DCEPattern]),
)
def test_property_pattern_order_invariant_fixpoint(index, order):
    """The interleaved copy-prop+dce fixpoint is confluent on the golden
    corpus: offering the patterns in either priority order converges to
    the same kernel."""
    kernel = CORPUS[index]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewriteBudgetWarning)
        forward = GreedyRewriteDriver([f() for f in order]).run(kernel)
        reverse = GreedyRewriteDriver(
            [f() for f in reversed(order)]
        ).run(kernel)
    assert print_kernel(forward.kernel) == print_kernel(reverse.kernel)


@settings(max_examples=25, deadline=None)
@given(name=st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12,
))
def test_property_unknown_names_never_silently_ignored(name):
    """Any name outside the registry raises ParseError (exit 2) rather
    than silently evaluating a different pipeline."""
    if name in available_passes():
        assert parse_passes(name) == [name]
    else:
        with pytest.raises(ParseError) as err:
            parse_passes(name)
        assert err.value.exit_code == 2
