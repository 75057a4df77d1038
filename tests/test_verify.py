"""Translation-validation tests (DESIGN.md §6).

Golden-diagnostic fixtures: for each stable rule code, a minimal kernel
that triggers it and the expected machine-readable diagnostic.  Plus a
mutation test that re-introduces the PR 2 spill-stride miscompile
behind :data:`repro.regalloc.spill.UNSAFE_UNPADDED_RECORDS` and asserts
the allocation validator flags it, and a test that the optimizer runs
the allocation validator only when asked to.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.verify as V
from repro.arch import FERMI
from repro.cfg.liveness import LivenessInfo
from repro.cli import main
from repro.core.crat import CRATOptimizer
from repro.engine import EvaluationEngine
from repro.errors import (
    EXIT_PARSE,
    EXIT_VERIFY,
    ParseError,
    ReproError,
    VerificationError,
)
from repro.ir import Rewrite, run_pipeline
from repro.ir.pipeline import VERIFIED_SPEC
from repro.opt import DCEPattern, UnrollPattern
from repro.ptx import DType, RegClass, parse_kernel
from repro.regalloc import spill as spill_mod
from repro.regalloc.allocator import allocate
from repro.regalloc.spill import SHARED_SPILL_NAME, insert_spill_code
from repro.workloads import load_workload

MISCOMPILED = "examples/miscompiled.ptx"
CLEAN_SPILLED = "examples/spilled.ptx"
UNINIT_READ = "examples/uninit_read.ptx"

#: Seeded fixtures whose defects (an overwritten store, a bank
#: conflict, a thread-dependent loop) are performance smells, not DF
#: findings: they pass the load gate.  ``uninit_read`` (a
#: maybe-uninitialized read, DF001) does not.
SEEDED_FIXTURES = ["bank_conflict", "dead_store", "divergent_loop"]


def _kernel(body: str) -> str:
    return (
        ".entry k (.param .u64 output)\n"
        ".maxntid 32, 1, 1\n"
        "{\n" + body + "}\n"
    )


def _lint(body: str):
    return V.lint_kernel(parse_kernel(_kernel(body)))


def _bra_nowhere_kernel():
    """A kernel whose branch targets a label that does not exist."""
    from repro.ptx.instruction import Instruction
    from repro.ptx.isa import Opcode

    kernel = parse_kernel(_kernel("    exit;\n"))
    return dataclasses.replace(
        kernel, body=(Instruction(Opcode.BRA, target="$nowhere"),) + kernel.body
    )


def _only(report, rule):
    """The single diagnostic carrying ``rule`` (fails if ambiguous)."""
    found = [d for d in report.diagnostics if d.rule == rule]
    assert len(found) == 1, f"want exactly one {rule}, got {report.codes()}"
    return found[0]


# ---------------------------------------------------------------------------
# Dataflow rules (DF001-DF009)
# ---------------------------------------------------------------------------


class TestDataflowRules:
    def test_df001_use_before_def_on_path(self):
        report = _lint(
            "    mov.u32 %r0, %tid.x;\n"
            "    setp.lt.s32 %p0, %r0, 16;\n"
            "    @%p0 bra $skip;\n"
            "    cvt.f32 %f1, %r0;\n"
            "$skip:\n"
            "    add.f32 %f2, %f1, %f1;\n"
            "    mov.u64 %rd0, output;\n"
            "    st.global.f32 [%rd0], %f2;\n"
            "    exit;\n"
        )
        diag = _only(report, "DF001")
        assert diag.to_dict() == {
            "rule": "DF001",
            "severity": "error",
            "message": diag.message,
            "kernel": "k",
            "block": diag.block,
            "position": diag.position,
            "instruction": diag.instruction,
            "stage": None,
            "data": {"register": "%f1"},
        }
        assert "%f1" in diag.message
        assert diag.instruction is not None and "%f1" in diag.instruction
        assert report.codes() == ["DF001"]
        assert not report.ok

    def test_df002_never_defined(self):
        report = _lint(
            "    add.s32 %r2, %r9, %r9;\n"
            "    exit;\n"
        )
        diag = _only(report, "DF002")
        assert diag.data == {"register": "%r9"}
        assert "DF001" not in report.codes()

    def test_df003_unreachable_block_is_warning(self):
        report = _lint(
            "    exit;\n"
            "$dead:\n"
            "    mov.s32 %r0, 1;\n"
            "    exit;\n"
        )
        diag = _only(report, "DF003")
        assert diag.severity is V.Severity.WARNING
        assert report.ok  # warnings alone never fail --verify

    def test_df004_fallthrough_off_end(self):
        report = _lint("    mov.s32 %r0, 1;\n")
        assert "DF004" in report.codes()
        assert not report.ok

    def test_df005_register_class_pun(self):
        # The parser normalises each name to one dtype, so a class pun
        # can only arise from a buggy transform: build it directly.
        from repro.ptx.instruction import Imm, Instruction, Reg
        from repro.ptx.isa import Opcode

        kernel = parse_kernel(_kernel("    exit;\n"))
        kernel = dataclasses.replace(kernel, body=(
            Instruction(Opcode.MOV, dtype=DType.S32,
                        dst=Reg("%x0", DType.S32),
                        srcs=(Imm(1, DType.S32),)),
            Instruction(Opcode.MOV, dtype=DType.F32,
                        dst=Reg("%x0", DType.F32),
                        srcs=(Imm(0.5, DType.F32),)),
        ) + kernel.body)
        report = V.lint_kernel(kernel)
        diag = _only(report, "DF005")
        assert diag.data.get("register") == "%x0"

    def test_df006_undefined_branch_target(self):
        # parse_kernel rejects dangling targets itself, so this state
        # only arises from a buggy transform: build it directly.
        report = V.lint_kernel(_bra_nowhere_kernel())
        diag = _only(report, "DF006")
        assert diag.data.get("target") == "$nowhere"
        # DF006 aborts further analysis: no cascading CFG diagnostics.
        assert report.codes() == ["DF006"]

    def test_df007_operand_type_mismatch(self):
        report = _lint(
            "    mov.s32 %a, 1;\n"
            "    add.f32 %f0, %a, %a;\n"
            "    exit;\n"
        )
        assert "DF007" in report.codes()
        assert not report.ok

    def test_df008_undeclared_symbol(self):
        report = _lint(
            "    mov.u64 %rd0, NoSuchArray;\n"
            "    exit;\n"
        )
        diag = _only(report, "DF008")
        assert diag.data.get("symbol") == "NoSuchArray"

    def test_df009_duplicate_label(self):
        report = _lint(
            "    bra $l;\n"
            "$l:\n"
            "    exit;\n"
            "$l:\n"
            "    exit;\n"
        )
        diag = _only(report, "DF009")
        assert diag.data.get("label") == "$l"

    def test_clean_kernels_lint_clean(self, tid_kernel, loop_kernel,
                                      pressure_kernel):
        for kernel in (tid_kernel, loop_kernel, pressure_kernel):
            report = V.lint_kernel(kernel)
            assert report.diagnostics == [], report.render()


# ---------------------------------------------------------------------------
# Allocation rules (AL001-AL006)
# ---------------------------------------------------------------------------


def _class_of(kernel):
    """Map register name -> register class over a whole kernel."""
    out = {}
    for inst in kernel.body:
        for reg in inst.regs() if hasattr(inst, "regs") else ():
            out[reg.name] = reg.dtype.reg_class
    return out


class TestAllocationRules:
    def test_clean_allocations_verify_clean(self, loop_kernel,
                                            pressure_kernel):
        for kernel, limit in (
            (loop_kernel, 32),
            (pressure_kernel, 32),
            (pressure_kernel, 12),
        ):
            result = allocate(kernel, limit, spare_shm_bytes=128)
            report = V.verify_allocation(result)
            assert report.diagnostics == [], report.render()

    def test_al001_physical_register_sharing(self, pressure_kernel):
        result = allocate(pressure_kernel, 64)
        assert result.pre_rename_kernel is not None and result.name_map
        classes = _class_of(result.pre_rename_kernel)
        liveness = LivenessInfo(result.pre_rename_kernel)
        pair = None
        for pos, inst in enumerate(liveness.instructions):
            dst = inst.dst
            if dst is None or dst.name not in result.name_map:
                continue
            for other in liveness.live_out[pos]:
                if (
                    other != dst.name
                    and other in result.name_map
                    and classes.get(other) == classes.get(dst.name)
                    and inst.opcode.name != "MOV"
                ):
                    pair = (dst.name, other)
                    break
            if pair:
                break
        assert pair is not None, "no co-live same-class pair found"
        bad_map = dict(result.name_map)
        bad_map[pair[1]] = bad_map[pair[0]]
        corrupted = dataclasses.replace(result, name_map=bad_map)
        report = V.verify_allocation(corrupted)
        found = [d for d in report.diagnostics if d.rule == "AL001"]
        assert found, report.render()
        assert all(d.data["physical"] == bad_map[pair[0]] for d in found)
        assert any(pair[1] in d.data["registers"] for d in found)

    def test_al001_only_live_same_class_sharers(self, pressure_kernel):
        """At ``%r2``'s def its physical register is also mapped from a
        live ``%r1`` (same class: reported), a live ``%f1`` (another
        class) and ``%r3``, dead by then (neither reported)."""
        kernel = parse_kernel(_kernel(
            "    mov.u32 %r3, 3;\n"
            "    mov.u32 %r1, 1;\n"
            "    mov.f32 %f1, 2.0;\n"
            "    add.u32 %r2, %r1, 5;\n"
            "    ld.param.u64 %rd1, [output];\n"
            "    st.global.u32 [%rd1], %r1;\n"
            "    st.global.f32 [%rd1+4], %f1;\n"
            "    st.global.u32 [%rd1+8], %r2;\n"
            "    exit;\n"
        ))
        shared = {name: "%r0" for name in ("%r1", "%r2", "%r3", "%f1")}
        result = dataclasses.replace(
            allocate(pressure_kernel, 64),
            pre_rename_kernel=kernel, name_map=shared, spilled={},
            spill_regions=(), shm_plan=None,
        )
        [diag] = V.verify_allocation(result).diagnostics
        assert (diag.rule, diag.position) == ("AL001", 3)
        assert diag.data == {"registers": ["%r1", "%r2"],
                             "physical": "%r0"}

    def test_al006_spilled_name_still_referenced(self, pressure_kernel):
        result = allocate(pressure_kernel, 10, enable_shm_spill=False)
        assert result.spilled, "expected spills at limit 10"
        assert V.verify_allocation(result).ok
        live_name = next(iter(_class_of(result.pre_rename_kernel)))
        bad_spilled = dict(result.spilled)
        bad_spilled[live_name] = DType.F32
        corrupted = dataclasses.replace(result, spilled=bad_spilled)
        report = V.verify_allocation(corrupted)
        found = [d for d in report.diagnostics if d.rule == "AL006"]
        assert found, report.render()  # flagged at every stale reference
        assert all(d.data["register"] == live_name for d in found)

    def test_al005_shared_budget_overflow(self, pressure_kernel):
        result = allocate(pressure_kernel, 12, spare_shm_bytes=4096)
        if result.shm_plan is None or not any(result.shm_plan.chosen):
            pytest.skip("allocator chose not to spill to shared memory")
        assert V.verify_allocation(result).ok
        starved = dataclasses.replace(result.shm_plan, spare_shm_bytes=0)
        corrupted = dataclasses.replace(result, shm_plan=starved)
        report = V.verify_allocation(corrupted)
        diag = _only(report, "AL005")
        assert diag.data["budget_bytes"] == 0

    def test_al002_reload_without_store(self, pressure_kernel):
        result = allocate(pressure_kernel, 10, enable_shm_spill=False)
        assert result.spill_regions
        region = result.spill_regions[0]
        kernel = result.pre_rename_kernel
        removed_offset = None
        body = []
        for inst in kernel.body:
            if (
                removed_offset is None
                and inst.opcode.name == "ST"
                and inst.mem is not None
                and inst.mem.base.name == region.base_reg
            ):
                removed_offset = inst.mem.offset
                continue  # drop the first spill store
            body.append(inst)
        assert removed_offset is not None
        pruned = dataclasses.replace(kernel, body=body)
        corrupted = dataclasses.replace(
            result, pre_rename_kernel=pruned, name_map={}
        )
        report = V.verify_allocation(corrupted)
        assert "AL002" in report.codes(), report.render()
        diag = next(d for d in report.diagnostics if d.rule == "AL002")
        assert diag.data["offset"] == removed_offset


class TestSpillStackLint:
    """Lint-mode discovery of spill regions from raw PTX (no allocator
    provenance) — the seeded examples/miscompiled.ptx fixture."""

    def test_miscompiled_fixture_golden_codes(self):
        with open(MISCOMPILED) as fh:
            kernel = parse_kernel(fh.read())
        report = V.lint_kernel(kernel)
        assert report.codes() == ["AL002", "AL003", "AL004", "AL005",
                                  "DF001"]
        assert len(report.errors) == 5
        by_rule = {d.rule: d for d in report.diagnostics}
        assert by_rule["DF001"].data["register"] == "%f1"
        assert by_rule["AL002"].data["offset"] == 8
        assert by_rule["AL003"].data["offset"] == 4
        assert by_rule["AL004"].data["record_bytes"] == 12
        assert by_rule["AL005"].data["stack"] == "ShmSpill"

    def test_clean_spill_fixture_lints_clean(self):
        with open(CLEAN_SPILLED) as fh:
            kernel = parse_kernel(fh.read())
        report = V.lint_kernel(kernel)
        assert report.diagnostics == [], report.render()

    def test_discovery_finds_per_thread_region(self):
        with open(MISCOMPILED) as fh:
            kernel = parse_kernel(fh.read())
        regions = V.discover_spill_regions(kernel)
        by_name = {r.stack_name: r for r in regions}
        assert by_name["ShmSpill"].per_thread
        assert by_name["ShmSpill"].record_bytes == 12
        assert not by_name["SpillStack"].per_thread


class TestSpillStrideMutation:
    """The PR 2 bug class: unpadded per-thread record stride."""

    def _spill_shared(self, loop_kernel):
        # Mixed widths: one u64 address and one f32 accumulator force
        # an 8-byte-widest layout whose natural footprint (12 B) is not
        # a multiple of 8.
        names = {}
        for inst in loop_kernel.body:
            for reg in inst.regs() if hasattr(inst, "regs") else ():
                names.setdefault(reg.dtype, reg.name)
        spilled = {names[DType.U64]: DType.U64, names[DType.F32]: DType.F32}
        return insert_spill_code(
            loop_kernel,
            spilled,
            spill_mod.Space.SHARED,
            stack_name=SHARED_SPILL_NAME,
            per_thread_indexing=True,
        )

    def test_padded_records_are_clean(self, loop_kernel):
        result = self._spill_shared(loop_kernel)
        assert result.record_bytes == 16  # padded to the widest slot
        report = V.lint_spill_stacks(result.kernel)
        assert report.diagnostics == [], report.render()

    def test_unpadded_records_flagged_al004(self, loop_kernel, monkeypatch):
        monkeypatch.setattr(spill_mod, "UNSAFE_UNPADDED_RECORDS", True)
        result = self._spill_shared(loop_kernel)
        assert result.record_bytes == 12  # the miscompile: 12 % 8 != 0
        report = V.lint_spill_stacks(result.kernel)
        diag = _only(report, "AL004")
        assert diag.data["record_bytes"] == 12
        assert diag.data["widest_slot_bytes"] == 8


# ---------------------------------------------------------------------------
# Pipeline rules (PL001-PL003) and effect summaries
# ---------------------------------------------------------------------------


class TestPipelineRules:
    def test_all_standard_passes_validate(self, tid_kernel, loop_kernel,
                                          pressure_kernel):
        for kernel in (tid_kernel, loop_kernel, pressure_kernel):
            # Raises VerificationError at the first bad rewrite.
            result = run_pipeline(kernel, VERIFIED_SPEC, verify=True)
            assert V.lint_kernel(result.kernel).ok

    def test_individual_passes_preserve_effects(self, loop_kernel):
        for stage in ("copy-prop", "dce", "mlp-sched", "bypass",
                      "minreg-sched"):
            after = run_pipeline(loop_kernel, stage).kernel
            report = V.verify_pass(loop_kernel, after, stage)
            assert report.ok, f"{stage}: {report.render()}"

    def test_unroll_validates_structurally(self, loop_kernel):
        after = run_pipeline(loop_kernel, "unroll").kernel
        assert UnrollPattern.verify_mode == "structure"
        report = V.verify_pass(loop_kernel, after, "unroll",
                               compare_effects=False)
        assert report.ok, report.render()

    def test_run_pipeline_verify_flag(self, loop_kernel):
        result = run_pipeline(loop_kernel, "copy-prop,dce", verify=True)
        assert V.lint_kernel(result.kernel).ok

    def test_pl001_malformed_cfg(self, tid_kernel):
        broken = _bra_nowhere_kernel()
        report = V.verify_pass(tid_kernel, broken, "dce")
        diag = _only(report, "PL001")
        assert diag.stage == "dce"

    def test_pl002_dropped_store(self, tid_kernel):
        broken = dataclasses.replace(tid_kernel, body=[
            inst for inst in tid_kernel.body if inst.opcode.name != "ST"
        ])
        report = V.verify_pass(tid_kernel, broken, "mlp-sched")
        diag = _only(report, "PL002")
        assert diag.stage == "mlp-sched"
        assert not report.ok

    def test_pl003_introduced_use_before_def(self, loop_kernel):
        dropped = None
        body = []
        for inst in loop_kernel.body:
            if (
                dropped is None
                and inst.opcode.name == "MOV"
                and inst.dst is not None
                and inst.dst.dtype is DType.F32
            ):
                dropped = inst.dst.name
                continue  # delete an accumulator's initialisation
            body.append(inst)
        assert dropped is not None
        broken = dataclasses.replace(loop_kernel, body=body)
        report = V.verify_pass(loop_kernel, broken, "copy-prop")
        assert "PL003" in report.codes(), report.render()
        diag = next(d for d in report.diagnostics if d.rule == "PL003")
        assert diag.data["register"] == dropped

    def test_pl003_silent_on_preexisting_errors(self):
        before = parse_kernel(_kernel(
            "    add.s32 %r0, %r9, %r9;\n"
            "    exit;\n"
        ))
        report = V.verify_pass(before, dataclasses.replace(before), "dce")
        assert "PL003" not in report.codes()

    def test_effect_summary_ignores_cache_hints(self, tid_kernel):
        bypassed = run_pipeline(tid_kernel, "bypass").kernel
        assert V.effect_summary(tid_kernel) == V.effect_summary(bypassed)


# ---------------------------------------------------------------------------
# Error plumbing, CLI surface, suite routing
# ---------------------------------------------------------------------------


class TestErrorPlumbing:
    def test_raise_if_errors_carries_diagnostics(self):
        report = _lint("    add.s32 %r0, %r9, %r9;\n    exit;\n")
        with pytest.raises(VerificationError) as exc:
            report.raise_if_errors()
        err = exc.value
        assert err.exit_code == EXIT_VERIFY == 6
        assert isinstance(err, ReproError)
        payload = err.to_dict()
        assert payload["rules"] == ["DF002"]
        assert payload["diagnostics"][0]["data"] == {"register": "%r9"}

    def test_load_gate_rejects_entry_block_use_before_def(self):
        kernel = parse_kernel(_kernel(
            "    add.s32 %r1, %r0, %r0;\n"
            "    mov.s32 %r0, 1;\n"
            "    exit;\n"
        ))
        with pytest.raises(ParseError, match="DF001") as exc:
            V.verify_kernel(kernel)
        assert exc.value.exit_code == EXIT_PARSE
        assert "register %r0 may be used before definition" in str(exc.value)

    def test_load_gate_accepts_straightline_order(self, tid_kernel):
        V.verify_kernel(tid_kernel)  # must not raise


class TestCLI:
    # The spill fixture and the three performance-smell fixtures are
    # correct kernels: no verification rule may fire on them.
    @pytest.mark.parametrize(
        "name", ["spilled", "dead_store", "bank_conflict", "divergent_loop"]
    )
    def test_verify_clean_fixture_exits_0(self, name, capsys):
        assert main(["verify", f"examples/{name}.ptx"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_verify_miscompiled_exits_6(self, capsys):
        assert main(["verify", MISCOMPILED]) == 6
        out = capsys.readouterr().out
        for code in ("DF001", "AL002", "AL003", "AL004", "AL005"):
            assert code in out

    def test_verify_uninit_read_exits_6(self, capsys):
        assert main(["verify", UNINIT_READ, "--json"]) == 6
        payload = json.loads(capsys.readouterr().out)
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "DF001"
        assert diag["severity"] == "error"
        assert diag["data"] == {"register": "%f1"}

    @pytest.mark.parametrize("name", SEEDED_FIXTURES)
    def test_passes_the_load_gate(self, name):
        with open(f"examples/{name}.ptx") as fh:
            V.verify_kernel(parse_kernel(fh.read()))

    def test_load_gate_rejects_uninit_read(self):
        with open(UNINIT_READ) as fh:
            kernel = parse_kernel(fh.read())
        with pytest.raises(ParseError, match="DF001 register %f1"):
            V.verify_kernel(kernel)

    def test_verify_json_output(self, capsys):
        assert main(["verify", MISCOMPILED, "--json"]) == 6
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules"] == ["AL002", "AL003", "AL004", "AL005",
                                    "DF001"]
        df001 = next(d for d in payload["diagnostics"]
                     if d["rule"] == "DF001")
        assert df001["data"] == {"register": "%f1"}

    def test_verify_unparseable_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ptx"
        bad.write_text("this is not ptx at all {\n")
        assert main(["verify", str(bad)]) == 2

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        warn_only = tmp_path / "warn.ptx"
        warn_only.write_text(_kernel(
            "    exit;\n"
            "$dead:\n"
            "    exit;\n"
        ))
        assert main(["verify", str(warn_only)]) == 0
        assert main(["verify", str(warn_only), "--strict"]) == 6

    def test_verify_app_by_abbreviation(self, capsys):
        assert main(["verify", "GAU", "--pipeline"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    @pytest.fixture
    def store_dropping_dce(self, monkeypatch):
        """The registered ``dce`` pattern, miscompiling: it erases
        every store."""
        def match(self, window, ctx):
            if window.instr.opcode.name == "ST":
                return Rewrite(window.pos).erase(window.pos)
            return None

        monkeypatch.setattr(DCEPattern, "match", match)

    def test_pipeline_names_the_miscompiling_pass(self, store_dropping_dce,
                                                  capsys):
        """``--pipeline`` and the ``verify`` job's ``pipeline`` param
        report the bad rewrite's PL code under its registry pass name
        and exit 6, rather than raising."""
        from repro.cli import _render
        from repro.service import jobs
        from repro.service.protocol import validate_request

        assert main(["verify", CLEAN_SPILLED, "--pipeline", "--json"]) == 6
        one_shot = json.loads(capsys.readouterr().out)
        with open(CLEAN_SPILLED) as fh:
            params = {"ptx": fh.read(), "pipeline": True}
        request = validate_request({"job": "verify", "params": params})
        payload = jobs.execute(jobs.prepare(request))
        assert _render("verify", params, payload, as_json=True) == 6
        capsys.readouterr()
        for report in (one_shot, payload):
            (diag,) = report["diagnostics"]
            assert (diag["rule"], diag["stage"]) == ("PL002", "dce")

    def test_verified_hit_rechecks_an_unverified_chain(
        self, store_dropping_dce, monkeypatch
    ):
        """An unverified ``crat`` stores the miscompiling pipeline's
        rewrite chain; a verified request on the same engine runs no
        pipeline, yet fails at the same rewrite, with the same rules
        and message, as a cold verified run."""
        import repro.core.crat as crat

        gau = load_workload("GAU")
        runs = []
        pipeline = crat.run_pipeline

        def counted(*args, **kwargs):
            runs.append(kwargs.get("verify"))
            return pipeline(*args, **kwargs)

        monkeypatch.setattr(crat, "run_pipeline", counted)

        def optimize(engine, verify):
            CRATOptimizer(
                FERMI, passes="dce", verify=verify, engine=engine
            ).optimize(
                gau.kernel, default_reg=gau.default_reg, grid_blocks=4,
                param_sizes=gau.param_sizes,
            )

        engine = EvaluationEngine()
        optimize(engine, verify=False)
        with pytest.raises(VerificationError) as warm:
            optimize(engine, verify=True)
        assert runs == [False]
        with pytest.raises(VerificationError) as cold:
            optimize(EvaluationEngine(), verify=True)
        assert runs == [False, True]
        assert [(d.rule, d.stage) for d in warm.value.diagnostics] == [
            ("PL002", "dce")
        ]
        assert warm.value.to_dict() == cold.value.to_dict()
        assert str(warm.value) == str(cold.value)

    def test_crat_with_verify_flag(self, capsys):
        assert main(["crat", "GAU", "--verify"]) == 0

    def test_suite_routes_verification_failures(self, tmp_path, monkeypatch,
                                                capsys):
        import repro.bench

        from .test_cli_suite import _FakeEvaluation

        def flaky(abbr, config="fermi"):
            if abbr == "KMN":
                raise VerificationError(
                    "1 verification error(s): AL004 bad stride",
                    kernel="kmeans", stage="candidate:reg=20",
                )
            return _FakeEvaluation()

        monkeypatch.setattr(repro.bench, "evaluate_app", flaky)
        report_path = tmp_path / "report.json"
        assert main(["suite", "--report-json", str(report_path)]) == 5
        report = json.loads(report_path.read_text())
        failed = {f["abbr"]: f for f in report["failed"]}
        assert failed["KMN"]["exit_code"] == 6
        assert failed["KMN"]["kind"] == "VerificationError"


class TestOneAnalysisPerRequest:
    """Within one request a kernel's CFG and DF report are computed
    once: a lint builds one CFG, and a verified ``--passes`` request
    hands its input lint's DF report to the pipeline's first check."""

    def test_lint_builds_one_cfg(self, monkeypatch):
        import repro.cfg.graph as graph

        with open(MISCOMPILED) as fh:
            kernel = parse_kernel(fh.read())
        built = []
        init = graph.CFG.__init__

        def counted(self, of):
            built.append(of)
            init(self, of)

        monkeypatch.setattr(graph.CFG, "__init__", counted)
        report = V.lint_kernel(kernel)
        assert report.codes() == ["AL002", "AL003", "AL004", "AL005",
                                  "DF001"]
        assert len(built) == 1 and built[0] is kernel

    def test_unbuildable_cfg_leaves_the_spill_lint_empty(self):
        """The spill-stack half of a lint needs the CFG; when it does
        not build, the DF half reports why."""
        from repro.ptx.instruction import Instruction
        from repro.ptx.isa import Opcode

        with open(MISCOMPILED) as fh:
            kernel = parse_kernel(fh.read())
        broken = dataclasses.replace(kernel, body=(
            Instruction(Opcode.BRA, target="$nowhere"),
        ) + kernel.body)
        assert V.lint_spill_stacks(broken).diagnostics == []
        report = V.lint_kernel(broken, stage="input")
        assert report.codes() == ["DF006"]
        assert [d.stage for d in report.diagnostics] == ["input"]

    @pytest.mark.parametrize("job", ["crat", "simulate"])
    def test_verified_passes_request_df_checks_its_input_once(
        self, job, monkeypatch
    ):
        """On a pipeline memo miss and on a hit alike: one DF check of
        the input (the lint's), and as many ``lint_kernel`` and
        ``verify_pass`` calls as before the report was shared."""
        import repro.verify.dataflow as dataflow
        import repro.verify.pipeline as verify_pipeline
        from repro.engine import get_engine, set_engine
        from repro.service.jobs import execute, prepare
        from repro.service.protocol import Request

        kernel = load_workload("GAU").kernel
        checked = []
        calls = []
        real = dataflow.verify_dataflow

        def counted(of, *args, **kwargs):
            checked.append(of)
            return real(of, *args, **kwargs)

        # Each caller's own global: lint_kernel, verify_pass, the gate.
        for module in (V, verify_pipeline, dataflow):
            monkeypatch.setattr(module, "verify_dataflow", counted)
        for name in ("lint_kernel", "verify_pass"):
            def check(*args, _real=getattr(V, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(V, name, check)
        request = Request(job=job, params={
            "target": "GAU", "passes": "copy-prop,dce,minreg-sched",
            "verify": True, "tlp": 2, "grid": 4,
        })
        previous = get_engine()
        counts = []
        try:
            set_engine(EvaluationEngine(disk_cache=""))
            for _ in range(2):
                del checked[:], calls[:]
                execute(prepare(request))
                counts.append((
                    sum(of is kernel for of in checked),
                    calls.count("lint_kernel"),
                    calls.count("verify_pass"),
                ))
        finally:
            set_engine(previous)
        rewrites = run_pipeline(kernel, "copy-prop,dce,minreg-sched")
        assert counts == [(1, 1, rewrites.total_applied)] * 2


# ---------------------------------------------------------------------------
# The optimizer validates allocations only under ``verify``
# ---------------------------------------------------------------------------


class TestFaultInjectionWithVerify:
    def _optimize(self, verify):
        workload = load_workload("GAU")
        opt = CRATOptimizer(FERMI, engine=EvaluationEngine(), verify=verify)
        opt.optimize(
            workload.kernel,
            grid_blocks=4,
            param_sizes=workload.param_sizes,
        )

    def test_stats_stay_zero_without_verify(self, monkeypatch):
        """Counted at ``repro.verify.verify_allocation``, the name the
        optimizer imports at call time."""
        checker = V.verify_allocation
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("stage"))
            return checker(*args, **kwargs)

        monkeypatch.setattr(V, "verify_allocation", counting)
        self._optimize(verify=True)
        assert calls  # the patch sees every check the optimizer runs
        calls.clear()
        self._optimize(verify=False)
        assert calls == []
